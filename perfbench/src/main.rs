//! `perfbench` — the repository's wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! perfbench compare <result-a.json> <result-b.json>
//! ```
//!
//! A run pins every setting of the workload, generates its inputs from
//! the seed, sets up (timed), computes reference outputs (untimed),
//! then runs timed passes of whole registry jobs for `--seconds`. It
//! prints a summary of every metric by name and unit, writes its result
//! set (and, traced, its spans) under `--out-dir`, and ends with one
//! JSON line: end-to-end metrics untraced, per-layer metrics traced.
//! See README.md.

mod calibrate;
mod config;
mod probes;
mod report;
mod stats;
mod trace;
mod workload;

use ampc_core::algorithm::Model;
use config::{Settings, Workload};
use std::path::{Path, PathBuf};
use trace::Tracer;

const USAGE: &str = "usage:
  perfbench --workload <static-inmem|static-socket|dynamic-chaos> --seed <n> \
--seconds <s> --trace <0|1> [--out-dir <dir>]
  perfbench compare <result-a.json> <result-b.json>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = config::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        match report::compare(a, b) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let settings = Settings::new(args.workload, args.seed);
    let pins = settings.env_pins();
    if let Err(e) = config::check_ambient(&pins, std::env::vars()) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    // Single-threaded still: no library code has read a knob yet.
    config::apply_pins(&pins);
    run(&settings, &args);
}

fn run(settings: &Settings, args: &Args) {
    let mut tracer = Tracer::new(args.trace);
    let mut data = workload::run(settings, args.seconds, &mut tracer);

    let probes = args.trace.then(|| {
        let span = tracer.enter("probes");
        let last_pass = data.passes.last().expect("a run has at least one pass");
        let peak = workload::PassAgg::of(workload::ran(&data.jobs, last_pass), Model::Ampc)
            .peak_generation_bytes;
        let store = probes::store_probe(settings.store, peak, settings.seed, &mut tracer);
        let round_p10_us = probes::round_probe(settings, 10, &mut tracer);
        let round_p100_us = probes::round_probe(settings, 100, &mut tracer);
        tracer.exit(span);
        report::ProbeData {
            store,
            round_p10_us,
            round_p100_us,
            ns_per_span: span_cost_ns(),
        }
    });
    if let Some(p) = &probes {
        data.ledger.record(
            "probe dht store",
            if p.store.mismatches == 0 {
                vec![]
            } else {
                vec![format!("{} values read back wrong", p.store.mismatches)]
            },
        );
    }

    let peak_rss_mb = peak_rss_kb() as f64 / 1024.0;
    if settings.store == ampc_dht::store::StoreKind::Socket {
        // Stop the shard servers and wait for them to exit.
        ampc_dht::socket::cluster().shutdown();
    }

    let metrics = report::collect(&data, probes.as_ref(), peak_rss_mb);
    let results = |traced: bool| {
        args.out_dir.as_ref().map(|dir| {
            dir.join("results").join(format!(
                "{}-seed{}-trace{}.json",
                settings.workload.name(),
                settings.seed,
                u8::from(traced)
            ))
        })
    };
    let measured = match (args.trace, results(false)) {
        (true, Some(untraced)) => {
            let untraced = untraced.to_string_lossy();
            report::measured_overhead(&untraced, &data, &metrics).or_else(|| {
                Some(format!(
                    "tracing overhead, measured: no untraced result set with this \
                     configuration at {untraced}; run this workload and seed with --trace 0 first\n"
                ))
            })
        }
        _ => None,
    };
    print!(
        "{}",
        report::summary(&data, &metrics, probes.as_ref(), measured.as_deref())
    );
    if args.trace {
        println!("\nspan self time (duration minus child spans), summed by name:");
        for (name, ns) in tracer.self_times_ns() {
            println!("  {name:<40} {:>12.4} s", ns as f64 / 1e9);
        }
    }
    if let (Some(dir), Some(path)) = (&args.out_dir, results(args.trace)) {
        write_out(&path, &report::result_file(&data, &metrics, args.trace));
        if args.trace {
            let name = path.file_name().expect("a result path names a file");
            write_out(&dir.join("traces").join(name), &tracer.to_chrome_json());
        }
    }
    println!("{}", report::result_line(&data, &metrics, args.trace));
}

fn write_out(path: &Path, text: &str) {
    let dir = path.parent().expect("an output path has a directory");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, text)) {
        Ok(()) => eprintln!("perfbench: wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Cost of one recorded span, measured on a scratch tracer.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new(true);
    let start = std::time::Instant::now();
    for _ in 0..N {
        let id = t.enter("pass 1 ampc/mis");
        t.exit(id);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// `VmHWM` of a process from procfs, kB.
fn vm_hwm_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Resident-memory high-water mark of this process plus its live child
/// processes (the shard servers), kB. The marks need not coincide in
/// time, so the sum bounds the joint peak from above.
fn peak_rss_kb() -> u64 {
    let mut children = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
                children.extend(list.split_whitespace().map(str::to_string));
            }
        }
    }
    vm_hwm_kb("self") + children.iter().map(|pid| vm_hwm_kb(pid)).sum::<u64>()
}
