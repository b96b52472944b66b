//! Metrics from a run, the printed summary, result files, and the
//! comparison of two result files.

use crate::calibrate;
use crate::config::config_diff;
use crate::probes::StoreProbe;
use crate::stats::{median, quartiles, relative_iqr, tail};
use crate::workload::{ran, steal_pct, JobRun, PassAgg, RunData, STEAL_LIMIT_PCT};
use ampc_bench::json::{parse_json, Json};
use ampc_core::algorithm::Model;
use ampc_dht::cost::CostConfig;
use ampc_runtime::driver::json_string;
use ampc_runtime::JobReport;
use std::sync::OnceLock;

/// `BENCHMARK.json`: the one list of every reported metric and its
/// unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of `BENCHMARK.json`'s `key` list, in order.
fn metric_list(key: &str) -> Vec<(String, String)> {
    let doc = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// End-to-end metrics, `(name, unit)`: what a user of a job sees.
/// Reported on every workload; never zero.
pub fn end_to_end() -> &'static [(String, String)] {
    static LIST: OnceLock<Vec<(String, String)>> = OnceLock::new();
    LIST.get_or_init(|| metric_list("end_to_end"))
}

/// Per-layer metrics, `(name, unit)`. A metric a workload does not
/// exercise reads 0 there.
pub fn per_layer() -> &'static [(String, String)] {
    static LIST: OnceLock<Vec<(String, String)>> = OnceLock::new();
    LIST.get_or_init(|| metric_list("per_layer"))
}

/// Families whose AMPC/MPC ratios are reported.
const CMP_FAMILIES: [&str; 5] = ["mis", "mm", "msf", "cc", "dyn-cc"];

/// Per-layer metrics only the traced run's probes measure.
const PROBE_ONLY: [&str; 8] = [
    "dht.put_s",
    "dht.seal_s",
    "dht.read_ns_per_key",
    "wire.load_ns_per_byte",
    "wire.get_ns_per_request",
    "runtime.round_fixed_us.p10",
    "runtime.round_fixed_us.p100",
    "trace.overhead_est_pct",
];

/// What the traced run's probes measured.
pub struct ProbeData {
    /// The store probe.
    pub store: StoreProbe,
    /// Empty KV round at 10 machines, µs.
    pub round_p10_us: f64,
    /// Empty KV round at 100 machines, µs.
    pub round_p100_us: f64,
    /// Cost of one span, ns (measured).
    pub ns_per_span: f64,
}

/// One measured metric with the samples its value came from.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Reported value.
    pub value: f64,
    /// The samples (per pass, per repetition), when there are several.
    pub samples: Vec<f64>,
}

/// All metrics of a run, in no particular order.
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Adds a metric named in `BENCHMARK.json`, with its unit there.
    fn push(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let value = if value.is_finite() { value } else { 0.0 };
        let unit = unit_of(name)
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
            .to_string();
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    fn per_pass(&mut self, name: &str, samples: Vec<f64>) {
        self.push(name, median(&samples), samples);
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|(n, _)| n == name)
        .map(|(_, u)| u.as_str())
}

/// A job's metric name, wall samples, the same in reference seconds,
/// and its last report.
type JobWalls<'a> = (String, Vec<f64>, Vec<f64>, Option<&'a JobReport>);

/// Computes every metric the run measured. Probe-based metrics are
/// present only when `probes` is.
pub fn collect(data: &RunData, probes: Option<&ProbeData>, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics(Vec::new());
    let passes = data.counted_passes();
    let agg = |model| -> Vec<PassAgg> {
        passes
            .iter()
            .map(|p| PassAgg::of(ran(&data.jobs, p), model))
            .filter(|a| a.jobs > 0)
            .collect()
    };
    let ampc = agg(Model::Ampc);
    // MPC baselines too slow to repeat run once, untimed, as the
    // reference; that run then stands in for a pass.
    let mpc: Vec<PassAgg> = if data.jobs.iter().any(|j| j.model == Model::Mpc) {
        agg(Model::Mpc)
    } else if data
        .reference_runs
        .iter()
        .any(|(j, _)| j.model == Model::Mpc)
    {
        vec![PassAgg::of(
            data.reference_runs.iter().map(|(j, r)| (j, r)),
            Model::Mpc,
        )]
    } else {
        vec![]
    };
    // Per job: its wall samples, the same in reference seconds, and its
    // last report, keyed by metric.
    let mut walls: Vec<JobWalls> = data
        .jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let runs: Vec<&JobRun> = passes.iter().filter_map(|p| p[i].as_ref()).collect();
            (
                j.metric(),
                runs.iter().map(|r| r.wall_s()).collect(),
                runs.iter().map(|r| r.reference_s()).collect(),
                runs.last().and_then(|r| r.report()),
            )
        })
        .collect();
    for (j, r) in &data.reference_runs {
        if j.model == Model::Mpc && !walls.iter().any(|(m, ..)| *m == j.metric()) {
            walls.push((j.metric(), vec![r.wall_s()], vec![], r.report()));
        }
    }
    let wall_of = |metric: &str| walls.iter().find(|(m, ..)| m == metric);

    // End to end, in reference seconds where the workload is calibrated
    // (see `calibrate`).
    m.push("setup_s", data.setup_s(), vec![]);
    let ampc_jobs = || {
        data.jobs
            .iter()
            .filter(|j| j.model == Model::Ampc)
            .filter_map(|j| wall_of(&j.metric()))
    };
    m.push(
        "ampc_s",
        ampc_jobs().map(|(_, _, refs, _)| median(refs)).sum(),
        ampc.iter().map(|a| a.reference_s).collect(),
    );
    m.push("peak_rss_mb", peak_rss_mb, vec![]);
    m.push(
        "ampc_wall_s",
        ampc_jobs().map(|(_, walls, _, _)| median(walls)).sum(),
        ampc.iter().map(|a| a.wall_ns as f64 / 1e9).collect(),
    );
    m.push("setup_wall_s", data.setup_wall_s(), vec![]);
    m.per_pass("host.calibration_s", data.calibration_s.clone());

    // Per job.
    for (metric, samples, ..) in &walls {
        m.per_pass(metric, samples.clone());
    }
    for family in CMP_FAMILIES {
        let key = family.replace('-', "_");
        let (Some((_, a, _, ra)), Some((_, b, _, rb))) = (
            wall_of(&format!("{key}_s")),
            wall_of(&format!("mpc_{key}_s")),
        ) else {
            continue;
        };
        let sim = |r: &Option<&JobReport>| r.map_or(0.0, |r| r.sim_ns() as f64);
        m.push(
            &format!("cmp.{family}.wall_ratio"),
            median(b) / median(a),
            vec![],
        );
        m.push(
            &format!("cmp.{family}.sim_ratio"),
            sim(rb) / sim(ra),
            vec![],
        );
    }

    // Per layer, from the passes: each value is the median over passes
    // of the per-pass sum over the workload's AMPC (or MPC) jobs.
    let f = |sel: &dyn Fn(&PassAgg) -> f64, aggs: &[PassAgg]| {
        aggs.iter().map(sel).collect::<Vec<f64>>()
    };
    m.per_pass("graph.generate_s", data.gen_s.clone());
    m.per_pass("socket.spawn_s", data.spawn_s.clone());
    m.per_pass(
        "dht.peak_generation_bytes",
        f(&|a| a.peak_generation_bytes as f64, &ampc),
    );
    m.per_pass("dht.queries", f(&|a| a.comm.queries as f64, &ampc));
    m.per_pass("dht.batches", f(&|a| a.comm.batches as f64, &ampc));
    m.per_pass(
        "dht.round_trips",
        f(&|a| a.comm.round_trips() as f64, &ampc),
    );
    m.per_pass("dht.kv_bytes", f(&|a| a.comm.kv_bytes() as f64, &ampc));
    m.per_pass("dht.cache_hits", f(&|a| a.comm.cache_hits as f64, &ampc));
    m.per_pass("dht.cache_hit_rate", f(&|a| a.comm.cache_hit_rate(), &ampc));
    m.per_pass("dht.bytes_cloned", f(&|a| a.bytes_cloned as f64, &ampc));
    m.per_pass("dht.values_cloned", f(&|a| a.values_cloned as f64, &ampc));
    m.per_pass("dht.retries", f(&|a| a.comm.retries as f64, &ampc));
    m.per_pass(
        "dht.wasted_batches",
        f(&|a| a.comm.wasted_batches as f64, &ampc),
    );
    m.per_pass(
        "dht.backoff_units",
        f(&|a| a.comm.backoff_units as f64, &ampc),
    );
    let requests = f(&|a| a.wire.requests as f64, &ampc);
    let spread = requests.iter().copied().fold(f64::NAN, f64::max)
        - requests.iter().copied().fold(f64::NAN, f64::min);
    m.per_pass("wire.requests", requests);
    m.push("wire.requests_spread", spread, vec![]);
    m.per_pass(
        "wire.bytes",
        f(
            &|a| (a.wire.bytes_sent + a.wire.bytes_received) as f64,
            &ampc,
        ),
    );
    m.per_pass("wire.reconnects", f(&|a| a.wire.reconnects as f64, &ampc));
    // Spawns happen in set-up; count the whole run.
    m.push("wire.spawns", data.wire_total.spawns as f64, vec![]);
    m.per_pass(
        "runtime.kv_round_s",
        f(&|a| a.kv_round_ns as f64 / 1e9, &ampc),
    );
    m.per_pass("runtime.local_s", f(&|a| a.local_ns as f64 / 1e9, &ampc));
    m.per_pass(
        "runtime.outside_stage_s",
        f(&|a| a.outside_stage_ns() as f64 / 1e9, &ampc),
    );
    m.per_pass(
        "mpc.runtime.outside_stage_s",
        f(&|a| a.outside_stage_ns() as f64 / 1e9, &mpc),
    );
    m.per_pass("runtime.cpu_s", f(&|a| a.cpu_s, &ampc));
    m.per_pass("mpc.runtime.cpu_s", f(&|a| a.cpu_s, &mpc));
    // Over every pass, the ones left out too.
    m.per_pass(
        "host.steal_pct",
        data.passes.iter().map(|p| steal_pct(p)).collect(),
    );
    m.push(
        "host.contended_passes",
        (data.passes.len() - passes.len()) as f64,
        vec![],
    );
    m.per_pass("runtime.kv_rounds", f(&|a| a.kv_rounds as f64, &ampc));
    m.per_pass("runtime.shuffles", f(&|a| a.shuffles as f64, &ampc));
    m.per_pass("runtime.epochs", f(&|a| a.epochs as f64, &ampc));
    m.per_pass("runtime.replays", f(&|a| a.replays as f64, &ampc));
    m.per_pass(
        "runtime.shuffle_bytes",
        f(&|a| a.shuffle_bytes as f64, &ampc),
    );
    m.per_pass("runtime.shuffle_skew", f(&|a| a.shuffle_skew(), &ampc));
    m.per_pass("core.ops", f(&|a| a.ops as f64, &ampc));
    m.per_pass("sim.sim_s", f(&|a| a.sim_ns as f64 / 1e9, &ampc));
    m.per_pass("mpc.core.ops", f(&|a| a.ops as f64, &mpc));
    m.per_pass("mpc.sim.sim_s", f(&|a| a.sim_ns as f64 / 1e9, &mpc));
    m.push("error_rate", data.ledger.error_rate(), vec![]);

    if let Some(p) = probes {
        let s = &p.store;
        m.push("dht.put_s", s.put_s, vec![]);
        m.push("dht.seal_s", s.seal_s, vec![]);
        m.push("dht.read_ns_per_key", s.read_ns_per_key, vec![]);
        m.push("wire.load_ns_per_byte", s.load_ns_per_byte, vec![]);
        m.push("wire.get_ns_per_request", s.get_ns_per_request, vec![]);
        m.push("runtime.round_fixed_us.p10", p.round_p10_us, vec![]);
        m.push("runtime.round_fixed_us.p100", p.round_p100_us, vec![]);
        // An estimate: spans recorded × the cost of one span. The
        // measured overhead is the difference between this run and an
        // untraced one (see `measured_overhead` and `compare`).
        let overhead = data.timed_spans as f64 * p.ns_per_span / (data.timed_s * 1e9) * 100.0;
        m.push("trace.overhead_est_pct", overhead, vec![]);
    }
    m
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// The human-readable summary printed before the result line.
/// `measured` is the measured tracing-overhead line of a traced run.
pub fn summary(
    data: &RunData,
    metrics: &Metrics,
    probes: Option<&ProbeData>,
    measured: Option<&str>,
) -> String {
    let mut out = String::new();
    let s = &data.settings;
    let (n, m) = data.graph_size;
    out += &format!(
        "perfbench {} seed={}: {} timed pass(es) in {:.1} s; graph {} at {} (n={n}, m={m})\n",
        s.workload.name(),
        s.seed,
        data.passes.len(),
        data.timed_s,
        s.dataset.name(),
        crate::config::scale_token(s.scale),
    );
    let record: Vec<String> = s.record().iter().map(|(k, v)| format!("{k}={v}")).collect();
    out += &format!("config: {}\n", record.join(" "));
    out += &format!(
        "checks: {} jobs attempted, {} failed\n",
        data.ledger.attempted, data.ledger.failed
    );
    for f in &data.ledger.failures {
        out += &format!("  FAILED {f}\n");
    }

    let steal: Vec<String> = data
        .passes
        .iter()
        .map(|p| format!("{:.1}", steal_pct(p)))
        .collect();
    out += &format!(
        "host steal per pass, %: [{}]; passes above {STEAL_LIMIT_PCT} % are left out of the \
         metrics below ({} left out)\n",
        steal.join(", "),
        metrics
            .get("host.contended_passes")
            .map_or(0.0, |x| x.value)
    );

    out += "\nend to end (median; q1..q3 over the samples; n samples):\n";
    for (name, _) in end_to_end() {
        if let Some(x) = metrics.get(name) {
            out += &metric_line(x);
        }
    }
    if s.calibrated {
        out += &format!(
            "  ampc_s and setup_s in reference seconds: wall × {} s ÷ the calibration kernel's \
             time beside it (host.calibration_s, median {:.4} s)\n",
            calibrate::REFERENCE_S,
            metrics.get("host.calibration_s").map_or(0.0, |x| x.value),
        );
    } else {
        out += "  ampc_s and setup_s in wall seconds (this workload is not calibrated)\n";
    }
    out += &format!(
        "  ampc_s wall {:.4} s\n",
        metrics.get("ampc_wall_s").map_or(0.0, |x| x.value)
    );
    out += &format!(
        "  setup_s wall {:.4} s = generation {:.4} s + spawn {:.4} s (medians of {} repetitions) \
         + warm-up pass {:.4} s (the least contended of {} run)\n",
        data.setup_wall_s(),
        median(&data.gen_s),
        median(&data.spawn_s),
        crate::workload::SETUP_REPS,
        data.warmup_s(),
        data.warmups,
    );

    out += "\njobs (wall per pass, timed from outside the registry call):\n";
    for job in &data.jobs {
        if let Some(x) = metrics.get(&job.metric()) {
            out += &metric_line(x);
        }
    }

    out += "\nMPC/AMPC ratios per family, wall next to sim (>1: AMPC faster):\n";
    out += "  family   wall     sim      agree\n";
    for family in CMP_FAMILIES {
        let (Some(w), Some(sm)) = (
            metrics.get(&format!("cmp.{family}.wall_ratio")),
            metrics.get(&format!("cmp.{family}.sim_ratio")),
        ) else {
            continue;
        };
        let agree = (w.value > 1.0) == (sm.value > 1.0);
        out += &format!(
            "  {family:<8} {:<8.3} {:<8.3} {}\n",
            w.value,
            sm.value,
            if agree {
                "yes"
            } else {
                "NO: wall and sim disagree on which model wins"
            }
        );
    }

    let requests: Vec<f64> = metrics
        .get("wire.requests")
        .map_or(vec![], |x| x.samples.clone());
    if requests.iter().any(|&r| r > 0.0) {
        let [q1, _, q3] = quartiles(&requests);
        out += &format!(
            "\nwire.requests per pass: median {} (q1 {q1}, q3 {q3}, spread {}) — not exact at \
             {} threads: racing SocketSubstrate memo fetches send duplicate GETs\n",
            median(&requests),
            metrics.get("wire.requests_spread").map_or(0.0, |x| x.value),
            crate::config::THREADS,
        );
    }

    if let Some(p) = probes {
        let cost = CostConfig::default();
        let st = &p.store;
        out += &format!(
            "\nstore probe: {} u64 entries ({} bytes sealed): put {:.4} s, seal {:.4} s \
             (flat seal {:.4} s), read {:.1} ns/key, {} mismatches\n",
            st.entries,
            st.generation_bytes,
            st.put_s,
            st.seal_s,
            st.flat_seal_s,
            st.read_ns_per_key,
            st.mismatches,
        );
        if let Some((pct, v)) = tail(&st.batch_us) {
            out += &format!(
                "  read batch latency: median {:.1} us, p{pct} {v:.1} us ({} batches)\n",
                median(&st.batch_us),
                st.batch_us.len()
            );
        }
        if st.get_ns_per_request > 0.0 {
            out += &format!(
                "calibration: wire.get_ns_per_request {:.0} ns per GET frame of up to 1024 keys, \
                 vs the §6 simulated lookup latency {} ns (RDMA) / {} ns (TCP); \
                 wire.load_ns_per_byte {:.2} ns vs the simulated {:.2} ns/byte bandwidth\n",
                st.get_ns_per_request,
                cost.rdma_latency_ns,
                cost.tcp_latency_ns,
                st.load_ns_per_byte,
                1e9 / cost.kv_bandwidth_bps as f64,
            );
        }
        out += &format!(
            "empty KV round: {:.1} us at 10 machines, {:.1} us at 100\n",
            p.round_p10_us, p.round_p100_us
        );
        out += &format!(
            "tracing overhead, estimated: {} spans in the timed passes at {:.0} ns each, \
             about {:.5} % of their wall (the measured figure is the difference from an \
             untraced run, next line, or `compare` of the two result sets)\n",
            data.timed_spans,
            p.ns_per_span,
            metrics
                .get("trace.overhead_est_pct")
                .map_or(0.0, |x| x.value)
        );
        out += measured.unwrap_or_default();
    }

    out += "\nper layer:\n";
    for (name, unit) in per_layer() {
        let name = name.as_str();
        match metrics.get(name) {
            Some(x) => out += &format!("  {name:<32} {:>16} {unit}\n", fmt_value(x.value)),
            None if PROBE_ONLY.contains(&name) => {
                out += &format!("  {name:<32} {:>16} (probe: traced runs only)\n", "-")
            }
            None => out += &format!("  {name:<32} {:>16} (not run on this workload)\n", "-"),
        }
    }
    out
}

fn metric_line(x: &Metric) -> String {
    let mut line = format!("  {:<14} {:>12} {}", x.name, fmt_value(x.value), x.unit);
    if x.samples.len() > 1 {
        let [q1, _, q3] = quartiles(&x.samples);
        line += &format!(
            "  q1 {} q3 {} (iqr/median {:.3}, n={})",
            fmt_value(q1),
            fmt_value(q3),
            relative_iqr(&x.samples),
            x.samples.len()
        );
    }
    if let Some((pct, v)) = tail(&x.samples) {
        line += &format!(" p{pct} {}", fmt_value(v));
    }
    line + "\n"
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line a run ends with: `--trace 0` reports the end-to-end
/// metrics, `--trace 1` the per-layer ones. Metrics the run did not
/// measure read 0.
pub fn result_line(data: &RunData, metrics: &Metrics, traced: bool) -> String {
    let list = if traced { per_layer() } else { end_to_end() };
    let body: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).map_or(0.0, |x| x.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                num(v),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        data.ledger.failed == 0,
        data.ledger.attempted,
        data.ledger.failed,
        body.join(", ")
    )
}

/// The full result set of a run: configuration, checks and every
/// metric with its samples. `compare` reads these back.
pub fn result_file(data: &RunData, metrics: &Metrics, traced: bool) -> String {
    let config: Vec<String> = data
        .settings
        .record()
        .iter()
        .map(|(k, v)| format!("    {}: {}", json_string(k), json_string(v)))
        .collect();
    let failures: Vec<String> = data
        .ledger
        .failures
        .iter()
        .map(|f| json_string(f))
        .collect();
    let rows: Vec<String> = metrics
        .0
        .iter()
        .map(|x| {
            let samples: Vec<String> = x.samples.iter().map(|&s| num(s)).collect();
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": [{}]}}",
                json_string(&x.name),
                num(x.value),
                json_string(&x.unit),
                samples.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"config\": {{\n{}\n  }},\n  \"trace\": {traced},\n  \"correct\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        config.join(",\n"),
        data.ledger.failed == 0,
        data.ledger.attempted,
        data.ledger.failed,
        failures.join(", "),
        rows.join(",\n")
    )
}

fn parse_result(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn config_of(doc: &Json) -> Vec<(String, String)> {
    match doc.get("config") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect(),
        _ => Vec::new(),
    }
}

fn is_traced(doc: &Json) -> bool {
    matches!(doc.get("trace"), Some(Json::Bool(true)))
}

/// The measured tracing overhead of a traced run: its `ampc_s` against
/// that of the untraced result set at `untraced`, if that file exists
/// and records the same configuration. The difference also holds the
/// run-to-run spread of `ampc_s`.
pub fn measured_overhead(untraced: &str, data: &RunData, metrics: &Metrics) -> Option<String> {
    let doc = parse_result(untraced).ok()?;
    if is_traced(&doc) || !config_diff(&config_of(&doc), &data.settings.record()).is_empty() {
        return None;
    }
    let before = doc.get("metrics")?.get("ampc_s")?.get("value")?.as_f64()?;
    let after = metrics.get("ampc_s")?.value;
    Some(format!(
        "tracing overhead, measured: ampc_s {after:.4} s traced vs {before:.4} s untraced \
         ({untraced}): {:+.2} %, run-to-run spread included\n",
        (after / before - 1.0) * 100.0
    ))
}

/// Compares two result files metric by metric. Refuses (returns the
/// differing settings) when their recorded configurations differ;
/// when exactly one of them is traced, the differences are the
/// tracing overhead.
pub fn compare(path_a: &str, path_b: &str) -> Result<String, String> {
    let (a, b) = (parse_result(path_a)?, parse_result(path_b)?);
    let diff = config_diff(&config_of(&a), &config_of(&b));
    if !diff.is_empty() {
        return Err(format!(
            "refusing to compare result sets with different configurations:\n  {}",
            diff.join("\n  ")
        ));
    }
    let mut out = format!("A = {path_a}\nB = {path_b}\n");
    if is_traced(&a) != is_traced(&b) {
        out += "one side is traced: the differences below are the tracing overhead \
                (traced minus untraced)\n";
    }
    out += &format!(
        "{:<32} {:>14} {:>14} {:>9}  unit\n",
        "metric", "A", "B", "B/A-1"
    );
    let Some(Json::Obj(metrics_a)) = a.get("metrics") else {
        return Err(format!("{path_a}: no metrics"));
    };
    for (name, ma) in metrics_a {
        let va = ma.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let Some(vb) = b
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        let change = if va == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}%", (vb / va - 1.0) * 100.0)
        };
        out += &format!(
            "{name:<32} {:>14} {:>14} {change:>9}  {}\n",
            fmt_value(va),
            fmt_value(vb),
            unit_of(name).unwrap_or_default()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Settings, Workload};
    use crate::trace::Tracer;
    use ampc_graph::datasets::Scale;

    #[test]
    fn benchmark_json_names_the_workloads() {
        let doc = parse_json(BENCHMARK_JSON).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(end_to_end().len(), 3);
        assert!(PROBE_ONLY.iter().all(|p| unit_of(p).is_some()));
    }

    /// Every metric `BENCHMARK.json` names is computed by some workload
    /// (checked on the small test-scale graphs; probes stubbed).
    #[test]
    fn every_listed_metric_is_computed() {
        let probes = ProbeData {
            store: StoreProbe::default(),
            round_p10_us: 1.0,
            round_p100_us: 1.0,
            ns_per_span: 1.0,
        };
        let mut computed: Vec<String> = Vec::new();
        for w in [Workload::StaticInmem, Workload::DynamicChaos] {
            let settings = Settings {
                scale: Scale::Test,
                ..Settings::new(w, crate::config::DEFAULT_SEED)
            };
            let data = crate::workload::run(&settings, 0.01, &mut Tracer::new(false));
            let metrics = collect(&data, Some(&probes), 1.0);
            computed.extend(metrics.0.into_iter().map(|m| m.name));
        }
        for (name, _) in end_to_end().iter().chain(per_layer()) {
            assert!(computed.contains(name), "{name} is never computed");
        }
    }

    fn write_result(
        dir: &std::path::Path,
        name: &str,
        config: &[(&str, &str)],
        traced: bool,
    ) -> String {
        let cfg: Vec<String> = config
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        let text = format!(
            "{{\"config\": {{{}}}, \"trace\": {traced}, \"metrics\": {{\"ampc_s\": \
             {{\"value\": 2.0, \"unit\": \"s\", \"samples\": [2.0]}}}}}}",
            cfg.join(", ")
        );
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_refuses_differing_configs() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = write_result(
            &dir,
            "a.json",
            &[("threads", "2"), ("store", "flat")],
            false,
        );
        let b = write_result(
            &dir,
            "b.json",
            &[("threads", "1"), ("store", "flat")],
            false,
        );
        let c = write_result(&dir, "c.json", &[("threads", "2"), ("store", "flat")], true);
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("threads: 2 vs 1"), "{err}");
        let ok = compare(&a, &c).unwrap();
        assert!(ok.contains("tracing overhead"), "{ok}");
        assert!(ok.contains("ampc_s"), "{ok}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
