//! One run of one workload: set-up, reference outputs, timed passes of
//! whole registry jobs, and the output checks.
//!
//! Every job goes through `ampc_bench::registry::run_family_with` and is
//! timed from outside the call. A job counts as failed when it panics,
//! returns an error, fails the registry's `validate`, or produces a
//! digest other than the workload's reference — see [`Ledger`].

use crate::calibrate::{to_reference, Calibrator};
use crate::config::{
    Settings, Workload, BATCHING, CACHING, HOT_KEYS, MACHINES, SOCKET_SHARDS, THREADS,
};
use crate::stats::median;
use crate::trace::Tracer;
use ampc_bench::registry::{self, AlgoParams};
use ampc_bench::util::harness_config;
use ampc_core::algorithm::{AlgoInput, AlgoOutput, Model};
use ampc_dht::metrics::CommStats;
use ampc_dht::socket::{wire_metrics, SocketCluster, WireMetrics};
use ampc_dht::store::StoreKind;
use ampc_graph::dynamic::BatchMix;
use ampc_graph::{gen, CsrGraph, WeightedCsrGraph};
use ampc_runtime::{AmpcConfig, JobReport, StageKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up repetitions whose median is reported (graph generation and,
/// under the socket store, shard-server spawn).
pub const SETUP_REPS: usize = 3;

/// Host steal, %, above which a timed pass is left out of the timings.
/// Steal is processor time the hypervisor gave to other guests; a
/// socket round trip waits out every such gap, so a pass at 30 % steal
/// runs 2–3× slower. On a quiet host the passes read 0–3 %.
pub const STEAL_LIMIT_PCT: f64 = 10.0;

/// The timed passes that run the workload's MPC baselines: every
/// `MPC_EVERY`-th, starting with the first. MPC MSF alone takes about
/// 60 % of a full `static-inmem` pass, so running the baselines in every
/// pass would leave a run only four or five samples of each AMPC job.
pub const MPC_EVERY: usize = 4;

/// One job of a pass.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Registry family.
    pub family: &'static str,
    /// Model backend.
    pub model: Model,
    /// Sealed-store substrate the job runs on.
    pub store: StoreKind,
    /// Whether the workload's chaos schedule applies.
    pub chaos: bool,
}

impl JobSpec {
    /// The job's wall-time metric name: `mis_s`, `mpc_mis_s`,
    /// `dyn_cc_s`, …
    pub fn metric(&self) -> String {
        let prefix = if self.model == Model::Mpc { "mpc_" } else { "" };
        format!("{prefix}{}_s", self.family.replace('-', "_"))
    }

    /// Span and message label: `ampc/mis`, `mpc/dyn-cc`, …
    pub fn label(&self) -> String {
        format!("{}/{}", self.model.token(), self.family)
    }
}

fn job(family: &'static str, model: Model, store: StoreKind, chaos: bool) -> JobSpec {
    JobSpec {
        family,
        model,
        store,
        chaos,
    }
}

/// The jobs of one pass of `settings.workload`, in execution order. The
/// MPC baseline of a family runs right after its AMPC job so both see
/// the same machine state.
pub fn jobs(settings: &Settings) -> Vec<JobSpec> {
    let flat = StoreKind::Flat;
    match settings.workload {
        Workload::StaticInmem => ["mis", "mm", "msf", "cc"]
            .into_iter()
            .flat_map(|f| {
                [
                    job(f, Model::Ampc, flat, false),
                    job(f, Model::Mpc, flat, false),
                ]
            })
            .collect(),
        Workload::StaticSocket => ["mis", "mm", "msf", "cc"]
            .into_iter()
            .map(|f| job(f, Model::Ampc, StoreKind::Socket, false))
            .collect(),
        Workload::DynamicChaos => vec![job("dyn-cc", Model::Ampc, flat, true)],
    }
}

/// Jobs run once per run, untimed, to produce reference outputs: on
/// `static-inmem`, the MPC baselines (the warm-up pass runs only the
/// AMPC jobs); under the socket store, every AMPC job on the flat store
/// (the socket runs must reproduce its digest and `CommStats`); on
/// `dynamic-chaos`, the fault-free MPC recompute (8 s, too slow to
/// repeat in every pass; its wall is still recorded, as a single
/// sample).
pub fn reference_jobs(settings: &Settings) -> Vec<JobSpec> {
    match settings.workload {
        Workload::StaticInmem => jobs(settings)
            .into_iter()
            .filter(|j| j.model == Model::Mpc)
            .collect(),
        Workload::StaticSocket => jobs(settings)
            .into_iter()
            .map(|j| JobSpec {
                store: StoreKind::Flat,
                ..j
            })
            .collect(),
        Workload::DynamicChaos => vec![job("dyn-cc", Model::Mpc, StoreKind::Flat, false)],
    }
}

/// The generated inputs.
pub struct Inputs {
    graph: CsrGraph,
    weighted: Option<WeightedCsrGraph>,
}

impl Inputs {
    /// Generates the workload's graph (and its §5.2 degree-weighted
    /// variant for the static workloads, which run MSF).
    pub fn generate(settings: &Settings) -> Inputs {
        let graph = settings
            .dataset
            .generate(settings.scale, settings.graph_seed);
        let weighted =
            (settings.workload != Workload::DynamicChaos).then(|| gen::degree_weights(&graph));
        Inputs { graph, weighted }
    }

    /// The input a family consumes.
    pub fn input_for(&self, family: &str) -> AlgoInput<'_> {
        match (family, &self.weighted) {
            ("msf", Some(w)) => AlgoInput::Weighted(w),
            _ => AlgoInput::Unweighted(&self.graph),
        }
    }

    /// `(n, m)` of the graph.
    pub fn size(&self) -> (usize, usize) {
        (self.graph.num_nodes(), self.graph.num_edges())
    }
}

/// Algorithm parameters of the workload (only dyn-cc reads them).
pub fn params(settings: &Settings) -> AlgoParams {
    AlgoParams {
        dyn_batches: settings.dyn_batches,
        dyn_ops: settings.dyn_ops,
        dyn_mix: BatchMix::Churn,
        dyn_seed: settings.dyn_seed,
        ..AlgoParams::default()
    }
}

/// The runtime configuration of one job, every knob explicit.
pub fn job_config(settings: &Settings, job: &JobSpec) -> AmpcConfig {
    let mut cfg = harness_config(settings.scale)
        .with_machines(MACHINES)
        .with_threads(THREADS)
        .with_batching(BATCHING)
        .with_caching(CACHING)
        .with_hot_keys(HOT_KEYS)
        .with_store(job.store);
    cfg.chaos = if job.chaos { settings.chaos } else { None };
    cfg
}

/// One executed job. Only the output's digest is kept, so the memory a
/// run holds does not grow with its number of passes.
pub struct JobRun {
    /// Wall time of the registry call, measured from outside.
    pub wall_ns: u64,
    /// The output digest and the job's report, or why the job failed.
    pub result: Result<(u64, JobReport), String>,
    /// Transport counters the job moved.
    pub wire: WireMetrics,
    /// Stored-value clones the job made (`ampc_dht::probe`).
    pub bytes_cloned: u64,
    /// Number of those clones.
    pub values_cloned: u64,
    /// CPU time of the whole process (all threads) during the job, s.
    pub cpu_s: f64,
    /// CPU time the hypervisor stole from the host during the job, s.
    pub steal_s: f64,
    /// Mean of the calibration samples taken right before and right
    /// after the job, s (see [`crate::calibrate`]; 0 for a job run
    /// outside a pass or on a workload that is not calibrated).
    pub calibration_s: f64,
}

/// Kernel clock ticks per second (`CLK_TCK`; 100 on Linux).
const CLK_TCK: f64 = 100.0;

/// User + system CPU time of this process so far, s.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    ticks as f64 / CLK_TCK
}

/// CPU time stolen from this host's processors by the hypervisor so
/// far, summed over processors, s.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse::<u64>().ok())
        .unwrap_or(0);
    steal as f64 / CLK_TCK
}

impl JobRun {
    /// The output digest, if the job produced an output.
    pub fn digest(&self) -> Option<u64> {
        self.result.as_ref().ok().map(|(digest, _)| *digest)
    }

    /// The job's report, if it produced one.
    pub fn report(&self) -> Option<&JobReport> {
        self.result.as_ref().ok().map(|(_, report)| report)
    }

    /// Wall time of the job, s.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Time of the job in reference seconds, or its wall time if it was
    /// not calibrated.
    pub fn reference_s(&self) -> f64 {
        if self.calibration_s > 0.0 {
            to_reference(self.wall_s(), self.calibration_s)
        } else {
            self.wall_s()
        }
    }
}

/// One pass: for every job of the workload, in [`jobs`] order, its run,
/// or `None` where the pass left the job out (see [`MPC_EVERY`]).
pub type Pass = Vec<Option<JobRun>>;

/// The jobs a pass ran, with their runs.
pub fn ran<'a>(
    jobs: &'a [JobSpec],
    pass: &'a [Option<JobRun>],
) -> impl Iterator<Item = (&'a JobSpec, &'a JobRun)> {
    jobs.iter()
        .zip(pass)
        .filter_map(|(job, run)| run.as_ref().map(|run| (job, run)))
}

fn wire_delta(a: WireMetrics, b: WireMetrics) -> WireMetrics {
    WireMetrics {
        requests: b.requests - a.requests,
        bytes_sent: b.bytes_sent - a.bytes_sent,
        bytes_received: b.bytes_received - a.bytes_received,
        reconnects: b.reconnects - a.reconnects,
        spawns: b.spawns - a.spawns,
    }
}

/// Runs one job through the registry, catching panics. Returns the
/// output beside the run for callers that validate it; the timed
/// passes drop it at once.
pub fn run_job(
    settings: &Settings,
    inputs: &Inputs,
    job: &JobSpec,
    tracer: &mut Tracer,
    phase: &str,
) -> (JobRun, Option<AlgoOutput>) {
    let cfg = job_config(settings, job);
    let params = params(settings);
    let input = inputs.input_for(job.family);
    let span = tracer.enter(&format!("{phase} {}", job.label()));
    let (w0, b0, v0) = (
        wire_metrics(),
        ampc_dht::probe::bytes_cloned(),
        ampc_dht::probe::values_cloned(),
    );
    let (cpu0, steal0) = (process_cpu_s(), host_steal_s());
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        registry::run_family_with(job.family, job.model, &input, &cfg, &params)
    }));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (cpu_s, steal_s) = (process_cpu_s() - cpu0, host_steal_s() - steal0);
    let (w1, b1, v1) = (
        wire_metrics(),
        ampc_dht::probe::bytes_cloned(),
        ampc_dht::probe::values_cloned(),
    );
    tracer.exit(span);
    let (result, output) = match outcome {
        Ok(Ok(driven)) => (
            Ok((driven.output.digest(), driven.report)),
            Some(driven.output),
        ),
        Ok(Err(e)) => (Err(e), None),
        Err(payload) => (
            Err(format!(
                "panicked: {}",
                payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string payload>")
            )),
            None,
        ),
    };
    let run = JobRun {
        wall_ns,
        result,
        wire: wire_delta(w0, w1),
        bytes_cloned: b1 - b0,
        values_cloned: v1 - v0,
        cpu_s,
        steal_s,
        calibration_s: 0.0,
    };
    (run, output)
}

/// Attempted and failed jobs, with the reason for every failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Jobs attempted (warm-up, reference and timed).
    pub attempted: u64,
    /// Jobs that failed any check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one job with the outcome of all its checks: the job
    /// fails if any check produced a message.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }

    /// Failed jobs over attempted jobs.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a job's output is checked against.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    /// Reference digest per family.
    pub digests: Vec<(&'static str, u64)>,
    /// Flat-store `CommStats` per AMPC family (socket workload only: a
    /// socket run must account exactly what the flat run did).
    pub flat_comm: Vec<(&'static str, CommStats)>,
}

impl Reference {
    fn digest(&self, family: &str) -> Option<u64> {
        self.digests
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, d)| *d)
    }

    fn comm(&self, family: &str) -> Option<CommStats> {
        self.flat_comm
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, c)| *c)
    }
}

/// Checks one job run against the reference and the workload's
/// invariants; an empty list means the job passed.
pub fn check_run(job: &JobSpec, run: &JobRun, reference: &Reference) -> Vec<String> {
    let (digest, report) = match &run.result {
        Ok((digest, report)) => (*digest, report),
        Err(e) => return vec![e.clone()],
    };
    let mut problems = Vec::new();
    match reference.digest(job.family) {
        Some(want) if want != digest => {
            problems.push(format!("digest {digest:#018x} != reference {want:#018x}"))
        }
        Some(_) => {}
        None => problems.push("no reference digest".to_string()),
    }
    let comm = report.kv_comm();
    if job.model == Model::Ampc {
        if job.chaos {
            if report.replays == 0 || comm.retries == 0 {
                problems.push(format!(
                    "chaos schedule inert: {} replays, {} retries",
                    report.replays, comm.retries
                ));
            }
        } else if comm.retries + comm.wasted_batches + comm.backoff_units > 0 {
            problems.push(format!("fault-free job retried {} batches", comm.retries));
        }
    }
    match job.store {
        StoreKind::Socket => {
            if run.wire.requests == 0 {
                problems.push("socket job sent no wire requests".to_string());
            }
            match reference.comm(job.family) {
                Some(flat) if flat != comm => problems.push(format!(
                    "CommStats differ from the flat run: {comm:?} vs {flat:?}"
                )),
                Some(_) => {}
                None => problems.push("no flat CommStats reference".to_string()),
            }
        }
        _ => {
            if run.wire.requests > 0 {
                problems.push(format!(
                    "in-memory job sent {} wire requests",
                    run.wire.requests
                ));
            }
        }
    }
    problems
}

/// Runs the registry's `validate` on a job's output (untimed).
pub fn validate(
    settings: &Settings,
    inputs: &Inputs,
    job: &JobSpec,
    output: &AlgoOutput,
) -> Result<(), String> {
    let entry = registry::lookup(job.family, job.model)
        .ok_or_else(|| format!("no registry row for {}", job.label()))?;
    entry
        .validate(&inputs.input_for(job.family), output, &params(settings))
        .map_err(|e| format!("validate: {e}"))
}

/// Validates `run`'s output unless an identical output (same family,
/// same digest) already passed in this run — identical outputs
/// validate alike, and the dynamic oracle alone costs seconds.
fn validate_once(
    validated: &mut Vec<(&'static str, u64)>,
    settings: &Settings,
    inputs: &Inputs,
    job: &JobSpec,
    output: &Option<AlgoOutput>,
    tracer: &mut Tracer,
) -> Result<(), String> {
    // A failed job is already counted by `check_run`.
    let Some(output) = output else {
        return Ok(());
    };
    let digest = output.digest();
    if validated.contains(&(job.family, digest)) {
        return Ok(());
    }
    tracer.span("validate", || validate(settings, inputs, job, output))?;
    validated.push((job.family, digest));
    Ok(())
}

/// Everything one run measured.
pub struct RunData {
    /// The pinned settings.
    pub settings: Settings,
    /// `(n, m)` of the input graph.
    pub graph_size: (usize, usize),
    /// The pass's jobs.
    pub jobs: Vec<JobSpec>,
    /// Graph generation times, seconds, one per set-up repetition.
    pub gen_s: Vec<f64>,
    /// Shard-server spawn times, seconds (socket store only), one per
    /// set-up repetition.
    pub spawn_s: Vec<f64>,
    /// The least contended warm-up pass (the AMPC jobs).
    pub warmup: Pass,
    /// Every calibration sample the run took, seconds (see
    /// [`crate::calibrate`]; none on a workload that is not
    /// calibrated).
    pub calibration_s: Vec<f64>,
    /// Warm-up passes run: one, repeated while the host was contended.
    pub warmups: usize,
    /// Timed passes.
    pub passes: Vec<Pass>,
    /// The untimed reference runs ([`reference_jobs`]).
    pub reference_runs: Vec<(JobSpec, JobRun)>,
    /// Wall time of the timed passes together, seconds.
    pub timed_s: f64,
    /// Spans recorded during the timed passes.
    pub timed_spans: usize,
    /// Pass and check accounting.
    pub ledger: Ledger,
    /// Transport counters over the whole run.
    pub wire_total: WireMetrics,
}

/// Share of the host's processor time the hypervisor stole during
/// `pass`, %.
pub fn steal_pct(pass: &[Option<JobRun>]) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get()) as f64;
    let stolen: f64 = pass.iter().flatten().map(|r| r.steal_s).sum();
    let wall: f64 = pass.iter().flatten().map(JobRun::wall_s).sum();
    stolen / (wall * cores) * 100.0
}

/// Which passes count, given each pass's host steal: those with at most
/// [`STEAL_LIMIT_PCT`], or, when every pass had more, the least
/// contended ones.
fn counted(steal: &[f64]) -> Vec<bool> {
    let least = steal.iter().copied().fold(f64::INFINITY, f64::min);
    let limit = STEAL_LIMIT_PCT.max(least);
    steal.iter().map(|&s| s <= limit).collect()
}

impl RunData {
    /// The timed passes the metrics count (see [`counted`]).
    pub fn counted_passes(&self) -> Vec<&[Option<JobRun>]> {
        let steal: Vec<f64> = self.passes.iter().map(|p| steal_pct(p)).collect();
        self.passes
            .iter()
            .zip(counted(&steal))
            .filter(|(_, keep)| *keep)
            .map(|(p, _)| p.as_slice())
            .collect()
    }

    /// Wall time of the counted warm-up pass (the sum of its job
    /// walls), seconds.
    pub fn warmup_s(&self) -> f64 {
        self.warmup.iter().flatten().map(JobRun::wall_s).sum()
    }

    /// The set-up wall time: the median generation time, plus the
    /// median spawn time, plus the warm-up pass. One value per run: the
    /// warm-up is not repeated.
    pub fn setup_wall_s(&self) -> f64 {
        median(&self.gen_s) + median(&self.spawn_s) + self.warmup_s()
    }

    /// The set-up time in reference seconds, against the median of all
    /// the run's calibration samples. A set-up step runs once or a few
    /// times, too few to outweigh the noise of the samples beside it.
    pub fn setup_s(&self) -> f64 {
        if self.calibration_s.is_empty() {
            self.setup_wall_s()
        } else {
            to_reference(self.setup_wall_s(), median(&self.calibration_s))
        }
    }
}

/// Runs the jobs of a pass for which `include` holds. With a
/// calibrator, takes a calibration sample before the first job, between
/// jobs and after the last, and calibrates each run by the mean of the
/// samples on either side of it. Returns the pass, its outputs and the
/// samples.
fn run_pass(
    settings: &Settings,
    inputs: &Inputs,
    jobs: &[JobSpec],
    include: impl Fn(&JobSpec) -> bool,
    calibrator: Option<&Calibrator>,
    tracer: &mut Tracer,
    phase: &str,
) -> (Pass, Vec<Option<AlgoOutput>>, Vec<f64>) {
    let span = tracer.enter(phase);
    let calibrate =
        |tracer: &mut Tracer| calibrator.map(|c| tracer.span("calibrate", || c.sample()));
    let mut samples: Vec<f64> = calibrate(tracer).into_iter().collect();
    let mut pass = Vec::new();
    let mut outputs = Vec::new();
    for job in jobs {
        if !include(job) {
            pass.push(None);
            outputs.push(None);
            continue;
        }
        let (mut run, output) = run_job(settings, inputs, job, tracer, phase);
        if let (Some(&before), Some(after)) = (samples.last(), calibrate(tracer)) {
            samples.push(after);
            run.calibration_s = (before + after) / 2.0;
        }
        pass.push(Some(run));
        outputs.push(output);
    }
    tracer.exit(span);
    (pass, outputs, samples)
}

/// Runs the workload: set-up (timed), reference outputs and validation
/// (untimed), then timed passes for about `seconds`: another pass
/// starts while it is expected to end at most half a pass past the
/// budget (at least one pass runs).
pub fn run(settings: &Settings, seconds: f64, tracer: &mut Tracer) -> RunData {
    let jobs = jobs(settings);
    let wire_start = wire_metrics();
    let calibrator = settings.calibrated.then(|| Calibrator::new(THREADS));

    let mut calibration_s = Vec::new();

    // Set-up: graph generation and shard spawn, each repeated.
    let setup = tracer.enter("setup");
    let mut gen_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let generated = tracer.span("setup graph.generate", || Inputs::generate(settings));
        gen_s.push(t.elapsed().as_secs_f64());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("SETUP_REPS >= 1");
    let mut spawn_s = Vec::new();
    if jobs.iter().any(|j| j.store == StoreKind::Socket) {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let cluster = tracer.span("setup socket.spawn", || SocketCluster::spawn(SOCKET_SHARDS));
            spawn_s.push(t.elapsed().as_secs_f64());
            tracer.span("setup socket.shutdown", || drop(cluster));
        }
    }
    // The warm-up pass of the AMPC jobs, repeated while the host steal
    // during it was above the limit, at most SETUP_REPS times; set-up
    // counts the least contended one. The first pass's outputs are
    // validated.
    let mut warmups: Vec<Pass> = Vec::new();
    let mut warmup_outputs = Vec::new();
    while warmups.len() < SETUP_REPS
        && warmups
            .last()
            .is_none_or(|p| steal_pct(p) > STEAL_LIMIT_PCT)
    {
        let (pass, outputs, samples) = run_pass(
            settings,
            &inputs,
            &jobs,
            |job| job.model == Model::Ampc,
            calibrator.as_ref(),
            tracer,
            "warm-up",
        );
        if warmups.is_empty() {
            warmup_outputs = outputs;
        }
        calibration_s.extend(samples);
        warmups.push(pass);
    }
    tracer.exit(setup);

    // Reference outputs (untimed). The MPC baselines compute the same
    // answer by a different algorithm, so an MPC output is the family's
    // reference where the workload runs one; otherwise the flat-store
    // AMPC run is.
    let reference_span = tracer.enter("reference");
    let mut ledger = Ledger::default();
    let mut reference = Reference::default();
    let mut validated = Vec::new();
    let (reference_runs, reference_outputs): (Vec<(JobSpec, JobRun)>, Vec<Option<AlgoOutput>>) =
        reference_jobs(settings)
            .into_iter()
            .map(|job| {
                let (run, output) = run_job(settings, &inputs, &job, tracer, "reference");
                ((job, run), output)
            })
            .unzip();
    let all_runs = || ran(&jobs, &warmups[0]).chain(reference_runs.iter().map(|(j, r)| (j, r)));
    for model in [Model::Mpc, Model::Ampc] {
        for (job, run) in all_runs().filter(|(j, _)| j.model == model && j.store == StoreKind::Flat)
        {
            if let (Some(d), None) = (run.digest(), reference.digest(job.family)) {
                reference.digests.push((job.family, d));
            }
        }
    }
    for ((job, run), output) in reference_runs.iter().zip(&reference_outputs) {
        let mut problems = check_run(job, run, &reference);
        if let Err(e) = validate_once(&mut validated, settings, &inputs, job, output, tracer) {
            problems.push(e);
        }
        if let (Some(report), Model::Ampc) = (run.report(), job.model) {
            reference.flat_comm.push((job.family, report.kv_comm()));
        }
        ledger.record(&format!("reference {}", job.label()), problems);
    }
    for (i, pass) in warmups.iter().enumerate() {
        for (k, job) in jobs.iter().enumerate() {
            let Some(run) = &pass[k] else { continue };
            let mut problems = check_run(job, run, &reference);
            if i == 0 {
                let output = &warmup_outputs[k];
                if let Err(e) =
                    validate_once(&mut validated, settings, &inputs, job, output, tracer)
                {
                    problems.push(e);
                }
            }
            ledger.record(&format!("warm-up {} {}", i + 1, job.label()), problems);
        }
    }
    drop((warmup_outputs, reference_outputs));
    tracer.exit(reference_span);

    // Timed passes. Each output is dropped as soon as its job returns.
    let budget = Duration::from_secs_f64(seconds);
    let timed = tracer.enter("timed");
    let spans_before = tracer.len();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // The length of the last pass with and without the MPC baselines.
    let mut last_pass = [Duration::ZERO; 2];
    loop {
        let with_mpc = passes.len().is_multiple_of(MPC_EVERY);
        if !passes.is_empty() && start.elapsed() + last_pass[usize::from(with_mpc)] / 2 >= budget {
            break;
        }
        let pass_start = Instant::now();
        let (pass, _, samples) = run_pass(
            settings,
            &inputs,
            &jobs,
            |job| with_mpc || job.model == Model::Ampc,
            calibrator.as_ref(),
            tracer,
            "timed",
        );
        last_pass[usize::from(with_mpc)] = pass_start.elapsed();
        calibration_s.extend(samples);
        for (job, run) in ran(&jobs, &pass) {
            let problems = check_run(job, run, &reference);
            ledger.record(
                &format!("pass {} {}", passes.len() + 1, job.label()),
                problems,
            );
        }
        passes.push(pass);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let timed_spans = tracer.len() - spans_before;
    tracer.exit(timed);
    let warmup_count = warmups.len();
    let counted_warmup = (0..warmups.len())
        .min_by(|&a, &b| steal_pct(&warmups[a]).total_cmp(&steal_pct(&warmups[b])))
        .expect("set-up runs a warm-up pass");
    let warmup = warmups.swap_remove(counted_warmup);

    RunData {
        settings: settings.clone(),
        graph_size: inputs.size(),
        jobs,
        gen_s,
        spawn_s,
        warmups: warmup_count,
        warmup,
        calibration_s,
        passes,
        reference_runs,
        timed_s,
        timed_spans,
        ledger,
        wire_total: wire_delta(wire_start, wire_metrics()),
    }
}

/// Per-pass sums over the jobs of one model.
#[derive(Clone, Debug, Default)]
pub struct PassAgg {
    /// Jobs aggregated.
    pub jobs: usize,
    /// Summed job wall in reference seconds.
    pub reference_s: f64,
    /// Merged KV communication.
    pub comm: CommStats,
    /// Summed job wall, ns.
    pub wall_ns: u64,
    /// Summed wall of KV-round stages, ns.
    pub kv_round_ns: u64,
    /// Summed wall of local stages, ns.
    pub local_ns: u64,
    /// Summed wall of shuffle stages, ns.
    pub shuffle_ns: u64,
    /// KV rounds.
    pub kv_rounds: u64,
    /// Shuffles.
    pub shuffles: u64,
    /// Epochs.
    pub epochs: u64,
    /// Machine replays.
    pub replays: u64,
    /// Shuffled bytes.
    pub shuffle_bytes: u64,
    /// Σ most-loaded-machine bytes × P over shuffles.
    pub shuffle_max_x_p: u64,
    /// Local operations.
    pub ops: u64,
    /// Simulated time, ns.
    pub sim_ns: u64,
    /// Largest sealed generation read.
    pub peak_generation_bytes: u64,
    /// Transport counters.
    pub wire: WireMetrics,
    /// Stored-value clone bytes.
    pub bytes_cloned: u64,
    /// Stored-value clones.
    pub values_cloned: u64,
    /// Process CPU time, s.
    pub cpu_s: f64,
}

impl PassAgg {
    /// Aggregates the runs of `model` among `runs` (one pass, or the
    /// reference runs).
    pub fn of<'a>(
        runs: impl IntoIterator<Item = (&'a JobSpec, &'a JobRun)>,
        model: Model,
    ) -> PassAgg {
        let mut agg = PassAgg::default();
        for (job, run) in runs {
            if job.model != model {
                continue;
            }
            agg.jobs += 1;
            agg.wall_ns += run.wall_ns;
            agg.reference_s += run.reference_s();
            agg.wire.requests += run.wire.requests;
            agg.wire.bytes_sent += run.wire.bytes_sent;
            agg.wire.bytes_received += run.wire.bytes_received;
            agg.wire.reconnects += run.wire.reconnects;
            agg.wire.spawns += run.wire.spawns;
            agg.bytes_cloned += run.bytes_cloned;
            agg.values_cloned += run.values_cloned;
            agg.cpu_s += run.cpu_s;
            let Some(report) = run.report() else { continue };
            agg.comm.merge(&report.kv_comm());
            for s in &report.stages {
                match s.kind {
                    StageKind::KvRound => agg.kv_round_ns += s.wall_ns,
                    StageKind::Local => agg.local_ns += s.wall_ns,
                    StageKind::Shuffle => agg.shuffle_ns += s.wall_ns,
                }
                agg.ops += s.ops;
                agg.shuffle_max_x_p += s.shuffle_bytes_max_machine * report.num_machines as u64;
            }
            agg.kv_rounds += report.num_kv_rounds() as u64;
            agg.shuffles += report.num_shuffles() as u64;
            agg.epochs += report.num_epochs() as u64;
            agg.replays += report.replays;
            agg.shuffle_bytes += report.shuffle_bytes();
            agg.sim_ns += report.sim_ns();
            agg.peak_generation_bytes = agg
                .peak_generation_bytes
                .max(report.peak_generation_bytes());
        }
        agg
    }

    /// Job wall not covered by any stage (host shuffles, seals, glue), ns.
    pub fn outside_stage_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.kv_round_ns + self.local_ns + self.shuffle_ns)
    }

    /// Most-loaded machine × P ÷ total shuffled bytes (1 = balanced).
    pub fn shuffle_skew(&self) -> f64 {
        if self.shuffle_bytes == 0 {
            0.0
        } else {
            self.shuffle_max_x_p as f64 / self.shuffle_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_SEED;

    #[test]
    fn metric_names_follow_the_family_and_model() {
        let s = Settings::new(Workload::StaticInmem, DEFAULT_SEED);
        let names: Vec<String> = jobs(&s).iter().map(JobSpec::metric).collect();
        assert_eq!(
            names,
            [
                "mis_s",
                "mpc_mis_s",
                "mm_s",
                "mpc_mm_s",
                "msf_s",
                "mpc_msf_s",
                "cc_s",
                "mpc_cc_s"
            ]
        );
        let d = Settings::new(Workload::DynamicChaos, DEFAULT_SEED);
        let names: Vec<String> = jobs(&d).iter().map(JobSpec::metric).collect();
        assert_eq!(names, ["dyn_cc_s"]);
        let names: Vec<String> = reference_jobs(&d).iter().map(JobSpec::metric).collect();
        assert_eq!(names, ["mpc_dyn_cc_s"]);
        let sock = Settings::new(Workload::StaticSocket, DEFAULT_SEED);
        assert!(jobs(&sock).iter().all(|j| j.store == StoreKind::Socket));
        assert!(reference_jobs(&sock)
            .iter()
            .all(|j| j.store == StoreKind::Flat));
    }

    #[test]
    fn a_digest_mismatch_counts_as_a_failed_job() {
        let settings = Settings {
            scale: ampc_graph::datasets::Scale::Test,
            ..Settings::new(Workload::StaticInmem, DEFAULT_SEED)
        };
        let inputs = Inputs::generate(&settings);
        let job = &jobs(&settings)[0];
        let mut tracer = Tracer::new(false);
        let (run, output) = run_job(&settings, &inputs, job, &mut tracer, "test");
        let digest = run.digest().expect("mis runs on the test-scale graph");
        assert!(validate(&settings, &inputs, job, &output.unwrap()).is_ok());

        let mut ledger = Ledger::default();
        let good = Reference {
            digests: vec![("mis", digest)],
            ..Reference::default()
        };
        ledger.record("good", check_run(job, &run, &good));
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));

        let bad = Reference {
            digests: vec![("mis", digest ^ 1)],
            ..Reference::default()
        };
        ledger.record("bad", check_run(job, &run, &bad));
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert_eq!(ledger.error_rate(), 0.5);
        assert!(
            ledger.failures[0].contains("digest"),
            "{:?}",
            ledger.failures
        );
    }

    #[test]
    fn baselines_run_every_mpc_every_th_pass_and_every_job_is_calibrated() {
        let settings = Settings {
            scale: ampc_graph::datasets::Scale::Test,
            ..Settings::new(Workload::StaticInmem, DEFAULT_SEED)
        };
        let data = run(&settings, 2.0, &mut Tracer::new(false));
        assert!(
            data.passes.len() > MPC_EVERY,
            "{} passes",
            data.passes.len()
        );
        for (i, pass) in data.passes.iter().enumerate() {
            for (job, run) in data.jobs.iter().zip(pass) {
                let expected = job.model == Model::Ampc || i % MPC_EVERY == 0;
                assert_eq!(run.is_some(), expected, "pass {i} {}", job.label());
            }
            assert!(ran(&data.jobs, pass).all(|(_, r)| r.calibration_s > 0.0));
        }
        for (job, run) in data.jobs.iter().zip(&data.warmup) {
            assert_eq!(
                run.is_some(),
                job.model == Model::Ampc,
                "warm-up {}",
                job.label()
            );
        }
        assert!(data.setup_s() > 0.0 && data.ledger.failed == 0);
    }

    #[test]
    fn contended_passes_are_left_out_but_one_always_counts() {
        assert_eq!(counted(&[0.0, 5.0, 30.0, 10.0]), [true, true, false, true]);
        assert_eq!(counted(&[31.0, 14.0, 35.0]), [false, true, false]);
        assert_eq!(counted(&[2.0]), [true]);
    }

    #[test]
    fn an_error_result_counts_as_a_failed_job() {
        let settings = Settings::new(Workload::StaticInmem, DEFAULT_SEED);
        let job = &jobs(&settings)[0];
        let run = JobRun {
            wall_ns: 1,
            result: Err("boom".to_string()),
            wire: WireMetrics::default(),
            bytes_cloned: 0,
            values_cloned: 0,
            cpu_s: 0.0,
            steal_s: 0.0,
            calibration_s: 0.0,
        };
        let mut ledger = Ledger::default();
        ledger.record("err", check_run(job, &run, &Reference::default()));
        assert_eq!(ledger.failed, 1);
        assert_eq!(ledger.error_rate(), 1.0);
    }
}
