//! Workloads and their pinned settings.
//!
//! Every knob that can change a workload's wall time is fixed here and
//! written into the run's result file. The `AMPC_*` knobs are pinned in
//! the process environment before any library code reads them; an
//! ambient value that disagrees with the pin is refused rather than
//! silently overridden or silently obeyed, and two result sets whose
//! recorded settings differ are refused by `compare`.

use ampc_dht::store::StoreKind;
use ampc_graph::datasets::{Dataset, Scale};
use ampc_runtime::chaos::ChaosSpec;

/// The seed whose inputs reproduce the repository's harness defaults:
/// graph seed 20 (`ampc_bench::util::GRAPH_SEED`) and the default
/// dyn-cc schedule seed.
pub const DEFAULT_SEED: u64 = 20;

/// The chaos schedule of `dynamic-chaos`, the same under every seed.
/// Its seed sets how many machines are killed and replayed: across
/// chaos seeds 310–325 a run replayed 33 to 50 machines, about 1.7 % of
/// the job's wall time each, so a seed-driven schedule spread the
/// workload's timings by ±14 % for reasons that are not the program's.
pub const CHAOS: &str = "chaos:seed=29:rate=120:drop=80";

/// Executor threads every workload runs with.
pub const THREADS: usize = 2;
/// Simulated machines (`ampc_bench::util::harness_config`).
pub const MACHINES: usize = 10;
/// Shard-server processes under the socket store.
pub const SOCKET_SHARDS: usize = 2;
/// §5.3 batching.
pub const BATCHING: bool = true;
/// §5.3 per-machine caching.
pub const CACHING: bool = true;
/// Hot-key replica capacity (0: replication off).
pub const HOT_KEYS: usize = 0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Orkut analogue, flat store: AMPC and MPC `mis`, `mm`, `msf`, `cc`.
    StaticInmem,
    /// The same graph and AMPC jobs with values served by shard-server
    /// processes over Unix sockets.
    StaticSocket,
    /// ClueWeb analogue under a churn schedule: maintained `dyn-cc`
    /// under a chaos schedule against the recompute baseline.
    DynamicChaos,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::StaticInmem,
        Workload::StaticSocket,
        Workload::DynamicChaos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticInmem => "static-inmem",
            Workload::StaticSocket => "static-socket",
            Workload::DynamicChaos => "dynamic-chaos",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Everything a run of one workload is pinned to.
#[derive(Clone, Debug, PartialEq)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// The benchmark seed the inputs derive from.
    pub seed: u64,
    /// The dataset analogue.
    pub dataset: Dataset,
    /// Its scale.
    pub scale: Scale,
    /// Graph generation seed.
    pub graph_seed: u64,
    /// Sealed-store substrate for the AMPC jobs.
    pub store: StoreKind,
    /// Chaos schedule of the AMPC jobs (`None`: fault-free).
    pub chaos: Option<ChaosSpec>,
    /// dyn-cc update batches (dynamic workload only).
    pub dyn_batches: usize,
    /// dyn-cc updates per batch.
    pub dyn_ops: usize,
    /// dyn-cc schedule seed.
    pub dyn_seed: u64,
    /// Whether `ampc_s` and `setup_s` are in reference seconds (see
    /// [`crate::calibrate`]) rather than wall seconds: on the static
    /// workloads, whose memory-bound jobs slow down with the host the
    /// way the calibration kernel does. `dyn-cc` is bound by its fixed
    /// cost per round, not by memory; calibrating it spread its
    /// timings more than it steadied them.
    pub calibrated: bool,
}

impl Settings {
    /// The pinned settings of `workload` under benchmark seed `seed`.
    /// The seed drives the graph and the dyn-cc schedule (the chaos
    /// schedule is [`CHAOS`] under every seed); [`DEFAULT_SEED`]
    /// reproduces the harness defaults.
    pub fn new(workload: Workload, seed: u64) -> Settings {
        let offset = seed.wrapping_sub(DEFAULT_SEED);
        let dynamic = workload == Workload::DynamicChaos;
        Settings {
            workload,
            seed,
            dataset: if dynamic {
                Dataset::ClueWeb
            } else {
                Dataset::Orkut
            },
            scale: if dynamic { Scale::Mid } else { Scale::Bench },
            graph_seed: seed,
            store: if workload == Workload::StaticSocket {
                StoreKind::Socket
            } else {
                StoreKind::Flat
            },
            chaos: dynamic.then(|| ChaosSpec::parse(CHAOS).expect("CHAOS is a valid spec")),
            dyn_batches: if dynamic { 16 } else { 0 },
            dyn_ops: if dynamic { 1024 } else { 0 },
            dyn_seed: ampc_graph::dynamic::DEFAULT_SCHEDULE_SEED.wrapping_add(offset),
            calibrated: !dynamic,
        }
    }

    /// The `AMPC_*` environment the run pins, as `(name, value)`; an
    /// empty value means the variable must be unset. The knobs are
    /// cached process-wide on first read, so the pins must be in place
    /// before any library call.
    pub fn env_pins(&self) -> Vec<(&'static str, String)> {
        vec![
            ("AMPC_BATCH", on_off(BATCHING).to_string()),
            ("AMPC_CHAOS", String::new()),
            ("AMPC_HOT_KEYS", HOT_KEYS.to_string()),
            ("AMPC_SCALE", scale_token(self.scale).to_string()),
            ("AMPC_SOCKET_SHARDS", SOCKET_SHARDS.to_string()),
            ("AMPC_STORE", self.store.as_str().to_string()),
            ("AMPC_THREADS", THREADS.to_string()),
        ]
    }

    /// Everything recorded about the run's configuration, in a fixed
    /// order. `compare` refuses result sets whose records differ.
    pub fn record(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = vec![
            ("workload".into(), self.workload.name().into()),
            ("seed".into(), self.seed.to_string()),
            ("dataset".into(), self.dataset.name()),
            ("scale".into(), scale_token(self.scale).into()),
            ("graph_seed".into(), self.graph_seed.to_string()),
            ("machines".into(), MACHINES.to_string()),
            ("threads".into(), THREADS.to_string()),
            ("store".into(), self.store.as_str().into()),
            ("socket_shards".into(), SOCKET_SHARDS.to_string()),
            ("batching".into(), on_off(BATCHING).into()),
            ("caching".into(), on_off(CACHING).into()),
            ("hot_keys".into(), HOT_KEYS.to_string()),
            (
                "chaos".into(),
                self.chaos.map_or("off".to_string(), |c| c.describe()),
            ),
            ("dyn_batches".into(), self.dyn_batches.to_string()),
            ("dyn_ops".into(), self.dyn_ops.to_string()),
            ("dyn_seed".into(), self.dyn_seed.to_string()),
            ("calibrated".into(), on_off(self.calibrated).into()),
            (
                "host_parallelism".into(),
                std::thread::available_parallelism()
                    .map_or(0, |p| p.get())
                    .to_string(),
            ),
        ];
        // Every registered knob's value as the library will read it, so
        // a knob added later shows up in the record (and in a refused
        // comparison) even before this file learns to pin it.
        for knob in ampc_knobs::all() {
            let value = ampc_knobs::raw(knob.name).unwrap_or_default();
            out.push((format!("env.{}", knob.name), value));
        }
        out
    }
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// The `AMPC_SCALE` token of a scale.
pub fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Mid => "mid",
        Scale::Bench => "bench",
    }
}

/// Checks the ambient environment against the pins: an `AMPC_*`
/// variable the benchmark does not pin, or one whose value differs
/// from the pin, is refused with a message naming it.
pub fn check_ambient(
    pins: &[(&'static str, String)],
    ambient: impl IntoIterator<Item = (String, String)>,
) -> Result<(), String> {
    let mut refused = Vec::new();
    for (name, value) in ambient {
        if !name.starts_with("AMPC_") {
            continue;
        }
        match pins.iter().find(|(pin, _)| *pin == name) {
            Some((_, pinned)) if *pinned == value => {}
            Some((_, pinned)) if pinned.is_empty() => {
                refused.push(format!("{name}={value:?} (the workload pins it unset)"))
            }
            Some((_, pinned)) => {
                refused.push(format!("{name}={value:?} (the workload pins {pinned:?})"))
            }
            None => refused.push(format!(
                "{name}={value:?} (not a setting this benchmark pins)"
            )),
        }
    }
    if refused.is_empty() {
        Ok(())
    } else {
        refused.sort();
        Err(format!(
            "refusing ambient settings that would override the workload: {}",
            refused.join(", ")
        ))
    }
}

/// Applies the pins to the process environment. Must run before any
/// other thread exists and before any library code reads a knob.
pub fn apply_pins(pins: &[(&'static str, String)]) {
    for (name, value) in pins {
        if value.is_empty() {
            std::env::remove_var(name);
        } else {
            std::env::set_var(name, value);
        }
    }
}

/// The keys on which two recorded configurations differ (a key present
/// on one side only counts as a difference).
pub fn config_diff(a: &[(String, String)], b: &[(String, String)]) -> Vec<String> {
    let mut keys: Vec<&String> = a.iter().chain(b).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    let lookup = |side: &[(String, String)], k: &str| {
        side.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    keys.into_iter()
        .filter_map(|k| {
            let (va, vb) = (lookup(a, k), lookup(b, k));
            (va != vb).then(|| {
                format!(
                    "{k}: {} vs {}",
                    va.as_deref().unwrap_or("<absent>"),
                    vb.as_deref().unwrap_or("<absent>")
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn default_seed_reproduces_the_harness_inputs() {
        let s = Settings::new(Workload::DynamicChaos, DEFAULT_SEED);
        assert_eq!(s.graph_seed, ampc_bench::util::GRAPH_SEED);
        assert_eq!(
            s.chaos.unwrap().describe(),
            "chaos:seed=29:rate=120:drop=80"
        );
        assert_eq!(s.dyn_seed, ampc_graph::dynamic::DEFAULT_SCHEDULE_SEED);
        let other = Settings::new(Workload::DynamicChaos, 21);
        assert_eq!(other.chaos, s.chaos);
        assert_ne!(other.dyn_seed, s.dyn_seed);
        assert_ne!(other.graph_seed, s.graph_seed);
    }

    #[test]
    fn every_registered_knob_is_pinned() {
        for w in Workload::ALL {
            let pins = Settings::new(w, DEFAULT_SEED).env_pins();
            for knob in ampc_knobs::all() {
                assert!(
                    pins.iter().any(|(name, _)| *name == knob.name),
                    "{} does not pin {}",
                    w.name(),
                    knob.name
                );
            }
        }
    }

    #[test]
    fn ambient_settings_that_override_a_pin_are_refused() {
        let pins = Settings::new(Workload::StaticSocket, DEFAULT_SEED).env_pins();
        assert!(check_ambient(&pins, env(&[("PATH", "/bin")])).is_ok());
        assert!(check_ambient(&pins, env(&[("AMPC_THREADS", "2")])).is_ok());
        assert!(check_ambient(&pins, env(&[("AMPC_STORE", "socket")])).is_ok());
        let err = check_ambient(&pins, env(&[("AMPC_THREADS", "1")])).unwrap_err();
        assert!(err.contains("AMPC_THREADS"), "{err}");
        assert!(check_ambient(&pins, env(&[("AMPC_STORE", "flat")])).is_err());
        assert!(check_ambient(&pins, env(&[("AMPC_CHAOS", "7")])).is_err());
        assert!(check_ambient(&pins, env(&[("AMPC_NEW_KNOB", "x")])).is_err());
    }

    #[test]
    fn differing_records_are_named() {
        let a = Settings::new(Workload::StaticInmem, 20).record();
        assert!(config_diff(&a, &a).is_empty());
        let b = Settings::new(Workload::StaticInmem, 21).record();
        let diff = config_diff(&a, &b);
        assert!(diff.iter().any(|d| d.starts_with("seed:")), "{diff:?}");
        assert!(diff.iter().any(|d| d.starts_with("graph_seed:")));
        let c = Settings::new(Workload::StaticSocket, 20).record();
        assert!(config_diff(&a, &c)
            .iter()
            .any(|d| d.starts_with("store: flat vs socket")));
        let mut d = a.clone();
        d.pop();
        assert_eq!(config_diff(&a, &d).len(), 1);
    }
}
