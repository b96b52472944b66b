//! Probes that time direct calls into single layers, run after the
//! timed passes of a traced run.
//!
//! * The store probe writes a `u64` store the size of the workload's
//!   peak generation through `GenerationWriter::put_many_from`, seals
//!   it on the workload's store, and reads every key back through
//!   `MachineHandle::get_many_expect_into` in batches.
//! * The round probe times an empty `Job::kv_round` at 10 and 100
//!   machines: the fixed cost every KV round pays.

use crate::config::{Settings, BATCHING, CACHING, HOT_KEYS, THREADS};
use crate::stats::median;
use crate::trace::Tracer;
use ampc_bench::util::harness_config;
use ampc_dht::handle::MachineHandle;
use ampc_dht::hasher::mix64;
use ampc_dht::socket::wire_metrics;
use ampc_dht::store::{force_store, Generation, GenerationWriter, StoreKind};
use ampc_runtime::Job;
use std::time::Instant;

/// Store-probe repetitions (medians are reported).
const STORE_REPS: usize = 3;
/// Keys per read batch.
const READ_BATCH: usize = 1024;
/// Writers the probe's keys are split over.
const WRITERS: u64 = 10;
/// Serialized bytes of one `u64 → u64` entry.
const ENTRY_BYTES: u64 = 16;
/// Empty rounds timed per machine count.
const ROUND_REPS: usize = 300;

/// What the store probe measured (medians over [`STORE_REPS`]).
#[derive(Clone, Debug, Default)]
pub struct StoreProbe {
    /// Entries written.
    pub entries: u64,
    /// Bytes of the sealed generation.
    pub generation_bytes: u64,
    /// Writing every entry, seconds.
    pub put_s: f64,
    /// Sealing on the workload's store (socket: flat build + offload).
    pub seal_s: f64,
    /// Sealing the same entries on the flat store, seconds.
    pub flat_seal_s: f64,
    /// Reading every key back, ns per key.
    pub read_ns_per_key: f64,
    /// Per-batch read latencies of the last repetition, µs.
    pub batch_us: Vec<f64>,
    /// Socket store: offload time per LOAD byte sent, ns.
    pub load_ns_per_byte: f64,
    /// Socket store: read time per GET request, ns.
    pub get_ns_per_request: f64,
    /// Values read back that differ from what was written.
    pub mismatches: u64,
}

fn value_of(key: u64) -> u64 {
    mix64(key ^ 0x5bd1_e995)
}

fn write(entries: u64) -> GenerationWriter<u64> {
    let writer = GenerationWriter::new();
    let chunk = entries.div_ceil(WRITERS);
    for m in 0..WRITERS {
        let lo = (m * chunk).min(entries);
        let hi = ((m + 1) * chunk).min(entries);
        writer.put_many_from(m as u32, (lo..hi).map(|k| (k, value_of(k))));
    }
    writer
}

fn seal_on(store: StoreKind, writer: GenerationWriter<u64>) -> Generation<u64> {
    force_store(Some(store));
    writer.seal()
}

/// Runs the store probe on `store` with a generation of about
/// `target_bytes`.
pub fn store_probe(
    store: StoreKind,
    target_bytes: u64,
    seed: u64,
    tracer: &mut Tracer,
) -> StoreProbe {
    let entries = (target_bytes / ENTRY_BYTES).max(READ_BATCH as u64);
    // Read order: a seeded permutation of the keys.
    let mut order: Vec<u64> = (0..entries).collect();
    order.sort_by_key(|&k| mix64(k ^ seed));

    let (mut put, mut seal, mut flat_seal, mut read) = (vec![], vec![], vec![], vec![]);
    let (mut load_ns_byte, mut get_ns_req) = (vec![], vec![]);
    let mut out = StoreProbe {
        entries,
        ..StoreProbe::default()
    };
    for _ in 0..STORE_REPS {
        if store != StoreKind::Flat {
            let writer = write(entries);
            let t = Instant::now();
            let g = tracer.span("probe dht.seal flat", || seal_on(StoreKind::Flat, writer));
            flat_seal.push(t.elapsed().as_secs_f64());
            drop(g);
        }

        let t = Instant::now();
        let writer = tracer.span("probe dht.put_many_from", || write(entries));
        put.push(t.elapsed().as_secs_f64());

        let w0 = wire_metrics();
        let t = Instant::now();
        let generation = tracer.span("probe dht.seal", || seal_on(store, writer));
        let seal_s = t.elapsed().as_secs_f64();
        seal.push(seal_s);
        let w1 = wire_metrics();
        out.generation_bytes = generation.size_bytes() as u64;

        let mut handle = MachineHandle::new(&generation, None).with_batching(BATCHING);
        let mut vals = Vec::with_capacity(READ_BATCH);
        let mut batch_us = Vec::with_capacity(order.len() / READ_BATCH + 1);
        let mut mismatches = 0u64;
        let span = tracer.enter("probe dht.get_many_expect_into");
        let t = Instant::now();
        for keys in order.chunks(READ_BATCH) {
            let tb = Instant::now();
            handle.get_many_expect_into(keys, &mut vals);
            batch_us.push(tb.elapsed().as_secs_f64() * 1e6);
            mismatches += keys
                .iter()
                .zip(&vals)
                .filter(|(&k, &v)| v != value_of(k))
                .count() as u64;
        }
        let read_s = t.elapsed().as_secs_f64();
        tracer.exit(span);
        let w2 = wire_metrics();
        read.push(read_s * 1e9 / entries as f64);
        out.batch_us = batch_us;
        out.mismatches += mismatches;
        if store == StoreKind::Socket {
            let offload_s = (seal_s - flat_seal.last().copied().unwrap_or(0.0)).max(0.0);
            load_ns_byte.push(offload_s * 1e9 / (w1.bytes_sent - w0.bytes_sent).max(1) as f64);
            get_ns_req.push(read_s * 1e9 / (w2.requests - w1.requests).max(1) as f64);
        }
        tracer.span("probe dht.drop", || drop(generation));
    }
    out.put_s = median(&put);
    out.seal_s = median(&seal);
    out.flat_seal_s = median(&flat_seal);
    out.read_ns_per_key = median(&read);
    out.load_ns_per_byte = median(&load_ns_byte);
    out.get_ns_per_request = median(&get_ns_req);
    out
}

/// Median wall time of an empty KV round at `machines` machines, µs,
/// under the workload's store (the socket store health-checks its
/// shards at every round boundary).
pub fn round_probe(settings: &Settings, machines: usize, tracer: &mut Tracer) -> f64 {
    force_store(Some(settings.store));
    let cfg = harness_config(settings.scale)
        .with_machines(machines)
        .with_threads(THREADS)
        .with_batching(BATCHING)
        .with_caching(CACHING)
        .with_hot_keys(HOT_KEYS)
        .with_store(settings.store);
    let mut job = Job::new(cfg);
    let empty: Generation<u64> = Generation::empty();
    let span = tracer.enter(&format!("probe runtime.kv_round p={machines}"));
    let mut us = Vec::with_capacity(ROUND_REPS);
    for _ in 0..ROUND_REPS {
        let t = Instant::now();
        let out: Vec<()> =
            job.kv_round("probe", &empty, None, Vec::<u64>::new(), |_, _| Vec::new());
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    tracer.exit(span);
    median(&us)
}
