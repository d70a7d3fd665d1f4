//! Service-path throughput: the live thread-per-shard engine (SPSC
//! rings + snapshot queries) against the offline batched hot path on
//! the same cache-hostile workload. The lock-free refactor exists so
//! that going *live* costs almost nothing: the engine adds a ring hop
//! and a worker thread per shard, and this bench holds it to within
//! ~10% of the offline batched replay.
//!
//! Besides the criterion group, a manual timing pass writes
//! `BENCH_service.json` at the repo root (override the path with
//! `INSTAMEASURE_BENCH_JSON`) recording packets/sec for the offline
//! baseline and every engine configuration swept, plus each ratio. If
//! the best service configuration falls below the floor the run prints
//! a `SERVICE-REGRESSION` marker, which the CI bench-smoke job greps
//! for.
//!
//! `INSTAMEASURE_BENCH_SMOKE=1` shrinks the trace and sample counts to
//! a few seconds of wall time — a compile-and-sanity gate with a lenient
//! floor (CI shares cores; the full run enforces the real target).

use std::sync::Arc;
use std::time::Instant;

use criterion::{Criterion, Throughput};
use instameasure_core::engine::{Engine, EngineConfig};
use instameasure_core::InstaMeasureConfig;
use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_sketch::SketchConfig;
use instameasure_telemetry::SharedRegistry;
use instameasure_wsaf::WsafConfig;
use rand::{Rng, SeedableRng};

/// Engine shapes swept: `(workers, batch_size, queue_batches)`. Batch
/// and queue sizes amortize ring hops and context switches; more shards
/// only help with real spare cores, so the sweep stays small.
const CONFIGS: [(usize, usize, usize); 3] = [(1, 1024, 256), (1, 4096, 64), (2, 2048, 64)];

/// Offline reference batch size (the hot-path bench's sweet spot).
const OFFLINE_BATCH: usize = 1024;

/// Throughput floor (service pps / offline pps) below which the
/// regression marker fires.
///
/// The ~0.9 target assumes the pusher and the shard workers get their
/// own hardware threads so the ring actually pipelines. On a single-CPU
/// host the two sides *serialize* — every packet is paid for twice
/// (dispatch copy + processing) plus a context switch per queue-full —
/// so the achievable ceiling is roughly half; the floor halves with it
/// rather than crying wolf. Smoke mode is additionally lenient: one bad
/// timeslice on a shared CI core dominates its short run.
fn floor(smoke: bool) -> f64 {
    let base = if smoke { 0.40 } else { 0.90 };
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cpus == 1 {
        base * 0.5
    } else {
        base
    }
}

struct Workload {
    records: Vec<PacketRecord>,
    flows: usize,
}

/// Same cache-hostile shape as the hot-path bench: uniform random flows
/// over a large universe, so the comparison isolates the service fabric
/// rather than cache luck.
fn workload(packets: usize, flows: usize, seed: u64) -> Workload {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let records = (0..packets as u64)
        .map(|t| {
            let i = rng.gen_range(0..flows as u32);
            let key = FlowKey::new(
                i.to_be_bytes(),
                (i ^ 0xA5A5_A5A5).to_be_bytes(),
                (i % 60_000) as u16,
                443,
                Protocol::Udp,
            );
            PacketRecord::new(key, 64 + (t % 1400) as u16, t)
        })
        .collect();
    Workload { records, flows }
}

fn config() -> InstaMeasureConfig {
    InstaMeasureConfig::default()
        .with_sketch(
            SketchConfig::builder().memory_bytes(8 * 1024 * 1024).vector_bits(8).build().unwrap(),
        )
        .with_wsaf(WsafConfig::builder().entries_log2(18).build().unwrap())
}

/// Offline baseline: the batched single-core hot path. Construction is
/// outside the timed region on both sides — the comparison is ingest
/// throughput, not arena zeroing.
fn offline_pps(records: &[PacketRecord], reps: usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut im = instameasure_core::InstaMeasure::new(config());
        let start = Instant::now();
        for chunk in records.chunks(OFFLINE_BATCH) {
            im.process_batch(chunk);
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(im.wsaf().len());
        best = best.max(records.len() as f64 / secs);
    }
    best
}

/// One full service pass: push the whole trace down a lane, then drain.
/// The engine (worker threads, rings, arenas) is constructed outside the
/// timed region; the drain — which processes every ring remainder and
/// publishes the final snapshot — is inside it, so the number is honest
/// end-of-stream throughput. Packet-exact accounting is asserted every
/// rep: a bench that loses packets is measuring a bug.
fn service_pps(records: &[PacketRecord], reps: usize, shape: (usize, usize, usize)) -> f64 {
    let (workers, batch, queue) = shape;
    let mut best = 0.0f64;
    for _ in 0..reps {
        let cfg = EngineConfig {
            workers,
            batch_size: batch,
            queue_batches: queue,
            pin: false,
            per_worker: config(),
        };
        let engine = Engine::start(&cfg, Arc::new(SharedRegistry::new()));
        let start = Instant::now();
        let mut lane = engine.lane().expect("engine is open");
        lane.submit(records).expect("engine is open");
        drop(lane);
        let report = engine.drain();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(report.processed, records.len() as u64, "engine dropped packets");
        best = best.max(records.len() as f64 / secs);
    }
    best
}

fn measure_and_report(w: &Workload, reps: usize, smoke: bool) {
    let offline_pps = offline_pps(&w.records, reps);
    let mut rows = Vec::new();
    let mut best_ratio = 0.0f64;
    let mut best_cfg = CONFIGS[0];
    for &(workers, batch, queue) in &CONFIGS {
        let pps = service_pps(&w.records, reps, (workers, batch, queue));
        let ratio = pps / offline_pps;
        if ratio > best_ratio {
            best_ratio = ratio;
            best_cfg = (workers, batch, queue);
        }
        println!(
            "service_engine: {workers}w/b{batch}/q{queue}: {:.2} Mpps vs offline {:.2} Mpps \
             ({ratio:.2}x)",
            pps / 1e6,
            offline_pps / 1e6
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"batch_size\": {batch}, \"queue_batches\": {queue}, \
             \"pps\": {pps:.0}, \"ratio_vs_offline\": {ratio:.4}}}"
        ));
    }

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"service_engine\",\n  \"smoke\": {smoke},\n  \"cpus\": {cpus},\n  \
         \"packets\": {},\n  \
         \"flows\": {},\n  \"offline_batch_size\": {OFFLINE_BATCH},\n  \
         \"offline_pps\": {offline_pps:.0},\n  \"service\": [\n{}\n  ],\n  \
         \"best_config\": {{\"workers\": {}, \"batch_size\": {}, \"queue_batches\": {}}},\n  \
         \"best_ratio\": {best_ratio:.4},\n  \"floor\": {:.2}\n}}\n",
        w.records.len(),
        w.flows,
        rows.join(",\n"),
        best_cfg.0,
        best_cfg.1,
        best_cfg.2,
        floor(smoke)
    );
    let path = std::env::var("INSTAMEASURE_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_service.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_service.json");
    println!(
        "service_engine: best ratio {best_ratio:.2}x (workers {}, batch {}, queue {}); wrote {path}",
        best_cfg.0, best_cfg.1, best_cfg.2
    );
    if best_ratio < floor(smoke) {
        println!(
            "SERVICE-REGRESSION: service path at {best_ratio:.2}x of offline hot path \
             (floor {:.2}x)",
            floor(smoke)
        );
    }
}

fn criterion_groups(c: &mut Criterion, w: &Workload) {
    let mut group = c.benchmark_group("service_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(w.records.len() as u64));
    group.bench_function("offline_batched", |b| b.iter(|| offline_pps(&w.records, 1)));
    for &(workers, batch, queue) in &CONFIGS {
        group.bench_function(format!("service/{workers}w_b{batch}_q{queue}"), |b| {
            b.iter(|| service_pps(&w.records, 1, (workers, batch, queue)));
        });
    }
    group.finish();
}

fn main() {
    let smoke = std::env::var("INSTAMEASURE_BENCH_SMOKE").is_ok();
    let (packets, flows, reps) =
        if smoke { (400_000, 100_000, 2) } else { (4_000_000, 400_000, 3) };
    let w = workload(packets, flows, 42);

    measure_and_report(&w, reps, smoke);

    if !smoke {
        let mut c = Criterion::default();
        criterion_groups(&mut c, &w);
    }
}
