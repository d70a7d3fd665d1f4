//! The multi-core measurement system of paper Fig. 5, with batched ingest.
//!
//! Packets are dispatched to one of `N` workers; the worker index is the
//! popcount of the source IP address modulo `N` (the paper's balancing
//! rule, which also guarantees all packets of a flow meet the same
//! worker). Each worker owns an exclusive [`InstaMeasure`] instance —
//! private FlowRegulator memory and a private WSAF shard — so workers never
//! contend on counter memory, exactly as the paper allocates "memory
//! blocks exclusively to each worker core".
//!
//! [`run_multicore`] and [`run_multicore_stream`] are the offline drivers
//! over the shard runtime in [`crate::engine`], the same one the live
//! daemon runs, and take the same [`EngineConfig`]: they boot an
//! [`Engine`], feed one [`crate::engine::IngestLane`] from their input,
//! drain the engine and take each worker's final state back from its
//! thread.
//!
//! # Batched dispatch
//!
//! Shipping one `PacketRecord` per queue operation makes synchronization
//! the hot path long before the sketch is (the same economics that give
//! PriMe its SRAM front buffer: amortize per-item transfer cost into
//! batches). The lane therefore accumulates packets into per-worker batch
//! buffers of [`EngineConfig::batch_size`] packets and ships whole
//! `Vec<PacketRecord>` batches; a worker drains a whole batch into its
//! [`InstaMeasure`] before touching its ring again. Buffers are recycled
//! through a return ring so the steady state allocates nothing.
//!
//! The contract, which the differential test suite pins down exactly:
//!
//! * **Order** — batching never reorders packets within a worker's stream,
//!   so the per-worker measurement state is bit-identical to a single-core
//!   replay of that worker's shard of the trace, at any batch size.
//! * **Flush** — partial batches are flushed at end-of-stream; under
//!   [`BackpressurePolicy::Block`] no packet is ever lost.
//! * **Drop accounting** — under [`BackpressurePolicy::Drop`] a full ring
//!   drops the *whole batch* (a mirror-port overrun loses a burst, not one
//!   frame) and every dropped packet is counted exactly, per worker:
//!   `processed + dropped == offered` always holds.

use std::sync::Arc;
use std::time::Instant;

use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_sketch::FilterStats;
use instameasure_telemetry::{
    HistogramSnapshot, Instrumented, LogHistogram, MetricValue, SharedRegistry, Snapshot,
};

use crate::engine::{merge_top_k, BackpressurePolicy, Engine, EngineConfig, TopFlow};
use crate::InstaMeasure;

/// Routes a flow to its worker: popcount of the source address mod `N`
/// (paper §IV-C: "the number of 1 bits of source IP address is used to
/// determine which queue the packet goes into").
///
/// # Panics
///
/// Panics if `workers` is zero.
#[inline]
#[must_use]
pub fn worker_for(key: &FlowKey, workers: usize) -> usize {
    assert!(workers > 0, "need at least one worker");
    key.src_ip_u32().count_ones() as usize % workers
}

/// The merged view over all worker shards after a run.
#[derive(Debug)]
pub struct MultiCoreSystem {
    shards: Vec<InstaMeasure>,
}

impl MultiCoreSystem {
    /// Number of workers/shards.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Per-flow packet estimate (routed to the owning shard).
    #[must_use]
    pub fn estimate_packets(&self, key: &FlowKey) -> f64 {
        self.shards[worker_for(key, self.shards.len())].estimate_packets(key)
    }

    /// Per-flow byte estimate (routed to the owning shard).
    #[must_use]
    pub fn estimate_bytes(&self, key: &FlowKey) -> f64 {
        self.shards[worker_for(key, self.shards.len())].estimate_bytes(key)
    }

    /// Read access to one shard.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn shard(&self, idx: usize) -> &InstaMeasure {
        &self.shards[idx]
    }

    /// Filter work counters for each worker.
    #[must_use]
    pub fn filter_stats(&self) -> Vec<FilterStats> {
        self.shards.iter().map(InstaMeasure::filter_stats).collect()
    }

    /// Telemetry of one shard (its `regulator.*` + `wsaf.*` metrics).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn shard_telemetry(&self, idx: usize) -> Snapshot {
        self.shards[idx].telemetry()
    }

    /// Global Top-K by packets, merged across shards ([`merge_top_k`]:
    /// ties ordered by key, the same ranking the live engine serves).
    #[must_use]
    pub fn top_k_by_packets(&self, k: usize) -> Vec<(FlowKey, f64)> {
        let per_shard = self
            .shards
            .iter()
            .flat_map(|im| im.wsaf().top_k_by_packets(k))
            .map(|e| TopFlow::from(&e));
        merge_top_k(per_shard, k).into_iter().map(|f| (f.key, f.packets)).collect()
    }
}

impl Instrumented for MultiCoreSystem {
    /// The shards' snapshots merged into one aggregate view: `regulator.*`
    /// and `wsaf.*` counters sum across workers, histograms sum bucket-wise,
    /// gauges keep the worst shard.
    fn telemetry(&self) -> Snapshot {
        let mut merged = Snapshot::new();
        for shard in &self.shards {
            merged.merge(&shard.telemetry());
        }
        merged
    }
}

/// Timing and load metrics of one multi-core run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock processing time in nanoseconds (dispatch + drain).
    pub wall_nanos: u64,
    /// Packets processed (offered minus dropped).
    pub packets: u64,
    /// End-to-end throughput in packets/second of wall time.
    pub throughput_pps: f64,
    /// Packets handled by each worker (dispatch balance).
    pub per_worker_packets: Vec<u64>,
    /// Packets dropped at each worker's full queue (always all-zero under
    /// [`BackpressurePolicy::Block`]).
    pub per_worker_dropped: Vec<u64>,
    /// Batches successfully handed to worker queues, including end-of-stream
    /// flushes.
    pub batches_sent: u64,
    /// Partial batches flushed at end-of-stream (at most one per worker).
    pub batch_flushes: u64,
    /// Queue depth samples taken by the dispatcher (one per `sample_every`
    /// packets), as the paper plots in Fig. 12(c):
    /// `(packet timestamp, queued packets)`. Depth is counted in whole
    /// batches, so it is an upper bound on the exact packet count.
    pub queue_depth_samples: Vec<(u64, usize)>,
    /// Each worker thread's lifetime in nanoseconds, from spawn to exit
    /// (CPU-work proxy; meaningful even on a host with fewer physical
    /// cores than workers).
    pub worker_busy_nanos: Vec<u64>,
    /// Packets dropped at full queues, summed over workers (always 0 under
    /// [`BackpressurePolicy::Block`]).
    pub dropped: u64,
    /// Run-level telemetry: `multicore.worker{w}.packets` and
    /// `.busy_nanos` per worker, `multicore.packets`/`dropped` counters,
    /// the `multicore.queue_depth` histogram sampled by the dispatcher, a
    /// `multicore.throughput_pps` gauge, and the batched-ingest counters
    /// `ingest.batches_sent`, `ingest.batch_flushes`, `ingest.dropped_pkts`
    /// (total and per worker as `ingest.worker{w}.dropped_pkts`) plus the
    /// `ingest.batch_occupancy` histogram over assembled batch sizes.
    /// Hot-path instrumentation rides along: the `ingest.batch_fill`
    /// histogram records the size of every batch a worker drained through
    /// [`InstaMeasure::process_batch`] and the `hotpath.*` gauges report
    /// the prefetch, SIMD and CPU-feature state of the run.
    pub telemetry: Snapshot,
}

impl RunReport {
    /// Dispatch imbalance: max over min per-worker packet share (1.0 is
    /// perfectly balanced).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let max = self.per_worker_packets.iter().copied().max().unwrap_or(0);
        let min = self.per_worker_packets.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Runs the sharded pipeline over a pre-loaded packet stream (the paper
/// pre-loads the CAIDA trace into memory for its speed tests, §V-B),
/// losslessly, and returns the merged measurement plus the run report.
///
/// # Panics
///
/// Panics if `cfg` fails [`EngineConfig::validate`] or a worker thread
/// panics.
#[must_use]
pub fn run_multicore(records: &[PacketRecord], cfg: &EngineConfig) -> (MultiCoreSystem, RunReport) {
    run_multicore_stream(records.iter().copied(), cfg, BackpressurePolicy::Block)
}

/// Streaming variant of [`run_multicore`]: ingests packets from any
/// iterator, so arbitrarily long traces flow through the pipeline with
/// O(batch × workers) dispatch memory (the `stress` bench streams tens of
/// millions of packets this way), under a chosen full-ring `policy`.
///
/// # Panics
///
/// Panics if `cfg` fails [`EngineConfig::validate`] or a worker thread
/// panics.
#[must_use]
pub fn run_multicore_stream<I>(
    packets: I,
    cfg: &EngineConfig,
    policy: BackpressurePolicy,
) -> (MultiCoreSystem, RunReport)
where
    I: IntoIterator<Item = PacketRecord>,
{
    let sample_every = 8192;
    let registry = Arc::new(SharedRegistry::new());
    let mut queue_depth = LogHistogram::new();
    let mut queue_depth_samples = Vec::new();

    let start = Instant::now();
    let engine = Engine::start_batch(cfg, Arc::clone(&registry));
    let mut lane = engine.lane_with(policy).expect("a fresh engine is open");
    for (offered, pkt) in packets.into_iter().enumerate() {
        lane.push(pkt).expect("only this driver drains its engine");
        if offered.is_multiple_of(sample_every) {
            let depth = lane.queued_batches() * cfg.batch_size;
            queue_depth.observe(depth as u64);
            queue_depth_samples.push((pkt.ts_nanos, depth));
        }
    }
    // End of stream: flush every partial batch (the flush rule — a tail
    // shorter than batch_size must still reach its worker).
    let batch_flushes = lane.partial_batches();
    lane.flush().expect("only this driver drains its engine");
    let (per_worker_dropped, shed_batches) = match lane.shed() {
        Some(shed) => (shed.packets.clone(), shed.batches.snapshot()),
        None => (vec![0; cfg.workers], HistogramSnapshot::default()),
    };
    drop(lane);
    let (drained, exits) = engine.into_shards();
    let wall_nanos = start.elapsed().as_nanos() as u64;

    let dropped: u64 = per_worker_dropped.iter().sum();
    let packets = drained.processed;
    let throughput_pps =
        if wall_nanos == 0 { 0.0 } else { packets as f64 * 1e9 / wall_nanos as f64 };
    let engine_telemetry = registry.snapshot();
    let mut telemetry = Snapshot::new();
    for (name, value) in engine_telemetry.iter() {
        if let (true, MetricValue::Gauge(v)) = (name.starts_with("hotpath."), value) {
            telemetry.set_gauge(name, *v);
        }
    }
    // Shipped batches are what the workers drained; assembled batches
    // also count the ones a full ring dropped.
    let fill = engine_telemetry.histogram("ingest.batch_fill").cloned().unwrap_or_default();
    let mut occupancy = fill.clone();
    occupancy.merge(&shed_batches);
    let batches_sent = engine_telemetry.counter("service.ingest.batches").unwrap_or(0);
    telemetry.set_histogram("ingest.batch_fill", fill);
    telemetry.set_histogram("ingest.batch_occupancy", occupancy);
    telemetry.set_histogram("multicore.queue_depth", queue_depth.snapshot());
    telemetry.set_counter("ingest.batches_sent", batches_sent);
    telemetry.set_counter("ingest.batch_flushes", batch_flushes);
    telemetry.set_counter("ingest.dropped_pkts", dropped);
    telemetry.set_counter("multicore.dropped", dropped);
    telemetry.set_counter("multicore.packets", packets);
    telemetry.set_gauge("multicore.throughput_pps", throughput_pps);
    for (w, exit) in exits.iter().enumerate() {
        telemetry.set_counter(format!("multicore.worker{w}.packets"), exit.processed);
        telemetry.set_counter(format!("multicore.worker{w}.busy_nanos"), exit.busy_nanos);
        telemetry.set_counter(format!("ingest.worker{w}.dropped_pkts"), per_worker_dropped[w]);
    }
    let report = RunReport {
        wall_nanos,
        packets,
        throughput_pps,
        per_worker_packets: drained.per_worker,
        per_worker_dropped,
        batches_sent,
        batch_flushes,
        queue_depth_samples,
        worker_busy_nanos: exits.iter().map(|e| e.busy_nanos).collect(),
        dropped,
        telemetry,
    };
    let shards = exits.into_iter().map(|e| e.im.expect("batch-mode shards hand back their state"));
    (MultiCoreSystem { shards: shards.collect() }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstaMeasureConfig;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [5, 5, 5, 5], 1000, 80, Protocol::Tcp)
    }

    /// Shard geometry with the ring sized as `queue_packets` packets.
    fn sized(workers: usize, queue_packets: usize, batch_size: usize) -> EngineConfig {
        EngineConfig {
            workers,
            batch_size,
            queue_batches: queue_packets.div_ceil(batch_size),
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        }
    }

    fn cfg(workers: usize) -> EngineConfig {
        sized(workers, 1024, 256)
    }

    #[test]
    fn dispatch_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let w = worker_for(&key(i), 4);
            assert!(w < 4);
            assert_eq!(w, worker_for(&key(i), 4));
        }
    }

    #[test]
    fn all_packets_of_a_flow_meet_one_worker() {
        let records: Vec<PacketRecord> =
            (0..1000u64).map(|t| PacketRecord::new(key(7), 100, t)).collect();
        let (_, report) = run_multicore(&records, &cfg(4));
        let nonzero = report.per_worker_packets.iter().filter(|&&c| c > 0).count();
        assert_eq!(nonzero, 1, "a single flow lands on a single worker");
        assert_eq!(report.packets, 1000);
    }

    #[test]
    fn elephants_measured_accurately_through_the_pipeline() {
        let mut records = Vec::new();
        for t in 0..50_000u64 {
            records.push(PacketRecord::new(key(1), 700, t));
            if t % 5 == 0 {
                records.push(PacketRecord::new(key(t as u32 + 10), 64, t));
            }
        }
        let (sys, report) = run_multicore(&records, &cfg(3));
        let est = sys.estimate_packets(&key(1));
        assert!((est - 50_000.0).abs() / 50_000.0 < 0.15, "estimate {est}");
        assert_eq!(report.per_worker_packets.iter().sum::<u64>(), records.len() as u64);
        assert!(report.throughput_pps > 0.0);
        // The elephant appears in the merged Top-K.
        let top = sys.top_k_by_packets(1);
        assert_eq!(top[0].0, key(1));
    }

    #[test]
    fn popcount_dispatch_is_roughly_balanced_for_random_sources() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let records: Vec<PacketRecord> = (0..20_000u64)
            .map(|t| {
                let k =
                    FlowKey::new(rng.gen::<u32>().to_be_bytes(), [1, 1, 1, 1], 1, 2, Protocol::Udp);
                PacketRecord::new(k, 64, t)
            })
            .collect();
        let (_, report) = run_multicore(&records, &cfg(2));
        // popcount parity of random u32s is a fair coin.
        assert!(report.imbalance() < 1.15, "imbalance {}", report.imbalance());
    }

    #[test]
    fn queue_depths_stay_bounded() {
        let records: Vec<PacketRecord> =
            (0..30_000u64).map(|t| PacketRecord::new(key(t as u32 % 64), 64, t)).collect();
        let (_, report) = run_multicore(&records, &cfg(2));
        assert!(!report.queue_depth_samples.is_empty());
        // Each worker holds at most queue_batches whole batches.
        let bound = 2 * cfg(2).queue_batches * cfg(2).batch_size;
        assert!(report.queue_depth_samples.iter().all(|&(_, d)| d <= bound));
        // Sample timestamps are non-decreasing (trace order).
        assert!(report.queue_depth_samples.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn single_worker_multicore_matches_single_core_system() {
        let records: Vec<PacketRecord> =
            (0..20_000u64).map(|t| PacketRecord::new(key(3), 500, t)).collect();
        let (sys, _) = run_multicore(&records, &cfg(1));
        let mut single = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for r in &records {
            single.process(r);
        }
        let a = sys.estimate_packets(&key(3));
        let b = single.estimate_packets(&key(3));
        assert!((a - b).abs() < 1e-9, "identical config+stream => identical estimate: {a} vs {b}");
    }

    #[test]
    fn batch_size_does_not_change_what_is_measured() {
        let records: Vec<PacketRecord> =
            (0..40_000u64).map(|t| PacketRecord::new(key(t as u32 % 300), 120, t)).collect();
        let (reference, _) = run_multicore(&records, &cfg(3));
        for batch_size in [1usize, 7, 255, 1024] {
            let (sys, report) = run_multicore(&records, &sized(3, 1024, batch_size));
            assert_eq!(report.packets, records.len() as u64);
            for i in 0..300u32 {
                let a = sys.estimate_packets(&key(i));
                let b = reference.estimate_packets(&key(i));
                assert!((a - b).abs() < 1e-12, "batch {batch_size} flow {i}: {a} vs reference {b}");
            }
        }
    }

    #[test]
    fn partial_batches_are_flushed_at_end_of_stream() {
        // 10 packets with batch_size 256: nothing ever fills a batch, so
        // everything arrives via the end-of-stream flush.
        let records: Vec<PacketRecord> =
            (0..10u64).map(|t| PacketRecord::new(key(t as u32), 64, t)).collect();
        let (_, report) = run_multicore(&records, &cfg(4));
        assert_eq!(report.packets, 10);
        assert_eq!(report.dropped, 0);
        assert!(report.batch_flushes >= 1);
        assert_eq!(report.batches_sent, report.telemetry.counter("ingest.batches_sent").unwrap());
        assert_eq!(report.batch_flushes, report.telemetry.counter("ingest.batch_flushes").unwrap());
        let occ = report.telemetry.histogram("ingest.batch_occupancy").unwrap();
        assert_eq!(occ.sum, 10, "occupancy histogram sums to the packets shipped");
    }

    #[test]
    fn empty_stream_is_fine() {
        let (sys, report) = run_multicore(&[], &cfg(2));
        assert_eq!(report.packets, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.batches_sent, 0);
        assert_eq!(report.batch_flushes, 0);
        assert_eq!(sys.workers(), 2);
    }

    #[test]
    fn run_telemetry_reconciles_with_report() {
        let records: Vec<PacketRecord> =
            (0..30_000u64).map(|t| PacketRecord::new(key(t as u32 % 97), 64, t)).collect();
        let (sys, report) = run_multicore(&records, &cfg(3));
        // Per-worker live counters match the dispatcher's accounting
        // and sum to the trace size.
        for (w, &n) in report.per_worker_packets.iter().enumerate() {
            assert_eq!(report.telemetry.counter(&format!("multicore.worker{w}.packets")), Some(n));
        }
        let worker_pkts: u64 = (0..3)
            .map(|w| report.telemetry.counter(&format!("multicore.worker{w}.packets")).unwrap())
            .sum();
        assert_eq!(worker_pkts, records.len() as u64);
        assert_eq!(report.telemetry.counter("multicore.packets"), Some(report.packets));
        assert_eq!(report.telemetry.counter("multicore.dropped"), Some(0));
        assert_eq!(report.telemetry.counter("ingest.dropped_pkts"), Some(0));
        assert!(report.telemetry.histogram("multicore.queue_depth").unwrap().count > 0);
        // Every shipped packet appears in exactly one occupancy-histogram
        // batch.
        let occ = report.telemetry.histogram("ingest.batch_occupancy").unwrap();
        assert_eq!(occ.sum, records.len() as u64);
        assert_eq!(occ.count, report.batches_sent);
        // Workers drained the same packets through the batched hot path.
        let fill = report.telemetry.histogram("ingest.batch_fill").unwrap();
        assert_eq!(fill.sum, records.len() as u64);
        assert_eq!(fill.count, report.batches_sent);
        let expected_prefetch =
            if instameasure_packet::prefetch::prefetch_enabled() { 1.0 } else { 0.0 };
        assert_eq!(report.telemetry.gauge("hotpath.prefetch_enabled"), Some(expected_prefetch));
        let expected_simd = if instameasure_packet::simd::simd_enabled() { 1.0 } else { 0.0 };
        assert_eq!(report.telemetry.gauge("hotpath.simd_enabled"), Some(expected_simd));
        assert_eq!(
            report.telemetry.gauge("hotpath.prefetch_distance"),
            Some(instameasure_packet::prefetch::prefetch_distance() as f64)
        );
        for feature in instameasure_packet::simd::cpu_features() {
            assert_eq!(report.telemetry.gauge(&format!("hotpath.cpu.{feature}")), Some(1.0));
        }
        // The merged shard snapshot sees every packet exactly once.
        let merged = sys.telemetry();
        assert_eq!(merged.counter("regulator.packets"), Some(records.len() as u64));
        assert_eq!(merged.counter("wsaf.accumulates"), merged.counter("regulator.updates"));
    }

    #[test]
    fn tied_flows_rank_by_key_offline_and_live() {
        // Two flows with equal WSAF counts on different shards: `a` lives
        // on shard 0 but sorts after `b` on shard 1, so a merge in shard
        // order would rank `a` first.
        let a = FlowKey::new([0, 0, 0, 3], [7, 7, 7, 7], 1, 2, Protocol::Tcp);
        let b = FlowKey::new([0, 0, 0, 1], [7, 7, 7, 7], 1, 2, Protocol::Tcp);
        assert_eq!((worker_for(&a, 2), worker_for(&b, 2)), (0, 1));
        assert!(b < a);
        let records: Vec<PacketRecord> = (0..240u64)
            .map(|t| PacketRecord::new(if t % 2 == 0 { a } else { b }, 100, t))
            .collect();
        let (sys, _) = run_multicore(&records, &cfg(2));
        let offline = sys.top_k_by_packets(2);
        assert_eq!(offline.len(), 2);
        assert_eq!(offline[0].1, offline[1].1, "precondition: the two flows tie");
        assert_eq!([offline[0].0, offline[1].0], [b, a], "ties rank by key");

        let engine_cfg = EngineConfig {
            workers: 2,
            batch_size: 256,
            queue_batches: 4,
            pin: false,
            per_worker: cfg(2).per_worker,
        };
        let engine = Engine::start(&engine_cfg, Arc::new(SharedRegistry::new()));
        let mut lane = engine.lane().unwrap();
        lane.submit(&records).unwrap();
        drop(lane);
        engine.drain();
        let live: Vec<(FlowKey, f64)> =
            engine.top_k(2).into_iter().map(|f| (f.key, f.packets)).collect();
        assert_eq!(live, offline, "`query top-k` and `analyze --workers` agree");
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = run_multicore(&[], &cfg(0));
    }

    #[test]
    #[should_panic(expected = "batch size must be in 1..=")]
    fn zero_batch_size_rejected() {
        let mut c = cfg(1);
        c.batch_size = 0;
        let _ = run_multicore(&[], &c);
    }
}

#[cfg(test)]
mod backpressure_tests {
    use super::*;
    use crate::InstaMeasureConfig;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [3, 3, 3, 3], 1, 2, Protocol::Tcp)
    }

    #[test]
    fn block_policy_never_drops() {
        let records: Vec<PacketRecord> =
            (0..50_000u64).map(|t| PacketRecord::new(key(t as u32 % 128), 64, t)).collect();
        let cfg = EngineConfig {
            workers: 4,
            batch_size: 1,
            queue_batches: 2,
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        };
        let (_, report) = run_multicore(&records, &cfg);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets, 50_000);
    }

    #[test]
    fn drop_policy_conserves_packet_accounting() {
        // Tiny queues + bursty dispatch: some drops are likely, but
        // processed + dropped must always equal the input — at batch
        // granularity, since an overrun loses the whole batch.
        let records: Vec<PacketRecord> =
            (0..200_000u64).map(|t| PacketRecord::new(key(t as u32 % 512), 64, t)).collect();
        let cfg = EngineConfig {
            workers: 4,
            batch_size: 16,
            queue_batches: 1,
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        };
        let (_, report) =
            run_multicore_stream(records.iter().copied(), &cfg, BackpressurePolicy::Drop);
        assert_eq!(report.packets + report.dropped, 200_000);
        assert_eq!(report.per_worker_packets.iter().sum::<u64>(), report.packets);
        assert_eq!(report.per_worker_dropped.iter().sum::<u64>(), report.dropped);
        // Per-worker drop counters reconcile report vs live telemetry.
        for (w, &d) in report.per_worker_dropped.iter().enumerate() {
            assert_eq!(
                report.telemetry.counter(&format!("ingest.worker{w}.dropped_pkts")),
                Some(d)
            );
        }
        assert_eq!(report.telemetry.counter("ingest.dropped_pkts"), Some(report.dropped));
    }

    #[test]
    fn drop_policy_still_measures_what_it_saw() {
        // Even with drops, an elephant's estimate must track the packets
        // that actually reached a worker (the paper compares against the
        // same dropped stream for exactly this reason).
        let records: Vec<PacketRecord> =
            (0..100_000u64).map(|t| PacketRecord::new(key(1), 64, t)).collect();
        let cfg = EngineConfig {
            workers: 2,
            batch_size: 4,
            queue_batches: 1,
            pin: false,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
        };
        let (sys, report) =
            run_multicore_stream(records.iter().copied(), &cfg, BackpressurePolicy::Drop);
        let delivered = report.per_worker_packets.iter().sum::<u64>();
        let est = sys.estimate_packets(&key(1));
        let rel = (est - delivered as f64).abs() / delivered.max(1) as f64;
        assert!(rel < 0.2, "estimate {est} vs delivered {delivered}");
    }
}
