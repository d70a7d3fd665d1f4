//! Telemetry reconciliation: every number the unified telemetry layer
//! reports must agree exactly with the legacy stats structs and with
//! ground truth about the trace that produced it.

use instameasure::core::engine::{BackpressurePolicy, EngineConfig};
use instameasure::core::multicore::{run_multicore, run_multicore_stream};
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::sketch::{FlowFilter, FlowRegulator, SketchConfig};
use instameasure::telemetry::Instrumented;
use instameasure::traffic::presets::caida_like;
use instameasure::wsaf::WsafConfig;

fn paper_cfg(seed: u64) -> InstaMeasureConfig {
    InstaMeasureConfig::default()
        .with_sketch(
            SketchConfig::builder()
                .memory_bytes(32 * 1024)
                .vector_bits(8)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .with_wsaf(WsafConfig::builder().entries_log2(18).build().unwrap())
}

#[test]
fn regulator_saturation_counters_match_stats() {
    let trace = caida_like(0.02, 11);
    let mut fr = FlowRegulator::new(
        SketchConfig::builder().memory_bytes(16 * 1024).vector_bits(8).seed(11).build().unwrap(),
    );
    for r in &trace.records {
        fr.process(r);
    }
    let stats = fr.stats();
    let snap = fr.telemetry();

    assert_eq!(snap.counter("regulator.packets"), Some(stats.packets));
    assert_eq!(snap.counter("regulator.updates"), Some(stats.updates));
    assert_eq!(snap.counter("regulator.hashes"), Some(stats.hashes));
    assert_eq!(snap.counter("regulator.mem_accesses"), Some(stats.mem_accesses));
    // Per-class L1 saturation counters partition the total L1 saturations.
    let per_class = snap.counter_sum("regulator.l1.saturations");
    assert_eq!(per_class, snap.counter("regulator.recycles").unwrap());
    // Every L2 saturation released an update.
    let l2_sats = snap.counter_sum("regulator.l2");
    assert_eq!(l2_sats, stats.updates, "each L2 saturation is one WSAF update");
}

#[test]
fn wsaf_outcome_tallies_sum_to_accumulates() {
    let trace = caida_like(0.02, 11);
    let mut im = InstaMeasure::new(paper_cfg(11));
    for r in &trace.records {
        im.process(r);
    }
    let wstats = im.wsaf_stats();
    let snap = im.telemetry();

    // AccumulateOutcome partition: every accumulate either updated an
    // existing entry or inserted a fresh one (possibly after GC/eviction).
    let updates = snap.counter("wsaf.updates").unwrap();
    let inserts = snap.counter("wsaf.inserts").unwrap();
    assert_eq!(updates + inserts, wstats.accumulates);
    assert_eq!(snap.counter("wsaf.accumulates"), Some(wstats.accumulates));
    // The probe-length histogram observed exactly one length per accumulate.
    let hist = snap.histogram("wsaf.probe_len").unwrap();
    assert_eq!(hist.count, wstats.accumulates);
    // And the regulator's released updates are what the WSAF accumulated.
    assert_eq!(snap.counter("regulator.updates"), Some(wstats.accumulates));
}

#[test]
fn regulation_ratio_near_one_percent_on_caida_like() {
    let trace = caida_like(0.1, 42);
    let mut im = InstaMeasure::new(paper_cfg(42));
    for r in &trace.records {
        im.process(r);
    }
    let snap = im.telemetry();
    let ratio = snap.gauge("regulator.regulation_rate").unwrap();
    let by_hand = snap.counter("regulator.updates").unwrap() as f64
        / snap.counter("regulator.packets").unwrap() as f64;
    assert!((ratio - by_hand).abs() < 1e-12, "gauge {ratio} vs counters {by_hand}");
    // The paper's headline: ~1% of packets reach the WSAF (Fig. 7).
    assert!(
        (0.005..=0.02).contains(&ratio),
        "regulation ratio {ratio:.4} outside the paper's ~1% band"
    );
}

#[test]
fn multicore_worker_counters_sum_to_trace_packets() {
    let trace = caida_like(0.02, 7);
    for workers in [1usize, 3] {
        let cfg = EngineConfig {
            workers,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            ..EngineConfig::default()
        };
        let (sys, report) = run_multicore(&trace.records, &cfg);
        let snap = &report.telemetry;
        let mut worker_sum = 0;
        for w in 0..workers {
            let n = snap.counter(&format!("multicore.worker{w}.packets")).unwrap();
            assert_eq!(n, report.per_worker_packets[w]);
            worker_sum += n;
        }
        assert_eq!(worker_sum, trace.records.len() as u64);
        assert_eq!(snap.counter("multicore.dropped"), Some(0));
        // The merged shard view saw every packet exactly once too.
        let merged = sys.telemetry();
        assert_eq!(merged.counter("regulator.packets"), Some(trace.records.len() as u64));
    }
}

#[test]
fn drop_counters_exact_under_tiny_queue() {
    let trace = caida_like(0.02, 3);
    let cfg = EngineConfig {
        workers: 2,
        batch_size: 1,
        queue_batches: 1, // force backpressure
        per_worker: InstaMeasureConfig::default().small_for_tests(),
        ..EngineConfig::default()
    };
    let (sys, report) =
        run_multicore_stream(trace.records.iter().copied(), &cfg, BackpressurePolicy::Drop);
    let snap = &report.telemetry;
    let dropped = snap.counter("multicore.dropped").unwrap();
    assert_eq!(dropped, report.dropped);
    assert!(dropped > 0, "a 1-slot queue must drop under a {}-packet burst", trace.records.len());
    // Conservation: processed + dropped == offered, both in the report and
    // in the merged worker telemetry.
    let processed: u64 =
        (0..2).map(|w| snap.counter(&format!("multicore.worker{w}.packets")).unwrap()).sum();
    assert_eq!(processed + dropped, trace.records.len() as u64);
    assert_eq!(
        sys.telemetry().counter("regulator.packets"),
        Some(trace.records.len() as u64 - dropped)
    );
}
