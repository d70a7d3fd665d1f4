//! Multi-core pipeline consistency: sharded measurement must agree with
//! the flow-level truth regardless of worker count.

use instameasure::core::engine::{BackpressurePolicy, EngineConfig};
use instameasure::core::multicore::{run_multicore, run_multicore_stream, worker_for};
use instameasure::core::InstaMeasureConfig;
use instameasure::traffic::presets::caida_like;

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        per_worker: InstaMeasureConfig::default().small_for_tests(),
        ..EngineConfig::default()
    }
}

#[test]
fn worker_counts_all_measure_the_same_elephants() {
    let trace = caida_like(0.01, 9);
    let top = trace.stats.truth.top_k(10, false);
    for workers in [1usize, 2, 4] {
        let (sys, report) = run_multicore(&trace.records, &config(workers));
        assert_eq!(report.packets, trace.records.len() as u64);
        assert_eq!(
            report.per_worker_packets.iter().sum::<u64>(),
            report.packets,
            "no packet lost in dispatch"
        );
        for (key, truth) in &top {
            let est = sys.estimate_packets(key);
            let rel = (est - *truth as f64).abs() / *truth as f64;
            assert!(rel < 0.30, "workers={workers} flow {key}: est {est} vs {truth} (rel {rel})");
        }
    }
}

#[test]
fn sharding_respects_dispatch_function() {
    let trace = caida_like(0.003, 11);
    let workers = 3;
    let (sys, _) = run_multicore(&trace.records, &config(workers));
    // Every measured flow lives in the shard the dispatcher routes it
    // to; other shards see at most residual sketch noise (a loaded sketch
    // answers a few phantom packets for any key, by design).
    for (key, truth) in trace.stats.truth.top_k(5, false) {
        let home = worker_for(&key, workers);
        for w in 0..workers {
            let est = sys.shard(w).estimate_packets(&key);
            if w == home {
                assert!(
                    est > 0.5 * truth as f64,
                    "home shard {w} must know {key}: {est} vs {truth}"
                );
            } else {
                assert!(
                    est < (0.05 * truth as f64).max(6.0),
                    "shard {w} must only see noise for {key}: {est} vs {truth}"
                );
            }
        }
    }
}

#[test]
fn drop_mode_accuracy_is_judged_against_delivered_not_offered() {
    // Drop-mode drops used to be invisible to the accuracy metrics: shard
    // regulator counters were compared against the *offered* ground truth,
    // so a lossy run looked inaccurate instead of lossy. The contract is
    // that each worker's dropped packets are subtracted from its ground
    // truth — a shard is judged only on what was delivered to it.
    let trace = caida_like(0.01, 21);
    let cfg = EngineConfig {
        workers: 2,
        batch_size: 8,
        queue_batches: 1,
        per_worker: InstaMeasureConfig::default().small_for_tests(),
        ..EngineConfig::default()
    };
    let (sys, report) =
        run_multicore_stream(trace.records.iter().copied(), &cfg, BackpressurePolicy::Drop);
    let offered = trace.records.len() as u64;
    assert_eq!(report.packets + report.dropped, offered, "conservation across the drop split");
    assert!(report.dropped > 0, "an 8-packet queue must overrun on a {offered}-packet burst");
    for w in 0..2 {
        // Delivered ground truth for this worker = dispatched to it; the
        // per-worker drop counters make that computable exactly.
        let delivered = report.per_worker_packets[w];
        let stats = sys.shard(w).filter_stats();
        assert_eq!(
            stats.packets, delivered,
            "worker {w}: regulator saw exactly the delivered packets (offered minus {} dropped)",
            report.per_worker_dropped[w]
        );
        // With truth corrected for drops, the paper's regulation-rate band
        // still holds on the packets that did arrive.
        let rate = stats.regulation_rate();
        assert!(
            rate < 0.05,
            "worker {w}: regulation rate {rate:.4} outside the band on delivered traffic"
        );
    }
}

#[test]
fn merged_top_k_matches_truth_head() {
    let trace = caida_like(0.005, 13);
    let (sys, _) = run_multicore(&trace.records, &config(4));
    let measured: Vec<_> = sys.top_k_by_packets(20).into_iter().map(|(k, _)| k).collect();
    let truth: Vec<_> = trace.stats.truth.top_k(10, false).into_iter().map(|(k, _)| k).collect();
    let hits = truth.iter().filter(|k| measured.contains(k)).count();
    assert!(hits >= 8, "top-10 true flows found in merged top-20: {hits}/10");
}
