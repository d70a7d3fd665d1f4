//! Differential tests: the batched multi-core pipeline must be *exactly*
//! — bit for bit — the same measurement as a single-core replay of each
//! worker's shard, for every seed, worker count and batch size. This is
//! what lets the dispatch hot path be optimized freely: any change that
//! alters results fails here before it can hide behind sketch error bars.

mod support;

use instameasure::core::engine::EngineConfig;
use instameasure::core::multicore::run_multicore;
use instameasure::core::InstaMeasureConfig;
use instameasure::traffic::presets::caida_like;
use support::oracle::{
    assert_identical_measurement, replay, shard_records, test_worker_counts, ExactOracle,
};

fn config(workers: usize, batch_size: usize) -> EngineConfig {
    EngineConfig {
        workers,
        batch_size,
        queue_batches: 4096usize.div_ceil(batch_size),
        per_worker: InstaMeasureConfig::default().small_for_tests(),
        ..EngineConfig::default()
    }
}

#[test]
fn batched_pipeline_is_bit_identical_to_single_core_replay() {
    for seed in [3u64, 17] {
        let trace = caida_like(0.004, seed);
        let oracle = ExactOracle::from_records(&trace.records);
        for workers in test_worker_counts() {
            let shards = shard_records(&trace.records, workers);
            let truth = oracle.shard_totals(workers);
            // One single-core reference per shard, shared across batch
            // sizes — the replayed stream does not depend on batching.
            let references: Vec<_> = shards
                .iter()
                .map(|s| replay(s, InstaMeasureConfig::default().small_for_tests()))
                .collect();
            for batch_size in [1usize, 7, 256, 1024] {
                let (sys, report) = run_multicore(&trace.records, &config(workers, batch_size));
                let ctx = format!("seed {seed} workers {workers} batch {batch_size}");
                assert_eq!(report.dropped, 0, "{ctx}: Block mode must not drop");
                assert_eq!(report.packets, oracle.packets, "{ctx}: all packets processed");
                for w in 0..workers {
                    // Per-worker packet totals match the exact oracle...
                    assert_eq!(
                        report.per_worker_packets[w], truth[w].0,
                        "{ctx}: worker {w} packet total != oracle shard total"
                    );
                    assert_eq!(
                        report.telemetry.counter(&format!("multicore.worker{w}.packets")),
                        Some(truth[w].0),
                        "{ctx}: worker {w} live counter != oracle shard total"
                    );
                    // ...and the worker's entire measurement state equals a
                    // single-core replay of its shard: same WSAF decode
                    // output, same regulator counters, bitwise-equal
                    // estimates.
                    assert_identical_measurement(
                        sys.shard(w),
                        &references[w],
                        &format!("{ctx} worker {w}"),
                    );
                }
            }
        }
    }
}

#[test]
fn per_worker_byte_totals_match_the_oracle() {
    let trace = caida_like(0.004, 29);
    let oracle = ExactOracle::from_records(&trace.records);
    for workers in test_worker_counts() {
        let shards = shard_records(&trace.records, workers);
        let truth = oracle.shard_totals(workers);
        for (w, shard) in shards.iter().enumerate() {
            // The shard split itself conserves packets and bytes exactly.
            let shard_oracle = ExactOracle::from_records(shard);
            assert_eq!((shard_oracle.packets, shard_oracle.bytes), truth[w]);
        }
        assert_eq!(truth.iter().map(|t| t.0).sum::<u64>(), oracle.packets);
        assert_eq!(truth.iter().map(|t| t.1).sum::<u64>(), oracle.bytes);
    }
}

#[test]
fn oracle_grounds_the_top_flows() {
    // The oracle is also the accuracy reference: the pipeline's estimates
    // for the true heaviest flows stay within the paper's error band.
    let trace = caida_like(0.004, 11);
    let oracle = ExactOracle::from_records(&trace.records);
    let (sys, _) = run_multicore(&trace.records, &config(2, 256));
    for (key, truth) in oracle.top_k(10) {
        let est = sys.estimate_packets(&key);
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.30, "flow {key}: est {est} vs exact {truth} (rel {rel})");
    }
}
