//! Differential tests for the single-hash batched hot path: driving
//! [`InstaMeasure::process_batch`] at *any* batch size — including 1 and
//! ragged tails — must leave the system bit-identical to the per-packet
//! scalar path. The scalar path is the oracle; the batched path is only
//! allowed to be faster, never different.

mod support;

use instameasure::core::engine::EngineConfig;
use instameasure::core::multicore::run_multicore;
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::packet::{prefetch, simd};
use instameasure::telemetry::Instrumented;
use instameasure::traffic::presets::{caida_like, campus_like};
use support::oracle::{
    assert_identical_measurement, replay, replay_batched, test_worker_counts, ExactOracle,
};

fn small() -> InstaMeasureConfig {
    InstaMeasureConfig::default().small_for_tests()
}

#[test]
fn batched_replay_is_bit_identical_at_every_batch_size() {
    for (name, trace) in [("caida", caida_like(0.004, 7)), ("campus", campus_like(0.004, 7))] {
        let reference = replay(&trace.records, small());
        // 1 degenerates to the scalar path; primes and non-divisors force
        // ragged tail chunks; the largest sizes cross prefetch distance
        // many times over.
        for batch_size in [1usize, 2, 3, 7, 13, 64, 256, 1000] {
            let batched = replay_batched(&trace.records, small(), batch_size);
            assert_identical_measurement(
                &batched,
                &reference,
                &format!("{name} batch {batch_size}"),
            );
        }
    }
}

#[test]
fn ragged_tail_and_tiny_batches_are_exact() {
    let trace = caida_like(0.002, 21);
    let n = trace.records.len();
    let reference = replay(&trace.records, small());
    // Batch sizes engineered so the final chunk is 1 packet or nearly
    // empty relative to the batch — the flush-edge cases.
    for batch_size in [n - 1, n / 2 + 1, n + 100] {
        let batched = replay_batched(&trace.records, small(), batch_size);
        assert_identical_measurement(&batched, &reference, &format!("tail batch {batch_size}"));
    }
    // Empty batches are a no-op.
    let mut im = replay_batched(&trace.records, small(), 64);
    im.process_batch(&[]);
    assert_identical_measurement(&im, &reference, "empty batch after replay");
}

#[test]
fn batched_telemetry_accounts_for_every_packet() {
    let trace = caida_like(0.004, 31);
    let oracle = ExactOracle::from_records(&trace.records);
    for workers in test_worker_counts() {
        for batch_size in [1usize, 7, 256] {
            let cfg = EngineConfig {
                workers,
                batch_size,
                queue_batches: 4096usize.div_ceil(batch_size),
                per_worker: small(),
                ..EngineConfig::default()
            };
            let (sys, report) = run_multicore(&trace.records, &cfg);
            let ctx = format!("workers {workers} batch {batch_size}");
            // Every packet the manager shipped was drained through the
            // batched hot path exactly once.
            let fill = report.telemetry.histogram("ingest.batch_fill").unwrap();
            assert_eq!(fill.sum, oracle.packets, "{ctx}: batch_fill packet total");
            assert_eq!(fill.count, report.batches_sent, "{ctx}: batch_fill batch count");
            // ...and the regulator saw the same total.
            let merged = sys.telemetry();
            assert_eq!(
                merged.counter("regulator.packets"),
                Some(oracle.packets),
                "{ctx}: regulator packet total"
            );
            // The prefetch gauge states what this build compiled in.
            let expected = if prefetch::prefetch_enabled() { 1.0 } else { 0.0 };
            assert_eq!(
                report.telemetry.gauge("hotpath.prefetch_enabled"),
                Some(expected),
                "{ctx}: prefetch gauge"
            );
            // ...and the SIMD gauges state which kernel tier ran.
            let expected_simd = if simd::simd_enabled() { 1.0 } else { 0.0 };
            assert_eq!(
                report.telemetry.gauge("hotpath.simd_enabled"),
                Some(expected_simd),
                "{ctx}: simd gauge"
            );
            assert_eq!(
                report.telemetry.gauge("hotpath.prefetch_distance"),
                Some(prefetch::prefetch_distance() as f64),
                "{ctx}: prefetch distance gauge"
            );
        }
    }
}

#[test]
fn single_hash_estimates_agree_between_combined_and_split_queries() {
    // InstaMeasure::estimate (one digest for both answers) must be
    // bitwise the pair (estimate_packets, estimate_bytes).
    let trace = caida_like(0.004, 13);
    let im = {
        let mut im = InstaMeasure::new(small());
        im.process_batch(&trace.records);
        im
    };
    let oracle = ExactOracle::from_records(&trace.records);
    for (key, _) in oracle.sorted_flows() {
        let (p, b) = im.estimate(&key);
        assert_eq!(p.to_bits(), im.estimate_packets(&key).to_bits(), "packets for {key}");
        assert_eq!(b.to_bits(), im.estimate_bytes(&key).to_bits(), "bytes for {key}");
    }
}
