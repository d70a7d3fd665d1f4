//! Trait-conformance differential suite for the pluggable filter front
//! end.
//!
//! The redesign moved [`InstaMeasure`] from a hard-wired `FlowRegulator`
//! field to the [`FlowFilter`] trait behind [`FilterKind`]. These tests
//! pin down the contract that made the change safe:
//!
//! 1. the default kind ([`FilterKind::Regulator`]) is **bit-identical**
//!    to the pre-refactor pipeline — reconstructed here by hand-composing
//!    a `FlowRegulator` with a `WsafTable` exactly the way the old
//!    `InstaMeasure::process`/`process_batch` did;
//! 2. every kind's batched path is bit-identical to its scalar path at
//!    any batch size, through the whole system;
//! 3. every kind survives the multi-core dispatch differential: each
//!    shard of `run_multicore` matches a single-core replay of that
//!    shard's sub-stream.

mod support;

use instameasure::core::engine::EngineConfig;
use instameasure::core::export::{encode_records, snapshot};
use instameasure::core::multicore::run_multicore;
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::packet::{FlowDigest, FlowKey, PacketRecord, Protocol};
use instameasure::sketch::{FilterKind, FilterStats, FlowFilter, FlowRegulator, ALL_FILTER_KINDS};
use instameasure::traffic::presets::caida_like;
use instameasure::wsaf::{WsafDeposit, WsafTable};
use support::oracle::{
    assert_identical_measurement, decode_output, replay, replay_batched, shard_records,
    test_worker_counts,
};

fn cfg(kind: FilterKind) -> InstaMeasureConfig {
    InstaMeasureConfig::default().small_for_tests().with_filter(kind)
}

/// The pipeline exactly as it was before the front end became pluggable:
/// a concrete [`FlowRegulator`] wired straight to a [`WsafTable`], with
/// the same accumulate / batch-deposit / residual-query arithmetic the
/// old `InstaMeasure` methods used.
struct LegacyPipeline {
    regulator: FlowRegulator,
    wsaf: WsafTable,
}

impl LegacyPipeline {
    fn new(cfg: InstaMeasureConfig) -> Self {
        LegacyPipeline { regulator: FlowRegulator::new(cfg.sketch), wsaf: WsafTable::new(cfg.wsaf) }
    }

    fn process(&mut self, pkt: &PacketRecord) {
        if let Some(u) = self.regulator.process(pkt) {
            self.wsaf.accumulate_hashed(
                &u.key,
                self.wsaf.hash_digest(u.digest),
                u.est_pkts,
                u.est_bytes,
                u.ts_nanos,
            );
        }
    }

    fn process_batch(&mut self, pkts: &[PacketRecord]) {
        let mut updates = Vec::new();
        self.regulator.process_batch(pkts, &mut updates);
        let deposits: Vec<WsafDeposit> = updates
            .iter()
            .map(|u| WsafDeposit {
                key: u.key,
                digest: u.digest,
                est_pkts: u.est_pkts,
                est_bytes: u.est_bytes,
                ts: u.ts_nanos,
            })
            .collect();
        self.wsaf.accumulate_batch(&deposits);
    }

    fn estimate_packets(&self, key: &FlowKey) -> f64 {
        let digest = FlowDigest::of(key);
        let table =
            self.wsaf.get_hashed(key, self.wsaf.hash_digest(digest)).map_or(0.0, |e| e.packets);
        table + self.regulator.residual_packets(key)
    }

    fn estimate_bytes(&self, key: &FlowKey) -> f64 {
        let digest = FlowDigest::of(key);
        match self.wsaf.get_hashed(key, self.wsaf.hash_digest(digest)) {
            Some(e) => {
                let mean_len = if e.packets > 0.0 { e.bytes / e.packets } else { 0.0 };
                e.bytes + self.regulator.residual_packets(key) * mean_len
            }
            None => 0.0,
        }
    }

    fn stats(&self) -> FilterStats {
        self.regulator.stats()
    }
}

/// Asserts the trait-routed system is observably identical to the legacy
/// hand-wired pipeline: WSAF decode output, work counters and bitwise
/// per-flow estimates.
fn assert_matches_legacy(im: &InstaMeasure, legacy: &LegacyPipeline, ctx: &str) {
    let a = decode_output(im);
    let mut b = snapshot(&legacy.wsaf);
    b.sort_by_key(|r| r.key);
    assert_eq!(a, b, "{ctx}: WSAF decode output diverged");
    assert_eq!(encode_records(&a), encode_records(&b), "{ctx}: encoded bytes diverged");
    assert_eq!(im.filter_stats(), legacy.stats(), "{ctx}: work counters diverged");
    for r in &b {
        let (lp, lb) = (legacy.estimate_packets(&r.key), legacy.estimate_bytes(&r.key));
        assert_eq!(
            im.estimate_packets(&r.key).to_bits(),
            lp.to_bits(),
            "{ctx}: packet estimate for {} diverged",
            r.key
        );
        assert_eq!(
            im.estimate_bytes(&r.key).to_bits(),
            lb.to_bits(),
            "{ctx}: byte estimate for {} diverged",
            r.key
        );
    }
    // A key neither pipeline ever saw agrees too (pure residual path).
    let absent = FlowKey::new([250, 1, 2, 3], [250, 4, 5, 6], 7777, 8888, Protocol::Icmp);
    assert_eq!(
        im.estimate_packets(&absent).to_bits(),
        legacy.estimate_packets(&absent).to_bits(),
        "{ctx}: absent-flow residual diverged"
    );
}

#[test]
fn regulator_kind_scalar_is_bit_identical_to_prerefactor_pipeline() {
    let trace = caida_like(0.01, 21);
    let im = replay(&trace.records, cfg(FilterKind::Regulator));
    let mut legacy = LegacyPipeline::new(cfg(FilterKind::Regulator));
    for r in &trace.records {
        legacy.process(r);
    }
    assert_matches_legacy(&im, &legacy, "scalar");
}

#[test]
fn regulator_kind_batched_is_bit_identical_to_prerefactor_pipeline() {
    let trace = caida_like(0.01, 22);
    for batch in [1usize, 7, 64, 256, 1000] {
        let im = replay_batched(&trace.records, cfg(FilterKind::Regulator), batch);
        let mut legacy = LegacyPipeline::new(cfg(FilterKind::Regulator));
        for chunk in trace.records.chunks(batch) {
            legacy.process_batch(chunk);
        }
        assert_matches_legacy(&im, &legacy, &format!("batch={batch}"));
    }
}

#[test]
fn every_kind_batched_matches_scalar_through_the_system() {
    let trace = caida_like(0.01, 23);
    for kind in ALL_FILTER_KINDS {
        let scalar = replay(&trace.records, cfg(kind));
        for batch in [1usize, 13, 256, 999] {
            let batched = replay_batched(&trace.records, cfg(kind), batch);
            assert_identical_measurement(&batched, &scalar, &format!("{kind} batch={batch}"));
        }
    }
}

#[test]
fn every_kind_survives_the_multicore_differential() {
    let trace = caida_like(0.01, 24);
    for kind in ALL_FILTER_KINDS {
        for workers in test_worker_counts() {
            let mc_cfg = EngineConfig { workers, per_worker: cfg(kind), ..EngineConfig::default() };
            let (sys, report) = run_multicore(&trace.records, &mc_cfg);
            assert_eq!(report.packets, trace.records.len() as u64, "{kind} w={workers}");
            for (w, shard) in shard_records(&trace.records, workers).iter().enumerate() {
                let reference = replay(shard, cfg(kind));
                assert_identical_measurement(
                    sys.shard(w),
                    &reference,
                    &format!("{kind} worker {w}/{workers}"),
                );
            }
        }
    }
}

#[test]
fn every_kind_reports_its_own_kind_and_budget() {
    for kind in ALL_FILTER_KINDS {
        let config = cfg(kind);
        let im = InstaMeasure::new(config);
        assert_eq!(im.filter_kind(), kind);
        let budget = config.sketch.memory_bytes() * (1 + config.sketch.noise_classes() as usize);
        let mem = im.filter().memory_bytes();
        assert!(mem <= budget, "{kind}: {mem} bytes over the {budget}-byte budget");
        assert!(mem * 8 >= budget * 7, "{kind}: {mem} bytes leaves >1/8 of {budget} unused");
    }
}
