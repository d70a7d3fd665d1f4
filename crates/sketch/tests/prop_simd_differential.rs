//! SIMD-vs-scalar differential battery: the AVX2 hot path must be
//! bit-identical to the scalar oracle for every [`FilterKind`] and every
//! [`FlowRegulatorOptions`] ablation, on ragged tails as much as full
//! lanes.
//!
//! The other batch-parity tests compare *batched* against *per-packet*
//! under whatever dispatch tier the host picks. These tests instead flip
//! the runtime kill switch ([`simd::set_simd_disabled`]) and replay the
//! same trace under both tiers, so the vector kernels are compared
//! directly against the scalar code they claim to mirror — on AVX2
//! hosts both legs run for real; elsewhere the comparison degenerates to
//! scalar-vs-scalar and still passes.

use std::sync::{Mutex, OnceLock};

use instameasure_packet::{simd, FlowDigest, FlowKey, PacketRecord, Protocol};
use instameasure_sketch::{
    FlowFilter, FlowRegulator, FlowRegulatorOptions, SketchConfig, ALL_FILTER_KINDS,
};
use proptest::prelude::*;

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), (i ^ 0xBEEF).to_be_bytes(), 40, 50, Protocol::Udp)
}

fn cfg(mem_log2: usize, bits: u32, seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .memory_bytes(1 << mem_log2)
        .vector_bits(bits)
        .seed(seed)
        .build()
        .expect("valid geometry")
}

/// The kill switch is process-global, so tests that flip it must not
/// interleave with each other. (They can safely interleave with tests
/// that do not *read* the tier: flipping it changes which kernel runs,
/// never what it computes.)
fn tier_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` once forced-scalar and once with SIMD allowed, returning
/// `(scalar, vector)`. Restores the pre-call dispatch tier on exit.
fn under_both_tiers<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = tier_lock().lock().unwrap_or_else(|e| e.into_inner());
    let restore_disabled = simd::simd_supported() && !simd::simd_enabled();
    simd::set_simd_disabled(true);
    let scalar = f();
    simd::set_simd_disabled(false);
    let vector = f();
    simd::set_simd_disabled(restore_disabled);
    (scalar, vector)
}

/// Replays `trace` through a fresh `build()` in `chunk`-sized batches
/// and returns everything observable: released updates, stats, and the
/// per-flow residuals for `flows` distinct keys.
fn replay<F: FlowFilter>(
    build: impl Fn() -> F,
    trace: &[PacketRecord],
    chunk: usize,
    flows: u32,
) -> (Vec<instameasure_sketch::FlowUpdate>, instameasure_sketch::FilterStats, Vec<u64>) {
    let mut filter = build();
    let mut out = Vec::new();
    for pkts in trace.chunks(chunk.max(1)) {
        filter.process_batch(pkts, &mut out);
    }
    let residuals =
        (0..flows).map(|i| filter.estimate_packets(FlowDigest::of(&key(i))).to_bits()).collect();
    (out, filter.stats(), residuals)
}

fn trace(flows: u32, packets: usize) -> Vec<PacketRecord> {
    (0..packets as u64)
        .map(|t| PacketRecord::new(key((t % u64::from(flows.max(1))) as u32), 120, t))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_kind_is_bit_identical_across_tiers(
        mem_log2 in 10usize..=16,
        bits in prop::sample::select(vec![4u32, 8, 16]),
        seed in any::<u64>(),
        flows in 1u32..64,
        packets in 1usize..2000,
        chunk in 1usize..300,
    ) {
        let cfg = cfg(mem_log2, bits, seed);
        let trace = trace(flows, packets);
        for kind in ALL_FILTER_KINDS {
            let (scalar, vector) =
                under_both_tiers(|| replay(|| kind.build(cfg), &trace, chunk, flows));
            prop_assert_eq!(&scalar.0, &vector.0, "{} updates diverged across tiers", kind);
            prop_assert_eq!(&scalar.1, &vector.1, "{} stats diverged across tiers", kind);
            prop_assert_eq!(&scalar.2, &vector.2, "{} residuals diverged across tiers", kind);
        }
    }

    #[test]
    fn regulator_ablations_are_bit_identical_across_tiers(
        seed in any::<u64>(),
        flows in 1u32..32,
        packets in 1usize..3000,
        chunk in 1usize..400,
        shared in any::<bool>(),
        indep in any::<bool>(),
    ) {
        let cfg = cfg(11, 8, seed);
        let opts = FlowRegulatorOptions { shared_l2: shared, independent_l2_hash: indep, ..Default::default() };
        let trace = trace(flows, packets);
        let (scalar, vector) = under_both_tiers(|| {
            replay(|| FlowRegulator::with_options(cfg, opts), &trace, chunk, flows)
        });
        let ctx = format!("shared={shared} indep={indep} chunk={chunk}");
        prop_assert_eq!(&scalar.0, &vector.0, "{} updates diverged across tiers", &ctx);
        prop_assert_eq!(&scalar.1, &vector.1, "{} stats diverged across tiers", &ctx);
        prop_assert_eq!(&scalar.2, &vector.2, "{} residuals diverged across tiers", &ctx);
    }
}

/// Fixed-vector leg: every batch length around the 4-wide lane boundary
/// (empty, sub-lane, exact lanes, lane+tail, prime, large), for every
/// kind and every ablation — so a tail-handling bug can never hide
/// behind proptest's random lengths.
#[test]
fn ragged_tails_are_bit_identical_across_tiers_for_every_kind() {
    let full = trace(13, 256);
    for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64, 100, 256] {
        let slice = &full[..len];
        for kind in ALL_FILTER_KINDS {
            let (scalar, vector) =
                under_both_tiers(|| replay(|| kind.build(cfg(12, 8, 7)), slice, len.max(1), 13));
            assert_eq!(scalar, vector, "{kind} diverged across tiers at len {len}");
        }
        for (shared, indep) in [(false, false), (true, false), (false, true), (true, true)] {
            let opts = FlowRegulatorOptions {
                shared_l2: shared,
                independent_l2_hash: indep,
                ..Default::default()
            };
            let (scalar, vector) = under_both_tiers(|| {
                replay(|| FlowRegulator::with_options(cfg(12, 8, 7), opts), slice, len.max(1), 13)
            });
            assert_eq!(
                scalar, vector,
                "regulator shared={shared} indep={indep} diverged across tiers at len {len}"
            );
        }
    }
}

/// The drop-to-scalar kill switch must change only the dispatch tier it
/// reports, never an estimate: a long hot trace replayed under both
/// tiers ends in byte-identical released-update streams even when every
/// word saturates and recycles many times over.
#[test]
fn saturation_heavy_trace_is_bit_identical_across_tiers() {
    // One elephant flow hammers a tiny sketch so L1 saturates and
    // recycles constantly — the placement kernel's rejection loop and
    // draw counter see maximum churn.
    let trace: Vec<PacketRecord> =
        (0..20_000u64).map(|t| PacketRecord::new(key((t % 3) as u32), 1500, t)).collect();
    for kind in ALL_FILTER_KINDS {
        let (scalar, vector) =
            under_both_tiers(|| replay(|| kind.build(cfg(10, 16, 99)), &trace, 256, 3));
        assert_eq!(scalar, vector, "{kind} diverged across tiers under saturation churn");
    }
}
