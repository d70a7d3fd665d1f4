//! The FlowRegulator (paper §III, Algorithm 1) at any depth: the
//! single-layer RCC baseline (L=1), the paper's two-layer design (L=2,
//! the default) and the §V-B TCAM-margin extension (L=3..=6).

use instameasure_packet::{prefetch, simd as packet_simd, FlowDigest, PacketRecord};
use instameasure_telemetry::{Instrumented, Snapshot};

use crate::config::SketchConfig;
use crate::decode;
use crate::filter::{FilterStats, FlowFilter, FlowUpdate};
use crate::rcc::{Rcc, SaturationEvent};

/// Depth and design-choice switches of the FlowRegulator, exposed for
/// ablation studies (`cargo run -rp instameasure-bench --bin ablations`).
/// The defaults are the paper's design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRegulatorOptions {
    /// Number of layers, `1..=6`: 1 is the single-layer RCC baseline
    /// (every L1 saturation goes straight to the WSAF), 2 the paper's
    /// design, 3+ the §V-B extension ("adjusting the vector size or even
    /// the number of layers") for TCAM-grade margins.
    pub layers: u32,
    /// Collapse the per-noise-class branches below L1 into a single
    /// shared branch (ablates the paper's three-case design of §III-A:
    /// saturations of different classes then share one vector, blurring
    /// the decode unit).
    pub shared_l2: bool,
    /// Give the layers below L1 an independent hash function instead of
    /// reusing L1's word index and bit positions (ablates the paper's
    /// "hash function reuse"; costs a second hash per L1 saturation).
    pub independent_l2_hash: bool,
}

impl Default for FlowRegulatorOptions {
    fn default() -> Self {
        FlowRegulatorOptions { layers: 2, shared_l2: false, independent_l2_hash: false }
    }
}

/// The paper's probabilistic counter cascade.
///
/// Layer 1 is a plain [`Rcc`]. Below it, each L1 *noise class* (three
/// for 8-bit vectors) owns a branch: a chain of `layers - 1` RCCs. When
/// L1 saturates with noise class `z`, a single bit is encoded into the
/// first layer of branch `z` — so one L2 bit stands for a whole L1 cycle
/// (~7 packets for `b = 8`) — and a saturation at depth `k` likewise
/// encodes one bit at depth `k + 1`. Only a saturation of the *last*
/// layer releases an update, whose count is the product of the decodes
/// along the chain; at the paper's two layers:
///
/// ```text
/// est_pkt  = RCC_Decode(Noise_L1) × RCC_Decode(Noise_L2)
/// est_byte = est_pkt × len(trigger packet)
/// ```
///
/// With one layer there are no branches and every L1 saturation is
/// released as is. All layers share the flow's hash (word index and bit
/// positions — the paper's "hash function reuse"), so a packet costs
/// **one hash and at most `layers` word accesses**, and the deep layers
/// are touched rarely.
///
/// Total memory is `(1 + noise_classes × (layers - 1)) × memory_bytes` —
/// 4× for the default 8-bit vectors at two layers, matching the paper's
/// 32 KB → 128 KB accounting.
///
/// # Example
///
/// ```
/// use instameasure_packet::{FlowKey, PacketRecord, Protocol};
/// use instameasure_sketch::{FlowFilter, FlowRegulator, FlowRegulatorOptions, SketchConfig};
///
/// let cfg = SketchConfig::builder().memory_bytes(8 * 1024).build()?;
/// let mut three = FlowRegulator::with_options(
///     cfg,
///     FlowRegulatorOptions { layers: 3, ..Default::default() },
/// );
/// let key = FlowKey::new([9, 9, 9, 9], [1, 1, 1, 1], 5, 5, Protocol::Udp);
/// for t in 0..200_000u64 {
///     three.process(&PacketRecord::new(key, 700, t));
/// }
/// // Three layers regulate far harder than two (~0.1% vs ~2%).
/// assert!(three.stats().regulation_rate() < 0.005);
/// # Ok::<(), instameasure_sketch::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowRegulator {
    l1: Rcc,
    /// Every layer below L1, flat: branch `c`'s layer at depth `d`
    /// (0 = L2) lives at `c × (layers - 1) + d`. At two layers this is
    /// one L2 per branch; at one layer it is empty.
    deep: Vec<Rcc>,
    opts: FlowRegulatorOptions,
    stats: FilterStats,
    /// L1 saturations (= recycles) broken down by the noise class of the
    /// finished cycle, `1..=noise_max`.
    l1_sats_by_class: Vec<u64>,
    /// Recycled per-batch scratch: the packets' digests (SoA, feeds the
    /// AVX2 digest kernel) ...
    digest_scratch: Vec<FlowDigest>,
    /// ... and their L1 lane hashes.
    lane_scratch: Vec<u64>,
}

impl FlowRegulator {
    /// Creates the paper's two-layer FlowRegulator whose L1 layer uses
    /// `cfg`; L2 layers are allocated with identical geometry, one per
    /// noise class.
    ///
    /// # Example
    ///
    /// ```
    /// use instameasure_sketch::{FlowRegulator, SketchConfig};
    /// let cfg = SketchConfig::builder().memory_bytes(32 * 1024).build()?;
    /// let fr = FlowRegulator::new(cfg);
    /// assert_eq!(fr.num_l2_layers(), 3);
    /// # Ok::<(), instameasure_sketch::ConfigError>(())
    /// ```
    #[must_use]
    pub fn new(cfg: SketchConfig) -> Self {
        Self::with_options(cfg, FlowRegulatorOptions::default())
    }

    /// Creates a FlowRegulator with an explicit depth and design switches
    /// (ablations). Every layer allocates the same memory as L1.
    ///
    /// # Panics
    ///
    /// Panics if `opts.layers` is 0 or greater than 6 (beyond six layers
    /// the release quantum exceeds any realistic measurement window).
    #[must_use]
    pub fn with_options(cfg: SketchConfig, opts: FlowRegulatorOptions) -> Self {
        assert!((1..=6).contains(&opts.layers), "layers must be in 1..=6");
        let chain = opts.layers as usize - 1;
        let branches = match (chain, opts.shared_l2) {
            (0, _) => 0,
            (_, true) => 1,
            (_, false) => cfg.noise_classes() as usize,
        };
        let deep_cfg =
            if opts.independent_l2_hash { cfg.with_seed(cfg.seed() ^ 0x10E2_5EED) } else { cfg };
        FlowRegulator {
            l1: Rcc::new(cfg),
            deep: (0..branches * chain).map(|_| Rcc::new(deep_cfg)).collect(),
            opts,
            stats: FilterStats::default(),
            l1_sats_by_class: vec![0; cfg.noise_classes() as usize],
            digest_scratch: Vec::new(),
            lane_scratch: Vec::new(),
        }
    }

    /// The active depth and design switches.
    #[must_use]
    pub fn options(&self) -> FlowRegulatorOptions {
        self.opts
    }

    /// Number of layers (1 = single-layer RCC, 2 = the paper's design).
    #[must_use]
    pub fn layers(&self) -> u32 {
        self.opts.layers
    }

    /// Number of L2 layers: one per branch (= noise classes of the L1
    /// geometry, 1 under the shared-L2 ablation, 0 at a single layer).
    #[must_use]
    pub fn num_l2_layers(&self) -> usize {
        self.deep.len() / self.chain_len().max(1)
    }

    /// The L1 layer (read-only, for diagnostics).
    #[must_use]
    pub fn l1(&self) -> &Rcc {
        &self.l1
    }

    /// The configured geometry (shared by all layers).
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        self.l1.config()
    }

    /// Analytic retention capacity for this geometry and depth:
    /// `capacity(layer)^layers` packets of one isolated flow per release.
    #[must_use]
    pub fn model_retention(&self) -> f64 {
        self.epoch().powi(self.opts.layers as i32)
    }

    /// Layers per branch below L1 (`layers - 1`).
    fn chain_len(&self) -> usize {
        self.opts.layers as usize - 1
    }

    /// One layer's noise-free saturation period: each level of a branch
    /// scales the unit of the level above by it.
    fn epoch(&self) -> f64 {
        decode::saturation_period(self.config().vector_bits(), self.config().noise_max())
    }

    /// The decode *unit* for noise class `class` given the current local
    /// noise estimate: the packets one class-`class` L1 saturation stands
    /// for.
    fn class_unit(&self, class: u32) -> f64 {
        decode::estimate_own_packets(self.config().vector_bits(), class, 0.0).max(1.0)
    }

    /// Algorithm 1 with the hashing already done: encode into L1 and
    /// hand an L1 saturation to the cascade. `h1` must be
    /// `self.l1().hash_digest(digest)` — the scalar and batched entry
    /// points both funnel through the same tail, which is what keeps them
    /// bit-identical.
    #[inline]
    fn process_prepared(
        &mut self,
        pkt: &PacketRecord,
        digest: FlowDigest,
        h1: u64,
    ) -> Option<FlowUpdate> {
        self.stats.packets += 1;
        self.stats.hashes += 1; // the digest: reused by every layer unless ablated

        self.stats.mem_accesses += 1;
        let sat1 = self.l1.encode_hashed(h1)?;
        self.finish_l1_saturation(pkt, digest, h1, sat1)
    }

    /// The batched twin of [`FlowRegulator::process_prepared`]: L1's
    /// placement comes from the prepared batch scratch (packet `i` of the
    /// current `Rcc::prepare_batch`) instead of being derived
    /// inline. Identical outcome — `Rcc::encode_prepared` is bit-identical
    /// to `Rcc::encode_hashed` — and the L1-saturation tail is literally
    /// shared code.
    #[inline]
    fn process_prepared_idx(
        &mut self,
        pkt: &PacketRecord,
        digest: FlowDigest,
        h1: u64,
        i: usize,
    ) -> Option<FlowUpdate> {
        self.stats.packets += 1;
        self.stats.hashes += 1;

        self.stats.mem_accesses += 1;
        let sat1 = self.l1.encode_prepared(i)?;
        self.finish_l1_saturation(pkt, digest, h1, sat1)
    }

    /// Everything after an L1 saturation: bump the class counter, then
    /// walk the class's branch (rare, data-dependent — stays scalar),
    /// encoding one bit per level until a level does not saturate. Only
    /// when the last level saturates is the product of the decodes
    /// released; a single-layer regulator releases L1's decode directly.
    #[inline]
    fn finish_l1_saturation(
        &mut self,
        pkt: &PacketRecord,
        digest: FlowDigest,
        h1: u64,
        sat1: SaturationEvent,
    ) -> Option<FlowUpdate> {
        self.l1_sats_by_class[(sat1.noise_class - 1) as usize] += 1;

        let mut est_pkts = sat1.estimate;
        let chain = self.chain_len();
        if chain > 0 {
            let branch = if self.opts.shared_l2 { 0 } else { (sat1.noise_class - 1) as usize };
            let h = if self.opts.independent_l2_hash {
                self.stats.hashes += 1;
                self.deep[0].hash_digest(digest)
            } else {
                h1
            };
            for layer in &mut self.deep[branch * chain..(branch + 1) * chain] {
                self.stats.mem_accesses += 1;
                est_pkts *= layer.encode_hashed(h)?.estimate;
            }
        }

        self.stats.updates += 1;
        Some(FlowUpdate {
            key: pkt.key,
            digest,
            est_pkts,
            est_bytes: est_pkts * f64::from(pkt.wire_len),
            ts_nanos: pkt.ts_nanos,
        })
    }

    /// [`FlowFilter::estimate_packets`] with the digest already
    /// computed: L1's running cycle plus, per branch, the chain decoded
    /// inward — each level's residual scaled by the packets one of its
    /// bits stands for (the class unit × `epoch^depth`). Query layers
    /// that hash once for several structures use this to skip the
    /// key-byte rehash.
    #[must_use]
    pub fn residual_packets_digest(&self, digest: FlowDigest) -> f64 {
        let h = self.l1.hash_digest(digest);
        let mut total = self.l1.residual_hashed(h);
        if self.deep.is_empty() {
            return total;
        }
        let h = if self.opts.independent_l2_hash { self.deep[0].hash_digest(digest) } else { h };
        let epoch = self.epoch();
        for (idx, branch) in self.deep.chunks_exact(self.chain_len()).enumerate() {
            // Under the shared-L2 ablation the class is unknowable; use
            // the top class as the unit (slightly optimistic, like the
            // design itself).
            let class =
                if self.opts.shared_l2 { self.config().noise_max() } else { idx as u32 + 1 };
            let mut unit = self.class_unit(class);
            for layer in branch {
                let level_count = layer.residual_hashed(h);
                if level_count > 0.0 {
                    total += level_count * unit;
                }
                unit *= epoch;
            }
        }
        total
    }
}

impl FlowFilter for FlowRegulator {
    /// Algorithm 1 of the paper: one digest of the key bytes, then
    /// `FlowRegulator::process_prepared`.
    fn process(&mut self, pkt: &PacketRecord) -> Option<FlowUpdate> {
        let digest = FlowDigest::of(&pkt.key);
        let h1 = self.l1.hash_digest(digest);
        self.process_prepared(pkt, digest, h1)
    }

    /// Batched hot path, three passes: (1) the AVX2 digest kernel mixes
    /// four keys per step into digests + L1 lanes (SoA scratch); (2) L1
    /// derives every packet's placement — word index, vector mask, drawn
    /// position — four packets per step (`Rcc::prepare_batch`);
    /// (3) the memory-touching encode runs in packet order with the L1
    /// counter word of packet `i + K` prefetched by its precomputed index
    /// (K = [`prefetch::prefetch_distance`]). Deeper words are not
    /// prefetched and deeper encodes stay scalar — which layer (if any) a
    /// packet touches below L1 depends on L1's saturation outcome, so
    /// their addresses are unknowable ahead of the encode.
    fn process_batch(&mut self, pkts: &[PacketRecord], out: &mut Vec<FlowUpdate>) {
        let mut digests = core::mem::take(&mut self.digest_scratch);
        let mut lanes = core::mem::take(&mut self.lane_scratch);
        packet_simd::digest_lanes_into(pkts, self.l1.config().seed(), &mut digests, &mut lanes);
        self.l1.prepare_batch(&lanes);

        let k = prefetch::prefetch_distance();
        for i in 0..pkts.len().min(k) {
            self.l1.prefetch_prepared(i);
        }
        for (i, pkt) in pkts.iter().enumerate() {
            self.l1.prefetch_prepared(i + k);
            if let Some(u) = self.process_prepared_idx(pkt, digests[i], lanes[i], i) {
                out.push(u);
            }
        }

        self.digest_scratch = digests;
        self.lane_scratch = lanes;
    }

    /// The residual: [`FlowRegulator::residual_packets_digest`].
    fn estimate_packets(&self, digest: FlowDigest) -> f64 {
        self.residual_packets_digest(digest)
    }

    fn stats(&self) -> FilterStats {
        self.stats
    }

    fn memory_bytes(&self) -> usize {
        self.config().memory_bytes() * (1 + self.deep.len())
    }

    fn reset(&mut self) {
        self.l1.reset();
        for layer in &mut self.deep {
            layer.reset();
        }
        self.stats = FilterStats::default();
        self.l1_sats_by_class.fill(0);
    }
}

impl Instrumented for FlowRegulator {
    /// Exports the regulator's counters under the `regulator.` prefix, at
    /// every depth.
    ///
    /// Counters: `packets`, `updates` (= `leak_throughs`, estimates
    /// released to the WSAF), `hashes`, `mem_accesses`, `recycles`
    /// (L1 saturations), plus `l1.saturations.class{z}` per noise class
    /// and `l{d}.layer{i}.saturations` for branch `i`'s layer at depth
    /// `d` (2..=layers). Last-layer saturations are the releases, so at
    /// two or more layers the `l{layers}.` counters sum to `updates`.
    /// Gauges: `regulation_rate`, `l1.fill_ratio`, `l{d}.layer{i}.fill_ratio`.
    fn telemetry(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.set_counter("regulator.packets", self.stats.packets);
        snap.set_counter("regulator.updates", self.stats.updates);
        snap.set_counter("regulator.leak_throughs", self.stats.updates);
        snap.set_counter("regulator.hashes", self.stats.hashes);
        snap.set_counter("regulator.mem_accesses", self.stats.mem_accesses);
        snap.set_counter("regulator.recycles", self.l1.saturations());
        for (idx, &n) in self.l1_sats_by_class.iter().enumerate() {
            snap.set_counter(format!("regulator.l1.saturations.class{}", idx + 1), n);
        }
        let chain = self.chain_len().max(1);
        for (at, layer) in self.deep.iter().enumerate() {
            let (branch, depth) = (at / chain, at % chain + 2);
            let name = format!("regulator.l{depth}.layer{branch}");
            snap.set_counter(format!("{name}.saturations"), layer.saturations());
            snap.set_gauge(format!("{name}.fill_ratio"), layer.fill_ratio());
        }
        snap.set_gauge("regulator.regulation_rate", self.stats.regulation_rate());
        snap.set_gauge("regulator.l1.fill_ratio", self.l1.fill_ratio());
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::{FlowKey, Protocol};

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [8, 8, 8, 8], 53, 53, Protocol::Udp)
    }

    fn pkt(i: u32, t: u64) -> PacketRecord {
        PacketRecord::new(key(i), 1000, t)
    }

    fn cfg(bytes: usize) -> SketchConfig {
        SketchConfig::builder().memory_bytes(bytes).vector_bits(8).seed(3).build().unwrap()
    }

    fn depth(layers: u32) -> FlowRegulatorOptions {
        FlowRegulatorOptions { layers, ..Default::default() }
    }

    #[test]
    fn allocates_one_l2_per_noise_class() {
        assert_eq!(FlowRegulator::new(cfg(1024)).num_l2_layers(), 3);
        let cfg16 = SketchConfig::builder().memory_bytes(1024).vector_bits(16).build().unwrap();
        assert_eq!(FlowRegulator::new(cfg16).num_l2_layers(), 6);
        assert_eq!(FlowRegulator::with_options(cfg(1024), depth(1)).num_l2_layers(), 0);
        assert_eq!(FlowRegulator::with_options(cfg(1024), depth(4)).num_l2_layers(), 3);
    }

    #[test]
    fn memory_accounting_matches_paper() {
        // 32 KB L1 -> 128 KB total (paper §IV-D).
        let fr = FlowRegulator::new(cfg(32 * 1024));
        assert_eq!(fr.memory_bytes(), 128 * 1024);
        assert_eq!(fr.layers(), 2);
    }

    #[test]
    fn regulation_rate_is_multiplicatively_lower_than_rcc() {
        // Paper Fig. 7: FR ≈ 1%, RCC ≈ 12–19%. For a single elephant the
        // FR rate is ~1/(decode_L1 × decode_L2) ≈ 1.5–2.5%.
        let mut fr = FlowRegulator::new(cfg(4096));
        for t in 0..200_000u64 {
            fr.process(&pkt(1, t));
        }
        let rate = fr.stats().regulation_rate();
        assert!((0.005..0.04).contains(&rate), "FR regulation rate {rate}");
    }

    #[test]
    fn single_layer_regulation_rate_matches_fig1() {
        // Paper Fig. 1: 8-bit RCC passes 12–19% of packets through to the
        // WSAF. For a single elephant flow the rate is 1/coupon ≈ 14%.
        let cfg = SketchConfig::builder().memory_bytes(4096).vector_bits(8).build().unwrap();
        let mut reg = FlowRegulator::with_options(cfg, depth(1));
        for t in 0..100_000u64 {
            reg.process(&pkt(1, t));
        }
        let rate = reg.stats().regulation_rate();
        assert!((0.10..0.20).contains(&rate), "RCC regulation rate {rate}");
    }

    #[test]
    fn at_most_two_accesses_one_hash_per_packet() {
        let mut fr = FlowRegulator::new(cfg(4096));
        let n = 50_000u64;
        for t in 0..n {
            fr.process(&pkt((t % 7) as u32, t));
        }
        let s = fr.stats();
        assert_eq!(s.hashes, n, "exactly one hash per packet");
        let apx = s.accesses_per_packet();
        assert!((1.0..=2.0).contains(&apx), "accesses/packet {apx}");
        // Mostly mice cycles: the second access is rare (~1/7 of packets).
        assert!(apx < 1.35, "accesses/packet {apx} should stay near 1");
    }

    #[test]
    fn single_layer_one_access_one_hash_per_packet() {
        let mut reg = FlowRegulator::with_options(SketchConfig::default(), depth(1));
        for t in 0..1000 {
            reg.process(&pkt(t as u32 % 10, t));
        }
        let s = reg.stats();
        assert_eq!(s.mem_accesses, 1000);
        assert_eq!(s.hashes, 1000);
    }

    #[test]
    fn elephant_estimate_within_bounds() {
        let mut fr = FlowRegulator::new(cfg(32 * 1024));
        let truth = 300_000u64;
        let mut est = 0.0;
        for t in 0..truth {
            if let Some(u) = fr.process(&pkt(1, t)) {
                est += u.est_pkts;
            }
        }
        est += fr.residual_packets(&key(1));
        let rel = (est - truth as f64).abs() / truth as f64;
        assert!(rel < 0.15, "estimate {est} vs {truth}: rel err {rel}");
    }

    #[test]
    fn mice_are_retained_not_forwarded() {
        // 10k distinct 3-packet mice in a roomy sketch: essentially no
        // updates should reach the WSAF.
        let mut fr = FlowRegulator::new(cfg(256 * 1024));
        for i in 0..10_000u32 {
            for p in 0..3u64 {
                fr.process(&pkt(i, p));
            }
        }
        let rate = fr.stats().regulation_rate();
        assert!(rate < 0.001, "mice regulation rate {rate}");
    }

    #[test]
    fn residual_accounts_for_l2_retention() {
        // Feed enough packets to saturate L1 several times but (very
        // likely) not release an L2 saturation; residual must then exceed
        // a single L1 cycle's worth.
        let mut fr = FlowRegulator::new(cfg(64 * 1024));
        let mut released = 0.0;
        for t in 0..60u64 {
            if let Some(u) = fr.process(&pkt(2, t)) {
                released += u.est_pkts;
            }
        }
        let residual = fr.residual_packets(&key(2));
        assert!(
            released + residual > 30.0,
            "released {released} + residual {residual} must track ~60 packets"
        );
    }

    #[test]
    fn byte_estimates_use_trigger_packet_length() {
        for layers in 1..=3 {
            let mut fr = FlowRegulator::with_options(cfg(1024), depth(layers));
            let mut checked = false;
            for t in 0..500_000u64 {
                let len = if t % 2 == 0 { 64 } else { 1500 };
                if let Some(u) = fr.process(&PacketRecord::new(key(4), len, t)) {
                    let expected = u.est_pkts * f64::from(len);
                    assert!((u.est_bytes - expected).abs() < 1e-6, "layers={layers}");
                    assert_eq!(u.ts_nanos, t, "layers={layers}");
                    checked = true;
                    break;
                }
            }
            assert!(checked, "layers={layers}: expected at least one update");
        }
    }

    #[test]
    fn telemetry_reconciles_with_stats_at_every_depth() {
        for layers in 1..=4 {
            let mut fr = FlowRegulator::with_options(cfg(4096), depth(layers));
            for t in 0..50_000u64 {
                fr.process(&pkt((t % 5) as u32, t));
            }
            let snap = fr.telemetry();
            let s = fr.stats();
            let ctx = format!("layers={layers}");
            assert_eq!(snap.counter("regulator.packets"), Some(s.packets), "{ctx}");
            assert_eq!(snap.counter("regulator.updates"), Some(s.updates), "{ctx}");
            assert_eq!(snap.counter("regulator.leak_throughs"), Some(s.updates), "{ctx}");
            // Per-class L1 saturations partition the total recycle count.
            assert_eq!(
                snap.counter_sum("regulator.l1.saturations."),
                snap.counter("regulator.recycles").unwrap(),
                "{ctx}"
            );
            if layers == 1 {
                // Every L1 saturation is released as is.
                assert_eq!(snap.counter("regulator.recycles"), Some(s.updates), "{ctx}");
            } else {
                // Each released update is exactly one last-layer
                // saturation, counted on the branch that released it.
                let releases: u64 = (0..fr.num_l2_layers())
                    .map(|i| {
                        snap.counter(&format!("regulator.l{layers}.layer{i}.saturations")).unwrap()
                    })
                    .sum();
                assert_eq!(releases, s.updates, "{ctx}");
                assert_eq!(snap.counter_sum(&format!("regulator.l{layers}.")), s.updates, "{ctx}");
            }
            let rate = snap.gauge("regulator.regulation_rate").unwrap();
            assert!((rate - s.regulation_rate()).abs() < 1e-12, "{ctx}");

            fr.reset();
            let cleared = fr.telemetry();
            assert_eq!(cleared.counter("regulator.packets"), Some(0), "{ctx}");
            assert_eq!(cleared.counter_sum("regulator.l1.saturations."), 0, "{ctx}");
            assert_eq!(cleared.counter_sum(&format!("regulator.l{layers}.")), 0, "{ctx}");
        }
    }

    #[test]
    fn batch_is_bit_identical_to_scalar_under_all_options() {
        let trace: Vec<PacketRecord> = (0..8_000u64)
            .map(|t| PacketRecord::new(key((t % 13) as u32), 100 + (t % 1400) as u16, t))
            .collect();
        for layers in 1..=4 {
            for (shared, indep) in [(false, false), (true, false), (false, true), (true, true)] {
                let opts =
                    FlowRegulatorOptions { layers, shared_l2: shared, independent_l2_hash: indep };
                for chunk in [1usize, 9, 256, 8_000] {
                    let mut scalar = FlowRegulator::with_options(cfg(2048), opts);
                    let mut batched = FlowRegulator::with_options(cfg(2048), opts);

                    let mut scalar_out = Vec::new();
                    for pkt in &trace {
                        if let Some(u) = scalar.process(pkt) {
                            scalar_out.push(u);
                        }
                    }
                    let mut batch_out = Vec::new();
                    for pkts in trace.chunks(chunk) {
                        batched.process_batch(pkts, &mut batch_out);
                    }

                    let ctx =
                        format!("layers={layers} shared={shared} indep={indep} chunk={chunk}");
                    assert_eq!(scalar_out, batch_out, "{ctx}");
                    assert_eq!(scalar.stats(), batched.stats(), "{ctx}");
                    assert_eq!(scalar.telemetry(), batched.telemetry(), "{ctx}");
                    for i in 0..13 {
                        let a = scalar.residual_packets(&key(i));
                        let b = batched.residual_packets(&key(i));
                        assert_eq!(a.to_bits(), b.to_bits(), "{ctx} flow={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn reset_clears_all_layers() {
        for layers in 1..=4 {
            let mut fr = FlowRegulator::with_options(cfg(1024), depth(layers));
            for t in 0..10_000u64 {
                fr.process(&pkt(1, t));
            }
            fr.reset();
            assert_eq!(fr.stats(), FilterStats::default(), "layers={layers}");
            assert_eq!(fr.residual_packets(&key(1)), 0.0, "layers={layers}");
            assert_eq!(fr.l1().fill_ratio(), 0.0, "layers={layers}");
        }
    }
}

/// The cascade at depths other than the paper's two: the single-layer
/// RCC baseline and the §V-B deep extension.
#[cfg(test)]
mod depth_tests {
    use super::*;
    use instameasure_packet::{FlowKey, Protocol};

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [2, 2, 2, 2], 7, 7, Protocol::Tcp)
    }

    fn pkt(i: u32, t: u64) -> PacketRecord {
        PacketRecord::new(key(i), 900, t)
    }

    fn cfg() -> SketchConfig {
        SketchConfig::builder().memory_bytes(8 * 1024).vector_bits(8).seed(5).build().unwrap()
    }

    fn regulator(layers: u32) -> FlowRegulator {
        FlowRegulator::with_options(cfg(), FlowRegulatorOptions { layers, ..Default::default() })
    }

    #[test]
    fn one_layer_behaves_like_single_rcc() {
        let mut one = regulator(1);
        for t in 0..50_000u64 {
            one.process(&pkt(1, t));
        }
        let rate = one.stats().regulation_rate();
        assert!((0.10..0.20).contains(&rate), "1-layer rate {rate}");
        assert_eq!(one.memory_bytes(), cfg().memory_bytes());
    }

    #[test]
    fn regulation_shrinks_geometrically_with_layers() {
        let mut rates = Vec::new();
        for layers in 1..=3u32 {
            let mut fr = regulator(layers);
            for t in 0..400_000u64 {
                fr.process(&pkt(1, t));
            }
            rates.push(fr.stats().regulation_rate());
        }
        assert!(rates[1] < rates[0] / 3.0, "2 layers {} << 1 layer {}", rates[1], rates[0]);
        assert!(rates[2] < rates[1] / 3.0, "3 layers {} << 2 layers {}", rates[2], rates[1]);
    }

    #[test]
    fn retention_matches_model() {
        // Single isolated flow: packets per update ≈ model_retention.
        for layers in 1..=2u32 {
            let mut fr = regulator(layers);
            let n = 500_000u64;
            for t in 0..n {
                fr.process(&pkt(1, t));
            }
            let period = n as f64 / fr.stats().updates.max(1) as f64;
            let model = fr.model_retention();
            let rel = (period - model).abs() / model;
            assert!(rel < 0.30, "layers={layers}: period {period} vs model {model}");
        }
    }

    #[test]
    fn three_layer_estimate_is_conserved() {
        let mut fr = regulator(3);
        let truth = 2_000_000u64;
        let mut released = 0.0;
        for t in 0..truth {
            if let Some(u) = fr.process(&pkt(1, t)) {
                released += u.est_pkts;
            }
        }
        let total = released + fr.residual_packets(&key(1));
        let rel = (total - truth as f64).abs() / truth as f64;
        // One 3-layer cycle retains ~350 packets; tolerance accordingly.
        assert!(rel < 0.25, "estimate {total} vs {truth} ({rel})");
    }

    #[test]
    fn memory_accounting() {
        // 8 KB L1, 3 classes, layers-1 extra counters per class.
        assert_eq!(regulator(3).memory_bytes(), 8 * 1024 * (1 + 3 * 2));
    }

    #[test]
    fn accesses_bounded_by_layer_count() {
        let mut fr = regulator(4);
        let n = 100_000u64;
        for t in 0..n {
            fr.process(&pkt((t % 5) as u32, t));
        }
        let s = fr.stats();
        assert!(s.accesses_per_packet() <= 4.0);
        assert!(s.accesses_per_packet() < 1.3, "deep layers are touched rarely");
        assert_eq!(s.hashes, n);
    }

    #[test]
    fn reset_clears_cascade() {
        let mut fr = regulator(3);
        for t in 0..10_000u64 {
            fr.process(&pkt(1, t));
        }
        fr.reset();
        assert_eq!(fr.stats(), FilterStats::default());
        assert_eq!(fr.residual_packets(&key(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "layers must be in 1..=6")]
    fn rejects_zero_layers() {
        let _ = regulator(0);
    }

    #[test]
    #[should_panic(expected = "layers must be in 1..=6")]
    fn rejects_seven_layers() {
        let _ = regulator(7);
    }
}

#[cfg(test)]
mod option_tests {
    use super::*;
    use instameasure_packet::{FlowKey, Protocol};

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [4, 4, 4, 4], 1, 1, Protocol::Tcp)
    }

    fn cfg() -> SketchConfig {
        SketchConfig::builder().memory_bytes(8 * 1024).vector_bits(8).seed(11).build().unwrap()
    }

    fn run(opts: FlowRegulatorOptions, flows: u32, pkts: u64) -> (FlowRegulator, f64) {
        let mut fr = FlowRegulator::with_options(cfg(), opts);
        let mut released = vec![0.0f64; flows as usize];
        for t in 0..pkts {
            for i in 0..flows {
                if let Some(u) = fr.process(&PacketRecord::new(key(i), 500, t)) {
                    released[i as usize] += u.est_pkts;
                }
            }
        }
        let mut err = 0.0;
        for i in 0..flows {
            let est = released[i as usize] + fr.residual_packets(&key(i));
            err += (est - pkts as f64).abs() / pkts as f64;
        }
        (fr, err / f64::from(flows))
    }

    #[test]
    fn shared_l2_uses_one_layer_and_less_memory() {
        let fr = FlowRegulator::with_options(
            cfg(),
            FlowRegulatorOptions { shared_l2: true, ..Default::default() },
        );
        assert_eq!(fr.num_l2_layers(), 1);
        assert_eq!(fr.memory_bytes(), 2 * cfg().memory_bytes());
    }

    #[test]
    fn independent_hash_costs_extra_hashes() {
        let (reuse, _) = run(FlowRegulatorOptions::default(), 4, 20_000);
        let (indep, _) = run(
            FlowRegulatorOptions { independent_l2_hash: true, ..Default::default() },
            4,
            20_000,
        );
        assert_eq!(reuse.stats().hashes, reuse.stats().packets, "hash reuse: 1 per packet");
        assert!(
            indep.stats().hashes > indep.stats().packets,
            "independent hashing pays a second hash on L1 saturations"
        );
    }

    #[test]
    fn all_option_combinations_stay_accurate_for_elephants() {
        // The ablated designs still count; the default should be at least
        // competitive. (Exact ordering is workload-dependent; the
        // ablations binary reports it on a realistic trace.)
        for (shared, indep) in [(false, false), (true, false), (false, true), (true, true)] {
            let (_, err) = run(
                FlowRegulatorOptions {
                    shared_l2: shared,
                    independent_l2_hash: indep,
                    ..Default::default()
                },
                4,
                50_000,
            );
            assert!(err < 0.2, "shared={shared} indep={indep}: err {err}");
        }
    }
}
