//! Windowed measurement: periodic Top-K reports over a rotating window.
//!
//! The paper's Top-K evaluation (Figs. 10/11) runs "with updates done
//! every 10 minutes": the measurement state rotates each epoch and a
//! report (Top-K by packets and by bytes, totals, entropy) is emitted per
//! window. This module implements that operational mode: a
//! [`WindowedMeasurement`] wraps an [`InstaMeasure`] instance, detects
//! epoch boundaries from packet timestamps, and yields a
//! [`WindowReport`] per closed window while exporting the window's flow
//! records.

use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_telemetry::{Instrumented, Snapshot};

use crate::apps::normalized_entropy;
use crate::export::{snapshot, FlowRecord};
use crate::{InstaMeasure, InstaMeasureConfig};

/// Summary of one closed measurement window.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Window start (inclusive, nanoseconds).
    pub start_nanos: u64,
    /// Window end (exclusive).
    pub end_nanos: u64,
    /// Packets processed in the window.
    pub packets: u64,
    /// WSAF updates released in the window.
    pub wsaf_updates: u64,
    /// Top flows by packet estimate, descending.
    pub top_by_packets: Vec<(FlowKey, f64)>,
    /// Top flows by byte estimate, descending.
    pub top_by_bytes: Vec<(FlowKey, f64)>,
    /// Normalized flow-size entropy of the window's WSAF.
    pub entropy: f64,
    /// All flow records of the window (the export stream).
    pub records: Vec<FlowRecord>,
}

/// An InstaMeasure pipeline that rotates every `window_nanos` and emits
/// per-window reports (the paper's 10-minute Top-K update mode).
///
/// # Example
///
/// ```
/// use instameasure_core::windowed::WindowedMeasurement;
/// use instameasure_core::InstaMeasureConfig;
/// use instameasure_packet::{FlowKey, PacketRecord, Protocol};
///
/// let cfg = InstaMeasureConfig::default().small_for_tests();
/// let mut wm = WindowedMeasurement::new(cfg, 1_000_000_000, 5); // 1 s windows, top-5
/// let key = FlowKey::new([1, 2, 3, 4], [5, 6, 7, 8], 80, 80, Protocol::Tcp);
/// let mut reports = Vec::new();
/// for t in 0..3_000u64 {
///     // one packet per millisecond for 3 seconds => 2 closed windows
///     if let Some(r) = wm.process(&PacketRecord::new(key, 100, t * 1_000_000)) {
///         reports.push(r);
///     }
/// }
/// assert_eq!(reports.len(), 2);
/// assert_eq!(reports[0].packets, 1_000);
/// ```
#[derive(Debug)]
pub struct WindowedMeasurement {
    system: InstaMeasure,
    window_nanos: u64,
    top_k: usize,
    window_start: u64,
    window_packets: u64,
    updates_at_window_start: u64,
    started: bool,
    closed_telemetry: Snapshot,
}

impl WindowedMeasurement {
    /// Creates a windowed pipeline with the given epoch length and Top-K
    /// report depth.
    ///
    /// # Panics
    ///
    /// Panics if `window_nanos` is zero.
    #[must_use]
    pub fn new(cfg: InstaMeasureConfig, window_nanos: u64, top_k: usize) -> Self {
        assert!(window_nanos > 0, "window must be positive");
        WindowedMeasurement {
            system: InstaMeasure::new(cfg),
            window_nanos,
            top_k,
            window_start: 0,
            window_packets: 0,
            updates_at_window_start: 0,
            started: false,
            closed_telemetry: Snapshot::new(),
        }
    }

    /// The active (not yet closed) window's system state.
    #[must_use]
    pub fn current(&self) -> &InstaMeasure {
        &self.system
    }

    /// Feeds a packet; returns the closed window's report when this packet
    /// is the first beyond a window boundary.
    ///
    /// Packets are assumed time-ordered (a capture stream); a stale
    /// timestamp is processed into the current window.
    pub fn process(&mut self, pkt: &PacketRecord) -> Option<WindowReport> {
        if !self.started {
            self.started = true;
            self.window_start = pkt.ts_nanos - pkt.ts_nanos % self.window_nanos;
        }
        let report = if pkt.ts_nanos >= self.window_start + self.window_nanos {
            Some(self.rotate(self.window_start + self.window_nanos))
        } else {
            None
        };
        self.system.process(pkt);
        self.window_packets += 1;
        report
    }

    /// Closes the current window unconditionally (end of capture) and
    /// returns its report.
    pub fn finish(&mut self) -> WindowReport {
        let end = self.system.last_ts().max(self.window_start) + 1;
        self.rotate(end)
    }

    fn rotate(&mut self, end: u64) -> WindowReport {
        let report = WindowReport {
            start_nanos: self.window_start,
            end_nanos: end,
            packets: self.window_packets,
            wsaf_updates: self.system.filter_stats().updates - self.updates_at_window_start,
            top_by_packets: self
                .system
                .wsaf()
                .top_k_by_packets(self.top_k)
                .into_iter()
                .map(|e| (e.key, e.packets))
                .collect(),
            top_by_bytes: self
                .system
                .wsaf()
                .top_k_by_bytes(self.top_k)
                .into_iter()
                .map(|e| (e.key, e.bytes))
                .collect(),
            entropy: normalized_entropy(self.system.wsaf()),
            records: snapshot(self.system.wsaf()),
        };
        // Fresh state for the next window (the paper restarts counting
        // each epoch; long-lived flows re-enter through the regulator).
        // Fold the outgoing window's counters into the run-level totals
        // first — rotation must not lose telemetry.
        self.closed_telemetry.merge(&self.system.telemetry());
        self.system.reset();
        self.window_start = end;
        self.window_packets = 0;
        self.updates_at_window_start = 0;
        report
    }
}

impl Instrumented for WindowedMeasurement {
    /// Run-level totals: every closed window's counters merged with the
    /// active window's. Gauges keep the Snapshot merge semantics (maximum
    /// across windows), except `regulator.regulation_rate`, which is
    /// recomputed from the merged counters so it stays the whole-run ratio.
    fn telemetry(&self) -> Snapshot {
        let mut snap = self.closed_telemetry.clone();
        snap.merge(&self.system.telemetry());
        let packets = snap.counter("regulator.packets").unwrap_or(0);
        if packets > 0 {
            let updates = snap.counter("regulator.updates").unwrap_or(0);
            snap.set_gauge("regulator.regulation_rate", updates as f64 / packets as f64);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::Protocol;

    fn key(i: u32) -> FlowKey {
        FlowKey::new(i.to_be_bytes(), [7, 7, 7, 7], 2, 3, Protocol::Udp)
    }

    fn cfg() -> InstaMeasureConfig {
        InstaMeasureConfig::default().small_for_tests()
    }

    #[test]
    fn windows_close_on_boundaries() {
        let mut wm = WindowedMeasurement::new(cfg(), 1_000, 3);
        let mut reports = Vec::new();
        for t in 0..10_000u64 {
            if let Some(r) = wm.process(&PacketRecord::new(key(1), 100, t)) {
                reports.push(r);
            }
        }
        assert_eq!(reports.len(), 9, "10k ns at 1k windows => 9 closed");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.start_nanos, i as u64 * 1_000);
            assert_eq!(r.end_nanos, (i as u64 + 1) * 1_000);
            assert_eq!(r.packets, 1_000);
        }
    }

    #[test]
    fn top_k_per_window_tracks_window_traffic() {
        let mut wm = WindowedMeasurement::new(cfg(), 1_000_000, 1);
        // Window 0: flow 1 dominates. Window 1: flow 2 dominates.
        for t in 0..500_000u64 {
            wm.process(&PacketRecord::new(key(1), 100, t));
        }
        let mut first = None;
        for t in 1_000_000..1_500_000u64 {
            if let Some(r) = wm.process(&PacketRecord::new(key(2), 100, t)) {
                first = Some(r);
            }
        }
        let last = wm.finish();
        assert_eq!(first.unwrap().top_by_packets[0].0, key(1));
        assert_eq!(last.top_by_packets[0].0, key(2), "state rotated between windows");
    }

    #[test]
    fn finish_flushes_partial_window() {
        let mut wm = WindowedMeasurement::new(cfg(), 1_000_000_000, 2);
        for t in 0..100u64 {
            wm.process(&PacketRecord::new(key(3), 100, t));
        }
        let r = wm.finish();
        assert_eq!(r.packets, 100);
        assert!(r.entropy >= 0.0 && r.entropy <= 1.0);
    }

    #[test]
    fn window_updates_counter_is_per_window() {
        let mut wm = WindowedMeasurement::new(cfg(), 1_000, 2);
        let mut total_updates = 0;
        let mut reports = 0;
        for t in 0..50_000u64 {
            if let Some(r) = wm.process(&PacketRecord::new(key(4), 100, t)) {
                total_updates += r.wsaf_updates;
                reports += 1;
            }
        }
        let tail = wm.finish();
        total_updates += tail.wsaf_updates;
        assert!(reports > 10);
        assert!(total_updates > 0, "an elephant must release updates");
        assert!(total_updates < 50_000 / 10, "regulation still effective per window");
    }

    #[test]
    fn telemetry_survives_rotation() {
        let mut wm = WindowedMeasurement::new(cfg(), 1_000, 2);
        for t in 0..10_000u64 {
            wm.process(&PacketRecord::new(key(6), 100, t));
        }
        wm.finish();
        // Rotation discards per-window systems; the run-level snapshot must
        // still account for every packet ever processed.
        let snap = wm.telemetry();
        assert_eq!(snap.counter("regulator.packets"), Some(10_000));
        let rate = snap.gauge("regulator.regulation_rate").unwrap();
        let by_hand = snap.counter("regulator.updates").unwrap() as f64 / 10_000.0;
        assert!((rate - by_hand).abs() < 1e-12, "rate {rate} vs counters {by_hand}");
    }

    #[test]
    fn rcc_filter_telemetry_reports_the_whole_run_regulation_rate() {
        let cfg = cfg().with_filter(instameasure_sketch::FilterKind::Rcc);
        let mut wm = WindowedMeasurement::new(cfg, 1_000, 2);
        // An elephant fills the first windows, distinct mice the rest, so
        // the per-window rates differ and a max-merged gauge would be off.
        for t in 0..10_000u64 {
            let flow = if t < 3_000 { 1 } else { 100 + t as u32 };
            wm.process(&PacketRecord::new(key(flow), 100, t));
        }
        wm.finish();
        let snap = wm.telemetry();
        assert_eq!(snap.counter("regulator.packets"), Some(10_000));
        let updates = snap.counter("regulator.updates").unwrap();
        assert!(updates > 0, "the elephant must release updates");
        let rate = snap.gauge("regulator.regulation_rate").unwrap();
        let by_hand = updates as f64 / 10_000.0;
        assert!((rate - by_hand).abs() < 1e-12, "rate {rate} vs counters {by_hand}");
    }

    #[test]
    fn first_packet_anchors_the_window_grid() {
        let mut wm = WindowedMeasurement::new(cfg(), 1_000, 1);
        // Start mid-grid: first packet at t=2500 lands in window [2000,3000).
        let r = wm.process(&PacketRecord::new(key(5), 100, 2_500));
        assert!(r.is_none());
        let r = wm.process(&PacketRecord::new(key(5), 100, 3_100)).expect("boundary crossed");
        assert_eq!(r.start_nanos, 2_000);
        assert_eq!(r.end_nanos, 3_000);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = WindowedMeasurement::new(cfg(), 0, 1);
    }
}
