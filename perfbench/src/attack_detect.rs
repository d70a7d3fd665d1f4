//! `attack_detect`: streaming detection under an open-loop background.
//! `serve --shards 2 --detect` receives a caida-like background paced at
//! a fixed ~0.5 Mpps in 1 ms frames. The background is the caida
//! preset's flow mix with its horizon compressed into one epoch, replayed
//! every epoch: every flow large enough to trip the heavy-change floor
//! spans the whole epoch, so benign epochs look alike to the differential
//! detectors even when a stalled daemon shifts the epoch boundary.
//! Attacks from `traffic::adversarial` are injected into known epochs: a
//! horizontal scan, a SYN flood and the pulses of a pulse wave.
//! A second connection subscribes to alerts and sends `rotate` every
//! second.
//!
//! Why: `core::detect` feature absorb and merge, the rotation snapshots
//! and the alert hub do most of the work here, and they do none in the
//! other two workloads. Every latency is timed from when the rotate was
//! due, so a late generator or a stalled daemon shows up in it.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use instameasure_core::detect::{Anomaly, AnomalyKind, Subject};
use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_service::wire::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use instameasure_service::{Request, Response};
use instameasure_traffic::adversarial::{horizontal_scan, pulse_wave, syn_flood};
use instameasure_traffic::SyntheticTraceBuilder;

use crate::keys::{remap_all, BASE_SEED};
use crate::layers;
use crate::proc::{daemon_setup_seconds, histogram_stats, wait_drained, BoxError, Daemon};
use crate::report::Report;
use crate::stats::{are_top_k, beyond, median, percentile};
use crate::{Ctx, Metric, Workload};

/// Flows in one epoch's background (the caida preset at scale 0.12):
/// ~0.49M packets per 1 s epoch, ~0.5 Mpps. The paper's CAIDA peak is
/// ~1 Mpps, but each rotation stalls ingest on a two-core host while the
/// shards clone and reset their 2^20-entry WSAFs, and the backlog a stall
/// leaves at 1 Mpps can carry an injected attack past its epoch's rotate.
const BACKGROUND_FLOWS: usize = 18_000;
const TICK: Duration = Duration::from_millis(1);
/// Ticks per epoch. A rotation with detection takes 0.25-0.65 s on a
/// two-core host (each shard clones its 2^20-entry WSAF for the detectors
/// and allocates a fresh one), and ingest waits for it; an epoch must
/// outlast the slowest rotation plus the backlog it leaves.
const EPOCH_TICKS: u64 = 1000;
/// Attack traffic is spread over ticks `ATTACK_START..ATTACK_START +
/// ATTACK_TICKS` of its epoch: after the ingest stall of the rotation that
/// opened the epoch has drained, and well before the rotate that closes it.
const ATTACK_START: u64 = 200;
const ATTACK_TICKS: u64 = 20;
/// Attack geometry: 100 peers keep every attack above the default fan
/// thresholds (64); 100 packets per flow carry each flow through the
/// FlowRegulator into the WSAF the detectors read.
const ATTACK_PEERS: u16 = 100;
const ATTACK_PKTS_PER_FLOW: u64 = 100;
const SETUP_LAUNCHES: usize = 5;
/// One verdict per epoch: 30 samples in 30 s, so p65 keeps ten beyond it.
const TAIL_PCT: f64 = 65.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Benign,
    Scan,
    Flood,
    Pulse,
}

impl Scenario {
    /// Epoch 0 has no baseline for the differential detectors; after it
    /// the schedule repeats benign, scan, benign, flood, benign, pulse —
    /// every pulse is followed by a quiet epoch.
    fn of(epoch: u64) -> Scenario {
        match epoch.checked_sub(1).map(|e| e % 6) {
            Some(1) => Scenario::Scan,
            Some(3) => Scenario::Flood,
            Some(5) => Scenario::Pulse,
            _ => Scenario::Benign,
        }
    }

    /// The alert this scenario must raise: its kind and its subject.
    fn expected(self) -> Option<(AnomalyKind, Subject)> {
        match self {
            Scenario::Benign => None,
            Scenario::Scan => Some((AnomalyKind::SuperSpreader, Subject::Host([66, 6, 6, 6]))),
            Scenario::Flood | Scenario::Pulse => {
                Some((AnomalyKind::DdosVictim, Subject::Host([99, 9, 9, 9])))
            }
        }
    }
}

pub struct AttackDetect {
    background: Vec<PacketRecord>,
    scan: Vec<PacketRecord>,
    flood: Vec<PacketRecord>,
    pulse: Vec<PacketRecord>,
}

impl AttackDetect {
    pub fn prepare(ctx: &Ctx) -> Result<Self, BoxError> {
        let (scan, _) = horizontal_scan(ATTACK_PEERS, ATTACK_PKTS_PER_FLOW, 0);
        let (flood, _) = syn_flood(ATTACK_PEERS, ATTACK_PKTS_PER_FLOW, 0);
        // Pulse epochs replay the first pulse; the quiet gaps between
        // pulses are the schedule's benign epochs.
        let (mut bursts, _) = pulse_wave(1, ATTACK_PEERS, ATTACK_PKTS_PER_FLOW, 0);
        let pulse = bursts.pop().ok_or("pulse_wave produced no burst")?;
        // `caida_like`'s parameters, with a one-epoch horizon.
        let alpha = 1.05;
        let background = SyntheticTraceBuilder::new()
            .num_flows(BACKGROUND_FLOWS)
            .zipf_alpha(alpha)
            .max_flow_size((2.0 * (BACKGROUND_FLOWS as f64).powf(alpha)) as u64)
            .duration_nanos(EPOCH_TICKS * TICK.as_nanos() as u64)
            .udp_fraction(0.2)
            .seed(BASE_SEED)
            .build()
            .records;
        let background = remap_all(background, ctx.seed);
        Ok(AttackDetect { background, scan, flood, pulse })
    }

    fn attack(&self, s: Scenario) -> &[PacketRecord] {
        match s {
            Scenario::Benign => &[],
            Scenario::Scan => &self.scan,
            Scenario::Flood => &self.flood,
            Scenario::Pulse => &self.pulse,
        }
    }

    /// The frame sent at `tick`: this tick's slice of the epoch's
    /// background plus its share of the epoch's attack, stamped with the
    /// tick's schedule time.
    fn frame(&self, tick: u64, out: &mut Vec<PacketRecord>) {
        out.clear();
        let in_epoch = (tick % EPOCH_TICKS) as usize;
        let share = self.background.len().div_ceil(EPOCH_TICKS as usize);
        out.extend(self.background.iter().skip(in_epoch * share).take(share));
        let attack = self.attack(Scenario::of(tick / EPOCH_TICKS));
        let at = in_epoch.wrapping_sub(ATTACK_START as usize);
        if at < ATTACK_TICKS as usize {
            let share = attack.len().div_ceil(ATTACK_TICKS as usize);
            out.extend(attack.iter().skip(at * share).take(share));
        }
        let ts = tick * TICK.as_nanos() as u64;
        for (j, r) in out.iter_mut().enumerate() {
            r.ts_nanos = ts + j as u64;
        }
    }
}

/// The subscribed control connection, spoken at the frame level so each
/// alert's arrival is timed on its own (the daemon writes an epoch's
/// alerts before the rotate's reply).
struct Control {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Control {
    fn connect(addr: &str) -> Result<Self, BoxError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Control { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn send(&mut self, req: &Request) -> Result<(), BoxError> {
        let frame = req.encode();
        write_frame(&mut self.writer, frame.opcode, &frame.payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, BoxError> {
        let frame = read_frame(&mut self.reader, DEFAULT_MAX_PAYLOAD)?
            .ok_or("daemon closed the connection")?;
        Ok(Response::decode(&frame)?)
    }
}

/// One closed epoch as the controller saw it.
struct Closed {
    epoch: u64,
    alerts: Vec<(Anomaly, Duration)>,
    /// Due time to the rotate's reply, which the daemon writes after the
    /// epoch's alerts: when the subscriber holds the complete verdict.
    verdict: Duration,
    /// Due time to the rotate request leaving the controller.
    late: Duration,
}

fn control_loop(addr: &str, start: Instant, epochs: u64) -> Result<Vec<Closed>, BoxError> {
    let mut ctl = Control::connect(addr)?;
    ctl.send(&Request::Subscribe { kinds: 0 })?;
    match ctl.recv()? {
        Response::Subscribed { .. } => {}
        other => return Err(format!("subscribe answered with {other:?}").into()),
    }
    let mut closed = Vec::with_capacity(epochs as usize);
    for e in 0..epochs {
        let due = start + TICK * ((e + 1) * EPOCH_TICKS) as u32;
        sleep_until(due);
        let late = Instant::now().saturating_duration_since(due);
        ctl.send(&Request::Rotate)?;
        let mut alerts = Vec::new();
        loop {
            match ctl.recv()? {
                Response::Alert { epoch, anomaly } => {
                    if epoch != e {
                        return Err(
                            format!("alert names epoch {epoch} while epoch {e} closed").into()
                        );
                    }
                    alerts.push((anomaly, due.elapsed()));
                }
                Response::Rotated { epoch, .. } if epoch == e + 1 => break,
                other => return Err(format!("rotate answered with {other:?}").into()),
            }
        }
        closed.push(Closed { epoch: e, alerts, verdict: due.elapsed(), late });
    }
    Ok(closed)
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ms(d: &[Duration]) -> Vec<f64> {
    d.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

impl Workload for AttackDetect {
    fn sizes(&self) -> String {
        format!(
            "caida-mix background of {BACKGROUND_FLOWS} flows ({} packets per epoch, {:.3} Mpps), \
             {} ms epochs; attacks per epoch: scan {} / flood {} / pulse {} packets",
            self.background.len(),
            self.background.len() as f64 / (EPOCH_TICKS * TICK.as_micros() as u64) as f64,
            EPOCH_TICKS * TICK.as_millis() as u64,
            self.scan.len(),
            self.flood.len(),
            self.pulse.len()
        )
    }

    fn measure(&self, ctx: &Ctx, spans: bool, rep: &mut Report) -> Result<Vec<Metric>, BoxError> {
        let mut setups = Vec::with_capacity(SETUP_LAUNCHES);
        for _ in 0..SETUP_LAUNCHES {
            setups.push(daemon_setup_seconds(&ctx.bin, &["--detect"], self.background[0])?);
            rep.ops(1, 0);
        }

        let daemon = Daemon::start(&ctx.bin, &["--detect"])?;
        println!("daemon {}", daemon.hot_path);
        let epochs = ((ctx.seconds * 1e3) as u64 / (EPOCH_TICKS * TICK.as_millis() as u64)).max(8);
        let mut tap = daemon.client()?;
        let backlog = Mutex::new(Vec::new());
        let start = Instant::now() + Duration::from_millis(20);
        let (closed, late, generated, drained_at) = std::thread::scope(
            |s| -> Result<_, BoxError> {
                let controller = s.spawn(|| control_loop(&daemon.addr, start, epochs));
                let pushed = (|| -> Result<_, BoxError> {
                    let (mut late, mut frame, mut generated) = (Vec::new(), Vec::new(), 0u64);
                    for tick in 0..epochs * EPOCH_TICKS {
                        let due = start + TICK * tick as u32;
                        sleep_until(due);
                        late.push(Instant::now().saturating_duration_since(due));
                        self.frame(tick, &mut frame);
                        tap.push_batch(&frame)?;
                        generated += frame.len() as u64;
                        if spans && tick % 10 == 9 {
                            let st = tap.status()?;
                            let mut b = backlog.lock().expect("backlog lock is never poisoned");
                            b.push(st.packets_submitted.saturating_sub(st.packets_processed) as f64);
                        }
                    }
                    let accepted = tap.finish()?;
                    if accepted != generated {
                        return Err(
                            format!("daemon accepted {accepted} of {generated} packets").into()
                        );
                    }
                    wait_drained(&mut tap, generated)?;
                    Ok((late, generated, start.elapsed()))
                })();
                let closed = controller.join().expect("the control thread does not panic");
                let (late, generated, drained_at) = pushed?;
                Ok((closed?, late, generated, drained_at))
            },
        )?;
        rep.ops(epochs * EPOCH_TICKS + 1 + epochs + 1, 0);

        // Judge every closed epoch against the schedule.
        let (mut missed, mut false_alerts, mut alert_lat, mut verdict_lat, mut ctl_late) =
            (0u64, 0u64, Vec::new(), Vec::new(), Vec::new());
        for c in &closed {
            verdict_lat.push(c.verdict);
            ctl_late.push(c.late);
            match Scenario::of(c.epoch).expected() {
                None => {
                    false_alerts += c.alerts.len() as u64;
                    for (a, _) in &c.alerts {
                        println!("  false alert in benign epoch {}: {a:?}", c.epoch);
                    }
                }
                Some((kind, subject)) => {
                    match c.alerts.iter().find(|(a, _)| a.kind == kind && a.subject == subject) {
                        Some(&(_, at)) => alert_lat.push(at),
                        None => missed += 1,
                    }
                }
            }
        }
        let attacks = closed.iter().filter(|c| Scenario::of(c.epoch) != Scenario::Benign).count();
        println!(
            "alert_errors = {} ({missed} missed of {attacks} attacks, {false_alerts} alerts in {} benign epochs)",
            missed + false_alerts,
            closed.len() - attacks
        );
        rep.check(
            "every injected attack raises its alert, and benign epochs raise none",
            missed == 0 && false_alerts == 0,
            format!("{missed} missed, {false_alerts} false"),
        );

        // One more epoch, pushed closed-loop, measures accuracy against the
        // background's exact counts.
        tap.rotate()?;
        let accepted = tap.push_records(&self.background)?;
        let total = generated + self.background.len() as u64;
        rep.ops(3, u64::from(accepted != total));
        wait_drained(&mut tap, total)?;
        let top = tap.top_k(1000)?;
        let mut exact = std::collections::HashMap::new();
        for r in &self.background {
            *exact.entry(r.key).or_insert(0u64) += 1;
        }
        let ranked: Vec<(FlowKey, f64)> = top.iter().map(|f| (f.key, f.packets)).collect();
        rep.check(
            "accuracy epoch top-1000 names only background flows",
            !ranked.is_empty() && ranked.iter().all(|(key, _)| exact.contains_key(key)),
            format!("{} ranked", ranked.len()),
        );
        let (are_top, recall) = are_top_k(&ranked, &exact, 1000);
        println!("top-1000 recall = {recall:.4} (true top-1000 flows the ranking reports)");

        if spans {
            let json = tap.telemetry_json()?;
            if let Some((count, mean, p50, p99)) = histogram_stats(&json, "service.query_nanos") {
                println!(
                    "  server.query_ns: mean {mean:.0}, p50 {p50:.0}, p99 {p99:.0} ns over {count} requests"
                );
            }
            let b = backlog.lock().expect("backlog lock is never poisoned");
            println!(
                "  engine.backlog_pkts (via status every 10 ms): median {:.0}, max {:.0} over {} samples",
                median(&b),
                percentile(&b, 100.0),
                b.len()
            );
        }
        drop(tap);
        let (status, exit) = daemon.shutdown()?;
        rep.check(
            "packet-exact accounting (generated = submitted = processed)",
            status.packets_submitted == total && status.packets_processed == total,
            format!(
                "generated {total}, submitted {}, processed {}",
                status.packets_submitted, status.packets_processed
            ),
        );
        rep.check("daemon exits cleanly", exit.success, "serve exit status");

        let (late, alert_lat, verdict_lat, ctl_late) =
            (ms(&late), ms(&alert_lat), ms(&verdict_lat), ms(&ctl_late));
        println!(
            "gen.late_ms: p50 {:.3}, p99 {:.3}, max {:.3} over {} frames (controller: p50 {:.3}, max {:.3})",
            median(&late),
            percentile(&late, 99.0),
            percentile(&late, 100.0),
            late.len(),
            median(&ctl_late),
            percentile(&ctl_late, 100.0)
        );
        println!(
            "verdict latency (rotate due -> every alert and the reply in hand): {} epochs \
             (latency_tail_ms is p{TAIL_PCT} with {} beyond it)",
            verdict_lat.len(),
            beyond(&verdict_lat, TAIL_PCT)
        );
        let per_epoch: Vec<String> = verdict_lat.iter().map(|v| format!("{v:.0}")).collect();
        println!("verdict ms per epoch: {}", per_epoch.join(" "));
        println!(
            "alert latency (rotate due -> the injected attack's alert): p50 {:.3} ms, max {:.3} ms \
             over {} attacks",
            median(&alert_lat),
            percentile(&alert_lat, 100.0),
            alert_lat.len()
        );
        Ok(vec![
            ("setup_s", median(&setups), "s"),
            ("throughput_mpps", generated as f64 / drained_at.as_secs_f64() / 1e6, "Mpps"),
            ("latency_p50_ms", median(&verdict_lat), "ms"),
            ("latency_tail_ms", percentile(&verdict_lat, TAIL_PCT), "ms"),
            ("are_top1000", are_top, "ratio"),
            ("peak_rss_mb", exit.peak_rss_bytes as f64 / (1 << 20) as f64, "MB"),
        ])
    }

    fn layers(&self, ctx: &Ctx, _e2e: &[Metric], rep: &mut Report) -> Result<(), BoxError> {
        // One epoch's worth of traffic: a background slice plus a flood.
        let mut epoch = Vec::new();
        let mut frame = Vec::new();
        for tick in (4 * EPOCH_TICKS)..(5 * EPOCH_TICKS) {
            self.frame(tick, &mut frame);
            epoch.extend_from_slice(&frame);
        }
        let pcap = ctx.work.join("probe.pcap");
        crate::pcap_replay::write_pcap(&pcap, &epoch)?;
        layers::probe(&epoch, &pcap, rep)?;
        Ok(())
    }
}
