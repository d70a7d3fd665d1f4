//! `pcap_replay`: the offline path. A caida-preset capture is written
//! outside the timing, then `instameasure analyze <pcap> --mmap --top
//! 1000` is run back to back for the measurement window.
//!
//! Why: pcap read and parse do most of the work here. About 30k Zipf
//! flows leave the 32 KB sketch and the WSAF cache-resident and nearly
//! idle (about 1.5% of packets reach the WSAF), so this workload moves
//! with the packet layer and process start-up, not with the table.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use instameasure_packet::pcap::{PcapWriter, TsResolution};
use instameasure_packet::synth::synthesize_frame;
use instameasure_packet::PacketRecord;
use instameasure_traffic::presets::caida_like;

use crate::keys::{remap_all, BASE_SEED};
use crate::layers;
use crate::proc::{BoxError, Exit, Proc};
use crate::report::Report;
use crate::stats::{are_top_k, beyond, median, percentile};
use crate::{Ctx, Metric, Workload};

/// caida preset scale: ~30k flows, ~0.87M packets, a ~0.6 GB capture.
const SCALE: f64 = 0.2;
/// Flows `analyze` prints per ranking; the accuracy metric reads them.
const TOP: usize = 1000;
/// Launches of `analyze` on a one-packet capture that `setup_s` is the
/// median of.
const SETUP_LAUNCHES: usize = 9;
/// The tail percentile of run time: a run takes ~0.35-0.45 s, so a 30 s
/// window holds 65-90 runs and p80 keeps at least ten runs beyond it.
const TAIL_PCT: f64 = 80.0;

pub struct PcapReplay {
    records: Vec<PacketRecord>,
    /// Exact packets per flow, keyed by the flow's printed form, which is
    /// how `analyze` names flows on its output.
    truth: HashMap<String, u64>,
    flows: usize,
    pcap: PathBuf,
    tiny: PathBuf,
}

pub fn write_pcap(path: &Path, records: &[PacketRecord]) -> Result<(), BoxError> {
    let mut w = PcapWriter::new(BufWriter::new(File::create(path)?), TsResolution::Nano)?;
    for r in records {
        w.write_packet(r.ts_nanos, &synthesize_frame(r))?;
    }
    w.into_inner()?.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(())
}

impl PcapReplay {
    pub fn prepare(ctx: &Ctx) -> Result<Self, BoxError> {
        let records = remap_all(caida_like(SCALE, BASE_SEED).records, ctx.seed);
        let pcap = ctx.work.join("replay.pcap");
        let tiny = ctx.work.join("one-packet.pcap");
        write_pcap(&pcap, &records)?;
        write_pcap(&tiny, &records[..1])?;
        let mut exact: HashMap<_, u64> = HashMap::new();
        for r in &records {
            *exact.entry(r.key).or_insert(0) += 1;
        }
        let flows = exact.len();
        let truth = exact.into_iter().map(|(k, n)| (k.to_string(), n)).collect();
        Ok(PcapReplay { records, truth, flows, pcap, tiny })
    }
}

/// One `analyze` run: wall time from launch to exit, time until its
/// first output line, its output and exit facts.
struct Run {
    wall_s: f64,
    first_line_s: f64,
    out: String,
    exit: Exit,
}

fn analyze(bin: &Path, pcap: &Path) -> Result<Run, BoxError> {
    let t0 = Instant::now();
    let mut proc = Proc::spawn(
        Command::new(bin)
            .arg("analyze")
            .arg(pcap)
            .args(["--mmap", "--top", &TOP.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped()),
    )?;
    let mut reader = BufReader::new(proc.stdout().ok_or("analyze has no stdout")?);
    let mut out = String::new();
    reader.read_line(&mut out)?;
    let first_line_s = t0.elapsed().as_secs_f64();
    reader.read_to_string(&mut out)?;
    let exit = proc.wait()?;
    Ok(Run { wall_s: t0.elapsed().as_secs_f64(), first_line_s, out, exit })
}

/// What one `analyze` printed that the checks read.
struct Parsed {
    packets: u64,
    skipped: u64,
    /// The "top flows by packets" ranking: printed key and estimate.
    top: Vec<(String, f64)>,
}

fn parse(out: &str) -> Result<Parsed, BoxError> {
    let capture = out
        .lines()
        .find_map(|l| l.strip_prefix("capture: "))
        .ok_or("analyze printed no capture line")?;
    let mut words = capture.split_whitespace();
    let packets = words.next().ok_or("capture line has no count")?.parse()?;
    let skipped = words
        .nth(1)
        .and_then(|w| w.strip_prefix('('))
        .ok_or("capture line has no skipped count")?
        .parse()?;
    let mut top = Vec::new();
    let lines = out.lines().skip_while(|l| !l.ends_with("flows by packets:")).skip(1);
    for line in lines {
        match rank_line(line) {
            Some((key, pkts)) => top.push((key.to_string(), pkts.parse()?)),
            None => break,
        }
    }
    Ok(Parsed { packets, skipped, top })
}

/// Splits a ranking line `<key> <pkts> pkts <bytes> B` into key and
/// packet estimate; the key itself contains spaces.
fn rank_line(line: &str) -> Option<(&str, &str)> {
    let rest = line.trim_end().strip_suffix(" B")?;
    let (rest, _bytes) = rest.trim_end().rsplit_once(' ')?;
    let rest = rest.trim_end().strip_suffix(" pkts")?;
    let (key, pkts) = rest.trim_end().rsplit_once(' ')?;
    Some((key.trim(), pkts.trim()))
}

impl PcapReplay {
    /// Checks one run's output; returns the accuracy of its ranking.
    fn check_output(&self, run: &Run, rep: &mut Report) -> Result<f64, BoxError> {
        let p = parse(&run.out)?;
        let generated = self.records.len() as u64;
        rep.check(
            "packet-exact accounting (generated = parsed = processed)",
            p.packets == generated && p.skipped == 0,
            format!(
                "generated {generated}, analyze processed {} and skipped {}",
                p.packets, p.skipped
            ),
        );
        let unknown = p.top.iter().filter(|(key, _)| !self.truth.contains_key(key)).count();
        rep.check(
            "top-1000 names only real flows, and enough of them",
            unknown == 0 && p.top.len() == TOP.min(self.flows),
            format!("{} ranked, {unknown} unknown", p.top.len()),
        );
        let (are, recall) = are_top_k(&p.top, &self.truth, TOP);
        println!("top-1000 recall = {recall:.4} (true top-1000 flows the ranking reports)");
        Ok(are)
    }
}

impl Workload for PcapReplay {
    fn sizes(&self) -> String {
        format!(
            "caida preset scale {SCALE}: {} packets, {} flows, {} bytes of pcap",
            self.records.len(),
            self.flows,
            std::fs::metadata(&self.pcap).map_or(0, |m| m.len())
        )
    }

    fn measure(&self, ctx: &Ctx, spans: bool, rep: &mut Report) -> Result<Vec<Metric>, BoxError> {
        let mut setups = Vec::with_capacity(SETUP_LAUNCHES);
        for _ in 0..SETUP_LAUNCHES {
            let run = analyze(&ctx.bin, &self.tiny)?;
            rep.ops(1, u64::from(!run.exit.success));
            setups.push(run.first_line_s);
        }

        // One untimed run fills the page cache and checks the output.
        let warm = analyze(&ctx.bin, &self.pcap)?;
        rep.ops(1, u64::from(!warm.exit.success));
        let are_top = self.check_output(&warm, rep)?;
        let ranking = |out: &str| out.split_once("flows by packets:").map(|(_, r)| r.to_string());
        let expected = ranking(&warm.out);

        let (mut walls, mut firsts, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let mut diverged = 0;
        let start = Instant::now();
        while walls.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
            let run = analyze(&ctx.bin, &self.pcap)?;
            rep.ops(1, u64::from(!run.exit.success));
            diverged += usize::from(ranking(&run.out) != expected);
            walls.push(run.wall_s);
            firsts.push(run.first_line_s);
            rss.push(run.exit.peak_rss_bytes as f64 / (1 << 20) as f64);
        }
        rep.check(
            "every timed run prints the same ranking",
            diverged == 0,
            format!("{diverged} of {} runs differ", walls.len()),
        );

        let wall = median(&walls);
        println!(
            "analyze runs: {} (latency_tail_ms is p{TAIL_PCT} with {} runs beyond it)",
            walls.len(),
            beyond(&walls, TAIL_PCT)
        );
        println!("analyze_mpps = {:.6} Mpps", self.records.len() as f64 / wall / 1e6);
        if spans {
            let first = median(&firsts);
            println!(
                "  span analyze.until_capture_line = {:.3} ms (launch, read, parse, pipeline)",
                first * 1e3
            );
            println!("  span analyze.ranking_and_exit = {:.3} ms", (wall - first) * 1e3);
        }
        Ok(vec![
            ("setup_s", median(&setups), "s"),
            ("throughput_mpps", self.records.len() as f64 / wall / 1e6, "Mpps"),
            ("latency_p50_ms", wall * 1e3, "ms"),
            ("latency_tail_ms", percentile(&walls, TAIL_PCT) * 1e3, "ms"),
            ("are_top1000", are_top, "ratio"),
            ("peak_rss_mb", median(&rss), "MB"),
        ])
    }

    fn layers(&self, _ctx: &Ctx, e2e: &[Metric], rep: &mut Report) -> Result<(), BoxError> {
        let probe = layers::probe(&self.records, &self.pcap, rep)?;
        let mpps = e2e.iter().find(|m| m.0 == "throughput_mpps").map_or(f64::NAN, |m| m.1);
        layers::waterfall(
            "pcap_replay (analyze --mmap: read, parse, scalar sketch + WSAF)",
            &[
                ("packet.read", probe.read_ns),
                ("packet.parse", probe.parse_ns),
                ("sketch (FlowFilter::process)", probe.sketch_scalar_ns),
                (
                    "wsaf (rest of InstaMeasure::process)",
                    probe.pipeline_scalar_ns - probe.sketch_scalar_ns,
                ),
            ],
            1e3 / mpps,
        );
        Ok(())
    }
}
