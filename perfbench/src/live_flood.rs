//! `live_flood`: the live path under a closed-loop flood. One connection
//! pushes a 1M-flow Zipf stream with `ServiceClient::push_records` as fast
//! as backpressure allows, round after round (each round ends when the
//! shards have drained it and is followed by a `rotate`); a second
//! connection runs a closed loop of `query_flow` on the heaviest flow and
//! `top_k(100)`.
//!
//! Why: the input is generated in memory, so pcap read and parse do no
//! work. The wire codec, the engine rings, the sketch and the 2^20-entry
//! WSAF (far more flows than any cache holds) and snapshot publishing do
//! it all. Queries are reads beside the push's writes, so an ingest gain
//! bought by publishing less often shows up as worse query latency.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use instameasure_core::multicore::worker_for;
use instameasure_core::{InstaMeasure, InstaMeasureConfig};
use instameasure_packet::{FlowKey, PacketRecord};
use instameasure_service::client::PUSH_CHUNK_RECORDS;
use instameasure_service::{ServiceClient, TopFlow};
use instameasure_traffic::stream::{StreamConfig, StreamingTrace};

use crate::keys::{remap, remap_all, BASE_SEED};
use crate::layers;
use crate::proc::{counter, daemon_setup_seconds, histogram_stats, wait_drained, BoxError, Daemon};
use crate::report::Report;
use crate::stats::{are_top_k, beyond, median, percentile};
use crate::{Ctx, Metric, Workload};

const STREAM: StreamConfig = StreamConfig {
    flows: 1_000_000,
    alpha: 1.05,
    max_flow_size: 200_000,
    duration_nanos: 10_000_000_000,
    seed: BASE_SEED,
};
/// `serve --shards 2`: one shard per core of the reference host.
pub const SHARDS: usize = 2;
const TOP: u32 = 1000;
const QUERY_TOP: u32 = 100;
const SETUP_LAUNCHES: usize = 5;
/// The highest percentile of query latency that keeps at least ten
/// samples beyond it at the query rate this workload sustains.
const TAIL_PCT: f64 = 90.0;
/// Records of the stream written to a capture for the packet-layer
/// probes (this workload itself never reads a pcap).
const PROBE_PCAP_RECORDS: usize = 200_000;

pub struct LiveFlood {
    records: Vec<PacketRecord>,
    exact: HashMap<FlowKey, u64>,
    heavy: FlowKey,
    /// The merged top-1000 of an offline replay of the same records,
    /// sharded as the daemon shards them.
    oracle: Vec<TopFlow>,
    /// Shard snapshot publishes per packet pushed, read from the daemon's
    /// telemetry in the traced pass; the waterfall charges them.
    publishes_per_pkt: Cell<f64>,
}

/// Offline replay of `records` through `shards` default-configured
/// pipelines routed by the daemon's popcount rule.
pub fn replay_sharded(records: &[PacketRecord], shards: usize) -> Vec<InstaMeasure> {
    let mut per_shard: Vec<Vec<PacketRecord>> = vec![Vec::new(); shards];
    for r in records {
        per_shard[worker_for(&r.key, shards)].push(*r);
    }
    per_shard
        .iter()
        .map(|recs| {
            let mut im = InstaMeasure::new(InstaMeasureConfig::default());
            for chunk in recs.chunks(256) {
                im.process_batch(chunk);
            }
            im
        })
        .collect()
}

/// The merged top-k across shards, ordered exactly as the daemon orders it.
fn merged_top_k(shards: &[InstaMeasure], k: usize) -> Vec<TopFlow> {
    let mut all: Vec<TopFlow> = shards
        .iter()
        .flat_map(|im| im.wsaf().top_k_by_packets(k))
        .map(|e| TopFlow { key: e.key, packets: e.packets, bytes: e.bytes })
        .collect();
    all.sort_by(|a, b| b.packets.total_cmp(&a.packets).then_with(|| a.key.cmp(&b.key)));
    all.truncate(k);
    all
}

impl LiveFlood {
    pub fn prepare(ctx: &Ctx) -> Result<Self, BoxError> {
        let stream = StreamingTrace::new(STREAM);
        let exact: HashMap<FlowKey, u64> = (0..STREAM.flows)
            .map(|i| (remap(stream.flow_key(i), ctx.seed), stream.flow_size(i)))
            .collect();
        let heavy = remap(stream.flow_key(0), ctx.seed);
        let records = remap_all(stream.collect(), ctx.seed);
        let oracle = merged_top_k(&replay_sharded(&records, SHARDS), TOP as usize);
        Ok(LiveFlood { records, exact, heavy, oracle, publishes_per_pkt: Cell::new(f64::NAN) })
    }

    /// Pushes one round. With `spans`, pushes frame by frame (what
    /// `push_records` does) to time each frame's encode-and-send and to
    /// sample the daemon's backlog every 16 frames.
    fn push_round(
        &self,
        tap: &mut ServiceClient,
        spans: bool,
        send_ns: &mut Vec<f64>,
        backlog: &mut Vec<f64>,
    ) -> Result<u64, BoxError> {
        if !spans {
            return Ok(tap.push_records(&self.records)?);
        }
        for (i, chunk) in self.records.chunks(PUSH_CHUNK_RECORDS).enumerate() {
            let t = Instant::now();
            tap.push_batch(chunk)?;
            send_ns.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
            if i % 16 == 15 {
                let s = tap.status()?;
                backlog.push(s.packets_submitted.saturating_sub(s.packets_processed) as f64);
            }
        }
        Ok(tap.finish()?)
    }
}

/// Query latencies from the closed query loop, in seconds.
#[derive(Default)]
struct Queries {
    pair: Vec<f64>,
    flow: Vec<f64>,
    top: Vec<f64>,
    failed: u64,
}

fn query_loop(addr: &str, heavy: FlowKey, stop: &AtomicBool) -> Queries {
    let mut q = Queries::default();
    let Ok(mut client) = ServiceClient::connect_with_timeout(addr, Duration::from_secs(30)) else {
        q.failed += 1;
        return q;
    };
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        if client.query_flow(&heavy).is_err() {
            q.failed += 1;
            break;
        }
        let t1 = Instant::now();
        if client.top_k(QUERY_TOP).is_err() {
            q.failed += 1;
            break;
        }
        let t2 = Instant::now();
        q.flow.push((t1 - t0).as_secs_f64());
        q.top.push((t2 - t1).as_secs_f64());
        q.pair.push((t2 - t0).as_secs_f64());
    }
    q
}

impl Workload for LiveFlood {
    fn sizes(&self) -> String {
        format!(
            "StreamingTrace {} flows, alpha {}, heaviest {} packets: {} packets per round, {SHARDS} shards",
            STREAM.flows,
            STREAM.alpha,
            STREAM.max_flow_size,
            self.records.len()
        )
    }

    fn measure(&self, ctx: &Ctx, spans: bool, rep: &mut Report) -> Result<Vec<Metric>, BoxError> {
        let mut setups = Vec::with_capacity(SETUP_LAUNCHES);
        for _ in 0..SETUP_LAUNCHES {
            setups.push(daemon_setup_seconds(&ctx.bin, &[], self.records[0])?);
            rep.ops(1, 0);
        }

        let daemon = Daemon::start(&ctx.bin, &[])?;
        println!("daemon {}", daemon.hot_path);
        let n = self.records.len() as u64;
        let stop = AtomicBool::new(false);
        let (mut rounds, mut are_top, mut send_ns, mut backlog) =
            (Vec::new(), f64::NAN, Vec::new(), Vec::new());
        let (queries, pushed) = std::thread::scope(|s| -> Result<_, BoxError> {
            let (addr, heavy, stop) = (&daemon.addr, self.heavy, &stop);
            let querier = s.spawn(move || query_loop(addr, heavy, stop));
            let pushed = (|| -> Result<u64, BoxError> {
                let mut tap = daemon.client()?;
                let start = Instant::now();
                let mut pushed = 0u64;
                while rounds.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
                    let t0 = Instant::now();
                    let accepted = self.push_round(&mut tap, spans, &mut send_ns, &mut backlog)?;
                    pushed += n;
                    rep.ops(
                        n.div_ceil(PUSH_CHUNK_RECORDS as u64) + 1,
                        u64::from(accepted != pushed),
                    );
                    wait_drained(&mut tap, pushed)?;
                    rounds.push(t0.elapsed().as_secs_f64());
                    if rounds.len() == 1 {
                        let top = tap.top_k(TOP)?;
                        rep.check(
                            "live top-1000 equals the sharded offline replay",
                            top == self.oracle,
                            format!("{} live vs {} offline entries", top.len(), self.oracle.len()),
                        );
                        let ranked: Vec<(FlowKey, f64)> =
                            top.iter().map(|f| (f.key, f.packets)).collect();
                        rep.check(
                            "top-1000 names only generated flows",
                            ranked.iter().all(|(key, _)| self.exact.contains_key(key)),
                            format!("{} ranked", ranked.len()),
                        );
                        let (are, recall) = are_top_k(&ranked, &self.exact, TOP as usize);
                        println!("top-1000 recall = {recall:.4} (true top-1000 flows the ranking reports)");
                        are_top = are;
                    }
                    tap.rotate()?;
                    rep.ops(1, 0);
                }
                Ok(pushed)
            })();
            stop.store(true, Ordering::Relaxed);
            let queries = querier.join().expect("the query thread does not panic");
            Ok((queries, pushed?))
        })?;
        rep.ops(2 * queries.pair.len() as u64 + queries.failed, queries.failed);

        if spans {
            let json = daemon.client()?.telemetry_json()?;
            if let Some((count, mean, p50, p99)) = histogram_stats(&json, "service.query_nanos") {
                println!(
                    "  server.query_ns: mean {mean:.0}, p50 {p50:.0}, p99 {p99:.0} ns over {count} requests \
                     (daemon-side service.query_nanos)"
                );
            }
            if let Some(publishes) = counter(&json, "service.snapshot.publishes") {
                println!("  service.snapshot.publishes = {publishes} over {pushed} packets");
                self.publishes_per_pkt.set(publishes / pushed as f64);
            }
            println!(
                "  span client.send_ns_per_pkt (encode + socket write, per frame) = {:.3} ns",
                median(&send_ns)
            );
            println!(
                "  engine.backlog_pkts (submitted - processed, via status every 16 frames): median {:.0}, \
                 max {:.0} over {} samples",
                median(&backlog),
                percentile(&backlog, 100.0),
                backlog.len()
            );
        }

        let (status, exit) = daemon.shutdown()?;
        rep.check(
            "packet-exact accounting (generated = submitted = processed)",
            status.packets_submitted == pushed && status.packets_processed == pushed,
            format!(
                "generated {pushed}, submitted {}, processed {}",
                status.packets_submitted, status.packets_processed
            ),
        );
        rep.check("daemon exits cleanly", exit.success, "serve exit status");

        // Packets pushed until drained, per second, over every round.
        let round = rounds.iter().sum::<f64>() / rounds.len() as f64;
        println!(
            "rounds: {} of {n} packets; queries: {} pairs, {} failed (latency_tail_ms is p{TAIL_PCT} \
             with {} pairs beyond it)",
            rounds.len(),
            queries.pair.len(),
            queries.failed,
            beyond(&queries.pair, TAIL_PCT)
        );
        let per_round: Vec<String> = rounds.iter().map(|r| format!("{r:.3}")).collect();
        println!("round seconds: {}", per_round.join(" "));
        println!("ingest_mpps = {:.6} Mpps", n as f64 / round / 1e6);
        for (name, v) in [("query_flow", &queries.flow), ("top_k(100)", &queries.top)] {
            println!(
                "  {name}: p50 {:.3} ms, p{TAIL_PCT} {:.3} ms",
                median(v) * 1e3,
                percentile(v, TAIL_PCT) * 1e3
            );
        }
        Ok(vec![
            ("setup_s", median(&setups), "s"),
            ("throughput_mpps", n as f64 / round / 1e6, "Mpps"),
            ("latency_p50_ms", median(&queries.pair) * 1e3, "ms"),
            ("latency_tail_ms", percentile(&queries.pair, TAIL_PCT) * 1e3, "ms"),
            ("are_top1000", are_top, "ratio"),
            ("peak_rss_mb", exit.peak_rss_bytes as f64 / (1 << 20) as f64, "MB"),
        ])
    }

    fn layers(&self, ctx: &Ctx, e2e: &[Metric], rep: &mut Report) -> Result<(), BoxError> {
        let pcap = ctx.work.join("probe.pcap");
        let sample = &self.records[..PROBE_PCAP_RECORDS.min(self.records.len())];
        crate::pcap_replay::write_pcap(&pcap, sample)?;
        let probe = layers::probe(&self.records, &pcap, rep)?;
        let mpps = e2e.iter().find(|m| m.0 == "throughput_mpps").map_or(f64::NAN, |m| m.1);
        layers::waterfall(
            "live_flood (push -> serve: client encode, server decode, engine submit, batched sketch + WSAF)",
            &[
                ("wire.encode (client)", probe.encode_ns),
                ("wire.decode (server)", probe.decode_ns),
                ("engine.submit (routing + rings)", probe.submit_ns),
                ("sketch (FlowFilter::process_batch)", probe.sketch_batch_ns),
                ("wsaf (accumulate_batch, per packet)", probe.deposit_ns * probe.leak_ratio),
                (
                    "snapshot publishes (per shard, traced pass)",
                    self.publishes_per_pkt.get() / SHARDS as f64 * probe.publish_ms * 1e6,
                ),
            ],
            1e3 / mpps,
        );
        Ok(())
    }
}
