//! End-to-end test of the live service against the offline pipeline: the
//! daemon fed a trace over loopback TCP must be *bit-identical* to a
//! single-core `InstaMeasure` fed the same records in the same order —
//! the paper's instant online queries cannot cost accuracy.

use std::collections::BTreeSet;
use std::time::Duration;

use instameasure::core::engine::EngineConfig;
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::service::server::{Server, ServiceConfig};
use instameasure::service::ServiceClient;
use instameasure::traffic::SyntheticTraceBuilder;

fn start(workers: usize) -> Server {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .engine(EngineConfig {
            workers,
            batch_size: 512,
            per_worker: InstaMeasureConfig::default().small_for_tests(),
            ..EngineConfig::default()
        })
        .read_timeout(Duration::from_secs(5))
        .build()
        .expect("static test config is valid");
    Server::start(cfg).expect("loopback bind")
}

/// Polls status until the shards have processed everything submitted;
/// the fin-ack only confirms acceptance into the pipeline.
fn wait_drained(ops: &mut ServiceClient) -> instameasure::service::StatusReport {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let s = ops.status().unwrap();
        if s.packets_processed == s.packets_submitted {
            return s;
        }
        assert!(std::time::Instant::now() < deadline, "shards never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A flow set with exact counter bits, for drop-aware set equality.
fn flow_set(
    flows: impl Iterator<Item = (instameasure::packet::FlowKey, f64, f64)>,
) -> BTreeSet<(String, u64, u64)> {
    flows.map(|(k, p, b)| (k.to_string(), p.to_bits(), b.to_bits())).collect()
}

#[test]
fn live_heavy_hitters_match_offline_analyze_exactly() {
    let trace = SyntheticTraceBuilder::new().num_flows(3_000).seed(11).build();

    // Offline oracle: the plain single-core pipeline.
    let mut offline = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
    for r in &trace.records {
        offline.process(r);
    }

    // Live: one worker shard sees the same records in the same order, so
    // every estimate must be bit-identical, not just close.
    let server = start(1);
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    let accepted = tap.push_records(&trace.records).unwrap();
    assert_eq!(accepted, trace.records.len() as u64, "push must be packet-exact");

    let mut ops = ServiceClient::connect(server.local_addr()).unwrap();
    wait_drained(&mut ops);

    // The full resident flow set, exact-set-equal (drop-aware: nothing
    // was dropped, so nothing may differ).
    let offline_all = offline.wsaf().len();
    let live = ops.top_k(offline_all as u32).unwrap();
    assert_eq!(live.len(), offline_all, "same number of WSAF-resident flows");
    let live_set = flow_set(live.iter().map(|f| (f.key, f.packets, f.bytes)));
    let offline_set = flow_set(offline.wsaf().iter().map(|e| (e.key, e.packets, e.bytes)));
    assert_eq!(live_set, offline_set, "live and offline flow sets diverged");

    // Per-flow point queries, including the sketch residual, on the ten
    // true heaviest flows.
    for (key, _) in trace.stats.truth.top_k(10, false) {
        let (pkts, bytes) = ops.query_flow(&key).unwrap();
        assert_eq!(pkts.to_bits(), offline.estimate_packets(&key).to_bits(), "{key}");
        assert_eq!(bytes.to_bits(), offline.estimate_bytes(&key).to_bits(), "{key}");
    }

    // Graceful shutdown: every pushed packet accounted for.
    let report = ops.shutdown().unwrap();
    assert_eq!(report.packets_submitted, trace.records.len() as u64);
    assert_eq!(report.packets_processed, trace.records.len() as u64);
    let joined = server.join();
    assert_eq!(joined, report, "join must return the drained report");
}

#[test]
fn multiworker_daemon_accounts_for_concurrent_pushers() {
    let server = start(4);
    let addr = server.local_addr();
    let per_pusher = 40_000usize;
    let pushers: Vec<_> = (0..3)
        .map(|p| {
            std::thread::spawn(move || {
                let trace = SyntheticTraceBuilder::new().num_flows(500).seed(100 + p).build();
                let records = &trace.records[..per_pusher.min(trace.records.len())];
                let mut tap = ServiceClient::connect(addr).unwrap();
                tap.push_records(records).unwrap()
            })
        })
        .collect();
    let mut total = 0u64;
    for p in pushers {
        total += p.join().unwrap();
    }

    let mut ops = ServiceClient::connect(addr).unwrap();
    let report = ops.shutdown().unwrap();
    assert_eq!(report.packets_submitted, total, "no pushed packet may vanish");
    assert_eq!(report.packets_processed, total, "drain must finish the pipeline");
    assert_eq!(report.workers, 4);
    server.join();
}

#[test]
fn rotate_starts_a_fresh_epoch_without_stopping_service() {
    let server = start(2);
    let trace = SyntheticTraceBuilder::new().num_flows(800).seed(5).build();
    let mut tap = ServiceClient::connect(server.local_addr()).unwrap();
    tap.push_records(&trace.records).unwrap();

    let mut ops = ServiceClient::connect(server.local_addr()).unwrap();
    let before = wait_drained(&mut ops);
    assert!(before.flows > 0, "trace must leave resident flows");
    let (epoch, retired) = ops.rotate().unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(retired, before.flows);
    let after = ops.status().unwrap();
    assert_eq!(after.flows, 0, "rotation must retire the working set");
    assert_eq!(after.epoch, 1);

    // The daemon keeps measuring into the new epoch.
    let accepted = tap.push_records(&trace.records[..1000]).unwrap();
    assert_eq!(accepted, trace.records.len() as u64 + 1000);
    ops.shutdown().unwrap();
    server.join();
}
