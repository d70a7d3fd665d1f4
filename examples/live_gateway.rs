//! Live gateway: the streaming daemon under concurrent remote taps.
//!
//! Boots the measurement daemon on loopback, streams a campus-like trace
//! into it from several pusher threads (each playing one remote tap), and
//! polls top-K from a separate operator connection while ingest is still
//! running — measuring the paper's headline metric, *detection latency*:
//! how long after an epoch starts until the true heaviest flow is already
//! visible at the top of the live top-K.
//!
//! ```text
//! cargo run --release --example live_gateway
//! ```

use std::time::{Duration, Instant};

use instameasure::core::engine::EngineConfig;
use instameasure::core::InstaMeasureConfig;
use instameasure::service::server::{Server, ServiceConfig};
use instameasure::service::ServiceClient;
use instameasure::sketch::SketchConfig;
use instameasure::traffic::presets::campus_like;
use instameasure::wsaf::WsafConfig;

const TAPS: usize = 3;
const EPOCHS: u64 = 3;
const CHUNK: usize = 4_096;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .engine(EngineConfig {
            workers: 4,
            batch_size: 256,
            per_worker: InstaMeasureConfig::default()
                .with_sketch(
                    SketchConfig::builder().memory_bytes(32 * 1024).vector_bits(8).build()?,
                )
                .with_wsaf(WsafConfig::builder().entries_log2(18).build()?),
            ..EngineConfig::default()
        })
        .build()?;
    let server = Server::start(cfg)?;
    let addr = server.local_addr();
    println!("daemon listening on {addr} (4 workers)");

    let mut ops = ServiceClient::connect(addr)?;
    for epoch in 0..EPOCHS {
        // Each epoch gets a fresh trace; the heaviest true flow is the
        // detection target.
        let trace = campus_like(0.02, 41 + epoch);
        let (elephant, truth) = trace.stats.truth.top_k(1, false)[0];
        println!(
            "\nepoch {epoch}: {} packets / {} flows from {TAPS} taps; \
             target flow {elephant} ({truth} true packets)",
            trace.stats.packets, trace.stats.flows
        );

        let epoch_start = Instant::now();
        // Split the trace across the taps; each streams its share in
        // CHUNK-record ingest frames over its own connection.
        let shares: Vec<Vec<_>> = (0..TAPS)
            .map(|t| trace.records.iter().skip(t).step_by(TAPS).copied().collect())
            .collect();
        let pushers: Vec<_> = shares
            .into_iter()
            .map(|share| {
                std::thread::spawn(
                    move || -> Result<u64, Box<dyn std::error::Error + Send + Sync>> {
                        let mut tap = ServiceClient::connect(addr)?;
                        for chunk in share.chunks(CHUNK) {
                            tap.push_batch(chunk)?;
                        }
                        Ok(tap.finish()?)
                    },
                )
            })
            .collect();

        // Poll the live top-K from the operator connection until the true
        // elephant appears in it — ingest never pauses for these queries.
        let mut detected_after = None;
        let mut polls = 0u64;
        let poll_deadline = Instant::now() + Duration::from_secs(30);
        while detected_after.is_none() {
            polls += 1;
            let top = ops.top_k(5)?;
            if top.iter().any(|f| f.key == elephant) {
                detected_after = Some(epoch_start.elapsed());
            } else if Instant::now() > poll_deadline {
                return Err("elephant never surfaced in the live top-K".into());
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }

        let mut streamed = 0u64;
        for p in pushers {
            streamed += p.join().expect("pusher thread").map_err(|e| e.to_string())?;
        }
        let push_wall = epoch_start.elapsed();

        let detect = detected_after.expect("elephant detected");
        println!(
            "  detection latency: {:.2} ms ({polls} live top-K polls) — \
             elephant surfaced while the taps were still streaming",
            detect.as_secs_f64() * 1e3
        );
        println!(
            "  streamed {streamed} packets in {:.1} ms ({:.2} Mpps over TCP loopback)",
            push_wall.as_secs_f64() * 1e3,
            streamed as f64 / push_wall.as_secs_f64() / 1e6
        );
        let top = ops.top_k(5)?;
        println!("  live top-5 at epoch end:");
        for f in &top {
            let truth = trace.stats.truth.packets.get(&f.key).copied().unwrap_or(0);
            println!("    {}  est {:.0} pkts (true {truth})", f.key, f.packets);
        }

        let (new_epoch, retired) = ops.rotate()?;
        println!("  rotated to epoch {new_epoch}: {retired} flows retired");
    }

    let report = ops.shutdown()?;
    println!(
        "\ndrained and stopped: {} packets submitted, {} processed, {} connections over {} epochs",
        report.packets_submitted, report.packets_processed, report.connections, EPOCHS
    );
    assert_eq!(report.packets_submitted, report.packets_processed, "drain is packet-exact");
    server.join();
    Ok(())
}
