//! Detection-latency bench: the paper's "instant" claim as a number.
//!
//! InstaMeasure's pitch is per-flow state fresh enough that anomaly
//! verdicts land within ~10 ms of the triggering epoch closing. This
//! bench runs the real daemon over loopback TCP, makes an attack
//! resident, and times the full client-observed path per epoch: rotate
//! request → per-shard snapshot capture → feature merge → detector
//! suite → alert frame back on the subscriber's socket.
//!
//! It times two shard geometries on the same attack: the small
//! `small_for_tests()` tables (gated) and the default 2^20-entry WSAF the
//! paper specifies (reported against the same budget, not gated).
//!
//! A manual timing pass writes `BENCH_detect.json` at the repo root
//! (override with `INSTAMEASURE_BENCH_JSON`) with p50/p99/max
//! onset→alert latency per geometry and the host's provenance (git sha,
//! nproc, CPU features). If the small-table p99 exceeds the budget the
//! run prints a `DETECT-REGRESSION` marker, which the CI bench-smoke job
//! greps for.
//!
//! `INSTAMEASURE_BENCH_SMOKE=1` shrinks the epoch count and relaxes the
//! budget — CI shares cores; the full run enforces the paper's number.

use std::time::{Duration, Instant};

use instameasure_core::detect::{AnomalyKind, DetectorConfig};
use instameasure_core::engine::EngineConfig;
use instameasure_core::InstaMeasureConfig;
use instameasure_service::server::{Server, ServiceConfig};
use instameasure_service::{DetectionConfig, ServiceClient};
use instameasure_traffic::adversarial::horizontal_scan;

/// Alert-latency budget in milliseconds: the paper's detection target
/// for the full run, a shared-core allowance for smoke.
fn budget_ms(smoke: bool) -> f64 {
    if smoke {
        25.0
    } else {
        10.0
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Onset→alert latency percentiles of one run, in milliseconds.
struct Latency {
    p50: f64,
    p99: f64,
    max: f64,
}

/// Runs `epochs` scan epochs against a two-shard daemon whose shards hold
/// `per_worker` tables and times each rotate → spreader alert. Replies
/// may take up to `reply_timeout`, which each epoch's straggler drain
/// also waits out once.
fn run(per_worker: InstaMeasureConfig, epochs: usize, reply_timeout: Duration) -> Latency {
    let cfg = ServiceConfig::builder()
        .addr("127.0.0.1:0")
        .engine(EngineConfig { workers: 2, batch_size: 512, per_worker, ..EngineConfig::default() })
        .read_timeout(Duration::from_secs(5))
        .detect(DetectionConfig { interval: None, detectors: DetectorConfig::default() })
        .build()
        .expect("static bench config is valid");
    let server = Server::start(cfg).expect("loopback bind");
    let mut tap = ServiceClient::connect(server.local_addr()).expect("tap connect");
    // Short read timeout: the per-epoch straggler drain costs one
    // timeout tick, not the default 10 s.
    let mut sub = ServiceClient::connect_with_timeout(server.local_addr(), reply_timeout)
        .expect("subscriber connect");
    sub.subscribe(0).expect("detection is enabled");

    let (records, _) = horizontal_scan(200, 300, 0);
    let mut samples_ms = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        // Make the attack resident, outside the timed region: the
        // measured path is epoch close → alert on the wire, not ingest.
        tap.push_records(&records).expect("push over loopback");
        loop {
            let s = sub.status().expect("status");
            if s.packets_processed == s.packets_submitted {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        sub.rotate().expect("rotate closes the epoch");
        loop {
            match sub.next_alert().expect("alert stream") {
                Some((_, a)) if a.kind == AnomalyKind::SuperSpreader => break,
                Some(_) => continue,
                None => panic!("scan epoch closed without a spreader alert"),
            }
        }
        samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // Drain stragglers so the next epoch starts clean.
        while sub.next_alert().expect("alert stream").is_some() {}
    }
    drop(sub); // a live subscriber would hold the shutdown's drain grace
    tap.shutdown().expect("daemon drains clean");
    server.join();

    samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    Latency {
        p50: percentile(&samples_ms, 0.50),
        p99: percentile(&samples_ms, 0.99),
        max: *samples_ms.last().expect("at least one epoch ran"),
    }
}

/// The host header perfbench prints — git sha, nproc, CPU features, SIMD
/// dispatch tier and prefetch distance — as a JSON field.
fn provenance() -> String {
    use instameasure_packet::{prefetch, simd};
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "\"provenance\": {{\"git\": \"{git}\", \"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"dispatch\": \"{}\", \"prefetch_distance\": {}}}",
        simd::cpu_features_label(),
        simd::dispatch_tier().label(),
        prefetch::prefetch_distance()
    )
}

fn main() {
    let smoke = std::env::var("INSTAMEASURE_BENCH_SMOKE").is_ok();
    let budget = budget_ms(smoke);
    // (name, per-shard tables, gated, epochs, reply timeout). The default
    // tables' rotations take longer than the small tables' 100 ms drain
    // tick, so their run waits longer per epoch and runs fewer epochs.
    let geometries = [
        (
            "small_for_tests",
            InstaMeasureConfig::default().small_for_tests(),
            true,
            if smoke { 20 } else { 200 },
            Duration::from_millis(100),
        ),
        (
            "default",
            InstaMeasureConfig::default(),
            false,
            if smoke { 5 } else { 50 },
            Duration::from_secs(1),
        ),
    ];

    let mut runs = Vec::new();
    let mut regressions = Vec::new();
    for (table, per_worker, gated, epochs, reply_timeout) in geometries {
        let l = run(per_worker, epochs, reply_timeout);
        let entries = per_worker.wsaf.num_entries();
        println!(
            "detect[{table}, {entries}-entry WSAF]: {epochs} epochs, onset->alert p50 {:.3} ms, \
             p99 {:.3} ms, max {:.3} ms (budget {budget:.0} ms{})",
            l.p50,
            l.p99,
            l.max,
            if gated { ", gated" } else { ", reported only" }
        );
        if gated && l.p99 > budget {
            regressions.push(format!(
                "DETECT-REGRESSION: {table} p99 alert latency {:.3} ms exceeds the {budget:.0} ms \
                 budget",
                l.p99
            ));
        }
        runs.push(format!(
            "    {{\"table\": \"{table}\", \"wsaf_entries\": {entries}, \"gated\": {gated}, \
             \"epochs\": {epochs}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}",
            l.p50, l.p99, l.max
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"detect\",\n  \"smoke\": {smoke},\n  {},\n  \
         \"attack\": \"horizontal_scan(200, 300)\",\n  \"workers\": 2,\n  \
         \"budget_ms\": {budget:.1},\n  \"runs\": [\n{}\n  ]\n}}\n",
        provenance(),
        runs.join(",\n")
    );
    let path = std::env::var("INSTAMEASURE_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_detect.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).expect("write BENCH_detect.json");
    println!("detect: wrote {path}");
    for r in regressions {
        println!("{r}");
    }
}
