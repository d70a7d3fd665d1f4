//! Per-layer probes for the traced run: each layer's public functions
//! timed in process on the workload's own records, the autotune cost
//! model's prediction printed beside each sketch and WSAF stage, and the
//! stage waterfall against the end-to-end number.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use instameasure_autotune::{calibrate, CalibrationOptions, MachineProfile};
use instameasure_core::detect::{DetectorConfig, DetectorSuite, EpochFeatures};
use instameasure_core::{InstaMeasure, InstaMeasureConfig};
use instameasure_packet::chunk::{
    parse_packet_view, read_records_mmap, PacketView, PcapChunkReader,
};
use instameasure_packet::simd::digest_records_into;
use instameasure_packet::synth::synthesize_frame;
use instameasure_packet::PacketRecord;
use instameasure_service::client::PUSH_CHUNK_RECORDS;
use instameasure_service::wire::HEADER_BYTES;
use instameasure_service::{Engine, EngineConfig, Request};
use instameasure_sketch::FlowFilter;
use instameasure_telemetry::SharedRegistry;
use instameasure_wsaf::{FlowEntry, WsafDeposit, WsafTable};

use crate::live_flood::{replay_sharded, SHARDS};
use crate::proc::BoxError;
use crate::report::Report;
use crate::stats::median;

/// Timed repetitions of each probe; the median is reported.
const REPS: usize = 3;
/// Packets per batch on the batched paths, as the daemon's shards drain.
const BATCH: usize = 256;
/// Frames the parse probe parses from memory.
const PARSE_SAMPLE: usize = 100_000;

/// Per-packet (or per-operation) costs the waterfalls add up.
pub struct Probe {
    pub read_ns: f64,
    pub parse_ns: f64,
    pub sketch_scalar_ns: f64,
    pub sketch_batch_ns: f64,
    pub pipeline_scalar_ns: f64,
    pub leak_ratio: f64,
    pub deposit_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub submit_ns: f64,
    pub publish_ms: f64,
}

/// Median over [`REPS`] runs of `f`, which returns seconds.
fn med(mut f: impl FnMut() -> Result<f64, BoxError>) -> Result<f64, BoxError> {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        v.push(f()?);
    }
    Ok(median(&v))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The cost-model profile: loaded from the checkout's cache, else
/// calibrated once in the bounded smoke mode and cached there.
fn profile() -> MachineProfile {
    let path = Path::new(".bench_work").join("machine-profile-smoke.txt");
    if let Ok(p) = MachineProfile::load(&path) {
        return p;
    }
    let p = calibrate(&CalibrationOptions::smoke());
    let _ = p.save(&path);
    p
}

fn predicted(name: &str, predicted_ns: f64, measured_ns: f64) {
    println!(
        "    cost model: {name} predicted {predicted_ns:.2} ns, measured {measured_ns:.2} ns \
         (measured / predicted = {:.2})",
        measured_ns / predicted_ns
    );
}

pub fn probe(records: &[PacketRecord], pcap: &Path, rep: &mut Report) -> Result<Probe, BoxError> {
    let n = records.len() as f64;
    let cfg = InstaMeasureConfig::default();
    let model = profile();
    println!(
        "  machine profile{}: hash {:.2} ns, {:.1} ns cache-resident .. {:.1} ns at the largest rung",
        if model.smoke() { " (smoke calibration)" } else { "" },
        model.hash_ns(),
        model.sram_ns(),
        model.dram_ns()
    );

    // Packet layer, on the capture.
    let mut pkts = 0u64;
    let read_s = med(|| {
        let mut reader = PcapChunkReader::open(pcap)?;
        let (count, s) = timed(|| -> Result<u64, BoxError> {
            let mut count = 0u64;
            while let Some(view) = reader.next_view()? {
                black_box(view.data.len());
                count += 1;
            }
            Ok(count)
        });
        pkts = count?;
        Ok(s)
    })?;
    // Parse on its own: the first frames of the workload, synthesized into
    // memory, so the probe times the parser and not page faults.
    let sample = &records[..records.len().min(PARSE_SAMPLE)];
    let mut frames = Vec::new();
    let mut spans = Vec::with_capacity(sample.len());
    for r in sample {
        let frame = synthesize_frame(r);
        spans.push((frames.len(), frame.len()));
        frames.extend_from_slice(&frame);
    }
    let parse_s = med(|| {
        let mut out = records[0];
        let (r, s) = timed(|| -> Result<(), BoxError> {
            for &(at, len) in &spans {
                let view =
                    PacketView { ts_nanos: 0, orig_len: len as u32, data: &frames[at..at + len] };
                parse_packet_view(&view, 0, &mut out)?;
                black_box(&out);
            }
            Ok(())
        });
        r?;
        Ok(s)
    })?;
    let materialize_s = med(|| {
        let (r, s) = timed(|| read_records_mmap(pcap));
        black_box(r?);
        Ok(s)
    })?;
    let per_pkt = |s: f64| s * 1e9 / pkts.max(1) as f64;
    let read_ns = per_pkt(read_s);
    let parse_ns = parse_s * 1e9 / spans.len().max(1) as f64;
    rep.layer("packet.read_ns_per_pkt", read_ns, "ns");
    rep.layer("packet.parse_ns_per_pkt", parse_ns, "ns");
    println!("    (read_records_mmap, whole vector: {:.2} ns/pkt)", per_pkt(materialize_s));

    let mut digests = Vec::new();
    let digest_ns = med(|| {
        Ok(timed(|| {
            for chunk in records.chunks(BATCH) {
                digest_records_into(chunk, &mut digests);
                black_box(&digests);
            }
        })
        .1)
    })? * 1e9
        / n;
    rep.layer("packet.digest_ns_per_pkt", digest_ns, "ns");
    predicted("digest", model.hash_ns(), digest_ns);

    // Sketch: the scalar path `analyze` calls and the batched path the
    // daemon's shards call. The scalar pass also collects the WSAF
    // deposits the WSAF probe replays.
    let mut deposits = Vec::new();
    let mut stats = None;
    let sketch_scalar_ns = med(|| {
        let mut filter = cfg.filter.build(cfg.sketch);
        deposits.clear();
        let s = timed(|| {
            for r in records {
                if let Some(u) = filter.process(r) {
                    deposits.push(WsafDeposit {
                        key: u.key,
                        digest: u.digest,
                        est_pkts: u.est_pkts,
                        est_bytes: u.est_bytes,
                        ts: u.ts_nanos,
                    });
                }
            }
        })
        .1;
        stats = Some((filter.stats(), filter.memory_bytes()));
        Ok(s)
    })? * 1e9
        / n;
    let sketch_batch_ns = med(|| {
        let mut filter = cfg.filter.build(cfg.sketch);
        let mut out = Vec::new();
        Ok(timed(|| {
            for chunk in records.chunks(BATCH) {
                out.clear();
                filter.process_batch(chunk, &mut out);
                black_box(&out);
            }
        })
        .1)
    })? * 1e9
        / n;
    let (fstats, sketch_bytes) = stats.ok_or("the sketch probe never ran")?;
    let leak_ratio = fstats.regulation_rate();
    rep.layer("sketch.scalar_ns_per_pkt", sketch_scalar_ns, "ns");
    rep.layer("sketch.batch_ns_per_pkt", sketch_batch_ns, "ns");
    rep.layer("sketch.leak_ratio", leak_ratio, "ratio");
    rep.layer("sketch.mem_accesses_per_pkt", fstats.accesses_per_packet(), "count");
    let sketch_model =
        model.hash_ns() + fstats.accesses_per_packet() * model.latency_ns(sketch_bytes as u64);
    predicted("sketch (scalar)", sketch_model, sketch_scalar_ns);
    predicted("sketch (batched)", sketch_model, sketch_batch_ns);

    // WSAF, fed the deposits the sketch released.
    let mut table = None;
    let deposit_ns = med(|| {
        let mut t = WsafTable::new(cfg.wsaf);
        let s = timed(|| {
            for chunk in deposits.chunks(BATCH) {
                t.accumulate_batch(chunk);
            }
        })
        .1;
        table = Some(t);
        Ok(s)
    })? * 1e9
        / deposits.len().max(1) as f64;
    let table = table.ok_or("the WSAF probe never ran")?;
    let probes = table.stats().probes_per_op();
    let wsaf_bytes = (cfg.wsaf.num_entries() * std::mem::size_of::<FlowEntry>()) as u64;
    rep.layer("wsaf.ns_per_deposit", deposit_ns, "ns");
    rep.layer("wsaf.probes_per_op", probes, "count");
    predicted("wsaf deposit", probes * model.latency_ns(wsaf_bytes), deposit_ns);
    let topk_ms = med(|| Ok(timed(|| black_box(table.top_k_by_packets(1000))).1))? * 1e3;
    rep.layer("wsaf.topk_ms", topk_ms, "ms");

    let pipeline_scalar_ns = med(|| {
        let mut im = InstaMeasure::new(cfg);
        Ok(timed(|| {
            for r in records {
                black_box(im.process(r));
            }
        })
        .1)
    })? * 1e9
        / n;
    println!("    (InstaMeasure::process, sketch + WSAF: {pipeline_scalar_ns:.2} ns/pkt)");

    // Wire codec of ingest frames, as pushed.
    let (mut enc, mut dec, mut bytes) = (0.0, 0.0, 0usize);
    for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
        let (frame, s) = timed(|| Request::IngestBatch(chunk.to_vec()).encode());
        enc += s;
        bytes += HEADER_BYTES + frame.payload.len();
        let (decoded, s) = timed(|| Request::decode(&frame));
        dec += s;
        black_box(decoded?);
    }
    let (encode_ns, decode_ns) = (enc * 1e9 / n, dec * 1e9 / n);
    rep.layer("wire.encode_ns_per_pkt", encode_ns, "ns");
    rep.layer("wire.decode_ns_per_pkt", decode_ns, "ns");
    rep.layer("wire.bytes_per_pkt", bytes as f64 / n, "B");

    // Engine and snapshots: the daemon's shard runtime, in process.
    let engine = Engine::start(
        &EngineConfig { workers: SHARDS, per_worker: cfg, ..EngineConfig::default() },
        Arc::new(SharedRegistry::new()),
    );
    let mut lane = engine.lane().ok_or("the engine refused a lane")?;
    let mut backlog = Vec::new();
    let t = Instant::now();
    for chunk in records.chunks(PUSH_CHUNK_RECORDS) {
        lane.submit(chunk)?;
        backlog.push(engine.packets_submitted().saturating_sub(engine.packets_processed()) as f64);
    }
    lane.flush()?;
    let submit_ns = t.elapsed().as_secs_f64() * 1e9 / n;
    let t = Instant::now();
    while engine.packets_processed() < records.len() as u64 {
        std::thread::yield_now();
    }
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    rep.layer("engine.submit_ns_per_pkt", submit_ns, "ns");
    rep.layer("engine.drain_ms", drain_ms, "ms");
    rep.layer("engine.backlog_pkts", median(&backlog), "count");
    let (mut publish, mut read) = (Vec::new(), Vec::new());
    for round in 1..=REPS {
        lane.submit(&records[..BATCH.min(records.len())])?;
        lane.flush()?;
        let want = (records.len() + round * BATCH.min(records.len())) as u64;
        while engine.packets_processed() < want {
            std::thread::yield_now();
        }
        publish.push(timed(|| black_box(engine.top_k(100))).1);
        read.push(timed(|| black_box(engine.top_k(100))).1);
    }
    drop(lane);
    engine.drain();
    let publish_ms = median(&publish) * 1e3;
    rep.layer("snapshot.publish_ms", publish_ms, "ms");
    rep.layer("snapshot.read_us", median(&read) * 1e6, "us");
    rep.layer("snapshot.bytes", (SHARDS as u64 * (sketch_bytes as u64 + wsaf_bytes)) as f64, "B");

    // Detection features over the epoch the records make, per shard.
    let shards = replay_sharded(records, SHARDS);
    let absorb = |shards: &[InstaMeasure]| -> Vec<EpochFeatures> {
        shards
            .iter()
            .map(|im| {
                let mut f = EpochFeatures::default();
                f.absorb(im.wsaf());
                f
            })
            .collect()
    };
    let absorb_ms = med(|| Ok(timed(|| black_box(absorb(&shards))).1))? * 1e3;
    let features = absorb(&shards);
    let merge_ms = med(|| {
        Ok(timed(|| {
            let mut merged = EpochFeatures::default();
            for f in &features {
                merged.merge(f);
            }
            black_box(merged)
        })
        .1)
    })? * 1e3;
    let mut merged = EpochFeatures::default();
    for f in &features {
        merged.merge(f);
    }
    let suite = DetectorSuite::standard(DetectorConfig::default());
    let evaluate_ms =
        med(|| Ok(timed(|| black_box(suite.evaluate(1, Some(&merged), &merged))).1))? * 1e3;
    rep.layer("detect.absorb_ms", absorb_ms, "ms");
    rep.layer("detect.merge_ms", merge_ms, "ms");
    rep.layer("detect.evaluate_ms", evaluate_ms, "ms");

    Ok(Probe {
        read_ns,
        parse_ns,
        sketch_scalar_ns,
        sketch_batch_ns,
        pipeline_scalar_ns,
        leak_ratio,
        deposit_ns,
        encode_ns,
        decode_ns,
        submit_ns,
        publish_ms,
    })
}

/// Prints a stage waterfall in ns per packet next to the end-to-end cost
/// per packet, with the unexplained gap. Reported, never gated.
pub fn waterfall(title: &str, stages: &[(&str, f64)], e2e_ns: f64) {
    println!("waterfall: {title}");
    let mut sum = 0.0;
    for (name, ns) in stages {
        sum += ns;
        println!("  {name:<44} {ns:>10.2} ns/pkt");
    }
    println!("  {:<44} {sum:>10.2} ns/pkt", "sum of stages");
    println!("  {:<44} {e2e_ns:>10.2} ns/pkt", "end to end (1 / throughput)");
    println!(
        "  {:<44} {:>10.2} ns/pkt ({:+.1}% of end to end)",
        "gap (end to end - sum)",
        e2e_ns - sum,
        (e2e_ns - sum) / e2e_ns * 100.0
    );
}
