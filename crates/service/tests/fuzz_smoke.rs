//! Bounded fuzz smoke run over the wire-protocol fuzz bodies.
//!
//! Same shape as the packet crate's fuzz smoke: CI cannot assume nightly
//! plus cargo-fuzz, so this replays seeded wire traffic and a bounded number
//! of deterministic xorshift mutations through the invariant bodies in
//! `instameasure_service::fuzzing`. Tune the budget with
//! `INSTAMEASURE_FUZZ_ITERS` (mutations per seed, default 2000); set
//! `INSTAMEASURE_WRITE_CORPUS=<dir>` to dump the seeds as starting corpus
//! files for real fuzzing sessions.

// Too slow under Miri; the wire unit tests cover the same code there.
#![cfg(not(miri))]

use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use instameasure_service::fuzzing::{fuzz_frame_stream, fuzz_payloads, fuzz_truncations};
use instameasure_service::wire::{write_frame, Request, Response, StatusReport, TopFlow};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Applies one random byte-level mutation (flip, splice, truncate, extend).
fn mutate(buf: &mut Vec<u8>, rng: &mut XorShift) {
    match rng.next() % 4 {
        0 if !buf.is_empty() => {
            let i = (rng.next() as usize) % buf.len();
            buf[i] ^= (rng.next() & 0xFF) as u8;
        }
        1 if !buf.is_empty() => {
            let cut = (rng.next() as usize) % buf.len();
            buf.truncate(cut);
        }
        2 => buf.extend_from_slice(&rng.next().to_le_bytes()),
        _ if buf.len() >= 4 => {
            let i = (rng.next() as usize) % (buf.len() - 3);
            let word = rng.next().to_le_bytes();
            buf[i..i + 4].copy_from_slice(&word[..4]);
        }
        _ => buf.push((rng.next() & 0xFF) as u8),
    }
}

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), [10, 0, 0, 9], 4000, 443, Protocol::Tcp)
}

/// One encoded wire stream per message family, so the mutation budget
/// exercises every opcode's decoder.
fn sample_streams() -> Vec<Vec<u8>> {
    let records: Vec<PacketRecord> =
        (0..16).map(|t| PacketRecord::new(key(t), 700, u64::from(t))).collect();
    let requests = [
        Request::IngestBatch(records),
        Request::IngestFin,
        Request::QueryFlow(key(1)),
        Request::QueryTopK(25),
        Request::QueryStatus,
        Request::QueryTelemetry,
        Request::Rotate,
        Request::Shutdown,
    ];
    let responses = [
        Response::FinAck { packets: 12345 },
        Response::Flow { packets: 900.5, bytes: 612_340.0 },
        Response::TopK(vec![
            TopFlow { key: key(1), packets: 5000.0, bytes: 3_500_000.0 },
            TopFlow { key: key(2), packets: 100.0, bytes: 6_400.0 },
        ]),
        Response::Status(StatusReport {
            packets_submitted: 1_000_000,
            packets_processed: 1_000_000,
            ingest_frames: 123,
            connections: 4,
            flows: 999,
            epoch: 2,
            workers: 8,
        }),
        Response::Telemetry("{\"service.frames.ingest\":123}".to_string()),
        Response::Rotated { epoch: 3, flows_retired: 999 },
        Response::Error { class: "bad_payload".to_string(), message: "test".to_string() },
    ];
    let mut streams = Vec::new();
    for frame in requests.iter().map(Request::encode).chain(responses.iter().map(Response::encode))
    {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame.opcode, &frame.payload).unwrap();
        streams.push(wire);
    }
    // One concatenated stream of everything, so the frame reader is also
    // fuzzed across frame boundaries.
    let all: Vec<u8> = streams.iter().flatten().copied().collect();
    streams.push(all);
    streams
}

fn iters() -> u64 {
    std::env::var("INSTAMEASURE_FUZZ_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(2_000)
}

#[test]
fn smoke_wire_streams_and_payloads() {
    let seeds = sample_streams();
    if let Ok(dir) = std::env::var("INSTAMEASURE_WRITE_CORPUS") {
        let d = std::path::Path::new(&dir).join("service_wire");
        std::fs::create_dir_all(&d).unwrap();
        for (i, s) in seeds.iter().enumerate() {
            std::fs::write(d.join(format!("seed-stream-{i}")), s).unwrap();
        }
    }
    let mut rng = XorShift(0x5eed_0003);
    for seed in &seeds {
        fuzz_frame_stream(seed);
        fuzz_payloads(seed);
        let mut buf = seed.clone();
        for _ in 0..iters() {
            mutate(&mut buf, &mut rng);
            if buf.len() > 16_384 {
                buf.truncate(16_384);
            }
            fuzz_frame_stream(&buf);
            fuzz_payloads(&buf);
        }
    }
}

#[test]
fn smoke_truncation_sweep() {
    let seeds = sample_streams();
    let mut rng = XorShift(0x5eed_0004);
    // The truncation body is O(len^2) in reads; a smaller budget keeps the
    // wall-clock comparable to the stream smoke.
    let per_seed = (iters() / 8).max(32);
    for seed in &seeds {
        fuzz_truncations(seed);
        let mut buf = seed.clone();
        for _ in 0..per_seed {
            mutate(&mut buf, &mut rng);
            if buf.len() > 2_048 {
                buf.truncate(2_048);
            }
            fuzz_truncations(&buf);
        }
    }
}
