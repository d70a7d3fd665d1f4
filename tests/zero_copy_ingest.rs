//! Differential suite for the zero-copy pcap ingest path.
//!
//! Two claims, both exact:
//!
//! 1. Every reader path — owned `read_records`, whole-file mmap, and the
//!    chunked streaming reader at adversarial chunk sizes — produces the
//!    bit-identical record sequence from the same capture file.
//! 2. Feeding a capture through [`run_multicore_pcap`] (both mmap and
//!    buffered modes) yields per-worker measurement state that is
//!    bit-identical to a single-core replay of the owned-buffer shards,
//!    for every test worker count: same WSAF decode output, same encoded
//!    bytes, same regulator counters, bitwise-equal estimates.
//!
//! Together these pin the tentpole guarantee: the zero-copy path may be
//! optimised freely, but any observable divergence from the owned-buffer
//! path fails here, not in an accuracy error bar.

mod support;

use std::fs::File;
use std::io::BufReader;

use instameasure::core::engine::EngineConfig;
use instameasure::core::ingest::run_multicore_pcap;
use instameasure::core::InstaMeasureConfig;
use instameasure::packet::chunk::{read_records_mmap, PcapChunkReader, RecordStream};
use instameasure::packet::pcap::{read_records, PcapWriter, TsResolution};
use instameasure::packet::synth::synthesize_frame;
use instameasure::packet::PacketRecord;
use instameasure::traffic::presets::caida_like;
use support::oracle::{assert_identical_measurement, replay, shard_records, test_worker_counts};

/// Writes the trace to a temp pcap and returns its path (caller removes).
fn write_trace(records: &[PacketRecord], name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir()
        .join(format!("instameasure_zc_ingest_{}_{name}.pcap", std::process::id()));
    let mut file = Vec::new();
    let mut w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
    for r in records {
        w.write_packet(r.ts_nanos, &synthesize_frame(r)).unwrap();
    }
    w.into_inner().unwrap();
    std::fs::write(&path, file).unwrap();
    path
}

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        batch_size: 64,
        queue_batches: 64,
        per_worker: InstaMeasureConfig::default().small_for_tests(),
        ..EngineConfig::default()
    }
}

#[test]
fn every_reader_path_yields_identical_records() {
    let trace = caida_like(0.004, 29);
    let path = write_trace(&trace.records, "readers");

    let (owned, owned_skipped) = read_records(BufReader::new(File::open(&path).unwrap())).unwrap();
    assert!(!owned.is_empty());

    let (mapped, mapped_skipped) = read_records_mmap(&path).unwrap();
    assert_eq!(mapped, owned, "mmap path diverged from owned reader");
    assert_eq!(mapped_skipped, owned_skipped);

    let bytes = std::fs::read(&path).unwrap();
    for chunk_size in [1usize, 7, 4096, 1 << 20] {
        let mut stream =
            RecordStream::new(PcapChunkReader::with_chunk_size(&bytes[..], chunk_size).unwrap());
        let streamed: Vec<PacketRecord> = stream.by_ref().collect();
        let (skipped, stats) = stream.finish().unwrap();
        assert_eq!(streamed, owned, "chunk_size={chunk_size} diverged from owned reader");
        assert_eq!(skipped, owned_skipped);
        assert_eq!(stats.records, owned.len() as u64 + skipped);
        assert_eq!(stats.bytes_mapped, bytes.len() as u64, "chunk_size={chunk_size}");
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn zero_copy_multicore_is_bit_identical_to_owned_shard_replay() {
    for seed in [5u64, 31] {
        let trace = caida_like(0.004, seed);
        let path = write_trace(&trace.records, &format!("mc_{seed}"));
        // The owned-buffer decode is the reference stream; the pipeline's
        // input must be exactly this sequence, so a single-core replay of
        // its shards is the exact truth for every worker.
        let (owned, owned_skipped) =
            read_records(BufReader::new(File::open(&path).unwrap())).unwrap();

        for workers in test_worker_counts() {
            let cfg = config(workers);
            let shards = shard_records(&owned, workers);
            let references: Vec<_> = shards
                .iter()
                .map(|s| replay(s, InstaMeasureConfig::default().small_for_tests()))
                .collect();

            let readers = [
                ("mmap", PcapChunkReader::open(&path).unwrap()),
                ("buffered", PcapChunkReader::from_reader(File::open(&path).unwrap()).unwrap()),
            ];
            for (mode, reader) in readers {
                let ctx = format!("seed {seed} workers {workers} mode {mode}");
                let (system, report, ingest) = run_multicore_pcap(reader, &cfg).unwrap();
                assert_eq!(report.dropped, 0, "{ctx}: Block mode must not drop");
                assert_eq!(report.packets, owned.len() as u64, "{ctx}: packet count");
                assert_eq!(ingest.skipped_frames, owned_skipped, "{ctx}: skipped frames");
                assert_eq!(
                    ingest.last_ts_nanos,
                    owned.last().unwrap().ts_nanos,
                    "{ctx}: trace span"
                );
                for (w, reference) in references.iter().enumerate() {
                    assert_identical_measurement(
                        system.shard(w),
                        reference,
                        &format!("{ctx} worker {w}"),
                    );
                }
                // The ingest counters ride along in the run telemetry.
                for counter in [
                    "ingest.chunk_fills",
                    "ingest.chunk_bytes_mapped",
                    "ingest.chunk_copy_fallbacks",
                ] {
                    assert!(
                        report.telemetry.counter(counter).is_some(),
                        "{ctx}: missing telemetry counter {counter}"
                    );
                }
                assert_eq!(
                    report.telemetry.counter("ingest.chunk_bytes_mapped"),
                    Some(std::fs::metadata(&path).unwrap().len()),
                    "{ctx}: every byte of the file must be accounted for"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
