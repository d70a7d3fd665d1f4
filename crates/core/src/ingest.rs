//! Zero-copy pcap ingest bridged into the multi-core pipeline.
//!
//! [`run_multicore_pcap`] streams an opened capture through
//! [`instameasure_packet::chunk::RecordStream`] — borrowed packet views
//! parsed in place, no per-packet allocation — straight into
//! [`crate::multicore::run_multicore_stream`]'s recycled dispatch batches,
//! so the steady state of *file → frame → record → worker* allocates
//! nothing per packet. The caller picks the byte path by how it opens the
//! reader: [`PcapChunkReader::open`] maps the file (falling back to
//! chunked reads), [`PcapChunkReader::from_reader`] takes the chunked
//! copy path. The reader's [`IngestStats`] are folded into the run
//! report's telemetry as `ingest.chunk_*` counters, next to the batching
//! counters the pipeline already emits.

use std::io::Read;

use instameasure_packet::chunk::{IngestStats, PcapChunkReader, RecordStream};
use instameasure_packet::pcap::PcapError;

use crate::engine::{BackpressurePolicy, EngineConfig};
use crate::multicore::{run_multicore_stream, MultiCoreSystem, RunReport};

/// What a zero-copy ingest run observed about the file itself.
#[derive(Debug, Clone, Copy)]
pub struct PcapIngestReport {
    /// Frames skipped because they did not parse to a flow key.
    pub skipped_frames: u64,
    /// Records fed to the pipeline.
    pub records: u64,
    /// Rebased timestamp of the last parsed packet (the trace span).
    pub last_ts_nanos: u64,
    /// Chunk/copy counters of the reader.
    pub stats: IngestStats,
}

/// Streams an opened capture through the zero-copy reader into the
/// multi-core pipeline, losslessly, without materialising the record
/// vector in between.
///
/// The returned [`RunReport`]'s telemetry gains `ingest.chunk_fills`,
/// `ingest.chunk_bytes_mapped`, `ingest.chunk_copy_fallbacks` and
/// `ingest.skipped_frames` counters describing how bytes moved.
///
/// # Errors
///
/// Returns [`PcapError`] if a record is truncated or corrupt mid-stream.
/// Pipeline output up to such an error is discarded: corrupt input should
/// not masquerade as a complete measurement.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`run_multicore_stream`] (invalid config or a worker thread panic).
pub fn run_multicore_pcap<R: Read>(
    reader: PcapChunkReader<R>,
    cfg: &EngineConfig,
) -> Result<(MultiCoreSystem, RunReport, PcapIngestReport), PcapError> {
    let mut stream = RecordStream::new(reader);
    let (system, mut report) =
        run_multicore_stream(stream.by_ref(), cfg, BackpressurePolicy::Block);
    let skipped = stream.skipped();
    let last_ts = stream.last_ts_nanos();
    let (_, stats) = stream.finish()?;
    let ingest = PcapIngestReport {
        skipped_frames: skipped,
        records: report.packets + report.dropped,
        last_ts_nanos: last_ts,
        stats,
    };
    report.telemetry.set_counter("ingest.chunk_fills", stats.chunk_fills);
    report.telemetry.set_counter("ingest.chunk_bytes_mapped", stats.bytes_mapped);
    report.telemetry.set_counter("ingest.chunk_copy_fallbacks", stats.copy_fallbacks);
    report.telemetry.set_counter("ingest.skipped_frames", skipped);
    Ok((system, report, ingest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use instameasure_packet::pcap::{read_records, PcapWriter, TsResolution};
    use instameasure_packet::synth::synthesize_frame;
    use instameasure_packet::{FlowKey, PacketRecord, Protocol};

    fn write_sample(path: &std::path::Path, n: u16) {
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file, TsResolution::Nano).unwrap();
        for i in 0..n {
            let key = FlowKey::new(
                [1, 2, (i >> 8) as u8, i as u8],
                [9, 9, 9, 9],
                1000 + i,
                80,
                Protocol::Tcp,
            );
            let rec = PacketRecord::new(key, 200, u64::from(i) * 10_000);
            w.write_packet(rec.ts_nanos, &synthesize_frame(&rec)).unwrap();
        }
        w.into_inner().unwrap();
        std::fs::write(path, file).unwrap();
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("instameasure_ingest_{}_{name}", std::process::id()))
    }

    #[test]
    fn pcap_bridge_counts_match_owned_reader() {
        let path = temp("bridge.pcap");
        write_sample(&path, 500);
        let cfg = EngineConfig {
            workers: 2,
            batch_size: 32,
            queue_batches: 4096usize.div_ceil(32),
            ..EngineConfig::default()
        };
        let readers = [
            ("mmap", PcapChunkReader::open(&path).unwrap()),
            (
                "buffered",
                PcapChunkReader::from_reader(std::fs::File::open(&path).unwrap()).unwrap(),
            ),
        ];
        for (mode, reader) in readers {
            let (_, report, ingest) = run_multicore_pcap(reader, &cfg).unwrap();
            let (expected, skipped) =
                read_records(std::fs::File::open(&path).map(std::io::BufReader::new).unwrap())
                    .unwrap();
            assert_eq!(report.packets, expected.len() as u64, "{mode}");
            assert_eq!(ingest.skipped_frames, skipped);
            assert_eq!(ingest.records, expected.len() as u64);
            assert_eq!(ingest.last_ts_nanos, expected.last().unwrap().ts_nanos);
            assert_eq!(
                report.telemetry.counter("ingest.chunk_fills"),
                Some(ingest.stats.chunk_fills)
            );
            assert_eq!(
                report.telemetry.counter("ingest.chunk_bytes_mapped"),
                Some(ingest.stats.bytes_mapped)
            );
            assert_eq!(report.telemetry.counter("ingest.skipped_frames"), Some(skipped));
            assert!(report.telemetry.counter("ingest.chunk_copy_fallbacks").is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_tail_surfaces_as_error_not_silent_truncation() {
        let path = temp("corrupt.pcap");
        write_sample(&path, 10);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]); // zeroed tail record
        std::fs::write(&path, bytes).unwrap();
        let cfg = EngineConfig { workers: 1, ..EngineConfig::default() };
        assert!(run_multicore_pcap(PcapChunkReader::open(&path).unwrap(), &cfg).is_err());
        std::fs::remove_file(&path).ok();
    }
}
