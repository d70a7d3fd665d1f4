//! Property tests for the batched multi-core ingest pipeline: packet
//! accounting is exact for *any* batch size, queue capacity, worker count
//! and trace length — including the empty trace and traces shorter than
//! one batch, where everything rides the end-of-stream flush.

use instameasure_core::engine::{BackpressurePolicy, EngineConfig};
use instameasure_core::multicore::{run_multicore, run_multicore_stream};
use instameasure_core::{InstaMeasure, InstaMeasureConfig};
use instameasure_packet::{FlowKey, PacketRecord, Protocol};
use proptest::prelude::*;

/// A deterministic synthetic trace: `flows` distinct keys round-robined
/// over `len` packets (routing across workers varies with the salt).
fn trace(len: usize, flows: u32, salt: u32) -> Vec<PacketRecord> {
    (0..len as u64)
        .map(|t| {
            let i = (t as u32 % flows.max(1)).wrapping_mul(2654435761).wrapping_add(salt);
            let key = FlowKey::new(
                i.to_be_bytes(),
                salt.to_be_bytes(),
                (i % 60000) as u16,
                443,
                Protocol::Udp,
            );
            PacketRecord::new(key, 64 + (t % 1400) as u16, t)
        })
        .collect()
}

/// Shard geometry with each ring sized as `queue_packets` packets.
fn config(workers: usize, queue_packets: usize, batch_size: usize) -> EngineConfig {
    let cfg = EngineConfig {
        workers,
        batch_size,
        queue_batches: queue_packets.div_ceil(batch_size),
        pin: false,
        per_worker: InstaMeasureConfig::default().small_for_tests(),
    };
    cfg.validate().expect("generated parameters are within the engine's bounds");
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_mode_loses_no_packets(
        batch_size in 1usize..=4096,
        len in 0usize..=3000,
        workers in 1usize..=4,
        queue_packets in 1usize..=512,
        flows in 1u32..=200,
        salt in any::<u32>(),
    ) {
        let records = trace(len, flows, salt);
        let (_, report) =
            run_multicore(&records, &config(workers, queue_packets, batch_size));
        prop_assert_eq!(report.dropped, 0);
        prop_assert_eq!(report.packets, len as u64);
        prop_assert_eq!(report.per_worker_packets.iter().sum::<u64>(), len as u64);
        // The workers' live telemetry counters agree packet-for-packet.
        let mut live = 0u64;
        for w in 0..workers {
            let n = report
                .telemetry
                .counter(&format!("multicore.worker{w}.packets"))
                .expect("worker counter exists");
            prop_assert_eq!(n, report.per_worker_packets[w]);
            live += n;
        }
        prop_assert_eq!(live, len as u64);
        // Every shipped packet sits in exactly one occupancy-histogram batch.
        let occ = report.telemetry.histogram("ingest.batch_occupancy").unwrap();
        prop_assert_eq!(occ.sum, len as u64);
        prop_assert_eq!(occ.count, report.batches_sent);
    }

    #[test]
    fn drop_mode_conserves_processed_plus_dropped(
        batch_size in 1usize..=4096,
        len in 0usize..=3000,
        workers in 1usize..=4,
        queue_packets in 1usize..=512,
        flows in 1u32..=200,
        salt in any::<u32>(),
    ) {
        let records = trace(len, flows, salt);
        let (_, report) =
            run_multicore_stream(
                records.iter().copied(),
                &config(workers, queue_packets, batch_size),
                BackpressurePolicy::Drop,
            );
        prop_assert_eq!(report.packets + report.dropped, len as u64);
        prop_assert_eq!(report.per_worker_packets.iter().sum::<u64>(), report.packets);
        prop_assert_eq!(report.per_worker_dropped.iter().sum::<u64>(), report.dropped);
        for w in 0..workers {
            // Per-worker accounting reconciles with the live counters on
            // both sides of the split.
            prop_assert_eq!(
                report.telemetry.counter(&format!("multicore.worker{w}.packets")),
                Some(report.per_worker_packets[w])
            );
            prop_assert_eq!(
                report.telemetry.counter(&format!("ingest.worker{w}.dropped_pkts")),
                Some(report.per_worker_dropped[w])
            );
        }
        prop_assert_eq!(report.telemetry.counter("ingest.dropped_pkts"), Some(report.dropped));
    }

    #[test]
    fn batched_hot_path_is_bit_identical_to_scalar(
        batch_size in 1usize..=600,
        len in 0usize..=3000,
        flows in 1u32..=200,
        salt in any::<u32>(),
    ) {
        let records = trace(len, flows, salt);
        let mut scalar = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for r in &records {
            scalar.process(r);
        }
        let mut batched = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
        for chunk in records.chunks(batch_size) {
            batched.process_batch(chunk);
        }
        prop_assert_eq!(batched.filter_stats(), scalar.filter_stats());
        prop_assert_eq!(batched.wsaf().len(), scalar.wsaf().len());
        for r in &records {
            let (bp, bb) = batched.estimate(&r.key);
            let (sp, sb) = scalar.estimate(&r.key);
            prop_assert_eq!(bp.to_bits(), sp.to_bits(), "packets for {}", r.key);
            prop_assert_eq!(bb.to_bits(), sb.to_bits(), "bytes for {}", r.key);
        }
    }
}
