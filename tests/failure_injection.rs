//! Failure injection: the system must degrade gracefully, never corrupt
//! state or panic, when its resources are exhausted or inputs are hostile.

use instameasure::core::engine::EngineConfig;
use instameasure::core::multicore::run_multicore;
use instameasure::core::{InstaMeasure, InstaMeasureConfig};
use instameasure::packet::pcap::{PcapError, PcapReader};
use instameasure::packet::{parse, FlowKey, PacketRecord, Protocol};
use instameasure::sketch::SketchConfig;
use instameasure::traffic::presets::caida_like;
use instameasure::wsaf::WsafConfig;

fn key(i: u32) -> FlowKey {
    FlowKey::new(i.to_be_bytes(), [7, 7, 7, 7], 1, 2, Protocol::Udp)
}

#[test]
fn wsaf_overflow_keeps_elephants() {
    // A WSAF far too small for the flow population: evictions churn mice,
    // but the repeatedly-updated elephant must survive.
    let cfg = InstaMeasureConfig::default()
        .with_sketch(SketchConfig::builder().memory_bytes(1024).vector_bits(8).build().unwrap())
        .with_wsaf(
            WsafConfig::builder()
                .entries_log2(6) // 64 entries only
                .probe_limit(8)
                .expiry_nanos(u64::MAX / 2)
                .build()
                .unwrap(),
        );
    let mut im = InstaMeasure::new(cfg);
    for round in 0..2_000u64 {
        // Elephant traffic interleaved with a storm of mice flows.
        for _ in 0..10 {
            im.process(&PacketRecord::new(key(0), 64, round));
        }
        im.process(&PacketRecord::new(key(1 + round as u32), 64, round));
    }
    assert!(im.wsaf().len() <= 64);
    let est = im.estimate_packets(&key(0));
    assert!(
        (est - 20_000.0).abs() / 20_000.0 < 0.25,
        "elephant survived churn with estimate {est}"
    );
}

#[test]
fn sketch_overload_stays_sane() {
    // A 64-byte sketch (8 words) carrying 50k flows: accuracy is gone, but
    // no panics, NaNs or negative estimates are allowed.
    let cfg = InstaMeasureConfig::default()
        .with_sketch(SketchConfig::builder().memory_bytes(64).vector_bits(8).build().unwrap())
        .with_wsaf(WsafConfig::builder().entries_log2(10).build().unwrap());
    let mut im = InstaMeasure::new(cfg);
    for i in 0..50_000u32 {
        im.process(&PacketRecord::new(key(i), 64, u64::from(i)));
    }
    for i in (0..50_000u32).step_by(997) {
        let est = im.estimate_packets(&key(i));
        assert!(est.is_finite() && est >= 0.0, "flow {i}: {est}");
    }
}

#[test]
fn tiny_queues_do_not_deadlock_or_drop() {
    let trace = caida_like(0.002, 51);
    let cfg = EngineConfig {
        workers: 4,
        batch_size: 2,
        queue_batches: 1, // brutal backpressure: one 2-packet batch in flight
        per_worker: InstaMeasureConfig::default().small_for_tests(),
        ..EngineConfig::default()
    };
    let (_, report) = run_multicore(&trace.records, &cfg);
    assert_eq!(report.packets, trace.records.len() as u64, "backpressure must not lose packets");
}

#[test]
fn malformed_pcap_and_frames_are_rejected_not_panicked() {
    // Garbage pcap header.
    assert!(matches!(PcapReader::new(&[0u8; 24][..]), Err(PcapError::Format(_))));
    // Too-short pcap.
    assert!(PcapReader::new(&[0u8; 3][..]).is_err());
    // Fuzzish frames through the parser.
    for len in 0..64usize {
        let buf: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
        let _ = parse::parse_ethernet(&buf);
        let _ = parse::parse_ipv4(&buf);
    }
}

#[test]
fn zero_and_max_length_packets() {
    let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
    for t in 0..10_000u64 {
        im.process(&PacketRecord::new(key(1), 0, t));
        im.process(&PacketRecord::new(key(2), u16::MAX, t));
    }
    assert!(im.estimate_packets(&key(1)) > 0.0);
    let b = im.estimate_bytes(&key(2));
    assert!(b.is_finite() && b > 0.0);
    assert_eq!(im.estimate_bytes(&key(1)), 0.0, "zero-length flow has zero bytes");
}

#[test]
fn timestamps_may_go_backwards_without_breaking_expiry() {
    // Out-of-order timestamps (mirror-port reordering) must not underflow
    // the expiry arithmetic.
    let cfg = InstaMeasureConfig::default()
        .with_sketch(SketchConfig::builder().memory_bytes(1024).vector_bits(8).build().unwrap())
        .with_wsaf(
            WsafConfig::builder().entries_log2(6).probe_limit(8).expiry_nanos(10).build().unwrap(),
        );
    let mut im = InstaMeasure::new(cfg);
    for i in 0..5_000u32 {
        let ts = if i % 2 == 0 { 1_000_000 } else { 0 };
        im.process(&PacketRecord::new(key(i % 100), 64, ts));
    }
    for i in 0..100 {
        assert!(im.estimate_packets(&key(i)).is_finite());
    }
}
