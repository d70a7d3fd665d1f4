//! # InstaMeasure
//!
//! A from-scratch Rust reproduction of *"InstaMeasure: Instant Per-flow
//! Detection Using Large In-DRAM Working Set of Active Flows"* (ICDCS
//! 2019).
//!
//! InstaMeasure measures every L4 flow on a high-speed link — packets and
//! bytes — and detects heavy hitters within milliseconds, using only
//! commodity DRAM. The trick is the **FlowRegulator**, a two-layer
//! probabilistic counter that retains mice flows inside a tiny sketch and
//! releases accumulated counts of elephant flows to a large in-DRAM hash
//! table (the **WSAF**, working set of active flows) only on sketch
//! saturation, reducing the table's insertion rate to ~1% of the packet
//! rate.
//!
//! This meta crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`packet`] | `instameasure-packet` | 5-tuples, parsers, pcap I/O |
//! | [`sketch`] | `instameasure-sketch` | RCC and the FlowRegulator |
//! | [`wsaf`] | `instameasure-wsaf` | the in-DRAM flow table |
//! | [`traffic`] | `instameasure-traffic` | synthetic trace generation |
//! | [`baselines`] | `instameasure-baselines` | CSM, sampled NetFlow, exact |
//! | [`core`] | `instameasure-core` | the full system, multi-core, detection |
//! | [`autotune`] | `instameasure-autotune` | machine profiling + config solver |
//! | [`telemetry`] | `instameasure-telemetry` | counters, histograms, snapshots |
//! | [`service`] | `instameasure-service` | live ingest/query daemon + client |
//!
//! # Quickstart
//!
//! ```
//! use instameasure::core::{InstaMeasure, InstaMeasureConfig};
//! use instameasure::traffic::SyntheticTraceBuilder;
//!
//! // Generate a small Zipf trace and measure it.
//! let trace = SyntheticTraceBuilder::new().num_flows(2_000).seed(1).build();
//! let mut im = InstaMeasure::new(InstaMeasureConfig::default().small_for_tests());
//! for pkt in &trace.records {
//!     im.process(pkt);
//! }
//! // Query the biggest flow.
//! let (big, truth) = trace.stats.truth.top_k(1, false)[0];
//! let est = im.estimate_packets(&big);
//! assert!((est - truth as f64).abs() / (truth as f64) < 0.3);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries that regenerate every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use instameasure_autotune as autotune;
pub use instameasure_baselines as baselines;
pub use instameasure_core as core;
pub use instameasure_packet as packet;
pub use instameasure_service as service;
pub use instameasure_sketch as sketch;
pub use instameasure_telemetry as telemetry;
pub use instameasure_traffic as traffic;
pub use instameasure_wsaf as wsaf;

/// The shared per-flow counter query interface (also available as
/// [`baselines::PerFlowCounter`], its historical home).
pub use instameasure_packet::PerFlowCounter;
