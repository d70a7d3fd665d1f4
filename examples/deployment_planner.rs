//! Deployment planning: which FlowRegulator configuration does a link
//! need? (The paper's §V-B margin discussion, operationalized.)
//!
//! ```text
//! cargo run --release --example deployment_planner
//! ```
//!
//! By default the plans run on the paper's memory hierarchy (80 ns DRAM
//! plateau). Pass `--profile PATH` (a profile written by `instameasure
//! tune`) to plan against this host's *measured* latencies instead:
//!
//! ```text
//! instameasure tune            # calibrates and caches the profile
//! cargo run --release --example deployment_planner -- --profile /tmp/instameasure-profile-v1.txt
//! ```

use instameasure::autotune::{solve, MachineProfile, TuneRequest};
use instameasure::traffic::presets::caida_like;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let profile = match args.iter().position(|a| a == "--profile").and_then(|i| args.get(i + 1)) {
        Some(path) => MachineProfile::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot load profile {path}: {e}");
            std::process::exit(2);
        }),
        None => MachineProfile::paper(),
    };

    // Workload sample: flow sizes from a prior measurement window.
    let trace = caida_like(0.02, 7);
    let sizes: Vec<u64> = trace.stats.truth.packets.values().copied().collect();
    println!(
        "workload sample: {} flows, mean size {:.0} pkts",
        sizes.len(),
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    );
    println!("DRAM latency: {:.1} ns", profile.dram_ns());

    println!(
        "\n{:<16} {:>10} {:>8} {:>8} {:>8} {:>10} {:>12} {:>9}",
        "link / WSAF", "pps", "L1", "vector", "layers", "wsaf log2", "regulation", "margin"
    );
    for (name, pps) in [
        ("1 GbE / DRAM", 1.488e6),
        ("10 GbE / DRAM", 14.88e6),
        ("40 GbE / DRAM", 59.5e6),
        ("100 GbE / DRAM", 148.8e6),
    ] {
        match solve(&profile, &TuneRequest::throughput(pps, 3.0), &sizes) {
            Some(p) => println!(
                "{:<16} {:>10.2e} {:>6}KB {:>7}b {:>8} {:>10} {:>11.3}% {:>8.1}x",
                name,
                pps,
                p.l1_memory_bytes / 1024,
                p.vector_bits,
                p.layers,
                p.wsaf_entries_log2,
                p.predicted_regulation * 100.0,
                p.margin
            ),
            None => println!("{name:<16} {pps:>10.2e}  -- no feasible plan --"),
        }
    }
}
