//! End-to-end and per-layer benchmark of the release `instameasure`
//! binary. See `perfbench/README.md` for the workloads, the metrics and
//! which layer each per-layer metric is expected to move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pcap_replay|live_flood|attack_detect|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the root of a checkout: it builds the `instameasure`
//! binary there, drives it as a separate process with inputs generated
//! from `--seed`, checks every output, and prints one JSON result as the
//! last line of standard output (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). Any failed check makes the exit
//! code non-zero.

mod attack_detect;
mod keys;
mod layers;
mod live_flood;
mod pcap_replay;
mod proc;
mod report;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use proc::BoxError;
use report::Report;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["pcap_replay", "live_flood", "attack_detect"];

/// An end-to-end metric as measured: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What every workload shares: the binary under test, the run's seed and
/// length, and a scratch directory inside the checkout.
pub struct Ctx {
    pub bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub work: PathBuf,
}

/// One workload: inputs are generated when it is built, outside every
/// timed region.
pub trait Workload {
    /// Sizes of the generated inputs, for the provenance header.
    fn sizes(&self) -> String;

    /// Runs the system under test for `ctx.seconds` and returns the
    /// end-to-end metrics. With `spans` the load generator also records
    /// its client-side spans and samples (the traced pass).
    fn measure(&self, ctx: &Ctx, spans: bool, rep: &mut Report) -> Result<Vec<Metric>, BoxError>;

    /// In-process per-layer timings on the same inputs, plus the stage
    /// waterfall against the untraced end-to-end numbers.
    fn layers(&self, ctx: &Ctx, e2e: &[Metric], rep: &mut Report) -> Result<(), BoxError>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, BoxError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, BoxError> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name} <value>").into())
    };
    let workload = get("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?} or all)"
        )
        .into());
    }
    let seconds: f64 = get("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'").into()),
    };
    Ok(Args { workload, seed: get("--seed")?.parse()?, seconds, trace })
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn provenance(workload: &str, args: &Args, sizes: &str) {
    use instameasure_packet::{prefetch, simd};
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# provenance: git {} | nproc {nproc} | cpu {} | dispatch {} | prefetch distance {} | \
         workload {workload} | seed {} | seconds {} | trace {} | {sizes}",
        git_sha(),
        simd::cpu_features_label(),
        simd::dispatch_tier().label(),
        prefetch::prefetch_distance(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn build(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, BoxError> {
    Ok(match name {
        "pcap_replay" => Box::new(pcap_replay::PcapReplay::prepare(ctx)?),
        "live_flood" => Box::new(live_flood::LiveFlood::prepare(ctx)?),
        _ => Box::new(attack_detect::AttackDetect::prepare(ctx)?),
    })
}

fn run_workload(name: &str, args: &Args, bin: &Path) -> Result<Report, BoxError> {
    let work =
        PathBuf::from(".bench_work").join(format!("{name}-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&work)?;
    let ctx = Ctx { bin: bin.to_path_buf(), seed: args.seed, seconds: args.seconds, work };
    let result = run_in(name, args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

fn run_in(name: &str, args: &Args, ctx: &Ctx) -> Result<Report, BoxError> {
    let workload = build(name, ctx)?;
    provenance(name, args, &workload.sizes());
    let mut rep = Report::default();
    println!("== {name}: untraced pass ({} s)", args.seconds);
    let untraced = workload.measure(ctx, false, &mut rep)?;
    for &(metric, value, unit) in &untraced {
        rep.e2e(metric, value, unit);
    }
    if args.trace {
        println!("== {name}: traced pass ({} s, client-side spans on)", args.seconds);
        let traced = workload.measure(ctx, true, &mut rep)?;
        println!("tracing overhead (traced - untraced):");
        for (&(metric, before, unit), &(_, after, _)) in untraced.iter().zip(&traced) {
            println!(
                "  {metric}: {after:.6} - {before:.6} = {:+.6} {unit} ({:+.1}%)",
                after - before,
                (after - before) / before * 100.0
            );
        }
        println!("== {name}: per-layer probes (in process, same inputs)");
        workload.layers(ctx, &untraced, &mut rep)?;
    }
    Ok(rep)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bin = match proc::build_instameasure() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut ok = true;
    for name in names {
        match run_workload(name, &args, &bin) {
            Ok(rep) => {
                let attempted = rep.attempted.max(1);
                println!(
                    "failed_ratio = {:.6} ({} of {attempted} operations and checks failed)",
                    rep.failed as f64 / attempted as f64,
                    rep.failed
                );
                ok &= rep.correct();
                println!("{}", rep.json(args.trace));
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
