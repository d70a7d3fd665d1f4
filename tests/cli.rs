//! End-to-end tests of the `instameasure` CLI binary.

use std::io::BufRead;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_instameasure"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("im_cli_test_{}_{name}", std::process::id()));
    p
}

#[test]
fn generate_analyze_report_pipeline() {
    let pcap = tmp("a.pcap");
    let imfr = tmp("a.imfr");

    let out = bin()
        .args(["generate", pcap.to_str().unwrap(), "--scale", "0.005", "--seed", "9"])
        .output()
        .expect("generate runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    let out = bin()
        .args([
            "analyze",
            pcap.to_str().unwrap(),
            "--top",
            "3",
            "--hh-threshold",
            "200",
            "--export",
            imfr.to_str().unwrap(),
        ])
        .output()
        .expect("analyze runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("top 3 flows by packets"));
    assert!(stdout.contains("heavy hitters"));
    assert!(stdout.contains("normalized flow-size entropy"));
    assert!(stdout.contains("exported"));

    let out = bin().args(["report", imfr.to_str().unwrap()]).output().expect("report runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("flow records"));

    std::fs::remove_file(&pcap).ok();
    std::fs::remove_file(&imfr).ok();
}

#[test]
fn windowed_analysis_reports_per_epoch() {
    let pcap = tmp("w.pcap");
    let out = bin()
        .args(["generate", pcap.to_str().unwrap(), "--scale", "0.003", "--seed", "4"])
        .output()
        .expect("generate runs");
    assert!(out.status.success());
    let out = bin()
        .args(["analyze", pcap.to_str().unwrap(), "--window-ms", "2500", "--top", "2"])
        .output()
        .expect("analyze runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let windows = stdout.matches("window ").count();
    assert!(windows >= 4, "10s capture at 2.5s windows: got {windows}\n{stdout}");
    assert!(stdout.contains("entropy"));
    std::fs::remove_file(&pcap).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bin().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = bin().args(["analyze", "/nonexistent/file.pcap"]).output().expect("runs");
    assert!(!out.status.success());

    let out = bin()
        .args(["generate", tmp("x.pcap").to_str().unwrap(), "--preset", "bogus"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

#[test]
fn bad_flag_values_are_errors_not_defaults() {
    let pcap = tmp("v.pcap");
    let out = bin()
        .args(["generate", pcap.to_str().unwrap(), "--scale", "0.003", "--seed", "5"])
        .output()
        .expect("generate runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for tail in [&["--top", "ten"][..], &["--top"][..]] {
        let out = bin().arg("analyze").arg(&pcap).args(tail).output().expect("analyze runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "analyze {tail:?} must fail, not fall back to the default");
        assert!(
            tail.iter().all(|a| stderr.contains(a)),
            "analyze {tail:?} stderr must name the flag and value: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "analyze {tail:?} panicked: {stderr}");
    }
    std::fs::remove_file(&pcap).ok();
}

#[test]
fn analyze_accepts_every_filter_kind() {
    let pcap = tmp("f.pcap");
    let out = bin()
        .args(["generate", pcap.to_str().unwrap(), "--scale", "0.003", "--seed", "6"])
        .output()
        .expect("generate runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for kind in ["regulator", "rcc", "swing", "hashflow", "HashFlow"] {
        let out = bin()
            .args(["analyze", pcap.to_str().unwrap(), "--top", "3", "--filter", kind])
            .output()
            .expect("analyze runs");
        assert!(out.status.success(), "--filter {kind}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("top 3 flows by packets"));
    }
    std::fs::remove_file(&pcap).ok();
}

#[test]
fn unknown_filter_kind_is_a_classified_error_not_a_panic() {
    // The capture is never opened: the flag is validated first, and the
    // failure is a clean classified error on stderr, not a panic.
    for cmd in [
        vec!["analyze", "/nonexistent/file.pcap", "--filter", "bogus"],
        vec!["serve", "--listen", "127.0.0.1:0", "--filter", "bogus"],
    ] {
        let out = bin().args(&cmd).output().expect("runs");
        assert!(!out.status.success(), "{cmd:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("filter") && stderr.contains("bogus"),
            "{cmd:?} stderr must name the bad filter: {stderr}"
        );
        assert!(
            stderr.contains("regulator") && stderr.contains("hashflow"),
            "{cmd:?} stderr must list the valid kinds: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd:?} panicked: {stderr}");
    }
}

#[test]
fn help_enumerates_every_subcommand_and_flag() {
    let out = bin().arg("--help").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "analyze", "report", "serve", "push", "query"] {
        assert!(stdout.contains(cmd), "--help must list `{cmd}`:\n{stdout}");
    }
    for flag in [
        "--mmap",
        "--workers",
        "--batch-size",
        "--listen",
        "--addr",
        "--top",
        "--window-ms",
        "--filter",
    ] {
        assert!(stdout.contains(flag), "--help must list `{flag}`:\n{stdout}");
    }
    for sub in ["flow", "top-k", "status", "telemetry", "rotate", "shutdown"] {
        assert!(stdout.contains(sub), "--help must list query `{sub}`:\n{stdout}");
    }
    // -h anywhere works too.
    let out = bin().args(["analyze", "-h"]).output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// Extracts the flow lines of a "top K flows by packets" section, as a
/// sorted set so live-vs-offline comparison is tie-order-insensitive.
fn top_by_packets_lines(stdout: &str) -> Vec<String> {
    let mut lines: Vec<String> = stdout
        .lines()
        .skip_while(|l| !l.contains("flows by packets"))
        .skip(1)
        .take_while(|l| l.contains(" pkts"))
        .map(str::trim_end)
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

#[test]
fn live_serve_push_query_matches_offline_analyze() {
    let pcap = tmp("live.pcap");
    let out = bin()
        .args(["generate", pcap.to_str().unwrap(), "--scale", "0.01", "--seed", "3"])
        .output()
        .expect("generate runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Boot the daemon on an ephemeral port; its first stdout line names
    // the bound address.
    let mut daemon = bin()
        .args(["serve", "--listen", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve boots");
    let mut daemon_out = std::io::BufReader::new(daemon.stdout.take().unwrap());
    let mut banner = String::new();
    daemon_out.read_line(&mut banner).expect("daemon banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    let out =
        bin().args(["push", pcap.to_str().unwrap(), "--addr", &addr]).output().expect("push runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("accepted"));

    // The push ack confirms acceptance into the pipeline; wait until the
    // worker has processed everything before comparing estimates.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let out = bin().args(["query", "status", "--addr", &addr]).output().expect("status runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(stdout.contains("packets submitted"), "{stdout}");
        let nums: Vec<u64> = stdout
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        if nums.len() >= 2 && nums[0] == nums[1] && nums[0] > 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "daemon never caught up: {stdout}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let out =
        bin().args(["query", "top-k", "--k", "10", "--addr", &addr]).output().expect("query runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let live = top_by_packets_lines(&String::from_utf8_lossy(&out.stdout));
    assert!(!live.is_empty(), "live top-k must report flows");

    let out = bin().args(["query", "shutdown", "--addr", &addr]).output().expect("shutdown runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must drain cleanly");

    // Offline oracle over the same capture: the single-worker daemon saw
    // the records in file order, so the heavy-hitter sets must be equal.
    let out = bin()
        .args(["analyze", pcap.to_str().unwrap(), "--top", "10"])
        .output()
        .expect("analyze runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let offline = top_by_packets_lines(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(live, offline, "live top-k diverged from offline analyze");

    std::fs::remove_file(&pcap).ok();
}

#[test]
fn report_rejects_corrupt_records() {
    let bad = tmp("bad.imfr");
    std::fs::write(&bad, b"not a record file").unwrap();
    let out = bin().args(["report", bad.to_str().unwrap()]).output().expect("runs");
    assert!(!out.status.success());
    std::fs::remove_file(&bad).ok();
}
