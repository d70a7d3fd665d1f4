//! Building, launching and reaping the system under test: the release
//! `instameasure` binary, run as child processes of the load generator.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use instameasure_packet::PacketRecord;
use instameasure_service::ServiceClient;

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Builds the release `instameasure` binary from the checkout in the
/// current directory and returns its path. Cargo honours
/// `CARGO_TARGET_DIR`, so the binary lands wherever the caller's build
/// directory is.
pub fn build_instameasure() -> Result<PathBuf, BoxError> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "instameasure"])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("building the instameasure binary failed: {status}").into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("instameasure");
    if !bin.is_file() {
        return Err(format!("no binary at {}", bin.display()).into());
    }
    Ok(bin)
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub success: bool,
    /// Peak resident set size (`ru_maxrss`, the kernel's VmHWM at exit).
    pub peak_rss_bytes: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
}

/// A child process that is killed and reaped if it is dropped unwaited,
/// so no error path leaves a daemon running.
pub struct Proc {
    child: Option<Child>,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> Result<Self, BoxError> {
        Ok(Proc { child: Some(cmd.spawn()?) })
    }

    pub fn stdout(&mut self) -> Option<ChildStdout> {
        self.child.as_mut().and_then(|c| c.stdout.take())
    }

    /// Waits for the child to exit and reports its peak memory.
    pub fn wait(mut self) -> Result<Exit, BoxError> {
        let child = self.child.take().expect("a Proc owns its child until waited");
        reap(child)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child);
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn reap(child: Child) -> Result<Exit, BoxError> {
    let pid = i32::try_from(child.id())?;
    let mut status = 0i32;
    let mut usage = sys::Rusage {
        utime: sys::Timeval { sec: 0, usec: 0 },
        stime: sys::Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (the `Child` is consumed
        // here, so std never waits on it), and both out-pointers point to
        // live, correctly laid-out locals for the duration of the call.
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err.into());
        }
    }
    drop(child);
    let exited_cleanly = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Exit { success: exited_cleanly, peak_rss_bytes: usage.maxrss.max(0) as u64 * 1024 })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn reap(mut child: Child) -> Result<Exit, BoxError> {
    let status = child.wait()?;
    Ok(Exit { success: status.success(), peak_rss_bytes: 0 })
}

/// Collects a child's remaining stdout on a helper thread so a chatty
/// child never blocks on a full pipe.
fn drain_stdout<R: Read + Send + 'static>(r: R) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut out = String::new();
        let _ = BufReader::new(r).read_to_string(&mut out);
        out
    })
}

/// A running `instameasure serve` daemon on an ephemeral loopback port.
pub struct Daemon {
    proc: Proc,
    pub addr: String,
    /// The daemon's "hot path:" banner line (dispatch tier, CPU features,
    /// prefetch distance) — provenance straight from the process measured.
    pub hot_path: String,
    stdout: Option<JoinHandle<String>>,
    started: Instant,
}

impl Daemon {
    pub fn start(bin: &Path, extra: &[&str]) -> Result<Self, BoxError> {
        let started = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--shards", "2"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        let mut proc = Proc::spawn(&mut cmd)?;
        let mut lines = BufReader::new(proc.stdout().ok_or("serve has no stdout")?);
        let mut addr = None;
        let mut hot_path = String::new();
        let mut line = String::new();
        while addr.is_none() || hot_path.is_empty() {
            line.clear();
            if lines.read_line(&mut line)? == 0 {
                return Err("serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
            } else if line.starts_with("hot path:") {
                hot_path = line.trim().to_string();
            }
        }
        let addr = addr.ok_or("serve printed no address")?;
        Ok(Daemon { proc, addr, hot_path, stdout: Some(drain_stdout(lines)), started })
    }

    pub fn client(&self) -> Result<ServiceClient, BoxError> {
        Ok(ServiceClient::connect_with_timeout(self.addr.as_str(), Duration::from_secs(30))?)
    }

    /// Asks the daemon to drain and stop, then reaps it. Returns the final
    /// status report and the process exit facts.
    pub fn shutdown(self) -> Result<(instameasure_service::StatusReport, Exit), BoxError> {
        let report = self.client()?.shutdown()?;
        let Daemon { proc, stdout, .. } = self;
        let exit = proc.wait()?;
        if let Some(h) = stdout {
            let _ = h.join();
        }
        Ok((report, exit))
    }
}

/// Launches a daemon and times it from launch until it has accepted its
/// first packet (the fin-ack of a one-record push), then stops it.
pub fn daemon_setup_seconds(
    bin: &Path,
    extra: &[&str],
    probe: PacketRecord,
) -> Result<f64, BoxError> {
    let daemon = Daemon::start(bin, extra)?;
    let accepted = daemon.client()?.push_records(&[probe])?;
    let setup = daemon.started.elapsed().as_secs_f64();
    if accepted != 1 {
        return Err(format!("setup probe: daemon accepted {accepted} of 1 packets").into());
    }
    daemon.shutdown()?;
    Ok(setup)
}

/// Polls `status` until the shards have processed all `pushed` packets.
pub fn wait_drained(tap: &mut ServiceClient, pushed: u64) -> Result<(), BoxError> {
    loop {
        let s = tap.status()?;
        if s.packets_processed >= pushed && s.packets_submitted == s.packets_processed {
            return Ok(());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Reads a counter out of the daemon's telemetry JSON.
pub fn counter(json: &str, name: &str) -> Option<f64> {
    let rest = json.split(&format!("\"{name}\": ")).nth(1)?;
    rest.split([',', '\n', '}']).next()?.trim().parse().ok()
}

/// Pulls `(count, mean, p50, p99)` of a histogram out of the daemon's
/// telemetry JSON.
pub fn histogram_stats(json: &str, name: &str) -> Option<(f64, f64, f64, f64)> {
    let body = json.split(&format!("\"{name}\": {{")).nth(1)?;
    let field = |f: &str| -> Option<f64> {
        let rest = body.split(&format!("\"{f}\": ")).nth(1)?;
        rest.split([',', '}']).next()?.trim().parse().ok()
    };
    Some((field("count")?, field("mean")?, field("p50")?, field("p99")?))
}
