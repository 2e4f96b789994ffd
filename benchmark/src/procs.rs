//! Child processes of the `wb` binary: spawn, wall time and the exact
//! peak resident set size, read from the kernel's `wait4` resource usage
//! when the child is reaped (no sampling, so no missed peak).
//!
//! `wait4` is declared by hand against the platform libc that std
//! already links, as the serving crate does for `poll(2)`: the build has
//! no registry access for a libc crate.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
struct Reaped {
    /// Exit code, or `None` when a signal ended the child.
    pub code: Option<i32>,
    /// Peak resident set size over the child's life, in kilobytes.
    pub maxrss_kb: u64,
}

/// Reaps `pid`; `Ok(None)` when `nohang` and the child is still running.
fn reap(pid: u32, nohang: bool) -> io::Result<Option<Reaped>> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    loop {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        let options = if nohang { WNOHANG } else { 0 };
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals whose layouts match `int` and Linux's `struct rusage`.
        let rc = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if rc == 0 {
            return Ok(None);
        }
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        }
        // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
        let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        return Ok(Some(Reaped {
            code,
            maxrss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
        }));
    }
}

/// A spawned child that is killed and reaped if dropped before
/// [`Proc::wait`] — no run leaves a process behind, even on error paths.
struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    /// Spawns `cmd` with stdin closed, stdout piped and stderr appended to
    /// `stderr` (so diagnostics of a failed child can be shown).
    pub fn spawn(mut cmd: Command, stderr: &File) -> io::Result<Proc> {
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(stderr.try_clone()?);
        Ok(Proc { child: cmd.spawn()?, reaped: false })
    }

    /// The child's stdout pipe (once).
    pub fn stdout(&mut self) -> Option<ChildStdout> {
        self.child.stdout.take()
    }

    /// Blocks until the child exits and reaps it.
    pub fn wait(mut self) -> io::Result<Reaped> {
        let r = reap(self.child.id(), false)?.expect("a blocking wait4 returns a child");
        self.reaped = true;
        Ok(r)
    }

    /// Waits up to `limit` for the child to exit; kills it after that.
    pub fn wait_timeout(mut self, limit: Duration) -> io::Result<Reaped> {
        let until = Instant::now() + limit;
        while Instant::now() < until {
            if let Some(r) = reap(self.child.id(), true)? {
                self.reaped = true;
                return Ok(r);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, "child did not exit; killed"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            // Not yet reaped, so the pid cannot have been recycled.
            let _ = self.child.kill();
            let _ = reap(self.child.id(), false);
        }
    }
}

/// One finished `wb` invocation.
pub struct Run {
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set size, in megabytes.
    pub rss_mb: f64,
    /// Whether no host CPU steal touched the run (see [`crate::host`]).
    pub clean: bool,
}

/// Runs `cmd` to completion; a nonzero exit is an error.
pub fn run(cmd: Command, stderr: &File) -> Result<Run, String> {
    let what = cmd.get_args().next().unwrap_or_default().to_string_lossy().into_owned();
    let stolen = crate::host::stolen_ms();
    let t0 = Instant::now();
    let mut proc =
        Proc::spawn(cmd, stderr).map_err(|e| format!("cannot spawn wb {what}: {e}"))?;
    let mut stdout = Vec::new();
    proc.stdout()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .map_err(|e| format!("wb {what}: reading stdout: {e}"))?;
    let reaped = proc.wait().map_err(|e| format!("wb {what}: wait4: {e}"))?;
    let wall = t0.elapsed();
    let clean = crate::host::clean(wall.as_secs_f64() * 1e3, crate::host::stolen_ms() - stolen);
    if reaped.code != Some(0) {
        return Err(format!("wb {what} exited with {:?} (see its stderr above)", reaped.code));
    }
    Ok(Run { stdout, wall, rss_mb: reaped.maxrss_kb as f64 / 1024.0, clean })
}

/// A running `wb serve`.
pub struct Server {
    proc: Proc,
    /// The bound address, read from the server's first stdout line.
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `wb serve` pinned to the benchmark's shape (2 workers, one
    /// replica, an OS-assigned port) and returns once it answers.
    pub fn start(wb: &Path, model: &Path, stderr: &File) -> Result<Server, String> {
        let mut cmd = Command::new(wb);
        cmd.arg("serve").arg("--model").arg(model);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2", "--replicas", "1"]);
        let mut proc =
            Proc::spawn(cmd, stderr).map_err(|e| format!("cannot spawn wb serve: {e}"))?;
        let mut stdout = BufReader::new(proc.stdout().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| format!("wb serve stdout: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("wb serve listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("wb serve did not start (first line {line:?})"))?;
        let health = request(addr, "GET", "/healthz").map_err(|e| format!("wb serve {e}"))?;
        if health.status() != 200 {
            return Err(format!("wb serve /healthz answered {}", health.status()));
        }
        Ok(Server { proc, addr, _stdout: stdout })
    }

    /// Fetches the server's metrics snapshot (`GET /metrics`).
    pub fn metrics(&self) -> Result<wb_obs::metrics::Snapshot, String> {
        let r = request(self.addr, "GET", "/metrics")?;
        wb_obs::metrics::Snapshot::from_json(&String::from_utf8_lossy(&r.body))
    }

    /// Graceful stop (`POST /shutdown`); returns the peak RSS in megabytes.
    pub fn stop(self) -> Result<f64, String> {
        request(self.addr, "POST", "/shutdown")?;
        let reaped = self
            .proc
            .wait_timeout(Duration::from_secs(20))
            .map_err(|e| format!("wb serve shutdown: {e}"))?;
        if reaped.code != Some(0) {
            return Err(format!("wb serve exited with {:?}", reaped.code));
        }
        Ok(reaped.maxrss_kb as f64 / 1024.0)
    }
}

/// One control-plane request on a fresh connection.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
) -> Result<crate::client::Response, String> {
    crate::client::Conn::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.send(method, path, b""))
        .map_err(|e| format!("{method} {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_exit_wall_and_peak_rss() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo hello"]);
        let r = run(cmd, &devnull()).expect("sh runs");
        assert_eq!(r.stdout, b"hello\n");
        assert!(r.rss_mb > 0.0, "the kernel reports a peak RSS");
        assert!(r.wall > Duration::ZERO);
    }

    #[test]
    fn nonzero_exit_is_an_error() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "exit 3"]);
        let err = run(cmd, &devnull()).err().expect("exit 3 fails");
        assert!(err.contains("Some(3)"), "{err}");
    }

    fn devnull() -> File {
        File::options().write(true).open("/dev/null").expect("/dev/null opens")
    }
}
