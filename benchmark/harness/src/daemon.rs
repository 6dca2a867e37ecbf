//! The daemon under test as a child process: spawn, wait for its
//! `listening` line, read its counters from `/proc`, kill or shut it down.

use crate::clock::now_ns;
use oblisched_server::load::send_shutdown;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// How long a graceful shutdown may take before the daemon is killed.
const SHUTDOWN_TIMEOUT_NS: u64 = 60_000_000_000;

/// A running `oblisched-server` process.
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    /// When the spawn was issued, in [`now_ns`] nanoseconds.
    pub spawned_ns: u64,
}

impl Daemon {
    /// Spawns the daemon binary over `data_dir` (its stderr goes to
    /// `log`), and waits for its `{"listening":{"addr":...}}` line — which
    /// it prints only after every persisted session has been recovered.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits before announcing itself.
    pub fn spawn(server: &Path, data_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let log_file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open daemon log {}: {e}", log.display()))?;
        let spawned_ns = now_ns();
        let mut child = Command::new(server)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", server.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(String::from("daemon stdout was not captured"));
        };
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => parse_listening(&line),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                addr,
                spawned_ns,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce an address: {line:?}"))
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the daemon with SIGKILL and reaps it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends the `shutdown` verb and waits for a clean exit (the daemon
    /// checkpoints every session first); kills it if that takes too long.
    ///
    /// # Errors
    ///
    /// A refused shutdown or a non-zero exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = send_shutdown(&self.addr).map_err(|e| format!("shutdown: {e}"));
        let deadline = now_ns() + SHUTDOWN_TIMEOUT_NS;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return sent,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if now_ns() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(String::from("daemon did not exit after shutdown"));
                }
            }
        }
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        status_field(&proc_dir(self.pid()).join("status"), "VmHWM:")
    }

    /// User plus system CPU time of the whole process, in clock ticks.
    pub fn cpu_ticks(&self) -> Option<u64> {
        let stat = fs::read_to_string(proc_dir(self.pid()).join("stat")).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the full line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        Some(utime + stime)
    }

    /// Voluntary plus involuntary context switches summed over the
    /// process's live threads.
    pub fn context_switches(&self) -> Option<u64> {
        let tasks = fs::read_dir(proc_dir(self.pid()).join("task")).ok()?;
        let mut total = 0;
        for task in tasks.flatten() {
            let status = task.path().join("status");
            total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            total += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        Some(total)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Never leave a daemon behind, whatever path the harness took.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn proc_dir(pid: u32) -> PathBuf {
    PathBuf::from(format!("/proc/{pid}"))
}

fn status_field(path: &Path, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

fn parse_listening(line: &str) -> Option<String> {
    let key = "\"addr\":\"";
    let start = line.find(key)? + key.len();
    let end = start + line[start..].find('"')?;
    Some(line[start..end].to_owned())
}

/// Clock ticks per second for [`Daemon::cpu_ticks`] (`getconf CLK_TCK`,
/// 100 when that is unavailable).
pub fn clock_ticks_per_sec() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_listening_line() {
        assert_eq!(
            parse_listening("{\"listening\":{\"addr\":\"127.0.0.1:4567\"}}\n").as_deref(),
            Some("127.0.0.1:4567")
        );
        assert_eq!(parse_listening("garbage"), None);
    }
}
