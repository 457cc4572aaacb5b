//! The program's processes: spawn, await, stop, and the per-process
//! counters read from `/proc` and from `getrusage` once a process is
//! reaped.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// ending in `ru_nvcsw`, `ru_nivcsw`.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub times: [i64; 4],
        pub longs: [i64; 14],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn prctl(option: i32, ...) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }

    pub const RUSAGE_CHILDREN: i32 = -1;
    pub const SIGKILL: i32 = 9;
    pub const WNOHANG: i32 = 1;
    pub const PR_SET_CHILD_SUBREAPER: i32 = 36;
    pub const SC_CLK_TCK: i32 = 2;
}

/// Make this process the reaper of its orphaned descendants, so workers
/// whose router was killed are reparented here and can be waited for.
pub fn become_subreaper() {
    // SAFETY: prctl(PR_SET_CHILD_SUBREAPER, 1) only sets a flag on this
    // process; it reads no memory of ours.
    unsafe {
        sys::prctl(sys::PR_SET_CHILD_SUBREAPER, 1u64);
    }
}

/// Context switches, voluntary and not, of every reaped child of this
/// process and of the children those reaped in turn.
fn children_ctx_switches() -> f64 {
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills on 64-bit Linux.
    unsafe {
        sys::getrusage(sys::RUSAGE_CHILDREN, &mut ru);
    }
    (ru.longs[12] + ru.longs[13]) as f64
}

/// One process of the program under test. Dropping it kills the
/// process and every descendant, so no error path leaves one running.
pub struct Proc {
    child: Option<Child>,
    pub pid: u32,
    pub log: String,
}

impl Proc {
    /// Start `ghr <args>` in the current directory with stderr appended
    /// to `log`.
    pub fn spawn(ghr: &Path, args: &[&str], log: &str) -> Result<Proc, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {log}: {e}"))?;
        let child = Command::new(ghr)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {} {args:?}: {e}", ghr.display()))?;
        Ok(Proc {
            pid: child.id(),
            child: Some(child),
            log: log.to_string(),
        })
    }

    fn child(&mut self) -> &mut Child {
        self.child.as_mut().expect("a live Proc owns its child")
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join("\n")
    }

    /// Wait until `sock` accepts a connection.
    pub fn await_socket(&mut self, sock: &str) -> Result<(), String> {
        let end = Instant::now() + Duration::from_secs(60);
        loop {
            if std::os::unix::net::UnixStream::connect(sock).is_ok() {
                return Ok(());
            }
            if let Ok(Some(status)) = self.child().try_wait() {
                return Err(format!(
                    "{sock}: exited at start ({status}):\n{}",
                    self.log_tail()
                ));
            }
            if Instant::now() > end {
                return Err(format!(
                    "{sock}: not listening after 60 s:\n{}",
                    self.log_tail()
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Stop gracefully with a `ghr-shutdown` frame and return the context
    /// switches of the process's whole life, and of the children it
    /// reaped. `/proc` counts only live threads, so this is the one count
    /// that includes threads which already exited.
    pub fn shutdown(mut self, sock: &str) -> Result<f64, String> {
        use std::io::Write;
        if let Ok(mut s) = std::os::unix::net::UnixStream::connect(sock) {
            let _ = s.write_all(b"ghr-shutdown\n");
        }
        let end = Instant::now() + Duration::from_secs(30);
        let mut child = self.child.take().expect("a live Proc owns its child");
        loop {
            if child.try_wait().map_err(|e| e.to_string())?.is_some() {
                break;
            }
            if Instant::now() > end {
                self.child = Some(child);
                return Err(format!("{sock}: did not drain within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // `try_wait` reaped it, which added its counts (and those of the
        // workers it reaped) to this process's children totals.
        Ok(take_reaped())
    }

    /// Kill the process and all its descendants and wait for each.
    pub fn kill(mut self) {
        if let Some(child) = self.child.take() {
            kill_tree(child);
        }
    }
}

/// Children totals already attributed to a reaped process. Processes
/// are reaped one at a time, so each delta belongs to exactly one.
static REAPED: std::sync::Mutex<f64> = std::sync::Mutex::new(0.0);

/// Context switches added to the children totals since the previous
/// call: those of the process reaped in between.
pub fn take_reaped() -> f64 {
    let now = children_ctx_switches();
    let mut seen = REAPED.lock().unwrap_or_else(|e| e.into_inner());
    let delta = now - *seen;
    *seen = now;
    delta
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            kill_tree(child);
        }
    }
}

fn kill_tree(mut child: Child) {
    let mut doomed = descendants(child.id());
    for &pid in &doomed {
        // SAFETY: kill(2) with a pid read from /proc and a constant
        // signal; no memory is shared.
        unsafe {
            sys::kill(pid as i32, sys::SIGKILL);
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    // Orphaned descendants were reparented to this subreaper: reap them.
    let end = Instant::now() + Duration::from_secs(10);
    while !doomed.is_empty() && Instant::now() < end {
        doomed.retain(|&pid| {
            let mut status = 0;
            // SAFETY: waitpid(2) on one pid with a valid status pointer.
            let r = unsafe { sys::waitpid(pid as i32, &mut status, sys::WNOHANG) };
            r == 0 || (r < 0 && alive(pid))
        });
        std::thread::sleep(Duration::from_millis(5));
    }
    take_reaped();
}

/// Whether `pid` exists and is not a zombie.
fn alive(pid: u32) -> bool {
    stat_fields(pid).is_some_and(|f| f[0] != "Z")
}

/// The fields of `/proc/<pid>/stat` after the command name, so index 0
/// is field 3 (state).
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// Every live descendant of `root`, deepest last.
pub fn descendants(root: u32) -> Vec<u32> {
    let mut parent_of = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            if let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() {
                if let Some(ppid) = stat_fields(pid).and_then(|f| f[1].parse::<u32>().ok()) {
                    parent_of.push((pid, ppid));
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for &(pid, ppid) in &parent_of {
            if ppid == p {
                out.push(pid);
                frontier.push(pid);
            }
        }
    }
    out
}

/// CPU time (user + system, every thread including exited ones) in µs.
pub fn cpu_us(pid: u32) -> f64 {
    // SAFETY: sysconf(3) with a constant name reads no memory of ours.
    let hz = unsafe { sys::sysconf(sys::SC_CLK_TCK) }.max(1) as f64;
    stat_fields(pid)
        .map(|f| {
            let ticks: f64 =
                f[11].parse::<f64>().unwrap_or(0.0) + f[12].parse::<f64>().unwrap_or(0.0);
            ticks * 1e6 / hz
        })
        .unwrap_or(0.0)
}

fn status_value(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)?
                    .trim_start_matches(':')
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Context switches summed over the live threads of `pid`.
pub fn ctx_switches(pid: u32) -> f64 {
    let mut total = 0u64;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            let path = task.path().join("status");
            let path = path.to_string_lossy();
            total += status_value(&path, "voluntary_ctxt_switches")
                + status_value(&path, "nonvoluntary_ctxt_switches");
        }
    }
    total as f64
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_value(&format!("/proc/{pid}/status"), "VmHWM") as f64 * 1024.0 / 1e6
}

/// Reset this process's `VmHWM` to its current RSS, so each round of
/// an in-process workload reports its own peak.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Total size in MB of the regular files in `dir`.
pub fn dir_mb(dir: &str) -> f64 {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum::<u64>()
        })
        .unwrap_or(0) as f64
        / 1e6
}

/// Size of a file in bytes (0 when missing).
pub fn file_len(path: &str) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Machine-wide CPU time from the first line of `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        CpuTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of the CPU time since `earlier` that the hypervisor gave
    /// to other guests: how much other tenants disturbed the interval.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
