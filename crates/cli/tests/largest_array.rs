//! The largest array the machine check accepts, answered in flat memory.
//!
//! `ghr dot c1 --m 77309411328` moves two 309 GB input streams. Its
//! first-touch placement is decided on one page, so the process must
//! stay small instead of holding a page state for every page of the
//! array. This binary holds exactly one test, so `RUSAGE_CHILDREN`
//! counts only the `ghr` it runs.

#![cfg(target_os = "linux")]

use std::os::raw::{c_int, c_long};
use std::process::Command;

/// `struct rusage`: two `timeval`s, then fourteen `long`s, the first of
/// which is the peak resident set in KiB.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss_kib: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

const RUSAGE_CHILDREN: c_int = -1;

/// The peak resident set of any waited-for child, in MiB.
fn children_maxrss_mib() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage`.
    assert_eq!(unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) }, 0);
    usage.maxrss_kib as f64 / 1024.0
}

#[test]
fn largest_valid_array_is_answered_in_flat_memory() {
    let out = Command::new(env!("CARGO_BIN_EXE_ghr"))
        .args(["dot", "c1", "--m", "77309411328", "--no-cache"])
        .output()
        .expect("run ghr");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout
            .lines()
            .any(|l| l == "first touch: device memory (the GPU leg wins the roofline)"),
        "{stdout}"
    );
    let rss_mib = children_maxrss_mib();
    assert!(
        rss_mib < 64.0,
        "`ghr dot c1 --m 77309411328` peaked at {rss_mib:.1} MiB"
    );
}
