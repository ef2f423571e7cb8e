//! Host and process facts: process CPU time, and, read from `/proc` so
//! that a noisy run can be explained (never dropped), host steal, peak
//! memory, CPU model and the source revision.

use std::fs;

/// Clock ticks per second of the `/proc` time fields (Linux `USER_HZ`,
/// fixed at 100 by the user-space ABI).
const USER_HZ: f64 = 100.0;

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// CPU seconds this process has used so far, all threads, live and exited
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution). Time other tenants
/// held our vCPUs (steal) is not counted. The clock of a thread running on
/// another CPU lags by up to a scheduler tick; idle pool workers are
/// current. NaN where the clock is unavailable.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock(2)
}

/// CPU seconds the calling thread has used so far
/// (`CLOCK_THREAD_CPUTIME_ID`); NaN where the clock is unavailable.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock(3)
}

/// `clock_gettime(clock)` in seconds, for the Linux CPU-time clocks.
#[allow(unsafe_code)]
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return f64::NAN;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host-wide steal seconds so far, summed over CPUs (`/proc/stat`, the
/// 8th value of the `cpu` line): time other tenants held our vCPUs. 0
/// where `/proc` is missing.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return 0.0 };
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`). NaN where
/// `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return f64::NAN };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name").and_then(|r| r.split_once(':')).map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a repository (a plain source
/// tree carries no revision).
pub fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string())))
        .unwrap_or_else(|| "unknown".into())
}
