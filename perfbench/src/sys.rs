//! Whole-process readings: CPU time and context switches (`getrusage`,
//! which counts every thread, exited ones included), host steal ticks
//! (`/proc/stat`), peak resident memory (`VmHWM`) and the machine.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage`.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// A reading of the process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds, all threads.
    pub user_s: f64,
    /// System CPU seconds, all threads.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
    /// Host-wide steal ticks so far (`/proc/stat`, all CPUs).
    pub steal_ticks: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        let mut r = Rusage::default();
        // SAFETY: `Rusage` matches the C layout of `struct rusage` on Linux,
        // and RUSAGE_SELF (0) only writes into the struct passed.
        let ok = unsafe { getrusage(0, &mut r) } == 0;
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: if ok { secs(&r.utime) } else { 0.0 },
            sys_s: if ok { secs(&r.stime) } else { 0.0 },
            ctx_switches: if ok { (r.nvcsw + r.nivcsw) as u64 } else { 0 },
            steal_ticks: steal_ticks(),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
        }
    }
}

/// The `steal` column of `/proc/stat`'s aggregate `cpu` line (0 if absent).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
