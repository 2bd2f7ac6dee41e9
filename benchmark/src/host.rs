//! What the benchmark asks of the host: CPU pinning, peak memory,
//! context-switch counts and the stamps that go into a result file.
//!
//! Thread-backed simulated processes hand off strictly one at a time, so
//! the program's effective parallelism is 1; left unpinned on a 2-vCPU
//! host every hand-off may cross CPUs and the same binary's wall time
//! spreads 3x (see README). Every measured child therefore pins itself to
//! one CPU before it creates a thread; threads inherit the mask.

use std::fs;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s (four longs) and
    /// fourteen longs; `ru_nvcsw` is the seventeenth long.
    #[cfg(target_pointer_width = "64")]
    pub type RUsage = [i64; 18];
    #[cfg(target_pointer_width = "64")]
    pub const RU_NVCSW: usize = 16;
    #[cfg(target_pointer_width = "64")]
    pub const RUSAGE_SELF: i32 = 0;

    #[cfg(target_pointer_width = "64")]
    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// Pins the calling thread (and every thread it later creates) to the
/// highest-numbered CPU it is allowed on — CPU 0 tends to take the
/// host's interrupts. Returns the CPU, or `None` when the host refuses
/// or is not Linux; the caller then reports `bench.pinned = 0`.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: sys::CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set), &mut set) };
        if rc != 0 {
            return None;
        }
        let cpu = (0..set.len() * 64)
            .rev()
            .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: sys::CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a valid cpu_set_t of the size passed; the call
        // only reads it.
        let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), &one) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Voluntary context switches of this process so far, all threads
/// (exited ones included) — `None` where `getrusage` is not declared.
pub fn voluntary_ctx_switches() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ru: sys::RUsage = [0; 18];
        // SAFETY: `ru` is writable and has the size and alignment of
        // `struct rusage` on 64-bit Linux (18 longs).
        let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
        (rc == 0).then(|| ru[sys::RU_NVCSW] as u64)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// `VmHWM` of this process in KiB: the peak resident set so far.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPUs this process may run on.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Short git revision of the checkout, `unknown` outside a repository
/// (the acceptance driver runs from an exported tree).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
