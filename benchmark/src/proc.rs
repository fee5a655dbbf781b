//! What the kernel knows about this process, read from `/proc`:
//! per-thread on-CPU time and the peak resident set.

use std::fs;

/// The calling thread's kernel id.
pub fn current_tid() -> u32 {
    let link = fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("thread id in /proc/thread-self")
}

/// Nanoseconds every live thread of this process except `skip` has
/// spent on a CPU (first field of `schedstat`: spinning counts, being
/// runnable but pre-empted does not).
pub fn cpu_ns_except(skip: Option<u32>) -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&tid| Some(tid) != skip)
        // A thread may exit between the listing and the read.
        .filter_map(|tid| fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok())
        .filter_map(|stat| stat.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

// Thread placement. Where the scheduler puts a woken server worker —
// beside the busy-polling generator or on the idle core — moves the
// wire median by half, and it makes that choice per run, not per
// request. The benchmark therefore fixes it: server threads on the
// first CPU this process may use, the generator on the second, and the
// calling threads of an in-process workload on one CPU each.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// The CPUs the process was allowed at start (read once, before any
/// pinning).
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable for the size passed; pid 0 is the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert!(rc == 0, "sched_getaffinity failed");
        (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
    })
}

fn set_affinity(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is readable for the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert!(rc == 0, "sched_setaffinity failed");
}

/// Where the server's threads run, and where the open-loop generator
/// does: indices into the CPUs this process may use.
pub const SERVER_CPU: usize = 0;
pub const GENERATOR_CPU: usize = 1;

/// Pins the calling thread, and threads it spawns from now on, to the
/// `nth` CPU this process may use (wrapping). With a single CPU there
/// is nothing to choose.
pub fn pin(nth: usize) {
    let cpus = allowed_cpus();
    if cpus.len() >= 2 {
        set_affinity(&[cpus[nth % cpus.len()]]);
    }
}

/// Lets the calling thread run anywhere the process may.
pub fn unpin() {
    set_affinity(allowed_cpus());
}
