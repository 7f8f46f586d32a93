//! Process accounting: CPU time from the process CPU clock, and peak
//! resident memory and the OS thread count from `/proc/self/status`, plus
//! a sampler that tracks the thread peak.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// CPU seconds of the whole process (all threads, live and exited), from
/// `CLOCK_PROCESS_CPUTIME_ID` at nanosecond resolution; the 10 ms ticks of
/// `/proc/self/stat` are too coarse for pieces of work a tenth of a
/// second long. The benchmark runs on 64-bit Linux only, as its other
/// figures come from `/proc/self/status`.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant Linux
    // defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A numeric field of `/proc/self/status` (the first number after
/// `key:`).
fn status_field(key: &str) -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has a numeric {key} field"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Current OS thread count of the process.
pub fn threads() -> u64 {
    status_field("Threads")
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Samples the process's thread count every few milliseconds on a
/// thread of its own and keeps the peak the workload reached: the threads
/// it started plus the caller's own.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl ThreadSampler {
    /// Starts sampling; threads alive now, the caller's among them, are
    /// the baseline.
    pub fn start() -> ThreadSampler {
        let baseline = threads();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            // Relaxed suffices: the flag publishes no other data, and the
            // join below orders the final read of `peak`.
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(threads());
                std::thread::sleep(Duration::from_millis(5));
            }
            // The sampler counts in place of the caller's own thread,
            // which the baseline holds.
            peak.max(threads()).saturating_sub(baseline)
        });
        ThreadSampler { stop, handle }
    }

    /// Stops sampling and returns the peak: threads started since
    /// [`ThreadSampler::start`], plus the caller's.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler does not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
