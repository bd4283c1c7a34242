//! CPU-time clocks.
//!
//! On a virtual machine whose host is shared, the host periodically runs
//! other guests on this guest's CPUs ("steal").  Wall time counts those
//! gaps; a thread's CPU time does not, so timing the thread that does the
//! work measures the program rather than the host's load.  With the
//! library's kernels pinned to one thread, every parallel kernel runs
//! inline on the calling thread, so that thread's CPU time is the whole
//! cost of the call.

use std::time::Duration;

#[cfg(target_os = "linux")]
mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU time consumed so far by the calling thread.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_time() -> Duration {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, linked by std on Linux;
    // it writes one `timespec` (two 64-bit fields on 64-bit Linux, matching
    // `Timespec`'s `repr(C)` layout) through a pointer to a live local.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

/// Elsewhere there is no portable thread clock; fall back to wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_time() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed()
}

/// Runs `f` and returns its result with the calling thread's CPU seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = thread_time();
    let out = f();
    (out, (thread_time() - start).as_secs_f64())
}

/// CPU time consumed so far by this process's thread named `name`, from
/// `/proc/self/task/*/schedstat`; `None` if no such thread exists or
/// `/proc` is unavailable.  The kernel updates it at context switches and
/// scheduler ticks, so it resolves a few milliseconds.
pub fn named_thread_time(name: &str) -> Option<Duration> {
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            let stat = std::fs::read_to_string(path.join("schedstat")).ok()?;
            let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
            return Some(Duration::from_nanos(ns));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_advances_with_work_not_with_sleep() {
        let (_, slept) = timed(|| std::thread::sleep(Duration::from_millis(30)));
        assert!(slept < 0.02, "sleeping used {slept} s of CPU");
        let (sum, busy) = timed(|| (0..20_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(busy > 0.0);
    }

    #[test]
    fn named_thread_time_finds_a_running_thread() {
        let handle = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(|| std::thread::sleep(Duration::from_millis(200)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(named_thread_time("perfbench-probe").is_some());
        assert!(named_thread_time("no-such-thread").is_none());
        handle.join().unwrap();
    }
}
