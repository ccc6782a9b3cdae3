//! Host-cost probes: process CPU time, peak resident set, and the
//! order statistics the benchmark reports.

use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Process CPU seconds (user + system, all threads) since start, at
/// nanosecond resolution. `/proc/self/stat` would give 10 ms ticks,
/// coarser than the differences the benchmark must resolve.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `timespec` for the
    // duration of the call, and the clock id is a constant the kernel
    // accepts; the C library is linked by `std` on this target.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib * 1024.0 / 1e6
}

/// Wall and CPU seconds of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (cpu0, t0) = (process_cpu_s(), Instant::now());
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, process_cpu_s() - cpu0)
}

/// Smallest value; `NaN` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Median (mean of the two middle values for even lengths); `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (_, wall, cpu) = timed(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            x
        });
        assert!(cpu > 0.0 && wall > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
