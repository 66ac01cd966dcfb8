//! Order statistics and child-process resource usage.

/// Median of `values` (mean of the middle two for even lengths); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile, capped so that at least ten samples lie
/// beyond the reported one (the highest percentile the sample supports),
/// and never below the median. Returns `(value, quantile actually used)`.
pub fn tail(values: &[f64], q: f64) -> (f64, f64) {
    let s = sorted(values);
    if s.is_empty() {
        return (f64::NAN, q);
    }
    let n = s.len();
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n.saturating_sub(11)).max(n / 2);
    (s[idx], (idx + 1) as f64 / n as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Largest resident set size, in MiB, of any child this process has
/// waited for (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn children_peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (ru_utime, ru_stime)
    // followed by fourteen `long`s, the first of which is ru_maxrss in KiB.
    let mut usage = [0i64; 18];
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    // SAFETY: `usage` is a live, writable buffer of 18 × 8 = 144 bytes,
    // the size of `struct rusage` on 64-bit Linux, and getrusage writes
    // only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    usage[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (990.0, 0.99));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it; back off to p90.
        assert_eq!(tail(&v, 0.99), (90.0, 0.90));
        // Too few samples for any tail: the (upper) median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9).0, 7.0);
        assert_eq!(median(&v), 6.5);
    }
}
