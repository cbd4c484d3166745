//! Order statistics and host measurements.

use noclat_sim::stats::Histogram;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
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

/// The highest of the candidate percentiles with at least ten samples
/// beyond it, and its value (nearest-rank). `None` below ten samples.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (p, v[rank.clamp(1, n) - 1])
        })
}

/// The `p` quantile (0..1) of a binned latency histogram, interpolated
/// linearly by rank inside its bin. The last bin collects every sample past
/// the histogram's range; it is taken as uniform over the span whose mean
/// is the overflow samples' mean (the total sum less the in-range bins at
/// their midpoints).
#[must_use]
pub fn hist_quantile(h: &Histogram, p: f64) -> f64 {
    let bins = h.bins();
    if h.count() == 0 {
        return 0.0;
    }
    let width = h.bin_width() as f64;
    let last = bins.len() - 1;
    let range = last as f64 * width;
    let in_range: f64 = bins[..last]
        .iter()
        .enumerate()
        .map(|(i, &c)| c as f64 * (i as f64 + 0.5) * width)
        .sum();
    let overflow = bins[last] as f64;
    let overflow_mean = if overflow > 0.0 {
        ((h.sum() as f64 - in_range) / overflow).max(range)
    } else {
        range
    };
    let target = p.clamp(0.0, 1.0) * h.count() as f64;
    let mut below = 0.0;
    for (i, &c) in bins.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && below + c >= target {
            let lo = i as f64 * width;
            let hi = if i == last {
                2.0 * overflow_mean - range
            } else {
                lo + width
            };
            return lo + (hi - lo) * (target - below) / c;
        }
        below += c;
    }
    h.max() as f64
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `op` repeatedly for at least `budget_s` host seconds in batches of
/// `batch` calls and returns the median nanoseconds per call over batches.
pub fn time_per_op<F: FnMut()>(batch: u64, budget_s: f64, mut op: F) -> f64 {
    let start = std::time::Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = std::time::Instant::now();
        for _ in 0..batch {
            op();
        }
        per_op.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    median(&per_op)
}
