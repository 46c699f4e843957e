//! Order statistics and process measurements.

/// Nearest-rank percentile `p` (0–100) of `values` (any order).
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Percentile `p` of each of up to `max_windows` consecutive windows of
/// `values` (in time order, at least `min_per_window` values a window).
/// Too few values for two windows give one window.
pub fn window_percentiles(
    values: &[f64],
    p: f64,
    max_windows: usize,
    min_per_window: usize,
) -> Vec<f64> {
    let windows = (values.len() / min_per_window.max(1)).clamp(1, max_windows.max(1));
    let size = values.len().div_ceil(windows).max(1);
    values.chunks(size).map(|w| percentile(w, p)).collect()
}

/// The median of [`window_percentiles`]: a burst of interference from
/// the machine then moves only the windows it falls in.
pub fn windowed_percentile(
    values: &[f64],
    p: f64,
    max_windows: usize,
    min_per_window: usize,
) -> f64 {
    median(&window_percentiles(values, p, max_windows, min_per_window))
}

/// The median of the better half of per-window `values` (the lower half
/// when lower is better). Interference from other guests on the machine
/// only ever makes a window slower, so the better half is the part of a
/// run they left alone.
pub fn better_half_median(values: &[f64], lower_is_better: bool) -> f64 {
    percentile(values, if lower_is_better { 25.0 } else { 75.0 })
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it in a sample of `n`, or `None` when not even the
/// median does.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // Percentiles in hundredths of a percent, so the nearest rank
    // ceil(p × n) is computed exactly.
    [9999, 9990, 9900, 9000, 5000]
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(10_000) >= 10)
        .map(|p| p as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Restarts the peak resident set size at the current one, so the peak
/// read later covers serving and not the transient allocations of
/// earlier set-ups. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative (total, steal) CPU ticks of the machine, from `/proc/stat`.
/// Steal is time the hypervisor gave this machine's CPUs to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Share of the machine's CPU time stolen since `before` (a
/// [`cpu_ticks`] reading); 0 when `/proc/stat` is unreadable.
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(5), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn windowed_percentile_shrugs_off_one_burst() {
        let mut v = vec![1.0; 8_000];
        // A stall in the fourth window makes 2% of all values slow.
        for x in &mut v[3_000..3_160] {
            *x = 50.0;
        }
        assert_eq!(percentile(&v, 99.0), 50.0);
        assert_eq!(windowed_percentile(&v, 99.0, 8, 1_000), 1.0);
        // Too few values for two windows: the plain percentile.
        assert_eq!(windowed_percentile(&v[2_500..3_400], 99.0, 8, 1_000), 50.0);
    }

    #[test]
    fn better_half_ignores_slowed_windows() {
        // Three of eight windows slowed by a neighbour.
        let latency = [1.0, 1.1, 1.0, 3.0, 1.2, 5.0, 1.1, 4.0];
        assert_eq!(better_half_median(&latency, true), 1.0);
        let throughput = [100.0, 90.0, 30.0, 95.0, 20.0, 100.0, 40.0, 98.0];
        assert_eq!(better_half_median(&throughput, false), 98.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
