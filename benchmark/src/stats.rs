//! The few statistics the benchmark reports. Kept small and total: every
//! function returns NaN on an empty input instead of panicking, and the
//! caller counts a NaN metric as a failed run.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The smallest value. Every end-to-end time is a best-of: on a shared
/// host interference only ever adds time, and it comes and goes within a
/// run (the per-second minimum of one fixed kernel moves by +-7% here,
/// its minimum over eight seconds by +-2%), so the fastest of many
/// observations is the steadiest estimate of what the code costs.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Each window's nearest-rank `q` percentile, ascending. Empty windows
/// (a stalled phase) are skipped rather than read as zero latency.
pub fn window_percentiles(windows: &[Vec<f64>], q: f64) -> Vec<f64> {
    let mut per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut sorted = w.clone();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, q)
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    per_window
}

/// The better quartile of per-window values (ascending): the first
/// quartile when lower is better, the third when higher is. Serving is
/// disturbed from both sides: the host slows some windows, and now and
/// then batcher, executor and generator all stay in their channels' spin
/// phase and a few windows run twice as fast as the engine sustains. The
/// better quartile is past what the host slowed (a slowdown in the code
/// raises every window) and short of the lucky windows.
pub fn better_quartile(ascending: &[f64], lower_is_better: bool) -> f64 {
    percentile(ascending, if lower_is_better { 0.25 } else { 0.75 })
}

/// Geometric mean; NaN when empty or when any value is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    ninja_model::geomean(xs)
}
