//! Wall-clock measurement with warmup and median-of-N repetition.

use std::time::Instant;

/// The timing of one measured workload.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Measurement {
    /// Median wall-clock seconds across repetitions.
    pub median_s: f64,
    /// Arithmetic mean across repetitions.
    pub mean_s: f64,
    /// Sample standard deviation across repetitions (0 for one run).
    pub stddev_s: f64,
    /// Fastest repetition.
    pub min_s: f64,
    /// Slowest repetition.
    pub max_s: f64,
    /// Number of timed repetitions.
    pub runs: u32,
    /// Raw per-repetition seconds in execution order — opt-in (see
    /// [`measure_with_samples`]); empty when not collected.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub samples: Vec<f64>,
}

impl Measurement {
    /// Relative spread `(max − min) / median` — a quick noise indicator.
    ///
    /// **Contract:** the value is *relative* (dimensionless, in units of
    /// the median), not absolute seconds: `0.10` means the repetitions
    /// span 10% of the median. Because it is scale-free it can be
    /// compared across kernels of wildly different runtimes, and it is
    /// what the `ninja-perfdb` regression comparator consumes directly as
    /// its default per-cell noise floor (a cell must shift by more than
    /// its own measured spread before a verdict leaves "noise").
    ///
    /// A zero median (degenerate, e.g. an unmeasured stub) reports zero
    /// spread rather than dividing by zero.
    ///
    /// ```
    /// use ninja_core::Measurement;
    /// let m = Measurement {
    ///     median_s: 2.0,
    ///     mean_s: 2.05,
    ///     stddev_s: 0.1,
    ///     min_s: 1.9,
    ///     max_s: 2.3,
    ///     runs: 5,
    ///     samples: Vec::new(),
    /// };
    /// // (2.3 − 1.9) / 2.0 = 0.2: relative, not seconds.
    /// assert!((m.spread() - 0.2).abs() < 1e-12);
    /// // Scaling the measurement leaves the spread unchanged.
    /// let scaled = Measurement { median_s: 4.0, mean_s: 4.1, stddev_s: 0.2,
    ///                            min_s: 3.8, max_s: 4.6, runs: 5,
    ///                            samples: Vec::new() };
    /// assert!((scaled.spread() - m.spread()).abs() < 1e-12);
    /// ```
    pub fn spread(&self) -> f64 {
        if self.median_s == 0.0 {
            0.0
        } else {
            (self.max_s - self.min_s) / self.median_s
        }
    }
}

/// Times `body` with `warmup` untimed runs followed by `runs` timed runs,
/// reporting the median (robust to one-off scheduling noise).
///
/// When span tracing is on ([`ninja_probe::set_tracing`]) the warmup
/// block and every timed repetition record their own span, so a trace
/// shows each rep individually rather than one opaque measurement block.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn measure<F: FnMut()>(warmup: u32, runs: u32, body: F) -> Measurement {
    measure_with_samples(warmup, runs, false, body)
}

/// [`measure`], optionally keeping the raw per-repetition samples on the
/// returned [`Measurement`] (`keep_samples`). Collection is opt-in
/// because samples grow reports linearly in `runs` and most consumers
/// only want the summary statistics.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn measure_with_samples<F: FnMut()>(
    warmup: u32,
    runs: u32,
    keep_samples: bool,
    mut body: F,
) -> Measurement {
    assert!(runs > 0, "measure needs at least one timed run");
    {
        let _warmup_span = if warmup > 0 && ninja_probe::tracing_enabled() {
            Some(ninja_probe::span("warmup"))
        } else {
            None
        };
        for _ in 0..warmup {
            body();
        }
    }
    let mut times = Vec::with_capacity(runs as usize);
    for rep in 0..runs {
        let _rep_span = if ninja_probe::tracing_enabled() {
            Some(ninja_probe::span(&format!("rep:{rep}")))
        } else {
            None
        };
        let start = Instant::now();
        body();
        times.push(start.elapsed().as_secs_f64());
    }
    let samples = if keep_samples {
        times.clone()
    } else {
        Vec::new()
    };
    times.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN durations"));
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = if times.len() > 1 {
        times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (times.len() - 1) as f64
    } else {
        0.0
    };
    Measurement {
        median_s: times[times.len() / 2],
        mean_s: mean,
        stddev_s: var.sqrt(),
        min_s: times[0],
        max_s: times[times.len() - 1],
        runs,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_warmup_and_runs() {
        let mut calls = 0;
        let m = measure(2, 5, || calls += 1);
        assert_eq!(calls, 7);
        assert_eq!(m.runs, 5);
        assert!(m.min_s <= m.median_s && m.median_s <= m.max_s);
        assert!(m.samples.is_empty(), "samples are opt-in");
    }

    #[test]
    fn measures_something_positive() {
        let m = measure(0, 3, || {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        assert!(m.median_s >= 0.0);
        assert!(m.spread() >= 0.0);
        assert!(m.mean_s >= m.min_s && m.mean_s <= m.max_s);
        assert!(m.stddev_s >= 0.0);
    }

    #[test]
    fn single_run_has_zero_stddev() {
        let m = measure(0, 1, || {});
        assert_eq!(m.stddev_s, 0.0);
        assert_eq!(m.mean_s, m.median_s);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_runs_rejected() {
        let _ = measure(0, 0, || {});
    }

    #[test]
    fn opt_in_samples_match_summary_stats() {
        let m = measure_with_samples(0, 5, true, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert_eq!(m.samples.len(), 5);
        let min = m.samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = m.samples.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(min, m.min_s);
        assert_eq!(max, m.max_s);
        // Samples are in execution order, not sorted.
        let mean = m.samples.iter().sum::<f64>() / 5.0;
        assert!((mean - m.mean_s).abs() < 1e-15);
    }

    #[test]
    fn wire_format_omits_empty_samples_and_tolerates_absence() {
        let without = measure(0, 2, || {});
        let json = serde_json::to_string(&without).unwrap();
        assert!(
            !json.contains("samples"),
            "empty samples must stay off the wire: {json}"
        );
        // Pre-`samples` JSON (exactly what older reports contain) parses.
        let legacy = r#"{"median_s":1.0,"mean_s":1.0,"stddev_s":0.0,
                         "min_s":0.9,"max_s":1.1,"runs":3}"#;
        let m: Measurement = serde_json::from_str(legacy).unwrap();
        assert_eq!(m.runs, 3);
        assert!(m.samples.is_empty());
        // And collected samples round-trip.
        let with = measure_with_samples(0, 3, true, || {});
        let back: Measurement =
            serde_json::from_str(&serde_json::to_string(&with).unwrap()).unwrap();
        assert_eq!(with, back);
    }
}
