//! Thread/size scaling sweeps: `ninja-scale`.
//!
//! The single-point suite run answers "how big is the gap *here*"; this
//! module answers the paper's sharper question — "what happens to each
//! rung as cores are added". A [`SweepConfig`] runs every kernel×variant
//! cell across a grid of thread counts and problem sizes, re-using the
//! fault-tolerant measurement machinery (each grid point is a full
//! [`Harness`] run, so panics/timeouts/validation failures are recorded
//! per cell, never fatal). The resulting [`SweepReport`] turns each
//! curve into explanations via the `ninja_model::scaling` fitters:
//! Amdahl serial fraction, USL contention/coherency, an r², and the
//! empirical scaling knee, cross-checked against the roofline `bound`
//! classification (bandwidth-bound cells are expected to knee earlier).

use crate::measure::Measurement;
use crate::render;
use crate::report::VariantOutcome;
use crate::Harness;
use ninja_kernels::{registry, KernelSpec, ProblemSize};
use ninja_model::scaling::{detect_knee, fit_scaling, DEFAULT_KNEE_THRESHOLD};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Grid description for one sweep: which sizes, which thread counts,
/// and how each grid point is measured.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Problem sizes to sweep (outer grid axis).
    pub sizes: Vec<ProblemSize>,
    /// Thread counts to sweep (inner grid axis), e.g. from
    /// [`thread_grid`].
    pub threads: Vec<usize>,
    /// Input-generation seed, shared by every grid point so all points
    /// measure the same problem.
    pub seed: u64,
    /// Timed repetitions per cell (median is kept).
    pub reps: u32,
    /// Optional per-variant watchdog budget (see [`Harness::timeout`]).
    pub timeout: Option<Duration>,
    /// When set, only registry kernels with these names are swept.
    pub kernels: Option<Vec<String>>,
    /// Marginal-speedup threshold for knee detection
    /// ([`DEFAULT_KNEE_THRESHOLD`] by default).
    pub knee_threshold: f64,
}

impl Default for SweepConfig {
    /// Quick-size sweep over [`thread_grid`] up to the hardware thread
    /// count, seed 42, one repetition per cell, no watchdog, all
    /// kernels.
    fn default() -> Self {
        Self {
            sizes: vec![ProblemSize::Quick],
            threads: thread_grid(ninja_parallel::hardware_threads()),
            seed: 42,
            reps: 1,
            timeout: None,
            kernels: None,
            knee_threshold: DEFAULT_KNEE_THRESHOLD,
        }
    }
}

/// Thread counts for a sweep up to `max`: every count for small
/// machines (`max <= 8`), otherwise 1, 2, 4, … powers of two plus `max`
/// itself, so the grid stays readable on many-core hosts.
pub fn thread_grid(max: usize) -> Vec<usize> {
    let max = max.max(1);
    if max <= 8 {
        return (1..=max).collect();
    }
    let mut grid: Vec<usize> = std::iter::successors(Some(1usize), |n| n.checked_mul(2))
        .take_while(|&n| n < max)
        .collect();
    grid.push(max);
    grid
}

impl SweepConfig {
    /// Runs the full grid. Each (size, threads) point is one
    /// fault-tolerant [`Harness`] run over the selected kernels; every
    /// cell lands in the report whether it measured or failed. Fits are
    /// computed once all points are in.
    pub fn run(&self) -> SweepReport {
        let _sweep_span = ninja_probe::span("sweep");
        let specs: Vec<KernelSpec> = registry()
            .into_iter()
            .filter(|s| match &self.kernels {
                Some(names) => names.iter().any(|n| n == s.name),
                None => true,
            })
            .collect();
        let mut report = SweepReport {
            seed: self.seed,
            reps: self.reps,
            simd_backend: ninja_simd::isa::active().name().to_owned(),
            sizes: self.sizes.iter().map(|s| s.name().to_owned()).collect(),
            threads: self.threads.clone(),
            knee_threshold: self.knee_threshold,
            cells: Vec::new(),
            fits: Vec::new(),
        };
        for &size in &self.sizes {
            for &threads in &self.threads {
                let _point_span = ninja_probe::span(&format!("grid:{}/t{}", size.name(), threads));
                let mut harness = Harness::new()
                    .size(size)
                    .seed(self.seed)
                    .repetitions(self.reps)
                    .threads(threads);
                if let Some(budget) = self.timeout {
                    harness = harness.timeout(budget);
                }
                let suite = harness.run_specs(&specs);
                for kernel in suite.kernels {
                    for v in kernel.variants {
                        report.cells.push(SweepCell {
                            kernel: kernel.kernel.clone(),
                            variant: v.variant,
                            size: size.name().to_owned(),
                            threads,
                            timing: v.timing,
                            outcome: v.outcome,
                        });
                    }
                }
            }
        }
        report.fits = report.compute_fits(&specs, self.knee_threshold);
        report
    }
}

/// One measured (or failed) grid point: a kernel×variant cell at one
/// problem size and thread count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepCell {
    /// Kernel name as in the registry.
    pub kernel: String,
    /// Variant rung name (`naive` … `ninja`).
    pub variant: String,
    /// Problem-size preset name (`test` / `quick` / `paper`).
    pub size: String,
    /// Pool thread count this cell was measured with.
    pub threads: usize,
    /// Timing summary; `None` when the cell failed.
    pub timing: Option<Measurement>,
    /// How the cell ended (`Ok` or one of the failure outcomes).
    pub outcome: VariantOutcome,
}

impl SweepCell {
    /// Median seconds when the cell measured.
    pub fn median_s(&self) -> Option<f64> {
        self.timing.as_ref().map(|t| t.median_s)
    }
}

/// Fitted scaling models for one kernel×variant×size curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepFit {
    /// Kernel name as in the registry.
    pub kernel: String,
    /// Variant rung name.
    pub variant: String,
    /// Problem-size preset name.
    pub size: String,
    /// The kernel's static roofline classification (`compute` /
    /// `memory`), used for the knee cross-check.
    pub bound: String,
    /// Amdahl serial fraction (κ pinned to 0).
    pub serial_fraction: f64,
    /// USL contention σ.
    pub contention: f64,
    /// USL coherency κ.
    pub coherency: f64,
    /// Coefficient of determination of the USL fit in speedup space.
    pub r_squared: f64,
    /// Detected scaling knee (thread count), `None` when the curve
    /// never flattens inside the measured grid.
    pub knee_threads: Option<usize>,
}

/// Everything one sweep produced: the raw cell grid plus the per-curve
/// model fits. Serializes to `sweep_report.json` and is the payload
/// `perfdb record --sweep` ingests.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepReport {
    /// Input-generation seed shared by all grid points.
    pub seed: u64,
    /// Timed repetitions per cell.
    pub reps: u32,
    /// Active SIMD backend name.
    pub simd_backend: String,
    /// Size-preset names swept (outer axis).
    pub sizes: Vec<String>,
    /// Thread counts swept (inner axis).
    pub threads: Vec<usize>,
    /// Marginal-speedup threshold used for knee detection.
    pub knee_threshold: f64,
    /// Every measured/failed grid point.
    pub cells: Vec<SweepCell>,
    /// Per kernel×variant×size model fits (curves with fewer than two
    /// measured thread counts have no entry).
    pub fits: Vec<SweepFit>,
}

impl SweepReport {
    /// The cell for one exact grid point, if present.
    pub fn cell(
        &self,
        kernel: &str,
        variant: &str,
        size: &str,
        threads: usize,
    ) -> Option<&SweepCell> {
        self.cells.iter().find(|c| {
            c.kernel == kernel && c.variant == variant && c.size == size && c.threads == threads
        })
    }

    /// The fit for one kernel×variant×size curve, if it was fittable.
    pub fn fit(&self, kernel: &str, variant: &str, size: &str) -> Option<&SweepFit> {
        self.fits
            .iter()
            .find(|f| f.kernel == kernel && f.variant == variant && f.size == size)
    }

    /// Measured speedup curve for one kernel×variant×size:
    /// `(threads, speedup)` points relative to the smallest measured
    /// thread count, ascending. Failed cells are skipped; an empty
    /// vector means the baseline (smallest thread count) never
    /// measured.
    pub fn speedup_points(&self, kernel: &str, variant: &str, size: &str) -> Vec<(usize, f64)> {
        let mut measured: Vec<(usize, f64)> = self
            .cells
            .iter()
            .filter(|c| c.kernel == kernel && c.variant == variant && c.size == size)
            .filter_map(|c| c.median_s().map(|m| (c.threads, m)))
            .filter(|&(_, m)| m.is_finite() && m > 0.0)
            .collect();
        measured.sort_by_key(|p| p.0);
        measured.dedup_by_key(|p| p.0);
        let Some(&(_, base)) = measured.first() else {
            return Vec::new();
        };
        measured.into_iter().map(|(n, m)| (n, base / m)).collect()
    }

    /// Kernel names present in the report, in first-seen order.
    pub fn kernels(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.kernel) {
                names.push(c.kernel.clone());
            }
        }
        names
    }

    /// Grid cells that did not measure cleanly.
    pub fn failures(&self) -> impl Iterator<Item = &SweepCell> {
        self.cells.iter().filter(|c| !c.outcome.is_ok())
    }

    /// Fits every kernel×variant×size curve with at least two measured
    /// thread counts. `specs` supplies the static `bound`
    /// classification for the cross-check.
    fn compute_fits(&self, specs: &[KernelSpec], knee_threshold: f64) -> Vec<SweepFit> {
        let mut fits = Vec::new();
        for spec in specs {
            for size in &self.sizes {
                for variant in ninja_kernels::Variant::ALL {
                    let points = self.speedup_points(spec.name, variant.name(), size);
                    let Some(fit) = fit_scaling(&points) else {
                        continue;
                    };
                    fits.push(SweepFit {
                        kernel: spec.name.to_owned(),
                        variant: variant.name().to_owned(),
                        size: size.clone(),
                        bound: spec.bound.to_owned(),
                        serial_fraction: fit.serial_fraction,
                        contention: fit.contention,
                        coherency: fit.coherency,
                        r_squared: fit.r_squared,
                        knee_threads: detect_knee(&points, knee_threshold),
                    });
                }
            }
        }
        fits
    }

    /// Pretty JSON rendering of the whole report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep reports are serializable")
    }

    /// Parses a report previously produced by [`SweepReport::to_json`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Flat CSV of the grid: one row per cell, with that curve's fitted
    /// parameters repeated on every row (empty when the curve was not
    /// fittable).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "kernel,variant,size,threads,outcome,median_s,speedup,\
             serial_fraction,contention,coherency,r_squared,knee_threads\n",
        );
        for c in &self.cells {
            let speedup = self
                .speedup_points(&c.kernel, &c.variant, &c.size)
                .iter()
                .find(|&&(n, _)| n == c.threads)
                .map(|&(_, s)| format!("{s:.4}"))
                .unwrap_or_default();
            let median = c.median_s().map(|m| format!("{m:.9}")).unwrap_or_default();
            let fit_cols = match self.fit(&c.kernel, &c.variant, &c.size) {
                Some(f) => format!(
                    "{:.6},{:.6},{:.6},{:.4},{}",
                    f.serial_fraction,
                    f.contention,
                    f.coherency,
                    f.r_squared,
                    f.knee_threads.map(|k| k.to_string()).unwrap_or_default()
                ),
                None => ",,,,".to_owned(),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                c.kernel,
                c.variant,
                c.size,
                c.threads,
                c.outcome.kind(),
                median,
                speedup,
                fit_cols
            ));
        }
        out
    }

    /// Full ASCII rendering: per kernel×size a speedup table (one row
    /// per rung, one column per thread count, fitted parameters at the
    /// end), per-rung efficiency rows, `#`-bar speedup curves, and the
    /// knee-vs-bound cross-check summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let max_n = self.threads.iter().copied().max().unwrap_or(1);
        for kernel in self.kernels() {
            for size in &self.sizes {
                let bound = self
                    .fits
                    .iter()
                    .find(|f| f.kernel == kernel && &f.size == size)
                    .map(|f| f.bound.as_str())
                    .unwrap_or("?");
                out.push_str(&format!("== {kernel} ({bound}-bound, size={size}) ==\n"));
                out.push_str(&self.kernel_table(&kernel, size));
                out.push_str(&self.kernel_curves(&kernel, size, max_n));
                out.push('\n');
            }
        }
        out.push_str(&self.knee_cross_check());
        out
    }

    /// Speedup + fit table for one kernel×size.
    fn kernel_table(&self, kernel: &str, size: &str) -> String {
        let mut headers: Vec<String> = vec!["rung".into()];
        headers.extend(self.threads.iter().map(|n| format!("S@{n}")));
        headers.extend(self.threads.iter().map(|n| format!("eff@{n}")));
        headers.extend(
            ["serial", "sigma", "kappa", "r2", "knee"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut rows = Vec::new();
        for variant in ninja_kernels::Variant::ALL {
            let points = self.speedup_points(kernel, variant.name(), size);
            let mut row = vec![variant.name().to_owned()];
            for &n in &self.threads {
                row.push(
                    points
                        .iter()
                        .find(|&&(pn, _)| pn == n)
                        .map(|&(_, s)| format!("{s:.2}"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            for &n in &self.threads {
                row.push(
                    points
                        .iter()
                        .find(|&&(pn, _)| pn == n)
                        .map(|&(_, s)| format!("{:.0}%", 100.0 * s / n as f64))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            match self.fit(kernel, variant.name(), size) {
                Some(f) => {
                    row.push(format!("{:.3}", f.serial_fraction));
                    row.push(format!("{:.3}", f.contention));
                    row.push(format!("{:.4}", f.coherency));
                    row.push(format!("{:.3}", f.r_squared));
                    row.push(
                        f.knee_threads
                            .map(|k| k.to_string())
                            .unwrap_or_else(|| "-".into()),
                    );
                }
                None => row.extend(std::iter::repeat_n("-".to_owned(), 5)),
            }
            rows.push(row);
        }
        render::table(&header_refs, &rows)
    }

    /// `#`-bar speedup curves for one kernel×size: per rung, one bar
    /// per thread count, full width = perfect linear scaling.
    fn kernel_curves(&self, kernel: &str, size: &str, max_n: usize) -> String {
        const WIDTH: usize = 24;
        let mut out = String::from("  curve (bar = measured speedup; full width = linear)\n");
        for variant in ninja_kernels::Variant::ALL {
            let points = self.speedup_points(kernel, variant.name(), size);
            if points.is_empty() {
                continue;
            }
            for (i, &(n, s)) in points.iter().enumerate() {
                let label = if i == 0 { variant.name() } else { "" };
                let bar = render::bar(s, max_n as f64, WIDTH);
                out.push_str(&format!(
                    "  {label:<12} n={n:<3} |{bar:<width$}| {s:.2}\n",
                    width = WIDTH
                ));
            }
        }
        out
    }

    /// Summarizes where each bound class knees, and whether the
    /// ordering matches the roofline expectation (bandwidth-bound cells
    /// knee earlier than compute-bound ones).
    fn knee_cross_check(&self) -> String {
        // Parallel-capable rungs only: serial rungs have flat curves by
        // construction and would drown the signal.
        let scaled_rungs = ["parallel", "ninja"];
        let knees = |bound: &str| -> Vec<usize> {
            let mut ks: Vec<usize> = self
                .fits
                .iter()
                .filter(|f| f.bound == bound && scaled_rungs.contains(&f.variant.as_str()))
                .filter_map(|f| f.knee_threads)
                .collect();
            ks.sort_unstable();
            ks
        };
        let median = |ks: &[usize]| ks.get(ks.len() / 2).copied();
        let compute = knees("compute");
        let memory = knees("memory");
        let mut out = String::from("knee cross-check (parallel/ninja rungs):\n");
        match (median(&compute), median(&memory)) {
            (Some(c), Some(m)) => {
                let verdict = if m <= c {
                    "matches roofline expectation (bandwidth knees earlier)"
                } else {
                    "UNEXPECTED: compute-bound kneed earlier than bandwidth-bound"
                };
                out.push_str(&format!(
                    "  compute-bound median knee: {c} threads; memory-bound: {m} threads — {verdict}\n"
                ));
            }
            (c, m) => {
                let describe = |label: &str, k: Option<usize>, count: usize| match k {
                    Some(k) => format!("{label}-bound median knee: {k} threads"),
                    None if count == 0 => format!("{label}-bound: no fitted curves"),
                    None => format!("{label}-bound: no knee inside the measured grid"),
                };
                out.push_str(&format!(
                    "  {}; {}\n",
                    describe("compute", c, compute.len()),
                    describe("memory", m, memory.len())
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_grid_small_is_dense() {
        assert_eq!(thread_grid(1), vec![1]);
        assert_eq!(thread_grid(4), vec![1, 2, 3, 4]);
        assert_eq!(thread_grid(8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn thread_grid_large_is_log_spaced() {
        assert_eq!(thread_grid(16), vec![1, 2, 4, 8, 16]);
        assert_eq!(thread_grid(12), vec![1, 2, 4, 8, 12]);
        assert_eq!(thread_grid(0), vec![1]);
    }

    #[test]
    fn tiny_sweep_produces_cells_and_fits() {
        let config = SweepConfig {
            sizes: vec![ProblemSize::Test],
            threads: vec![1, 2],
            seed: 42,
            reps: 1,
            timeout: None,
            kernels: Some(vec!["nbody".into()]),
            knee_threshold: DEFAULT_KNEE_THRESHOLD,
        };
        let report = config.run();
        // 1 kernel × 5 variants × 1 size × 2 thread counts.
        assert_eq!(report.cells.len(), 10);
        assert_eq!(report.failures().count(), 0);
        assert_eq!(report.kernels(), ["nbody"]);
        // Every rung's curve is fittable on a 2-point grid.
        assert_eq!(report.fits.len(), 5);
        for f in &report.fits {
            assert!(f.r_squared.is_finite(), "{f:?}");
            assert!((0.0..=1.0).contains(&f.serial_fraction), "{f:?}");
            assert_eq!(f.bound, "compute");
        }
        // Speedup is measured against the 1-thread baseline.
        let pts = report.speedup_points("nbody", "parallel", "test");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (1, 1.0));
        assert!(pts[1].1 > 0.0);
    }

    #[test]
    fn sweep_report_renders_and_roundtrips() {
        let config = SweepConfig {
            sizes: vec![ProblemSize::Test],
            threads: vec![1, 2],
            kernels: Some(vec!["conv1d".into()]),
            ..SweepConfig::default()
        };
        let report = config.run();
        let text = report.render();
        assert!(text.contains("== conv1d"), "{text}");
        assert!(text.contains("knee cross-check"), "{text}");
        assert!(text.contains("sigma"), "{text}");
        let json = report.to_json();
        let back = SweepReport::from_json(&json).expect("roundtrip");
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(back.fits.len(), report.fits.len());
        assert_eq!(back.threads, report.threads);
        let csv = report.to_csv();
        assert!(csv.lines().count() > report.cells.len(), "{csv}");
        assert!(csv.starts_with("kernel,variant,size,threads"), "{csv}");
    }

    #[test]
    fn missing_baseline_yields_no_curve() {
        let report = SweepReport {
            seed: 0,
            reps: 1,
            simd_backend: "x".into(),
            sizes: vec!["test".into()],
            threads: vec![1, 2],
            knee_threshold: 0.5,
            cells: vec![SweepCell {
                kernel: "k".into(),
                variant: "naive".into(),
                size: "test".into(),
                threads: 2,
                timing: None,
                outcome: VariantOutcome::NonFinite,
            }],
            fits: vec![],
        };
        assert!(report.speedup_points("k", "naive", "test").is_empty());
        assert!(report.cell("k", "naive", "test", 2).is_some());
        assert!(report.cell("k", "naive", "test", 1).is_none());
        assert_eq!(report.failures().count(), 1);
    }
}
