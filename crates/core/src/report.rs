//! Result structures for suite runs (serializable for EXPERIMENTS.md and
//! machine-readable output).

use crate::Measurement;
use ninja_kernels::{ProblemSize, Variant};
use ninja_perfdb::VecProfileRecord;
use serde::{Deserialize, Serialize};

/// How one (kernel, variant) measurement ended.
///
/// The harness records an outcome for every variant instead of panicking,
/// so a single bad variant cannot take down a suite run: the report keeps
/// the partial results and names what failed and how.
#[derive(Clone, Debug, PartialEq)]
pub enum VariantOutcome {
    /// Measured (and, when validation was enabled, validated) successfully.
    Ok,
    /// The output disagreed with the reference implementation.
    ValidationFailed {
        /// The validator's mismatch description.
        reason: String,
    },
    /// The variant panicked during validation or measurement.
    Panicked {
        /// The original panic payload, stringified.
        message: String,
    },
    /// The variant exceeded its wall-clock budget and was abandoned.
    TimedOut {
        /// The budget that was exceeded, in seconds.
        budget_s: f64,
    },
    /// The checksum came back NaN or infinite, so the timings measure
    /// garbage arithmetic rather than useful work.
    NonFinite,
}

impl VariantOutcome {
    /// Whether the variant produced a trustworthy measurement.
    pub fn is_ok(&self) -> bool {
        matches!(self, VariantOutcome::Ok)
    }

    /// Stable machine-readable tag (used in JSON/CSV).
    pub fn kind(&self) -> &'static str {
        match self {
            VariantOutcome::Ok => "ok",
            VariantOutcome::ValidationFailed { .. } => "validation_failed",
            VariantOutcome::Panicked { .. } => "panicked",
            VariantOutcome::TimedOut { .. } => "timed_out",
            VariantOutcome::NonFinite => "non_finite",
        }
    }
}

impl std::fmt::Display for VariantOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VariantOutcome::Ok => f.write_str("ok"),
            VariantOutcome::ValidationFailed { reason } => {
                write!(f, "validation failed: {reason}")
            }
            VariantOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            VariantOutcome::TimedOut { budget_s } => {
                write!(f, "timed out after {budget_s:.1}s budget")
            }
            VariantOutcome::NonFinite => f.write_str("non-finite checksum"),
        }
    }
}

// The derive stand-in only handles structs, so the enum impls are written
// by hand: a tagged object `{"kind": "...", ...fields}`.
impl Serialize for VariantOutcome {
    fn to_value(&self) -> serde::Value {
        let mut pairs = vec![(
            "kind".to_string(),
            serde::Value::Str(self.kind().to_string()),
        )];
        match self {
            VariantOutcome::Ok | VariantOutcome::NonFinite => {}
            VariantOutcome::ValidationFailed { reason } => {
                pairs.push(("reason".to_string(), reason.to_value()));
            }
            VariantOutcome::Panicked { message } => {
                pairs.push(("message".to_string(), message.to_value()));
            }
            VariantOutcome::TimedOut { budget_s } => {
                pairs.push(("budget_s".to_string(), budget_s.to_value()));
            }
        }
        serde::Value::Object(pairs)
    }
}

impl Deserialize for VariantOutcome {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let kind = String::from_value(v.field("kind")?)?;
        match kind.as_str() {
            "ok" => Ok(VariantOutcome::Ok),
            "validation_failed" => Ok(VariantOutcome::ValidationFailed {
                reason: String::from_value(v.field("reason")?)?,
            }),
            "panicked" => Ok(VariantOutcome::Panicked {
                message: String::from_value(v.field("message")?)?,
            }),
            "timed_out" => Ok(VariantOutcome::TimedOut {
                budget_s: f64::from_value(v.field("budget_s")?)?,
            }),
            "non_finite" => Ok(VariantOutcome::NonFinite),
            other => Err(serde::DeError::new(format!(
                "unknown variant outcome kind `{other}`"
            ))),
        }
    }
}

/// One measured (kernel, variant) cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VariantResult {
    /// Variant label (see [`Variant::name`]).
    pub variant: String,
    /// Timing of the variant; `None` when the variant failed before a
    /// trustworthy measurement existed.
    pub timing: Option<Measurement>,
    /// Output checksum (anti-DCE witness; equal-ish across variants).
    /// Zero when the variant failed or produced a non-finite value.
    pub checksum: f64,
    /// Achieved useful GFLOP/s (zero for failed variants).
    pub gflops: f64,
    /// Achieved streaming GB/s (zero for failed variants).
    pub gbs: f64,
    /// Whether validation against the reference implementation ran.
    pub validated: bool,
    /// How the measurement ended.
    pub outcome: VariantOutcome,
    /// Roofline placement of the measurement (achieved throughputs,
    /// percent-of-roofline, bound classification, pool utilization);
    /// `None` for failed cells.
    #[serde(default)]
    pub attribution: Option<ninja_model::Attribution>,
}

impl VariantResult {
    /// Whether this cell holds a trustworthy measurement.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The median time, if the variant was measured successfully.
    pub fn median_s(&self) -> Option<f64> {
        if self.is_ok() {
            self.timing.as_ref().map(|t| t.median_s)
        } else {
            None
        }
    }

    /// Builds the failure cell recorded for a variant that did not
    /// produce a measurement.
    pub fn failed(variant: Variant, validated: bool, outcome: VariantOutcome) -> Self {
        Self {
            variant: variant.name().to_owned(),
            timing: None,
            checksum: 0.0,
            gflops: 0.0,
            gbs: 0.0,
            validated,
            outcome,
            attribution: None,
        }
    }
}

/// All variants of one kernel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelReport {
    /// Kernel name.
    pub kernel: String,
    /// Compute- or memory-bound classification from the suite table.
    pub bound: String,
    /// Per-variant results in ladder order.
    pub variants: Vec<VariantResult>,
}

impl KernelReport {
    fn timing_of(&self, v: Variant) -> Option<&Measurement> {
        self.variants
            .iter()
            .find(|r| r.variant == v.name())
            .filter(|r| r.is_ok())
            .and_then(|r| r.timing.as_ref())
    }

    fn time_of(&self, v: Variant) -> Option<f64> {
        self.timing_of(v).map(|t| t.median_s)
    }

    /// Measured Ninja gap on this host: `time(Naive) / time(Ninja)`.
    ///
    /// On a single-core host this captures the SIMD and algorithmic axes
    /// only; the thread axis is projected by `ninja-model`. `None` when
    /// either endpoint failed to measure.
    pub fn measured_gap(&self) -> Option<f64> {
        Some(self.time_of(Variant::Naive)? / self.time_of(Variant::Ninja)?)
    }

    /// Measured residual: `time(Algorithmic) / time(Ninja)`.
    pub fn measured_residual(&self) -> Option<f64> {
        Some(self.time_of(Variant::Algorithmic)? / self.time_of(Variant::Ninja)?)
    }

    /// Whether the algorithmic cell beat the ninja cell beyond noise: its
    /// slowest repetition ran faster than the ninja cell's fastest. The
    /// ninja rung is meant to be the ceiling; a residual under 1 that
    /// overlapping cells could explain is not flagged.
    pub fn ninja_is_not_the_ceiling(&self) -> bool {
        match (
            self.timing_of(Variant::Algorithmic),
            self.timing_of(Variant::Ninja),
        ) {
            (Some(algorithmic), Some(ninja)) => algorithmic.max_s < ninja.min_s,
            _ => false,
        }
    }

    /// Measured speedup of any variant over naive.
    pub fn speedup_over_naive(&self, v: Variant) -> Option<f64> {
        Some(self.time_of(Variant::Naive)? / self.time_of(v)?)
    }

    /// Whether this kernel is excluded from suite-level aggregates and
    /// recorded perf history: the test-only `chaos-*` fault-injection
    /// family measures harness behavior, not performance, so its timings
    /// must never contribute to gap/residual averages or the run store.
    pub fn excluded_from_aggregates(&self) -> bool {
        ninja_perfdb::kernel_is_excluded(&self.kernel)
    }

    /// The variants of this kernel that did not measure cleanly.
    pub fn failures(&self) -> impl Iterator<Item = &VariantResult> {
        self.variants.iter().filter(|v| !v.is_ok())
    }
}

/// A full suite run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Problem-size preset used.
    pub size: String,
    /// RNG seed used for input generation.
    pub seed: u64,
    /// Threads in the measurement pool.
    pub threads: usize,
    /// Active SIMD backend (`ninja_simd::isa::active().name()`).
    pub simd_backend: String,
    /// Resolved ISA dispatch backend the ninja rungs ran on (`scalar`,
    /// `sse2`, or `avx2`); empty in reports written before the
    /// width-generic dispatcher existed.
    #[serde(default)]
    pub isa: String,
    /// Per-kernel reports in suite order.
    pub kernels: Vec<KernelReport>,
    /// Vectorization evidence per (kernel, rung) from the asm oracle;
    /// empty when the run did not collect it.
    #[serde(default)]
    pub vec_profiles: Vec<VecProfileRecord>,
}

impl SuiteReport {
    /// The kernels that participate in suite-level aggregates: everything
    /// except the test-only `chaos-*` fault-injection family (see
    /// [`KernelReport::excluded_from_aggregates`]).
    pub fn aggregate_kernels(&self) -> impl Iterator<Item = &KernelReport> {
        self.kernels
            .iter()
            .filter(|k| !k.excluded_from_aggregates())
    }

    /// Geometric-mean measured Ninja gap across non-excluded kernels that
    /// measured both endpoints successfully. Injected `chaos-*` kernels
    /// never contribute, so a `--chaos` run reports the same average as a
    /// clean one.
    ///
    /// # Panics
    ///
    /// Panics if no kernel has a measurable gap.
    pub fn average_gap(&self) -> f64 {
        let gaps: Vec<f64> = self
            .aggregate_kernels()
            .filter_map(KernelReport::measured_gap)
            .collect();
        ninja_model::geomean(&gaps)
    }

    /// Geometric-mean measured residual (`Algorithmic / Ninja`) across
    /// non-excluded kernels.
    ///
    /// # Panics
    ///
    /// Panics if no kernel has a measurable residual.
    pub fn average_residual(&self) -> f64 {
        let rs: Vec<f64> = self
            .aggregate_kernels()
            .filter_map(KernelReport::measured_residual)
            .collect();
        ninja_model::geomean(&rs)
    }

    /// Looks up one kernel's report by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelReport> {
        self.kernels.iter().find(|k| k.kernel == name)
    }

    /// Every (kernel, variant) cell that did not measure cleanly.
    pub fn failures(&self) -> Vec<(&str, &VariantResult)> {
        self.kernels
            .iter()
            .flat_map(|k| k.failures().map(move |v| (k.kernel.as_str(), v)))
            .collect()
    }

    /// Whether any variant in the run failed.
    pub fn has_failures(&self) -> bool {
        self.kernels.iter().any(|k| k.failures().next().is_some())
    }

    /// A human-readable list of failures, one per line; empty when the
    /// run was clean.
    pub fn failure_summary(&self) -> String {
        let mut out = String::new();
        for (kernel, v) in self.failures() {
            out.push_str(&format!("{kernel}/{}: {}\n", v.variant, v.outcome));
        }
        out
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("suite reports are serializable")
    }

    /// Renders the report as CSV (`kernel,variant,median_s,...`).
    ///
    /// Failed variants keep their row — empty timing columns, zeroed
    /// rates — with the outcome tag in the last column, so downstream
    /// tooling sees exactly which cells are missing and why. The
    /// `roofline_pct`/`bound` columns carry the roofline attribution
    /// (empty for cells without one).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "kernel,variant,median_s,min_s,gflops,gbs,roofline_pct,bound,validated,outcome\n",
        );
        for k in &self.kernels {
            for v in &k.variants {
                let (median, min) = match &v.timing {
                    Some(t) => (format!("{:.6e}", t.median_s), format!("{:.6e}", t.min_s)),
                    None => (String::new(), String::new()),
                };
                let (roof, bound) = match &v.attribution {
                    Some(a) => (format!("{:.1}", a.roofline_pct), a.bound.clone()),
                    None => (String::new(), String::new()),
                };
                out.push_str(&format!(
                    "{},{},{},{},{:.3},{:.3},{},{},{},{}\n",
                    k.kernel,
                    v.variant,
                    median,
                    min,
                    v.gflops,
                    v.gbs,
                    roof,
                    bound,
                    v.validated,
                    v.outcome.kind()
                ));
            }
        }
        out
    }

    /// Parses a previously serialized report.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Converts the report into a `ninja-perfdb` run record for the
    /// persistent store. `chaos-*` kernels are excluded (and listed in
    /// the record's `excluded` field); failed cells of real kernels keep
    /// their outcome tag with no timing.
    ///
    /// # Panics
    ///
    /// Never panics: suite reports always serialize, and the store's
    /// suite-report ingestion accepts exactly that serialization.
    pub fn to_run_record(&self, meta: &ninja_perfdb::RecordMeta) -> ninja_perfdb::RunRecord {
        ninja_perfdb::RunRecord::from_suite_json(&self.to_json(), meta)
            .expect("a serialized SuiteReport is a valid suite report")
    }

    /// Statistical comparison against `baseline`, delegating to the
    /// `ninja-perfdb` comparator: per (kernel, variant) cell a verdict of
    /// `regressed` / `improved` / `noise` backed by a deterministic
    /// bootstrap confidence interval, with the noise floor defaulting to
    /// each cell's measured [`Measurement::spread`]. Kernels/variants
    /// missing or failed in either report are skipped (counted in the
    /// report's `skipped` list).
    pub fn compare_statistical(
        &self,
        baseline: &SuiteReport,
        cfg: &ninja_perfdb::CompareConfig,
    ) -> ninja_perfdb::ComparisonReport {
        let base = baseline.to_run_record(&ninja_perfdb::RecordMeta::synthetic(
            "baseline",
            &baseline.simd_backend,
        ));
        let cand = self.to_run_record(&ninja_perfdb::RecordMeta::synthetic(
            "self",
            &self.simd_backend,
        ));
        ninja_perfdb::compare_records(&base, &cand, cfg)
    }

    /// Renders a side-by-side comparison against `baseline` with one
    /// statistical verdict per (kernel, variant) — `regressed`,
    /// `improved`, or `noise` — instead of the naive time ratio this
    /// method used to print (a bare ratio cannot distinguish a real
    /// regression from scheduler noise). The speedup column reads
    /// `baseline_time / self_time`: values above 1 mean this report is
    /// faster. Kernels/variants missing or failed in either report are
    /// skipped.
    ///
    /// Useful for regression tracking across commits or comparing two
    /// machines' suite runs; for history-backed gating use the `perfdb`
    /// binary or `reproduce --baseline`.
    pub fn compare(&self, baseline: &SuiteReport) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "comparison: {} ({} thr) vs baseline {} ({} thr)\n",
            self.size, self.threads, baseline.size, baseline.threads
        ));
        out.push_str(
            &self
                .compare_statistical(baseline, &ninja_perfdb::CompareConfig::default())
                .render_text(),
        );
        out
    }

    /// Helper for constructing a report header.
    pub(crate) fn new_empty(size: ProblemSize, seed: u64, threads: usize) -> Self {
        Self {
            size: size.name().to_owned(),
            seed,
            threads,
            simd_backend: ninja_simd::isa::active().name().to_owned(),
            isa: ninja_simd::isa::active().name().to_owned(),
            kernels: Vec::new(),
            vec_profiles: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> SuiteReport {
        let timing = |s: f64| Measurement {
            median_s: s,
            mean_s: s,
            stddev_s: 0.0,
            min_s: s,
            max_s: s,
            runs: 1,
            samples: Vec::new(),
        };
        let vr = |name: &str, s: f64| VariantResult {
            variant: name.into(),
            timing: Some(timing(s)),
            checksum: 1.0,
            gflops: 1.0,
            gbs: 1.0,
            validated: true,
            outcome: VariantOutcome::Ok,
            attribution: None,
        };
        SuiteReport {
            size: "test".into(),
            seed: 1,
            threads: 1,
            simd_backend: "x".into(),
            isa: "sse2".into(),
            kernels: vec![KernelReport {
                kernel: "k".into(),
                bound: "compute".into(),
                variants: vec![
                    vr("naive", 8.0),
                    vr("parallel", 4.0),
                    vr("simd", 2.0),
                    vr("algorithmic", 1.3),
                    vr("ninja", 1.0),
                ],
            }],
            vec_profiles: Vec::new(),
        }
    }

    fn all_outcomes() -> Vec<VariantOutcome> {
        vec![
            VariantOutcome::Ok,
            VariantOutcome::ValidationFailed {
                reason: "rel err 0.5 at [3]".into(),
            },
            VariantOutcome::Panicked {
                message: "index out of bounds".into(),
            },
            VariantOutcome::TimedOut { budget_s: 2.5 },
            VariantOutcome::NonFinite,
        ]
    }

    #[test]
    fn gap_and_residual_math() {
        let r = dummy_report();
        let k = &r.kernels[0];
        assert_eq!(k.measured_gap(), Some(8.0));
        assert_eq!(k.measured_residual(), Some(1.3));
        assert_eq!(k.speedup_over_naive(Variant::Simd), Some(4.0));
        assert!((r.average_gap() - 8.0).abs() < 1e-12);
        assert!((r.average_residual() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let r = dummy_report();
        let back = SuiteReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn json_roundtrip_with_failures() {
        let mut r = dummy_report();
        for (v, (slot, outcome)) in r.kernels[0]
            .variants
            .iter_mut()
            .zip(Variant::ALL.into_iter().zip(all_outcomes()))
        {
            if !outcome.is_ok() {
                *v = VariantResult::failed(slot, true, outcome);
            }
        }
        assert_eq!(r.failures().len(), 4);
        let back = SuiteReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn outcome_kind_and_display() {
        let kinds: Vec<&str> = all_outcomes().iter().map(VariantOutcome::kind).collect();
        assert_eq!(
            kinds,
            [
                "ok",
                "validation_failed",
                "panicked",
                "timed_out",
                "non_finite"
            ]
        );
        let shown = format!(
            "{}",
            VariantOutcome::Panicked {
                message: "boom".into()
            }
        );
        assert_eq!(shown, "panicked: boom");
    }

    #[test]
    fn failed_variants_drop_out_of_gap_math() {
        let mut r = dummy_report();
        r.kernels[0].variants[4] = VariantResult::failed(
            Variant::Ninja,
            true,
            VariantOutcome::Panicked {
                message: "boom".into(),
            },
        );
        let k = &r.kernels[0];
        assert_eq!(k.measured_gap(), None);
        assert_eq!(k.measured_residual(), None);
        // Naive/Simd still measure.
        assert_eq!(k.speedup_over_naive(Variant::Simd), Some(4.0));
        assert_eq!(k.failures().count(), 1);
        assert!(r.has_failures());
        let fails = r.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, "k");
        assert_eq!(fails[0].1.variant, "ninja");
        assert!(r.failure_summary().contains("k/ninja: panicked: boom"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = dummy_report().to_csv();
        assert!(csv.starts_with("kernel,variant"));
        assert!(csv.lines().next().unwrap().ends_with("outcome"));
        assert_eq!(csv.lines().count(), 1 + 5);
        assert!(csv.contains("k,ninja"));
        assert!(csv.contains(",ok"));
    }

    #[test]
    fn csv_keeps_rows_for_failures() {
        let mut r = dummy_report();
        r.kernels[0].variants[2] = VariantResult::failed(
            Variant::Simd,
            true,
            VariantOutcome::TimedOut { budget_s: 1.0 },
        );
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + 5);
        let simd_row = csv.lines().find(|l| l.contains(",simd,")).unwrap();
        assert!(simd_row.ends_with("timed_out"), "{simd_row}");
        assert!(
            simd_row.contains(",,"),
            "timing columns should be empty: {simd_row}"
        );
    }

    #[test]
    fn compare_reports_speedups_with_verdicts() {
        let a = dummy_report();
        let mut b = dummy_report();
        for v in &mut b.kernels[0].variants {
            if let Some(t) = &mut v.timing {
                t.median_s *= 2.0;
                t.min_s *= 2.0;
                t.max_s *= 2.0;
            }
        }
        // Baseline is uniformly 2x slower: every cell improved.
        let cmp = a.compare(&b);
        assert!(cmp.contains("2.00X"), "{cmp}");
        assert!(cmp.contains("improved"), "{cmp}");
        assert!(!cmp.contains("regressed,"), "{cmp}");
        let verdicts = a.compare_statistical(&b, &ninja_perfdb::CompareConfig::default());
        assert!(verdicts
            .cells
            .iter()
            .all(|c| c.verdict == ninja_perfdb::Verdict::Improved));
        assert!(!verdicts.has_regressions());
        // The reverse direction is a confirmed regression.
        let reverse = b.compare_statistical(&a, &ninja_perfdb::CompareConfig::default());
        assert!(reverse.has_regressions());
        // Missing kernels are skipped silently.
        let empty = SuiteReport {
            kernels: Vec::new(),
            ..dummy_report()
        };
        let cmp2 = a.compare(&empty);
        assert!(!cmp2.contains("naive"));
        // Failed variants are skipped too.
        let mut c = dummy_report();
        c.kernels[0].variants[0] =
            VariantResult::failed(Variant::Naive, true, VariantOutcome::NonFinite);
        let cmp3 = a.compare(&c);
        assert!(!cmp3.contains("naive"));
        assert!(cmp3.contains("parallel"));
    }

    #[test]
    fn self_comparison_is_all_noise() {
        let a = dummy_report();
        let r = a.compare_statistical(&a, &ninja_perfdb::CompareConfig::default());
        assert_eq!(r.cells.len(), 5);
        assert!(r
            .cells
            .iter()
            .all(|c| c.verdict == ninja_perfdb::Verdict::Noise));
        assert_eq!(r.overall(), ninja_perfdb::Verdict::Noise);
        assert!(a.compare(&a).contains("noise"));
    }

    fn with_chaos_kernel(mut r: SuiteReport) -> SuiteReport {
        let mut chaos = r.kernels[0].clone();
        chaos.kernel = "chaos-panic".into();
        // Absurd timings that would wreck the averages if counted.
        for v in &mut chaos.variants {
            if let Some(t) = &mut v.timing {
                t.median_s *= 1000.0;
            }
        }
        // Make the chaos ladder flat so its gap would be 1.0.
        let naive = chaos.variants[0].timing.clone();
        for v in &mut chaos.variants {
            v.timing = naive.clone();
        }
        r.kernels.push(chaos);
        r
    }

    #[test]
    fn chaos_kernels_are_excluded_from_aggregates() {
        let clean = dummy_report();
        let with_chaos = with_chaos_kernel(dummy_report());
        assert!(with_chaos.kernels[1].excluded_from_aggregates());
        assert!(!with_chaos.kernels[0].excluded_from_aggregates());
        // The chaos ladder (gap 1.0) would drag the geomean to sqrt(8);
        // exclusion keeps both aggregates identical to the clean run.
        assert!((with_chaos.average_gap() - clean.average_gap()).abs() < 1e-12);
        assert!((with_chaos.average_residual() - clean.average_residual()).abs() < 1e-12);
        assert_eq!(with_chaos.aggregate_kernels().count(), 1);
    }

    #[test]
    fn run_records_exclude_chaos_kernels() {
        let r = with_chaos_kernel(dummy_report());
        let meta = ninja_perfdb::RecordMeta::synthetic("test-run", &r.simd_backend);
        let rec = r.to_run_record(&meta);
        assert_eq!(rec.id, "test-run");
        assert_eq!(rec.excluded, ["chaos-panic"]);
        assert_eq!(rec.kernels(), ["k"]);
        assert_eq!(rec.cells.len(), 5);
        assert_eq!(rec.size, r.size);
        assert_eq!(rec.seed, r.seed);
        assert_eq!(rec.machine.simd_backend, r.simd_backend);
        assert!((rec.measured_gap("k").unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn vec_profiles_roundtrip_and_tolerate_old_reports() {
        let mut r = dummy_report();
        r.vec_profiles.push(VecProfileRecord {
            kernel: "k".into(),
            rung: "ninja".into(),
            width_bits: 256,
            fma: true,
            gather: false,
            scatter: false,
            vector_fp_ops: 40,
            scalar_fp_ops: 2,
            vector_int_ops: 3,
            matched_symbols: 1,
            classification: "vec256".into(),
        });
        let back = SuiteReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
        // A report serialized before the field existed still parses: rename
        // the key so the lookup misses (extra keys are ignored).
        let legacy = dummy_report()
            .to_json()
            .replace("vec_profiles", "not_a_known_field");
        let old = SuiteReport::from_json(&legacy).unwrap();
        assert!(old.vec_profiles.is_empty());
    }

    #[test]
    fn isa_field_roundtrips_and_tolerates_old_reports() {
        let r = dummy_report();
        assert!(r.to_json().contains("\"isa\": \"sse2\""));
        let back = SuiteReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.isa, "sse2");
        // A report serialized before the dispatcher existed still parses,
        // with an empty backend name.
        let legacy = r.to_json().replace("\"isa\"", "\"not_a_known_field\"");
        let old = SuiteReport::from_json(&legacy).unwrap();
        assert!(old.isa.is_empty());
        assert_eq!(old.kernels, r.kernels);
    }

    #[test]
    fn kernel_lookup() {
        let r = dummy_report();
        assert!(r.kernel("k").is_some());
        assert!(r.kernel("missing").is_none());
    }
}
