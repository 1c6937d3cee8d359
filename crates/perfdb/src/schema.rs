//! The schema-versioned run record: one JSONL line per suite run.
//!
//! A [`RunRecord`] is a point-in-time snapshot of a measurement run —
//! machine fingerprint, git commit, timestamp, and the per-(kernel,
//! variant) timing summaries — stored append-only so the perf history of
//! the repository survives across commits and machines. Records are
//! ingested from the `suite_report.json` the harness already writes (the
//! store never re-runs kernels), and test-only `chaos-*` kernels are
//! excluded at ingestion time so fault-injection runs can never pollute
//! the history.

use crate::store::Record;
use serde::{Deserialize, Serialize};

/// Version stamped into every record; bump on breaking schema changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Kernel-name prefix of the fault-injection kernels that must never be
/// recorded (`chaos-panic`, `chaos-hang`, ...).
pub const EXCLUDED_KERNEL_PREFIX: &str = "chaos";

/// Whether a kernel is excluded from recorded runs and trend aggregates.
///
/// The `chaos` family exists to test the harness's failure handling; its
/// timings are meaningless, so the store refuses to ingest them.
pub fn kernel_is_excluded(name: &str) -> bool {
    name == EXCLUDED_KERNEL_PREFIX
        || name
            .strip_prefix(EXCLUDED_KERNEL_PREFIX)
            .is_some_and(|rest| rest.starts_with('-'))
}

/// Timing summary of one measured cell — a mirror of the harness's
/// `Measurement` (median-of-N wall-clock repetitions).
///
/// All time fields are in seconds.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Median wall-clock seconds across repetitions.
    pub median_s: f64,
    /// Arithmetic mean across repetitions.
    pub mean_s: f64,
    /// Sample standard deviation across repetitions.
    pub stddev_s: f64,
    /// Fastest repetition.
    pub min_s: f64,
    /// Slowest repetition.
    pub max_s: f64,
    /// Number of timed repetitions.
    pub runs: u32,
}

impl Sample {
    /// Relative spread `(max − min) / median`: dimensionless, in units of
    /// the median — the same contract as `Measurement::spread()` in
    /// `ninja-core`, and the default per-cell noise floor of the
    /// comparator.
    pub fn spread(&self) -> f64 {
        if self.median_s == 0.0 {
            0.0
        } else {
            (self.max_s - self.min_s) / self.median_s
        }
    }

    /// Whether the summary is internally consistent (finite, ordered,
    /// positive median). The comparator skips cells that fail this.
    pub fn is_sane(&self) -> bool {
        self.median_s.is_finite()
            && self.min_s.is_finite()
            && self.max_s.is_finite()
            && self.median_s > 0.0
            && self.min_s <= self.median_s
            && self.median_s <= self.max_s
            && self.runs > 0
    }

    /// The sample scaled by `factor` (used by tests and fixtures to build
    /// synthetic slowdowns with the same relative spread).
    pub fn scaled(&self, factor: f64) -> Sample {
        Sample {
            median_s: self.median_s * factor,
            mean_s: self.mean_s * factor,
            stddev_s: self.stddev_s * factor,
            min_s: self.min_s * factor,
            max_s: self.max_s * factor,
            runs: self.runs,
        }
    }
}

/// Roofline attribution of one measured cell — a mirror of
/// `ninja_model::Attribution` (this crate stays a std + serde-stand-in
/// leaf, so it names the fields rather than importing the type).
///
/// `pool_imbalance`/`pool_idle_pct` are zero when the run had probe
/// metrics off (no pool window was recorded).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellAttribution {
    /// Achieved arithmetic throughput, GFLOP/s.
    pub achieved_gflops: f64,
    /// Achieved memory traffic, GB/s.
    pub achieved_gbs: f64,
    /// Percent of the machine roofline the cell reached (0-100).
    pub roofline_pct: f64,
    /// Bound classification: `compute`, `bandwidth`, or `poorly-utilized`.
    pub bound: String,
    /// Thread-pool imbalance ratio over the cell's window (1.0 = even).
    pub pool_imbalance: f64,
    /// Percent of the pool's thread-time spent idle over the window.
    pub pool_idle_pct: f64,
    /// Stolen share of the pool jobs executed over the window: `join`
    /// forks run by a lane other than their caller (0.0 when not
    /// collected, or when the cell never called `join`).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub pool_steal_ratio: f64,
}

/// `skip_serializing_if` predicate: a ratio of exactly zero stays off the
/// wire.
fn is_zero(x: &f64) -> bool {
    *x == 0.0
}

impl CellAttribution {
    /// Whether a thread-pool utilization window was recorded for the cell.
    pub fn has_pool_data(&self) -> bool {
        self.pool_imbalance > 0.0
    }
}

/// Hardware-counter metrics measured for one cell — a mirror of the
/// measured subset of `ninja_model::Attribution`, recorded only for runs
/// where `perf_event_open` was available. Every field is optional: a
/// partially-admitted counter group reports what it saw.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellCounters {
    /// Measured instructions per cycle over the timed reps.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ipc: Option<f64>,
    /// Measured LLC miss rate in `[0, 1]`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub llc_miss_rate: Option<f64>,
    /// DRAM traffic estimated from LLC miss traffic, GB/s.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dram_gbs: Option<f64>,
    /// Bound classification the hardware measured (`compute` /
    /// `bandwidth` / `poorly-utilized`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub measured_bound: Option<String>,
    /// Whether the measured bound agreed with the modeled one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub agreement: Option<bool>,
}

impl CellCounters {
    /// Whether any measured field is populated.
    pub fn any_present(&self) -> bool {
        self.ipc.is_some()
            || self.llc_miss_rate.is_some()
            || self.dram_gbs.is_some()
            || self.measured_bound.is_some()
            || self.agreement.is_some()
    }
}

/// One recorded (kernel, variant) cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Kernel name (as in the suite registry).
    pub kernel: String,
    /// Variant rung (`naive`..`ninja`).
    pub variant: String,
    /// Outcome tag (`ok|validation_failed|panicked|timed_out|non_finite`).
    pub outcome: String,
    /// Timing summary; `null` when the variant failed before measuring.
    pub sample: Option<Sample>,
    /// Roofline attribution; `None` for failed cells and for records
    /// written before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub attribution: Option<CellAttribution>,
    /// Hardware-counter metrics; `None` for failed cells, for runs
    /// measured without (or denied) `perf_event_open`, and for records
    /// written before the field existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub counters: Option<CellCounters>,
}

impl CellRecord {
    /// Whether this cell holds a trustworthy, comparable measurement.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok" && self.sample.as_ref().is_some_and(Sample::is_sane)
    }
}

/// Assembly-level vectorization evidence for one (kernel, rung) cell — the
/// entry type of the suite report's `vec_profiles` too (`ninja-core`
/// re-exports it). Recorded by `ninja-lint --asm` and carried through
/// `reproduce --record` so `perfdb compare` can attribute a timing shift
/// to a codegen change ("vector width changed 256 → 128").
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VecProfileRecord {
    /// Kernel module name.
    pub kernel: String,
    /// Rung name (`naive`/`parallel`/`simd`/`algorithmic`/`ninja`).
    pub rung: String,
    /// Widest vector register observed (bits); 0 for scalar code.
    pub width_bits: u32,
    /// Whether fused multiply-add instructions appeared.
    pub fma: bool,
    /// Whether vector gather loads appeared.
    pub gather: bool,
    /// Whether vector scatter stores appeared.
    pub scatter: bool,
    /// Packed floating-point arithmetic instruction count.
    pub vector_fp_ops: u32,
    /// Scalar floating-point arithmetic instruction count.
    pub scalar_fp_ops: u32,
    /// Integer vector arithmetic/shuffle instruction count.
    pub vector_int_ops: u32,
    /// Listing symbols attributed to this rung's entry points.
    pub matched_symbols: u32,
    /// Summary tag: `no-evidence`, `scalar`, `vec64` … `vec512`.
    pub classification: String,
}

/// Where a run was measured: enough to tell apples from oranges when
/// comparing records, without pretending two hosts are interchangeable.
///
/// The `calibrated_*` fields reuse the calibratable subset of
/// `ninja_model::machines::Machine` (frequency from the measured scalar
/// rate, effective SIMD lanes, streaming bandwidth); they are optional
/// because calibration costs ~1 s and quick CI runs skip it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MachineFingerprint {
    /// Host name (from `/proc/sys/kernel/hostname` or `$HOSTNAME`).
    pub hostname: String,
    /// Logical cores visible to the process.
    pub logical_cores: u32,
    /// Active SIMD backend (`ninja_simd::isa::active().name()` via the
    /// suite report).
    pub simd_backend: String,
    /// Calibrated core frequency proxy in GHz (scalar GFLOP/s ÷ 2),
    /// `None` when calibration was skipped.
    pub calibrated_freq_ghz: Option<f64>,
    /// Calibrated effective SIMD width in `f32` lanes.
    pub calibrated_simd_f32_lanes: Option<u32>,
    /// Calibrated single-core streaming bandwidth, GB/s.
    pub calibrated_core_bandwidth_gbs: Option<f64>,
}

impl MachineFingerprint {
    /// Detects hostname and core count from the environment; calibrated
    /// fields start empty (fill them from `ninja_model::calibrate` when
    /// the ~1 s cost is acceptable).
    pub fn detect(simd_backend: &str) -> Self {
        Self {
            hostname: detect_hostname(),
            logical_cores: std::thread::available_parallelism()
                .map(|n| n.get() as u32)
                .unwrap_or(1),
            simd_backend: simd_backend.to_owned(),
            calibrated_freq_ghz: None,
            calibrated_simd_f32_lanes: None,
            calibrated_core_bandwidth_gbs: None,
        }
    }

    /// A fixed fingerprint for in-memory conversions and tests: no I/O,
    /// fully deterministic.
    pub fn synthetic(simd_backend: &str) -> Self {
        Self {
            hostname: "in-memory".to_owned(),
            logical_cores: 1,
            simd_backend: simd_backend.to_owned(),
            calibrated_freq_ghz: None,
            calibrated_simd_f32_lanes: None,
            calibrated_core_bandwidth_gbs: None,
        }
    }
}

fn detect_hostname() -> String {
    if let Ok(s) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let s = s.trim();
        if !s.is_empty() {
            return s.to_owned();
        }
    }
    std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown-host".to_owned())
}

/// Metadata attached to a record at ingestion time (everything the suite
/// report itself does not know).
#[derive(Clone, Debug)]
pub struct RecordMeta {
    /// Record id; `None` derives a content-based id.
    pub id: Option<String>,
    /// Unix timestamp (seconds) of the run.
    pub timestamp_unix_s: u64,
    /// Git commit the run measured (short hash, or `unknown`).
    pub git_commit: String,
    /// Where the run was measured.
    pub machine: MachineFingerprint,
}

impl RecordMeta {
    /// Detects timestamp, commit, and machine from the environment.
    pub fn detect(simd_backend: &str) -> Self {
        Self {
            id: None,
            timestamp_unix_s: now_unix(),
            git_commit: detect_git_commit(),
            machine: MachineFingerprint::detect(simd_backend),
        }
    }

    /// A deterministic meta for in-memory conversions: fixed id, zero
    /// timestamp, no environment probes.
    pub fn synthetic(id: &str, simd_backend: &str) -> Self {
        Self {
            id: Some(id.to_owned()),
            timestamp_unix_s: 0,
            git_commit: "unknown".to_owned(),
            machine: MachineFingerprint::synthetic(simd_backend),
        }
    }
}

/// Current Unix time in seconds (0 if the clock is before the epoch).
pub fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Short hash of `HEAD`, or `"unknown"` outside a git checkout.
pub fn detect_git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One suite run, as stored (one JSONL line per record).
///
/// Declaration order is wire order: `isa` and `vec_profiles` were added
/// after `cells` and are written after it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Unique record id (content-derived unless supplied).
    pub id: String,
    /// Unix timestamp (seconds) of the run.
    pub timestamp_unix_s: u64,
    /// Git commit measured.
    pub git_commit: String,
    /// Where the run was measured.
    pub machine: MachineFingerprint,
    /// Problem-size preset of the run.
    pub size: String,
    /// Input-generation seed.
    pub seed: u64,
    /// Pool threads used by parallel variants.
    pub threads: usize,
    /// Kernels present in the suite report but excluded from the record
    /// (currently: the `chaos-*` fault-injection family).
    pub excluded: Vec<String>,
    /// Recorded cells, suite order.
    pub cells: Vec<CellRecord>,
    /// Resolved ISA dispatch backend the ninja rungs ran on (`scalar`,
    /// `sse2`, `avx2`); empty for records written before the
    /// width-generic dispatcher existed.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub isa: String,
    /// Vectorization evidence per (kernel, rung); empty for runs recorded
    /// without the asm oracle (and for every record written before the
    /// field existed).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub vec_profiles: Vec<VecProfileRecord>,
}

impl Record for RunRecord {
    const FILE: &'static str = "runs.jsonl";

    fn id(&self) -> &str {
        &self.id
    }

    fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

// ---- suite_report.json wire mirror -------------------------------------
//
// The store ingests the JSON the harness already writes instead of
// depending on `ninja-core` (this crate stays a std + serde-stand-in
// leaf, like `ninja-lint`). The mirror structs name only the fields the
// record needs; extra fields in the JSON are ignored by the value-model
// deserializer.

#[derive(Deserialize)]
struct OutcomeWire {
    kind: String,
}

/// The suite report's attribution object: the modeled placement plus the
/// measured-counter fields `ninja_model::Attribution` inlines next to it.
#[derive(Deserialize)]
struct AttributionWire {
    achieved_gflops: f64,
    achieved_gbs: f64,
    roofline_pct: f64,
    bound: String,
    pool_imbalance: f64,
    pool_idle_pct: f64,
    #[serde(default)]
    pool_steal_ratio: f64,
    #[serde(default)]
    measured_ipc: Option<f64>,
    #[serde(default)]
    measured_llc_miss_rate: Option<f64>,
    #[serde(default)]
    measured_dram_gbs: Option<f64>,
    #[serde(default)]
    measured_bound: Option<String>,
    #[serde(default)]
    agreement: Option<bool>,
}

impl AttributionWire {
    /// Splits the object into the record's modeled attribution and its
    /// measured counters (`None` when the run carried no counter data).
    fn split(self) -> (CellAttribution, Option<CellCounters>) {
        let counters = CellCounters {
            ipc: self.measured_ipc,
            llc_miss_rate: self.measured_llc_miss_rate,
            dram_gbs: self.measured_dram_gbs,
            measured_bound: self.measured_bound,
            agreement: self.agreement,
        };
        let attribution = CellAttribution {
            achieved_gflops: self.achieved_gflops,
            achieved_gbs: self.achieved_gbs,
            roofline_pct: self.roofline_pct,
            bound: self.bound,
            pool_imbalance: self.pool_imbalance,
            pool_idle_pct: self.pool_idle_pct,
            pool_steal_ratio: self.pool_steal_ratio,
        };
        (attribution, counters.any_present().then_some(counters))
    }
}

#[derive(Deserialize)]
struct VariantWire {
    variant: String,
    timing: Option<Sample>,
    outcome: OutcomeWire,
    #[serde(default)]
    attribution: Option<AttributionWire>,
}

#[derive(Deserialize)]
struct KernelWire {
    kernel: String,
    variants: Vec<VariantWire>,
}

#[derive(Deserialize)]
struct SuiteWire {
    size: String,
    seed: u64,
    threads: usize,
    simd_backend: String,
    #[serde(default)]
    isa: String,
    kernels: Vec<KernelWire>,
    #[serde(default)]
    vec_profiles: Vec<VecProfileRecord>,
}

impl RunRecord {
    /// Builds a record from a serialized `SuiteReport` (the
    /// `suite_report.json` the `reproduce` binary writes).
    ///
    /// `chaos-*` kernels are dropped and listed in
    /// [`excluded`](RunRecord::excluded); failed cells of real kernels
    /// are kept with their outcome tag and no sample.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON does not parse as a suite report.
    pub fn from_suite_json(json: &str, meta: &RecordMeta) -> Result<Self, String> {
        let suite: SuiteWire =
            serde_json::from_str(json).map_err(|e| format!("not a suite report: {e}"))?;
        let mut excluded = Vec::new();
        let mut cells = Vec::new();
        for k in suite.kernels {
            if kernel_is_excluded(&k.kernel) {
                excluded.push(k.kernel);
                continue;
            }
            for v in k.variants {
                let ok = v.outcome.kind == "ok";
                let (attribution, counters) = match v.attribution {
                    Some(a) if ok => {
                        let (attribution, counters) = a.split();
                        (Some(attribution), counters)
                    }
                    _ => (None, None),
                };
                cells.push(CellRecord {
                    kernel: k.kernel.clone(),
                    variant: v.variant,
                    outcome: v.outcome.kind,
                    sample: if ok { v.timing } else { None },
                    attribution,
                    counters,
                });
            }
        }
        let vec_profiles = suite
            .vec_profiles
            .into_iter()
            .filter(|p| !kernel_is_excluded(&p.kernel))
            .collect();
        let mut record = RunRecord {
            schema_version: SCHEMA_VERSION,
            id: String::new(),
            timestamp_unix_s: meta.timestamp_unix_s,
            git_commit: meta.git_commit.clone(),
            machine: meta.machine.clone(),
            size: suite.size,
            seed: suite.seed,
            threads: suite.threads,
            isa: suite.isa,
            excluded,
            cells,
            vec_profiles,
        };
        // The suite report carries the authoritative backend name.
        record.machine.simd_backend = suite.simd_backend;
        record.id = match &meta.id {
            Some(id) => id.clone(),
            None => record.derive_id(),
        };
        Ok(record)
    }

    /// Content-derived id: `run-<fnv64 of the identifying fields>`.
    pub fn derive_id(&self) -> String {
        let mut h = fnv1a64(b"ninja-perfdb");
        for part in [
            self.git_commit.as_str(),
            self.machine.hostname.as_str(),
            self.size.as_str(),
            self.isa.as_str(),
        ] {
            h = fnv1a64_continue(h, part.as_bytes());
        }
        h = fnv1a64_continue(h, &self.timestamp_unix_s.to_le_bytes());
        h = fnv1a64_continue(h, &self.seed.to_le_bytes());
        h = fnv1a64_continue(h, &(self.cells.len() as u64).to_le_bytes());
        format!("run-{h:016x}")
    }

    /// Looks up one cell.
    pub fn cell(&self, kernel: &str, variant: &str) -> Option<&CellRecord> {
        self.cells
            .iter()
            .find(|c| c.kernel == kernel && c.variant == variant)
    }

    /// Looks up the vectorization evidence recorded for one (kernel,
    /// rung) cell, when the run carried the asm oracle's profiles.
    pub fn vec_profile(&self, kernel: &str, variant: &str) -> Option<&VecProfileRecord> {
        self.vec_profiles
            .iter()
            .find(|p| p.kernel == kernel && p.rung == variant)
    }

    /// Kernel names present in the record, in first-seen order.
    pub fn kernels(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.kernel.as_str()) {
                names.push(&c.kernel);
            }
        }
        names
    }

    /// Median seconds of one cell, when it measured cleanly.
    pub fn median_s(&self, kernel: &str, variant: &str) -> Option<f64> {
        let c = self.cell(kernel, variant)?;
        if c.is_ok() {
            c.sample.map(|s| s.median_s)
        } else {
            None
        }
    }

    /// Measured Ninja gap of one kernel: `time(naive) / time(ninja)`.
    pub fn measured_gap(&self, kernel: &str) -> Option<f64> {
        Some(self.median_s(kernel, "naive")? / self.median_s(kernel, "ninja")?)
    }

    /// Measured residual of one kernel: `time(algorithmic) / time(ninja)`.
    pub fn measured_residual(&self, kernel: &str) -> Option<f64> {
        Some(self.median_s(kernel, "algorithmic")? / self.median_s(kernel, "ninja")?)
    }
}

/// FNV-1a over one buffer.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes.
pub(crate) fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(median: f64, rel_spread: f64) -> Sample {
        Sample {
            median_s: median,
            mean_s: median,
            stddev_s: median * rel_spread / 4.0,
            min_s: median * (1.0 - rel_spread / 2.0),
            max_s: median * (1.0 + rel_spread / 2.0),
            runs: 5,
        }
    }

    fn suite_json() -> String {
        // Hand-built fragment of a suite_report.json: one real kernel, one
        // chaos kernel, one failed cell.
        r#"{
          "size": "test", "seed": 42, "threads": 2, "simd_backend": "sse-intrinsics",
          "kernels": [
            {"kernel": "nbody", "bound": "compute", "variants": [
              {"variant": "naive", "timing": {"median_s": 8.0, "mean_s": 8.0, "stddev_s": 0.1,
               "min_s": 7.9, "max_s": 8.2, "runs": 3}, "checksum": 1.0, "gflops": 1.0,
               "gbs": 1.0, "validated": true, "outcome": {"kind": "ok"},
               "attribution": {"achieved_gflops": 1.0, "achieved_gbs": 1.0,
                "roofline_pct": 4.2, "bound": "compute",
                "pool_imbalance": 1.1, "pool_idle_pct": 12.0}},
              {"variant": "ninja", "timing": null, "checksum": 0.0, "gflops": 0.0,
               "gbs": 0.0, "validated": true, "outcome": {"kind": "panicked", "message": "boom"}}
            ]},
            {"kernel": "chaos-panic", "bound": "compute", "variants": [
              {"variant": "naive", "timing": {"median_s": 1.0, "mean_s": 1.0, "stddev_s": 0.0,
               "min_s": 1.0, "max_s": 1.0, "runs": 1}, "checksum": 1.0, "gflops": 1.0,
               "gbs": 1.0, "validated": true, "outcome": {"kind": "ok"}}
            ]}
          ]
        }"#
        .to_owned()
    }

    #[test]
    fn ingestion_excludes_chaos_and_keeps_failures() {
        let meta = RecordMeta::synthetic("r1", "scalar");
        let rec = RunRecord::from_suite_json(&suite_json(), &meta).unwrap();
        assert_eq!(rec.id, "r1");
        assert_eq!(rec.excluded, ["chaos-panic"]);
        assert_eq!(rec.kernels(), ["nbody"]);
        assert_eq!(rec.cells.len(), 2);
        let naive = rec.cell("nbody", "naive").unwrap();
        assert!(naive.is_ok());
        let attr = naive.attribution.as_ref().expect("attribution ingested");
        assert_eq!(attr.bound, "compute");
        assert!((attr.roofline_pct - 4.2).abs() < 1e-12);
        assert!(attr.has_pool_data());
        let failed = rec.cell("nbody", "ninja").unwrap();
        assert_eq!(failed.outcome, "panicked");
        assert!(failed.sample.is_none());
        assert!(failed.attribution.is_none());
        assert!(!failed.is_ok());
        // The report's backend wins over the meta placeholder.
        assert_eq!(rec.machine.simd_backend, "sse-intrinsics");
    }

    #[test]
    fn chaos_name_matching_is_exact_prefix() {
        assert!(kernel_is_excluded("chaos"));
        assert!(kernel_is_excluded("chaos-panic"));
        assert!(kernel_is_excluded("chaos-hang"));
        assert!(!kernel_is_excluded("chaotic_flow"));
        assert!(!kernel_is_excluded("nbody"));
    }

    #[test]
    fn jsonl_roundtrip_and_schema_check() {
        let meta = RecordMeta::synthetic("r2", "scalar");
        let rec = RunRecord::from_suite_json(&suite_json(), &meta).unwrap();
        let back = RunRecord::from_jsonl_line(&rec.to_jsonl_line()).unwrap();
        assert_eq!(rec, back);

        let mut foreign = rec.clone();
        foreign.schema_version = SCHEMA_VERSION + 1;
        let err = RunRecord::from_jsonl_line(&foreign.to_jsonl_line()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn derived_ids_are_stable_and_content_sensitive() {
        let meta = RecordMeta {
            id: None,
            ..RecordMeta::synthetic("unused", "scalar")
        };
        let a = RunRecord::from_suite_json(&suite_json(), &meta).unwrap();
        let b = RunRecord::from_suite_json(&suite_json(), &meta).unwrap();
        assert_eq!(a.id, b.id, "same content, same id");
        assert!(a.id.starts_with("run-"));
        let other_meta = RecordMeta {
            id: None,
            timestamp_unix_s: 12345,
            ..meta
        };
        let c = RunRecord::from_suite_json(&suite_json(), &other_meta).unwrap();
        assert_ne!(a.id, c.id, "different timestamp, different id");
    }

    #[test]
    fn gap_and_residual_from_cells() {
        let rec = RunRecord {
            schema_version: SCHEMA_VERSION,
            id: "r".into(),
            timestamp_unix_s: 0,
            git_commit: "unknown".into(),
            machine: MachineFingerprint::synthetic("scalar"),
            size: "test".into(),
            seed: 1,
            threads: 1,
            isa: String::new(),
            excluded: Vec::new(),
            cells: vec![
                CellRecord {
                    kernel: "k".into(),
                    variant: "naive".into(),
                    outcome: "ok".into(),
                    sample: Some(sample(8.0, 0.05)),
                    attribution: None,
                    counters: None,
                },
                CellRecord {
                    kernel: "k".into(),
                    variant: "algorithmic".into(),
                    outcome: "ok".into(),
                    sample: Some(sample(1.3, 0.05)),
                    attribution: None,
                    counters: None,
                },
                CellRecord {
                    kernel: "k".into(),
                    variant: "ninja".into(),
                    outcome: "ok".into(),
                    sample: Some(sample(1.0, 0.05)),
                    attribution: None,
                    counters: None,
                },
            ],
            vec_profiles: Vec::new(),
        };
        assert!((rec.measured_gap("k").unwrap() - 8.0).abs() < 1e-12);
        assert!((rec.measured_residual("k").unwrap() - 1.3).abs() < 1e-12);
        assert_eq!(rec.measured_gap("missing"), None);
    }

    #[test]
    fn suite_ingestion_splits_measured_fields_into_cell_counters() {
        // A suite report whose attribution carries the measured-counter
        // fields: the record keeps the modeled attribution and splits the
        // measured subset into `counters`.
        let json = suite_json().replacen(
            r#""pool_imbalance": 1.1, "pool_idle_pct": 12.0"#,
            r#""pool_imbalance": 1.1, "pool_idle_pct": 12.0,
               "measured_ipc": 1.7, "measured_llc_miss_rate": 0.08,
               "measured_dram_gbs": 24.5, "measured_bound": "bandwidth",
               "agreement": false"#,
            1,
        );
        let meta = RecordMeta::synthetic("r6", "scalar");
        let rec = RunRecord::from_suite_json(&json, &meta).unwrap();
        let naive = rec.cell("nbody", "naive").unwrap();
        let c = naive.counters.as_ref().expect("counters ingested");
        assert_eq!(c.ipc, Some(1.7));
        assert_eq!(c.measured_bound.as_deref(), Some("bandwidth"));
        assert_eq!(c.agreement, Some(false));
        // The counter-free cell in the same report stays counter-free,
        // and the whole record round-trips through JSONL.
        assert!(rec.cell("nbody", "ninja").unwrap().counters.is_none());
        let back = RunRecord::from_jsonl_line(&rec.to_jsonl_line()).unwrap();
        assert_eq!(rec, back);
        // A measured field of the wrong type fails ingestion instead of
        // silently dropping the counter.
        let malformed = json.replace(r#""measured_ipc": 1.7"#, r#""measured_ipc": "fast""#);
        let err = RunRecord::from_suite_json(&malformed, &meta).unwrap_err();
        assert!(err.contains("not a suite report"), "{err}");
    }

    pub(crate) fn profile(kernel: &str, rung: &str, width: u32, fma: bool) -> VecProfileRecord {
        VecProfileRecord {
            kernel: kernel.into(),
            rung: rung.into(),
            width_bits: width,
            fma,
            gather: false,
            scatter: false,
            vector_fp_ops: if width > 0 { 40 } else { 0 },
            scalar_fp_ops: 4,
            vector_int_ops: 0,
            matched_symbols: 1,
            classification: match width {
                0 => "scalar".into(),
                w => format!("vec{w}"),
            },
        }
    }

    /// `attribution`, `counters` (and each counter), `pool_steal_ratio`,
    /// `isa` and `vec_profiles` were all added after the first release and
    /// follow the one tolerance contract (DESIGN.md, "Run store").
    #[test]
    fn later_added_fields_are_omitted_when_empty_and_tolerated_when_absent() {
        // A suite report from before any of them existed.
        let meta = RecordMeta::synthetic("r4", "scalar");
        let bare = RunRecord::from_suite_json(&suite_json(), &meta).unwrap();
        assert!(bare.isa.is_empty() && bare.vec_profiles.is_empty());
        let line = bare.to_jsonl_line();
        for key in ["\"isa\"", "vec_profiles", "counters", "pool_steal_ratio"] {
            assert!(
                !line.contains(key),
                "empty {key} stays off the wire: {line}"
            );
        }
        let failed = serde_json::to_string(bare.cell("nbody", "ninja").unwrap()).unwrap();
        assert!(!failed.contains("attribution"), "{failed}");
        // That line is exactly what old stores contain, and reads back with
        // every absent field defaulted.
        assert_eq!(RunRecord::from_jsonl_line(&line).unwrap(), bare);
        let legacy_cell = r#"{"kernel":"k","variant":"naive","outcome":"ok","sample":null}"#;
        let cell: CellRecord = serde_json::from_str(legacy_cell).unwrap();
        assert!(cell.attribution.is_none() && cell.counters.is_none());

        // Populated, every one of them round-trips.
        let mut full = bare.clone();
        full.isa = "avx2".into();
        full.vec_profiles.push(profile("nbody", "ninja", 256, true));
        full.cells[0].attribution.as_mut().unwrap().pool_steal_ratio = 0.4;
        full.cells[0].counters = Some(CellCounters {
            ipc: Some(1.42),
            llc_miss_rate: Some(0.12),
            dram_gbs: Some(21.5),
            measured_bound: Some("bandwidth".into()),
            agreement: Some(true),
        });
        let back = RunRecord::from_jsonl_line(&full.to_jsonl_line()).unwrap();
        assert_eq!(back, full);
        assert_eq!(back.vec_profile("nbody", "ninja").unwrap().width_bits, 256);
        assert!(back.vec_profile("nbody", "naive").is_none());
        // A partially-admitted counter group writes only what it saw.
        let mut partial = full.cells[0].clone();
        partial.counters = Some(CellCounters {
            ipc: Some(0.8),
            llc_miss_rate: None,
            dram_gbs: None,
            measured_bound: None,
            agreement: None,
        });
        let json = serde_json::to_string(&partial).unwrap();
        assert!(!json.contains("llc_miss_rate"), "{json}");
        assert_eq!(serde_json::from_str::<CellRecord>(&json).unwrap(), partial);

        // Absent is tolerated; present but malformed is not. (`CellCounters`
        // has only optional fields, so a non-object once read as all-`None`.)
        for bad in [
            r#""attribution":7"#,
            r#""counters":"garbage""#,
            r#""counters":7"#,
            r#""counters":{"ipc":"fast"}"#,
        ] {
            let malformed = legacy_cell.replace("}", &format!(",{bad}}}"));
            let got = serde_json::from_str::<CellRecord>(&malformed);
            assert!(got.is_err(), "{malformed} -> {got:?}");
        }
        for malformed in [
            line.replace("]}", r#"],"vec_profiles":"x"}"#),
            line.replace("]}", r#"],"isa":7}"#),
            r#""not an object""#.to_owned(),
        ] {
            let got = RunRecord::from_jsonl_line(&malformed);
            assert!(got.is_err(), "{malformed} -> {got:?}");
        }
    }

    #[test]
    fn derived_ids_distinguish_forced_isa_backends() {
        // Two runs identical except for the resolved backend (the
        // forced-backend CI matrix produces exactly this) must not
        // collide on a content-derived id.
        let meta = RecordMeta {
            id: None,
            ..RecordMeta::synthetic("unused", "scalar")
        };
        let a = RunRecord::from_suite_json(&suite_json(), &meta).unwrap();
        let forced = suite_json().replacen(
            r#""simd_backend": "sse-intrinsics","#,
            r#""simd_backend": "sse-intrinsics", "isa": "sse2","#,
            1,
        );
        let b = RunRecord::from_suite_json(&forced, &meta).unwrap();
        assert_eq!((a.isa.as_str(), b.isa.as_str()), ("", "sse2"));
        assert_ne!(a.id, b.id, "different isa, different id");
    }

    #[test]
    fn suite_ingestion_carries_profiles_and_drops_chaos() {
        // Splice a vec_profiles array (one real kernel, one chaos) into
        // the suite JSON the harness writes.
        let json = suite_json().replacen(
            "\"kernels\":",
            r#""vec_profiles": [
              {"kernel": "nbody", "rung": "ninja", "width_bits": 128, "fma": false,
               "gather": false, "scatter": false, "vector_fp_ops": 12, "scalar_fp_ops": 0,
               "vector_int_ops": 0, "matched_symbols": 1, "classification": "vec128"},
              {"kernel": "chaos-panic", "rung": "naive", "width_bits": 0, "fma": false,
               "gather": false, "scatter": false, "vector_fp_ops": 0, "scalar_fp_ops": 4,
               "vector_int_ops": 0, "matched_symbols": 1, "classification": "scalar"}
            ],
            "kernels":"#,
            1,
        );
        let meta = RecordMeta::synthetic("r5", "scalar");
        let rec = RunRecord::from_suite_json(&json, &meta).unwrap();
        assert_eq!(rec.vec_profiles.len(), 1, "chaos profiles are dropped");
        assert_eq!(rec.vec_profile("nbody", "ninja").unwrap().width_bits, 128);
    }

    #[test]
    fn sample_sanity_and_spread() {
        let s = sample(2.0, 0.2);
        assert!(s.is_sane());
        assert!((s.spread() - 0.2).abs() < 1e-12);
        let zero = Sample {
            median_s: 0.0,
            mean_s: 0.0,
            stddev_s: 0.0,
            min_s: 0.0,
            max_s: 0.0,
            runs: 1,
        };
        assert_eq!(zero.spread(), 0.0);
        assert!(!zero.is_sane());
        let doubled = s.scaled(2.0);
        assert!((doubled.median_s - 4.0).abs() < 1e-12);
        assert!(
            (doubled.spread() - 0.2).abs() < 1e-12,
            "spread is scale-free"
        );
    }
}
