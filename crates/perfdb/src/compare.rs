//! Statistical regression detection between run records.
//!
//! Single timings lie: schedulers hiccup, turbo states drift, and a naive
//! `new/old` ratio flags noise as regression (or hides a real one). The
//! comparator here decides **regressed / improved / noise** per (kernel,
//! variant) cell with three guards:
//!
//! 1. **Min-of-k medians** — when a baseline window of `k` records is
//!    available, each cell's baseline is the record with the *smallest*
//!    median (the least-interfered-with run); one slow baseline run
//!    cannot manufacture a phantom improvement.
//! 2. **Bootstrap confidence interval** — the reported ratio carries a
//!    resampling CI; a verdict other than `noise` requires the whole CI
//!    to clear the noise floor, not just the point estimate.
//! 3. **Noise floor from measured spread** — the floor defaults to the
//!    harness's own `Measurement::spread()` (relative `(max−min)/median`)
//!    of both sides, so noisy cells need proportionally larger deltas.
//!
//! Verdicts must be reproducible across invocations (CI gates re-run
//! them), so the bootstrap PRNG is seeded deterministically from the two
//! record ids and the cell name — never from the wall clock.

use crate::schema::{
    fnv1a64, fnv1a64_continue, CellAttribution, CellCounters, RunRecord, Sample, VecProfileRecord,
};
use serde::{DeError, Deserialize, Serialize, Value};

/// Deterministic 64-bit PRNG (SplitMix64): tiny, seedable, and good
/// enough for bootstrap resampling indices.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)`.
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Comparator configuration.
#[derive(Copy, Clone, Debug)]
pub struct CompareConfig {
    /// Minimum relative noise floor. The effective per-cell floor is
    /// `max(noise_floor, baseline.spread(), candidate.spread())`, i.e.
    /// the configured value only tightens cells whose measured spread is
    /// already smaller.
    pub noise_floor: f64,
    /// Bootstrap resampling iterations per cell.
    pub bootstrap_iters: u32,
    /// Two-sided confidence level of the ratio interval (e.g. `0.95`).
    pub confidence: f64,
    /// Absolute timing slack in seconds, folded into the per-cell floor
    /// as `absolute_slack_s / baseline_median`. A single scheduler
    /// hiccup shifts a 100 µs cell by 50 % but a 1 s cell by 0.01 %, so
    /// relative floors alone cannot protect micro-cells; the slack term
    /// makes the floor grow as cells shrink while leaving long-running
    /// cells fully gated.
    pub absolute_slack_s: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            noise_floor: 0.02,
            bootstrap_iters: 256,
            confidence: 0.95,
            absolute_slack_s: 0.0,
        }
    }
}

impl CompareConfig {
    /// Configuration for CI gating on shared, noisy hosts.
    ///
    /// Run-to-run drift on virtualized CI runners (frequency scaling,
    /// neighbor interference, cold caches) routinely moves medians by
    /// 10–25 % in ways within-run spread cannot see, so the gate floor
    /// is far laxer than [`CompareConfig::default`]: only slowdowns
    /// whose whole confidence interval clears 25 % fail the gate, and
    /// two milliseconds of absolute slack absorb scheduler hiccups on
    /// millisecond-scale cells (observed run-to-run excursions on
    /// containerized runners reach 40 % at 3 ms). A genuine 2x
    /// regression on any cell worth gating still fails decisively;
    /// tighten with `--noise-floor` when measuring on a quiet dedicated
    /// machine.
    pub fn gate() -> Self {
        Self {
            noise_floor: 0.25,
            absolute_slack_s: 2e-3,
            ..Self::default()
        }
    }
}

/// The three-way decision for one cell (or a whole comparison).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate is slower beyond the noise floor, with the whole
    /// confidence interval above it.
    Regressed,
    /// The candidate is faster beyond the noise floor, with the whole
    /// confidence interval below it.
    Improved,
    /// The difference is within the noise floor or the interval
    /// straddles it.
    Noise,
}

impl Verdict {
    /// Stable machine-readable tag.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Noise => "noise",
        }
    }

    /// Parses the machine-readable tag.
    pub fn from_str_tag(s: &str) -> Option<Self> {
        match s {
            "regressed" => Some(Verdict::Regressed),
            "improved" => Some(Verdict::Improved),
            "noise" => Some(Verdict::Noise),
            _ => None,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// The derive stand-in only handles structs; a verdict serializes as its
// tag string.
impl Serialize for Verdict {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Verdict {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        Verdict::from_str_tag(&s).ok_or_else(|| DeError::new(format!("unknown verdict `{s}`")))
    }
}

/// The comparison of one (kernel, variant) cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellComparison {
    /// Kernel name.
    pub kernel: String,
    /// Variant rung.
    pub variant: String,
    /// Baseline median seconds (after min-of-k selection).
    pub baseline_median_s: f64,
    /// Candidate median seconds.
    pub candidate_median_s: f64,
    /// Point estimate `candidate / baseline` (>1 ⇒ slower).
    pub ratio: f64,
    /// Lower bound of the bootstrap ratio interval.
    pub ci_lo: f64,
    /// Upper bound of the bootstrap ratio interval.
    pub ci_hi: f64,
    /// Effective relative noise floor applied to this cell.
    pub noise_floor: f64,
    /// The decision.
    pub verdict: Verdict,
    /// *Why* the cell shifted, when both records carry roofline/pool
    /// attribution and it changed meaningfully (e.g. "pool idle fraction
    /// rose 8%→41%"). `None` for noise verdicts and unattributed records.
    pub explain: Option<String>,
}

/// A full record-vs-record comparison.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Baseline record id (or the synthetic min-of-k id).
    pub baseline_id: String,
    /// Candidate record id.
    pub candidate_id: String,
    /// Per-cell comparisons, candidate order.
    pub cells: Vec<CellComparison>,
    /// Cells present in only one record or without a clean measurement,
    /// as `kernel/variant: reason` lines.
    pub skipped: Vec<String>,
    /// Kernels whose candidate algorithmic cell beat its ninja cell beyond
    /// noise: the slowest algorithmic repetition ran faster than the
    /// fastest ninja one. Candidate order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub ninja_not_the_ceiling: Vec<String>,
}

impl ComparisonReport {
    /// Cells that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &CellComparison> {
        self.cells
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
    }

    /// Whether any cell regressed (the CI gate condition).
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// The overall verdict: `Regressed` dominates, then `Improved`, then
    /// `Noise`.
    pub fn overall(&self) -> Verdict {
        if self.has_regressions() {
            Verdict::Regressed
        } else if self.cells.iter().any(|c| c.verdict == Verdict::Improved) {
            Verdict::Improved
        } else {
            Verdict::Noise
        }
    }

    /// Machine-readable JSON (the `perfdb compare --json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("comparison reports are serializable")
    }

    /// Human-readable table with one row per cell and a verdict summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "candidate {} vs baseline {}\n{:<16} {:<12} {:>11} {:>11} {:>8} {:>7}  verdict\n",
            self.candidate_id,
            self.baseline_id,
            "kernel",
            "variant",
            "base s",
            "cand s",
            "speedup",
            "floor"
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:<16} {:<12} {:>11.4e} {:>11.4e} {:>7.2}X {:>6.1}%  {}{}\n",
                c.kernel,
                c.variant,
                c.baseline_median_s,
                c.candidate_median_s,
                c.baseline_median_s / c.candidate_median_s,
                c.noise_floor * 100.0,
                c.verdict,
                match &c.explain {
                    Some(why) => format!(" — {why}"),
                    None => String::new(),
                }
            ));
        }
        for kernel in &self.ninja_not_the_ceiling {
            out.push_str(&format!("{kernel}: ninja rung is not the ceiling\n"));
        }
        let (mut reg, mut imp, mut noise) = (0usize, 0usize, 0usize);
        for c in &self.cells {
            match c.verdict {
                Verdict::Regressed => reg += 1,
                Verdict::Improved => imp += 1,
                Verdict::Noise => noise += 1,
            }
        }
        out.push_str(&format!(
            "verdict: {} — {reg} regressed / {imp} improved / {noise} noise ({} skipped)\n",
            self.overall(),
            self.skipped.len()
        ));
        out
    }
}

/// Builds the human-readable "why did this cell shift" hint from the two
/// sides' attribution, when both carry it. Each clause fires only on a
/// meaningful change (bound flip, ≥5-point roofline or idle shift, ≥0.25
/// imbalance-ratio shift, ≥0.1 steal-ratio shift) so noise in the
/// attribution itself stays quiet.
fn explain_shift(base: Option<&CellAttribution>, cand: Option<&CellAttribution>) -> Option<String> {
    let (b, c) = (base?, cand?);
    let mut clauses = Vec::new();
    if b.bound != c.bound {
        clauses.push(format!("bound flipped {}→{}", b.bound, c.bound));
    }
    let roof_shift = c.roofline_pct - b.roofline_pct;
    if roof_shift.abs() >= 5.0 {
        clauses.push(format!(
            "roofline utilization {} {:.0}%→{:.0}%",
            if roof_shift < 0.0 { "fell" } else { "rose" },
            b.roofline_pct,
            c.roofline_pct
        ));
    }
    if b.has_pool_data() && c.has_pool_data() {
        let idle_shift = c.pool_idle_pct - b.pool_idle_pct;
        if idle_shift.abs() >= 5.0 {
            clauses.push(format!(
                "pool idle fraction {} {:.0}%→{:.0}%",
                if idle_shift < 0.0 { "fell" } else { "rose" },
                b.pool_idle_pct,
                c.pool_idle_pct
            ));
        }
        let imbalance_shift = c.pool_imbalance - b.pool_imbalance;
        if imbalance_shift.abs() >= 0.25 {
            clauses.push(format!(
                "pool imbalance {} {:.2}→{:.2}",
                if imbalance_shift < 0.0 {
                    "fell"
                } else {
                    "rose"
                },
                b.pool_imbalance,
                c.pool_imbalance
            ));
        }
        let steal_shift = c.pool_steal_ratio - b.pool_steal_ratio;
        if steal_shift.abs() >= 0.1 {
            clauses.push(format!(
                "steal ratio {} {:.2}→{:.2}",
                if steal_shift < 0.0 { "fell" } else { "rose" },
                b.pool_steal_ratio,
                c.pool_steal_ratio
            ));
        }
    }
    if clauses.is_empty() {
        None
    } else {
        Some(clauses.join("; "))
    }
}

/// Builds the hardware-counter side of the "why did this cell shift"
/// hint, when both records measured this cell with counters on. The
/// modeled clauses above say *where the cell sits* on the roofline; the
/// counter clauses say *what the core was doing* — an IPC collapse with
/// a flat instruction mix is stalls, a rising LLC miss rate is a working
/// set falling out of cache. Thresholds (≥0.15 IPC, ≥3-point miss rate,
/// ≥25 % relative DRAM traffic) keep multiplexing jitter quiet.
fn explain_counter_shift(
    base: Option<&CellCounters>,
    cand: Option<&CellCounters>,
) -> Option<String> {
    let (b, c) = (base?, cand?);
    let mut clauses = Vec::new();
    if let (Some(bi), Some(ci)) = (b.ipc, c.ipc) {
        if (ci - bi).abs() >= 0.15 {
            clauses.push(format!(
                "IPC {} {bi:.2}→{ci:.2}",
                if ci < bi { "fell" } else { "rose" }
            ));
        }
    }
    if let (Some(bm), Some(cm)) = (b.llc_miss_rate, c.llc_miss_rate) {
        if (cm - bm).abs() >= 0.03 {
            clauses.push(format!(
                "LLC miss rate {} {:.0}%→{:.0}%",
                if cm < bm { "fell" } else { "rose" },
                bm * 100.0,
                cm * 100.0
            ));
        }
    }
    if let (Some(bd), Some(cd)) = (b.dram_gbs, c.dram_gbs) {
        if bd > 0.0 && ((cd - bd) / bd).abs() >= 0.25 {
            clauses.push(format!(
                "DRAM traffic {} {bd:.1}→{cd:.1} GB/s",
                if cd < bd { "fell" } else { "rose" }
            ));
        }
    }
    if let (Some(bb), Some(cb)) = (&b.measured_bound, &c.measured_bound) {
        if bb != cb {
            clauses.push(format!("measured bound flipped {bb}→{cb}"));
        }
    }
    if clauses.is_empty() {
        None
    } else {
        Some(clauses.join("; "))
    }
}

/// Builds the codegen side of the "why did this cell shift" hint from
/// the two runs' vectorization profiles, when both recorded evidence for
/// this cell. Fires on a vector-width change or FMA appearing or
/// disappearing — the codegen shifts that move kernel timings on their
/// own, e.g. after a source change that defeats the auto-vectorizer.
fn explain_vec_shift(
    base: Option<&VecProfileRecord>,
    cand: Option<&VecProfileRecord>,
) -> Option<String> {
    let (b, c) = (base?, cand?);
    // A side with no matched symbols saw no evidence (inlined away);
    // silence beats a spurious "width changed N→0".
    if b.matched_symbols == 0 || c.matched_symbols == 0 {
        return None;
    }
    let mut clauses = Vec::new();
    if b.width_bits != c.width_bits {
        clauses.push(format!(
            "vector width changed {}→{}",
            b.width_bits, c.width_bits
        ));
    }
    if b.fma != c.fma {
        clauses.push(format!(
            "fma {}",
            if c.fma { "appeared" } else { "disappeared" }
        ));
    }
    if clauses.is_empty() {
        None
    } else {
        Some(clauses.join("; "))
    }
}

/// Explains a dispatch-level shift between two runs: the resolved ISA
/// backend changed (e.g. a forced `NINJA_ISA=sse2` run compared against
/// an AVX2 baseline). Unlike [`explain_vec_shift`], which reads codegen
/// evidence per cell, this reads the run-level dispatcher decision and
/// therefore applies to every flagged cell of the pair. Records written
/// before the width-generic dispatcher existed carry an empty `isa`;
/// those stay silent rather than claiming "isa changed →sse2".
fn explain_isa_shift(base: &str, cand: &str) -> Option<String> {
    if base.is_empty() || cand.is_empty() || base == cand {
        None
    } else {
        Some(format!("isa changed {base}→{cand}"))
    }
}

/// Reconstructs a plausible repetition sample set from a summary: `runs`
/// points spanning `[min, max]` with the median preserved at the center.
/// The harness stores summaries, not raw repetitions, so the bootstrap
/// resamples this parametric reconstruction.
fn pseudo_samples(s: &Sample) -> Vec<f64> {
    let n = (s.runs as usize).max(3);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / (n - 1) as f64;
        let v = if t <= 0.5 {
            s.min_s + (s.median_s - s.min_s) * (t * 2.0)
        } else {
            s.median_s + (s.max_s - s.median_s) * ((t - 0.5) * 2.0)
        };
        out.push(v);
    }
    out
}

/// Median of a non-empty slice of resampled values (scratch is sorted).
fn median_of(scratch: &mut [f64]) -> f64 {
    scratch.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    scratch[scratch.len() / 2]
}

/// The result of comparing one candidate sample against one baseline
/// sample (before packaging into a [`CellComparison`]).
struct CellStats {
    ratio: f64,
    ci_lo: f64,
    ci_hi: f64,
    floor: f64,
    verdict: Verdict,
}

/// Bootstrap comparison of two summaries. `seed` must be derived from
/// stable identifiers so verdicts reproduce across invocations.
fn compare_samples(base: &Sample, cand: &Sample, seed: u64, cfg: &CompareConfig) -> CellStats {
    let slack = if base.median_s > 0.0 {
        cfg.absolute_slack_s / base.median_s
    } else {
        0.0
    };
    let floor = cfg
        .noise_floor
        .max(base.spread())
        .max(cand.spread())
        .max(slack);
    let ratio = cand.median_s / base.median_s;

    let base_pool = pseudo_samples(base);
    let cand_pool = pseudo_samples(cand);
    let mut rng = SplitMix64::new(seed);
    let iters = cfg.bootstrap_iters.max(1) as usize;
    let mut ratios = Vec::with_capacity(iters);
    let mut base_scratch = vec![0.0; base_pool.len()];
    let mut cand_scratch = vec![0.0; cand_pool.len()];
    for _ in 0..iters {
        for slot in base_scratch.iter_mut() {
            *slot = base_pool[rng.index(base_pool.len())];
        }
        for slot in cand_scratch.iter_mut() {
            *slot = cand_pool[rng.index(cand_pool.len())];
        }
        ratios.push(median_of(&mut cand_scratch) / median_of(&mut base_scratch));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let tail = ((1.0 - cfg.confidence.clamp(0.0, 1.0)) / 2.0 * iters as f64) as usize;
    let tail = tail.min(iters.saturating_sub(1) / 2);
    let (ci_lo, ci_hi) = (ratios[tail], ratios[iters - 1 - tail]);

    let verdict = if ci_lo > 1.0 + floor {
        Verdict::Regressed
    } else if ci_hi < 1.0 / (1.0 + floor) {
        Verdict::Improved
    } else {
        Verdict::Noise
    };
    CellStats {
        ratio,
        ci_lo,
        ci_hi,
        floor,
        verdict,
    }
}

/// Per-cell seed: order-independent mix of the two record ids and the
/// cell name, so shuffling kernels (or comparing a subset) never changes
/// a verdict.
fn cell_seed(baseline_id: &str, candidate_id: &str, kernel: &str, variant: &str) -> u64 {
    let mut h = fnv1a64(baseline_id.as_bytes());
    h = fnv1a64_continue(h, b"|");
    h = fnv1a64_continue(h, candidate_id.as_bytes());
    h ^ fnv1a64(kernel.as_bytes()).rotate_left(17) ^ fnv1a64(variant.as_bytes()).rotate_left(43)
}

/// Compares `candidate` against `baseline`, cell by cell.
///
/// Cells missing from either record, failed cells, and cells with
/// inconsistent summaries are skipped (listed in
/// [`ComparisonReport::skipped`]) — a kernel that *failed* is the fault
/// harness's jurisdiction, not the regression gate's.
pub fn compare_records(
    baseline: &RunRecord,
    candidate: &RunRecord,
    cfg: &CompareConfig,
) -> ComparisonReport {
    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    for c in &candidate.cells {
        let name = format!("{}/{}", c.kernel, c.variant);
        if !c.is_ok() {
            skipped.push(format!("{name}: candidate cell is {}", c.outcome));
            continue;
        }
        let cand = c.sample.expect("ok cells have samples");
        let Some(b) = baseline.cell(&c.kernel, &c.variant) else {
            skipped.push(format!("{name}: not in baseline"));
            continue;
        };
        if !b.is_ok() {
            skipped.push(format!("{name}: baseline cell is {}", b.outcome));
            continue;
        }
        let base = b.sample.expect("ok cells have samples");
        let seed = cell_seed(&baseline.id, &candidate.id, &c.kernel, &c.variant);
        let stats = compare_samples(&base, &cand, seed, cfg);
        // An attribution shift on a noise cell is itself noise — only
        // explain cells the comparator actually flagged. Roofline and
        // codegen clauses are joined into one hint.
        let explain = if stats.verdict == Verdict::Noise {
            None
        } else {
            let clauses: Vec<String> =
                explain_shift(b.attribution.as_ref(), c.attribution.as_ref())
                    .into_iter()
                    .chain(explain_counter_shift(
                        b.counters.as_ref(),
                        c.counters.as_ref(),
                    ))
                    .chain(explain_vec_shift(
                        baseline.vec_profile(&c.kernel, &c.variant),
                        candidate.vec_profile(&c.kernel, &c.variant),
                    ))
                    .chain(explain_isa_shift(&baseline.isa, &candidate.isa))
                    .collect();
            if clauses.is_empty() {
                None
            } else {
                Some(clauses.join("; "))
            }
        };
        cells.push(CellComparison {
            kernel: c.kernel.clone(),
            variant: c.variant.clone(),
            baseline_median_s: base.median_s,
            candidate_median_s: cand.median_s,
            ratio: stats.ratio,
            ci_lo: stats.ci_lo,
            ci_hi: stats.ci_hi,
            noise_floor: stats.floor,
            verdict: stats.verdict,
            explain,
        });
    }
    ComparisonReport {
        baseline_id: baseline.id.clone(),
        candidate_id: candidate.id.clone(),
        cells,
        skipped,
        ninja_not_the_ceiling: candidate
            .cells
            .iter()
            .filter(|c| {
                c.variant == "algorithmic" && ninja_is_not_the_ceiling(candidate, &c.kernel)
            })
            .map(|c| c.kernel.clone())
            .collect(),
    }
}

/// Whether `kernel`'s algorithmic cell in `record` beat its ninja cell
/// beyond noise: its slowest repetition ran faster than the ninja cell's
/// fastest. The rule of the suite's F4 mark
/// (`ninja_core::KernelReport::ninja_is_not_the_ceiling`); a kernel
/// without two clean cells is never flagged.
fn ninja_is_not_the_ceiling(record: &RunRecord, kernel: &str) -> bool {
    let sample = |variant| {
        record
            .cell(kernel, variant)
            .filter(|c| c.is_ok())
            .and_then(|c| c.sample)
    };
    match (sample("algorithmic"), sample("ninja")) {
        (Some(algorithmic), Some(ninja)) => algorithmic.max_s < ninja.min_s,
        _ => false,
    }
}

/// Builds the min-of-k baseline from a window of records (most recent
/// last, as stored): per cell, the sample with the smallest median across
/// the window. The synthetic record id names the members so comparisons
/// against it stay reproducible.
///
/// Returns `None` for an empty window.
pub fn min_of_k_baseline(window: &[RunRecord]) -> Option<RunRecord> {
    let last = window.last()?;
    if window.len() == 1 {
        return Some(last.clone());
    }
    let mut merged = last.clone();
    for cell in merged.cells.iter_mut() {
        if !cell.is_ok() {
            continue;
        }
        for earlier in &window[..window.len() - 1] {
            if let Some(other) = earlier.cell(&cell.kernel, &cell.variant) {
                if other.is_ok() {
                    let o = other.sample.expect("ok cells have samples");
                    if o.median_s < cell.sample.expect("ok cells have samples").median_s {
                        cell.sample = Some(o);
                        // Attribution and counters travel with the sample
                        // they describe.
                        cell.attribution = other.attribution.clone();
                        cell.counters = other.counters.clone();
                    }
                }
            }
        }
    }
    let ids: Vec<&str> = window.iter().map(|r| r.id.as_str()).collect();
    merged.id = format!("min-of-{}({})", window.len(), ids.join(","));
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CellRecord, MachineFingerprint, SCHEMA_VERSION};

    fn sample(median: f64, rel_spread: f64) -> Sample {
        Sample {
            median_s: median,
            mean_s: median,
            stddev_s: median * rel_spread / 4.0,
            min_s: median * (1.0 - rel_spread / 2.0),
            max_s: median * (1.0 + rel_spread / 2.0),
            runs: 5,
        }
    }

    fn record(id: &str, cells: Vec<(&str, &str, Option<Sample>)>) -> RunRecord {
        RunRecord {
            schema_version: SCHEMA_VERSION,
            id: id.into(),
            timestamp_unix_s: 0,
            git_commit: "unknown".into(),
            machine: MachineFingerprint::synthetic("scalar"),
            size: "test".into(),
            seed: 1,
            threads: 1,
            isa: String::new(),
            excluded: Vec::new(),
            cells: cells
                .into_iter()
                .map(|(k, v, s)| CellRecord {
                    kernel: k.into(),
                    variant: v.into(),
                    outcome: if s.is_some() { "ok" } else { "panicked" }.into(),
                    sample: s,
                    attribution: None,
                    counters: None,
                })
                .collect(),
            vec_profiles: Vec::new(),
        }
    }

    #[test]
    fn self_comparison_is_noise() {
        let r = record(
            "a",
            vec![
                ("k", "naive", Some(sample(8.0, 0.1))),
                ("k", "ninja", Some(sample(1.0, 0.1))),
            ],
        );
        let report = compare_records(&r, &r, &CompareConfig::default());
        assert_eq!(report.cells.len(), 2);
        assert!(report.cells.iter().all(|c| c.verdict == Verdict::Noise));
        assert_eq!(report.overall(), Verdict::Noise);
        assert!(!report.has_regressions());
    }

    #[test]
    fn doubled_time_is_regressed_and_halved_is_improved() {
        let base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.1)))]);
        let slow = record("slow", vec![("k", "ninja", Some(sample(2.0, 0.1)))]);
        let fast = record("fast", vec![("k", "ninja", Some(sample(0.5, 0.1)))]);

        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.has_regressions());
        assert!(r.cells[0].ratio > 1.9 && r.cells[0].ratio < 2.1);
        assert!(r.cells[0].ci_lo > 1.0, "{:?}", r.cells[0]);

        let r = compare_records(&base, &fast, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Improved);
        assert_eq!(r.overall(), Verdict::Improved);
    }

    #[test]
    fn gate_slack_shields_micro_cells_but_not_long_ones() {
        // A 60 % excursion on a 150 µs cell is one scheduler hiccup; the
        // same ratio on a 150 ms cell is a real regression.
        let base = record(
            "base",
            vec![
                ("k", "simd", Some(sample(150e-6, 0.05))),
                ("k", "ninja", Some(sample(150e-3, 0.05))),
            ],
        );
        let cand = record(
            "cand",
            vec![
                ("k", "simd", Some(sample(240e-6, 0.05))),
                ("k", "ninja", Some(sample(240e-3, 0.05))),
            ],
        );
        let gate = compare_records(&base, &cand, &CompareConfig::gate());
        assert_eq!(gate.cells[0].verdict, Verdict::Noise, "{:?}", gate.cells[0]);
        assert_eq!(
            gate.cells[1].verdict,
            Verdict::Regressed,
            "{:?}",
            gate.cells[1]
        );
        // The strict default config flags both.
        let strict = compare_records(&base, &cand, &CompareConfig::default());
        assert!(strict.cells.iter().all(|c| c.verdict == Verdict::Regressed));
    }

    #[test]
    fn verdicts_are_deterministic() {
        let base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.25)))]);
        let cand = record("cand", vec![("k", "ninja", Some(sample(1.2, 0.25)))]);
        let a = compare_records(&base, &cand, &CompareConfig::default());
        let b = compare_records(&base, &cand, &CompareConfig::default());
        assert_eq!(a, b, "identical inputs must produce identical reports");
    }

    #[test]
    fn noisy_cells_get_wider_floors() {
        // 40% measured spread swallows a 20% delta that a quiet cell
        // would flag.
        let base_noisy = record("bn", vec![("k", "ninja", Some(sample(1.0, 0.4)))]);
        let cand_noisy = record("cn", vec![("k", "ninja", Some(sample(1.2, 0.4)))]);
        let r = compare_records(&base_noisy, &cand_noisy, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Noise, "{:?}", r.cells[0]);
        assert!(r.cells[0].noise_floor >= 0.4);

        let base_quiet = record("bq", vec![("k", "ninja", Some(sample(1.0, 0.01)))]);
        let cand_quiet = record("cq", vec![("k", "ninja", Some(sample(1.2, 0.01)))]);
        let r = compare_records(&base_quiet, &cand_quiet, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed, "{:?}", r.cells[0]);
    }

    #[test]
    fn failed_and_missing_cells_are_skipped_not_judged() {
        let base = record(
            "base",
            vec![("k", "naive", Some(sample(8.0, 0.1))), ("k", "ninja", None)],
        );
        let cand = record(
            "cand",
            vec![
                ("k", "naive", Some(sample(8.0, 0.1))),
                ("k", "ninja", Some(sample(1.0, 0.1))),
                ("k", "simd", Some(sample(2.0, 0.1))),
                ("k", "parallel", None),
            ],
        );
        let r = compare_records(&base, &cand, &CompareConfig::default());
        assert_eq!(r.cells.len(), 1, "{r:?}");
        assert_eq!(r.cells[0].variant, "naive");
        assert_eq!(r.skipped.len(), 3);
        assert!(r.skipped.iter().any(|s| s.contains("k/ninja")));
        assert!(r.skipped.iter().any(|s| s.contains("not in baseline")));
        assert!(r.skipped.iter().any(|s| s.contains("panicked")));
    }

    #[test]
    fn min_of_k_picks_fastest_baseline_per_cell() {
        let r1 = record(
            "r1",
            vec![
                ("k", "naive", Some(sample(7.0, 0.1))),
                ("k", "ninja", Some(sample(1.2, 0.1))),
            ],
        );
        let r2 = record(
            "r2",
            vec![
                ("k", "naive", Some(sample(8.0, 0.1))),
                ("k", "ninja", Some(sample(1.0, 0.1))),
            ],
        );
        let merged = min_of_k_baseline(&[r1, r2]).unwrap();
        assert!(merged.id.starts_with("min-of-2"));
        assert!((merged.median_s("k", "naive").unwrap() - 7.0).abs() < 1e-12);
        assert!((merged.median_s("k", "ninja").unwrap() - 1.0).abs() < 1e-12);
        assert!(min_of_k_baseline(&[]).is_none());
    }

    #[test]
    fn report_renders_and_roundtrips() {
        let base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        let cand = record("cand", vec![("k", "ninja", Some(sample(2.0, 0.05)))]);
        let r = compare_records(&base, &cand, &CompareConfig::default());
        let text = r.render_text();
        assert!(text.contains("regressed"), "{text}");
        assert!(text.contains("0.50X"), "{text}");
        let back: ComparisonReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn ninja_cell_slower_than_algorithmic_is_flagged() {
        // Algorithmic 1.0 +- 2.5%, ninja 2.0 +- 2.5%: the slowest
        // algorithmic repetition beats the fastest ninja one.
        let cells = |ninja| {
            vec![
                ("k", "algorithmic", Some(sample(1.0, 0.05))),
                ("k", "ninja", Some(sample(ninja, 0.05))),
            ]
        };
        let base = record("base", cells(0.5));
        let cand = record("cand", cells(2.0));
        let r = compare_records(&base, &cand, &CompareConfig::default());
        assert_eq!(r.ninja_not_the_ceiling, vec!["k".to_string()]);
        let text = r.render_text();
        assert!(
            text.contains("\nk: ninja rung is not the ceiling\n"),
            "{text}"
        );
        let back: ComparisonReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(r, back);
        // Overlapping cells, and the healthy order, stay silent.
        let overlap = record("overlap", cells(1.02));
        for cand in [&base, &overlap] {
            let r = compare_records(&base, cand, &CompareConfig::default());
            assert!(r.ninja_not_the_ceiling.is_empty());
            assert!(!r.render_text().contains("not the ceiling"));
            assert!(!r.to_json().contains("ninja_not_the_ceiling"));
        }
    }

    fn attribution(
        bound: &str,
        roofline_pct: f64,
        idle_pct: f64,
        imbalance: f64,
    ) -> CellAttribution {
        CellAttribution {
            achieved_gflops: 1.0,
            achieved_gbs: 1.0,
            roofline_pct,
            bound: bound.into(),
            pool_imbalance: imbalance,
            pool_idle_pct: idle_pct,
            pool_steal_ratio: 0.0,
        }
    }

    #[test]
    fn regressions_explain_why_when_attribution_shifted() {
        let mut base = record("base", vec![("k", "parallel", Some(sample(1.0, 0.05)))]);
        base.cells[0].attribution = Some(attribution("compute", 40.0, 8.0, 1.1));
        let mut slow = record("slow", vec![("k", "parallel", Some(sample(2.1, 0.05)))]);
        slow.cells[0].attribution = Some(attribution("poorly-utilized", 19.0, 41.0, 2.4));

        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        let why = r.cells[0].explain.as_deref().expect("explained");
        assert!(
            why.contains("bound flipped compute→poorly-utilized"),
            "{why}"
        );
        assert!(why.contains("roofline utilization fell 40%→19%"), "{why}");
        assert!(why.contains("pool idle fraction rose 8%→41%"), "{why}");
        assert!(why.contains("pool imbalance rose 1.10→2.40"), "{why}");
        let text = r.render_text();
        assert!(text.contains("regressed — "), "{text}");
        assert!(text.contains("idle fraction rose"), "{text}");
    }

    #[test]
    fn regressions_explain_steal_ratio_shifts() {
        let mut base = record("base", vec![("k", "parallel", Some(sample(1.0, 0.05)))]);
        let mut a = attribution("compute", 40.0, 8.0, 1.1);
        a.pool_steal_ratio = 0.05;
        base.cells[0].attribution = Some(a);
        let mut slow = record("slow", vec![("k", "parallel", Some(sample(2.1, 0.05)))]);
        let mut a = attribution("compute", 38.0, 9.0, 1.15);
        a.pool_steal_ratio = 0.40;
        slow.cells[0].attribution = Some(a);

        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        let why = r.cells[0].explain.as_deref().expect("explained");
        assert!(why.contains("steal ratio rose 0.05→0.40"), "{why}");

        // Sub-threshold steal drift stays quiet.
        let mut calm = record("calm", vec![("k", "parallel", Some(sample(2.1, 0.05)))]);
        let mut a = attribution("compute", 40.0, 8.0, 1.1);
        a.pool_steal_ratio = 0.09;
        calm.cells[0].attribution = Some(a);
        let mut base2 = base.clone();
        base2.cells[0]
            .attribution
            .as_mut()
            .unwrap()
            .pool_steal_ratio = 0.0;
        // has_pool_data needs imbalance > 0 on both sides, which holds.
        let r = compare_records(&base2, &calm, &CompareConfig::default());
        assert!(
            r.cells[0]
                .explain
                .as_deref()
                .is_none_or(|w| !w.contains("steal")),
            "{:?}",
            r.cells[0].explain
        );
    }

    fn counters(ipc: f64, miss_rate: f64, dram: f64, bound: &str) -> CellCounters {
        CellCounters {
            ipc: Some(ipc),
            llc_miss_rate: Some(miss_rate),
            dram_gbs: Some(dram),
            measured_bound: Some(bound.into()),
            agreement: Some(true),
        }
    }

    #[test]
    fn regressions_explain_counter_shifts() {
        let mut base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        base.cells[0].counters = Some(counters(2.1, 0.04, 8.0, "compute"));
        let mut slow = record("slow", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        slow.cells[0].counters = Some(counters(1.4, 0.12, 24.0, "bandwidth"));

        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        let why = r.cells[0].explain.as_deref().expect("explained");
        assert!(why.contains("IPC fell 2.10→1.40"), "{why}");
        assert!(why.contains("LLC miss rate rose 4%→12%"), "{why}");
        assert!(why.contains("DRAM traffic rose 8.0→24.0 GB/s"), "{why}");
        assert!(
            why.contains("measured bound flipped compute→bandwidth"),
            "{why}"
        );

        // Sub-threshold counter jitter on a real regression stays quiet.
        let mut calm = record("calm", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        calm.cells[0].counters = Some(counters(2.05, 0.05, 8.5, "compute"));
        let r = compare_records(&base, &calm, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.cells[0].explain.is_none(), "{:?}", r.cells[0].explain);

        // One counterless side (e.g. the baseline predates counters, or
        // ran without PMU access): no counter clause, no panic.
        let r = compare_records(
            &record("bare", vec![("k", "ninja", Some(sample(1.0, 0.05)))]),
            &slow,
            &CompareConfig::default(),
        );
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.cells[0].explain.is_none());
    }

    #[test]
    fn counter_clauses_chain_after_modeled_attribution() {
        let mut base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        base.cells[0].attribution = Some(attribution("compute", 40.0, 0.0, 0.0));
        base.cells[0].counters = Some(counters(2.1, 0.04, 8.0, "compute"));
        let mut slow = record("slow", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        slow.cells[0].attribution = Some(attribution("bandwidth", 20.0, 0.0, 0.0));
        slow.cells[0].counters = Some(counters(1.4, 0.12, 24.0, "bandwidth"));

        let r = compare_records(&base, &slow, &CompareConfig::default());
        let why = r.cells[0].explain.as_deref().expect("explained");
        let modeled = why.find("bound flipped compute→bandwidth").unwrap();
        let measured = why.find("IPC fell").unwrap();
        assert!(modeled < measured, "modeled clause leads: {why}");
        let text = r.render_text();
        assert!(text.contains("IPC fell"), "{text}");
    }

    #[test]
    fn min_of_k_carries_counters_with_the_chosen_sample() {
        let mut r1 = record("r1", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        r1.cells[0].counters = Some(counters(2.2, 0.03, 7.0, "compute"));
        let mut r2 = record("r2", vec![("k", "ninja", Some(sample(1.5, 0.05)))]);
        r2.cells[0].counters = Some(counters(1.1, 0.30, 25.0, "bandwidth"));
        let merged = min_of_k_baseline(&[r1, r2]).unwrap();
        // r1's faster sample won, so r1's counters must describe it.
        let c = merged.cells[0].counters.as_ref().unwrap();
        assert_eq!(c.ipc, Some(2.2));
        assert_eq!(c.measured_bound.as_deref(), Some("compute"));
    }

    fn profile(kernel: &str, rung: &str, width: u32, fma: bool) -> VecProfileRecord {
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

    #[test]
    fn regressions_explain_vector_width_and_fma_changes() {
        let mut base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        base.vec_profiles.push(profile("k", "ninja", 256, true));
        let mut slow = record("slow", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        slow.vec_profiles.push(profile("k", "ninja", 128, false));

        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        let why = r.cells[0].explain.as_deref().expect("explained");
        assert!(why.contains("vector width changed 256→128"), "{why}");
        assert!(why.contains("fma disappeared"), "{why}");

        // No profile on one side, or no matched symbols: stay quiet.
        let r = compare_records(
            &base,
            &{
                let mut s = record("slow2", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
                s.vec_profiles.push({
                    let mut p = profile("k", "ninja", 0, false);
                    p.matched_symbols = 0;
                    p
                });
                s
            },
            &CompareConfig::default(),
        );
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.cells[0].explain.is_none(), "{:?}", r.cells[0].explain);

        // An identical profile adds no clause.
        let mut same = record("same", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        same.vec_profiles.push(profile("k", "ninja", 256, true));
        let r = compare_records(&base, &same, &CompareConfig::default());
        assert!(r.cells[0].explain.is_none());
    }

    #[test]
    fn regressions_explain_isa_backend_changes() {
        let mut base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        base.isa = "avx2".into();
        let mut slow = record("slow", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        slow.isa = "sse2".into();

        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        let why = r.cells[0].explain.as_deref().expect("explained");
        assert!(why.contains("isa changed avx2→sse2"), "{why}");

        // Same backend on both sides: no clause.
        let mut same = record("same", vec![("k", "ninja", Some(sample(2.1, 0.05)))]);
        same.isa = "avx2".into();
        let r = compare_records(&base, &same, &CompareConfig::default());
        assert!(r.cells[0].explain.is_none(), "{:?}", r.cells[0].explain);

        // A pre-dispatcher record (empty isa) on either side stays quiet
        // instead of claiming "isa changed →sse2".
        let old = record("old", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        let r = compare_records(&old, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.cells[0].explain.is_none(), "{:?}", r.cells[0].explain);

        // The isa clause chains after per-cell codegen clauses.
        base.vec_profiles.push(profile("k", "ninja", 256, true));
        slow.vec_profiles.push(profile("k", "ninja", 128, true));
        let r = compare_records(&base, &slow, &CompareConfig::default());
        let why = r.cells[0].explain.as_deref().expect("explained");
        let vec_pos = why.find("vector width changed 256→128").unwrap();
        let isa_pos = why.find("isa changed avx2→sse2").unwrap();
        assert!(vec_pos < isa_pos, "codegen clause leads: {why}");
    }

    #[test]
    fn noise_and_unattributed_cells_stay_unexplained() {
        // A regression without attribution on both sides: no hint.
        let base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        let slow = record("slow", vec![("k", "ninja", Some(sample(2.0, 0.05)))]);
        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.cells[0].explain.is_none());

        // A noise cell with a (noisy) attribution shift: still no hint.
        let mut a = record("a", vec![("k", "ninja", Some(sample(1.0, 0.3)))]);
        a.cells[0].attribution = Some(attribution("compute", 40.0, 5.0, 1.0));
        let mut b = record("b", vec![("k", "ninja", Some(sample(1.05, 0.3)))]);
        b.cells[0].attribution = Some(attribution("bandwidth", 30.0, 15.0, 1.5));
        let r = compare_records(&a, &b, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Noise);
        assert!(r.cells[0].explain.is_none());

        // Sub-threshold shifts on a real regression: clauses stay quiet.
        let mut base = record("base", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        base.cells[0].attribution = Some(attribution("compute", 40.0, 8.0, 1.1));
        let mut slow = record("slow", vec![("k", "ninja", Some(sample(2.0, 0.05)))]);
        slow.cells[0].attribution = Some(attribution("compute", 41.0, 9.0, 1.2));
        let r = compare_records(&base, &slow, &CompareConfig::default());
        assert_eq!(r.cells[0].verdict, Verdict::Regressed);
        assert!(r.cells[0].explain.is_none(), "{:?}", r.cells[0].explain);
    }

    #[test]
    fn min_of_k_carries_attribution_with_the_chosen_sample() {
        let mut r1 = record("r1", vec![("k", "ninja", Some(sample(1.0, 0.05)))]);
        r1.cells[0].attribution = Some(attribution("compute", 50.0, 5.0, 1.05));
        let mut r2 = record("r2", vec![("k", "ninja", Some(sample(1.5, 0.05)))]);
        r2.cells[0].attribution = Some(attribution("poorly-utilized", 9.0, 60.0, 3.0));
        let merged = min_of_k_baseline(&[r1, r2]).unwrap();
        // r1's faster sample won, so r1's attribution must describe it.
        let attr = merged.cells[0].attribution.as_ref().unwrap();
        assert_eq!(attr.bound, "compute");
        assert!((attr.roofline_pct - 50.0).abs() < 1e-12);
    }

    #[test]
    fn splitmix_is_reproducible() {
        let a: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SplitMix64::new(7);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut rng = SplitMix64::new(8);
        assert_ne!(a[0], rng.next_u64());
    }
}
