//! `ninja-perfdb` — the persistent perf-run store behind the suite.
//!
//! The measurement harness produces one suite report per run and used to
//! throw it away; this crate keeps them. Runs append to a JSONL store
//! (one schema-versioned
//! [`RunRecord`] per line) carrying a machine fingerprint, git commit,
//! timestamp, and every (kernel, variant) timing summary. Sweeps and
//! serve runs are further [`Record`] kinds, each with its own log, behind
//! the same append/load path. On top of the store sit:
//!
//! - a **statistical comparator** ([`compare_records`]) that decides
//!   *regressed / improved / noise* per cell using min-of-k medians and a
//!   deterministic bootstrap confidence interval, with a noise floor
//!   defaulting to the harness's measured `spread()`;
//! - **trend reporting** ([`trend`]) that turns the store into the
//!   per-kernel gap/residual trajectory exported as `BENCH_history.json`;
//! - **sweep records** ([`sweep`]): scaling-sweep grids with their
//!   Amdahl/USL fits, appended to `sweeps.jsonl` so `perfdb trend` can
//!   show each rung's serial-fraction drift across commits;
//! - **serve records** ([`serve`]): serving-layer SLO curves from
//!   `ninja-serve` (offered load, p50/p99, shed/expired/degraded
//!   counts), appended to `serves.jsonl` so `perfdb trend` can show
//!   tail-latency drift across commits;
//! - the **`perfdb` binary** (`record` / `compare` / `trend` / `history`
//!   / `gc`) and the `reproduce --record` / `--baseline` integration in
//!   `ninja-bench`.
//!
//! Like `ninja-lint`, this crate is a leaf: std plus the in-tree
//! `serde`/`serde_json` stand-ins only, so every other layer (including
//! `ninja-core`) can depend on it without cycles. Suite reports are
//! ingested from their JSON form rather than from `ninja-core` types for
//! the same reason.
//!
//! Test-only `chaos-*` kernels are excluded at ingestion
//! ([`schema::kernel_is_excluded`]) so fault-injection runs can never
//! pollute the perf history.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod schema;
pub mod serve;
pub mod store;
pub mod sweep;
pub mod trend;

pub use compare::{
    compare_records, min_of_k_baseline, CellComparison, CompareConfig, ComparisonReport, Verdict,
};
pub use schema::{
    kernel_is_excluded, CellRecord, MachineFingerprint, RecordMeta, RunRecord, Sample,
    VecProfileRecord, SCHEMA_VERSION,
};
pub use serve::{ServePointRecord, ServeRecord};
pub use store::{record_from_path, resolve_reference, Record, Store, DEFAULT_DIR};
pub use sweep::{SweepCellRecord, SweepFitRecord, SweepRecord};
pub use trend::{History, KernelHistory, ServeTrendPoint, SweepTrendPoint, TrendPoint};

/// Default file name of the exported trajectory artifact.
pub const HISTORY_FILE: &str = "BENCH_history.json";

/// Loads every parseable record of kind `R`, warning on stderr when
/// malformed lines were skipped — what every reporting command wants
/// from [`Store::load_lossy`].
///
/// # Errors
///
/// Returns a message on I/O failure only.
pub fn load_and_warn<R: Record>(store: &Store) -> Result<Vec<R>, String> {
    let (records, skipped) = store.load_lossy::<R>()?;
    if skipped > 0 {
        eprintln!(
            "perfdb: warning: skipped {skipped} malformed line(s) in {}",
            store.path::<R>().display()
        );
    }
    Ok(records)
}

/// Writes the aggregated trajectory artifact for a store.
///
/// # Errors
///
/// Returns a message when the store cannot be read or the artifact
/// cannot be written.
pub fn write_history(store: &Store, out_path: &std::path::Path) -> Result<History, String> {
    let records = load_and_warn::<RunRecord>(store)?;
    let history = History::from_records(&records);
    std::fs::write(out_path, history.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    Ok(history)
}
