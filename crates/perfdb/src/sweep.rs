//! Sweep records: scaling-sweep results on the persistent wire.
//!
//! A [`SweepRecord`] is the stored form of one `ninja-scale` run (the
//! `sweep_report.json` the `reproduce --scale` binary writes): the grid
//! of kernel×variant×size×threads cells plus the fitted scaling models
//! per curve. Records append to `sweeps.jsonl` next to `runs.jsonl`, so
//! `perfdb trend` can show how each rung's **serial fraction** drifts
//! across commits — the longitudinal axis of the paper's "the gap grows
//! with cores" warning.
//!
//! Like [`RunRecord`](crate::RunRecord), ingestion parses the harness's
//! JSON through a tolerant mirror (extra fields ignored, `chaos-*`
//! kernels excluded) so this crate stays a std + serde-stand-in leaf.

use crate::schema::{
    fnv1a64, fnv1a64_continue, kernel_is_excluded, MachineFingerprint, RecordMeta, Sample,
    SCHEMA_VERSION,
};
use crate::store::Record;
use serde::{Deserialize, Serialize};

/// One grid point of a stored sweep: a kernel×variant cell at one
/// problem size and thread count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepCellRecord {
    /// Kernel name.
    pub kernel: String,
    /// Variant rung name (`naive` … `ninja`).
    pub variant: String,
    /// Problem-size preset name.
    pub size: String,
    /// Pool thread count of the grid point.
    pub threads: usize,
    /// Outcome tag (`ok`, `panicked`, `timed_out`, …).
    pub outcome: String,
    /// Timing summary; `None` when the cell failed.
    pub sample: Option<Sample>,
}

impl SweepCellRecord {
    /// Whether the cell measured cleanly.
    pub fn is_ok(&self) -> bool {
        self.outcome == "ok"
    }
}

/// Fitted scaling models for one stored kernel×variant×size curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepFitRecord {
    /// Kernel name.
    pub kernel: String,
    /// Variant rung name.
    pub variant: String,
    /// Problem-size preset name.
    pub size: String,
    /// Static roofline classification of the kernel (`compute` /
    /// `memory`).
    pub bound: String,
    /// Amdahl serial fraction (κ pinned to 0).
    pub serial_fraction: f64,
    /// USL contention σ.
    pub contention: f64,
    /// USL coherency κ.
    pub coherency: f64,
    /// Coefficient of determination of the USL fit.
    pub r_squared: f64,
    /// Detected scaling knee (thread count), `None` when the curve
    /// never flattened inside the measured grid.
    pub knee_threads: Option<usize>,
}

/// One stored scaling sweep (one JSONL line in `sweeps.jsonl`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Unique record id (content-derived unless supplied).
    pub id: String,
    /// Unix timestamp (seconds) of the sweep.
    pub timestamp_unix_s: u64,
    /// Git commit measured.
    pub git_commit: String,
    /// Where the sweep ran.
    pub machine: MachineFingerprint,
    /// Input-generation seed shared by all grid points.
    pub seed: u64,
    /// Timed repetitions per cell.
    pub reps: u32,
    /// Size-preset names swept.
    pub sizes: Vec<String>,
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// Marginal-speedup threshold used for knee detection.
    pub knee_threshold: f64,
    /// Kernels present in the sweep report but excluded from the record
    /// (the `chaos-*` fault-injection family).
    pub excluded: Vec<String>,
    /// Recorded grid cells, sweep order.
    pub cells: Vec<SweepCellRecord>,
    /// Per-curve model fits, sweep order.
    pub fits: Vec<SweepFitRecord>,
}

// ---- sweep_report.json wire mirror -------------------------------------

#[derive(Deserialize)]
struct OutcomeWire {
    kind: String,
}

#[derive(Deserialize)]
struct SweepCellWire {
    kernel: String,
    variant: String,
    size: String,
    threads: usize,
    timing: Option<Sample>,
    outcome: OutcomeWire,
}

#[derive(Deserialize)]
struct SweepWire {
    seed: u64,
    reps: u32,
    simd_backend: String,
    sizes: Vec<String>,
    threads: Vec<usize>,
    knee_threshold: f64,
    cells: Vec<SweepCellWire>,
    fits: Vec<SweepFitRecord>,
}

impl SweepRecord {
    /// Builds a record from a serialized `SweepReport` (the
    /// `sweep_report.json` that `reproduce --scale` writes).
    ///
    /// `chaos-*` kernels are dropped from cells and fits and listed in
    /// [`excluded`](SweepRecord::excluded); failed cells of real
    /// kernels keep their outcome tag with no sample.
    ///
    /// # Errors
    ///
    /// Returns a message when the JSON does not parse as a sweep report.
    pub fn from_sweep_json(json: &str, meta: &RecordMeta) -> Result<Self, String> {
        let sweep: SweepWire =
            serde_json::from_str(json).map_err(|e| format!("not a sweep report: {e}"))?;
        let mut excluded = Vec::new();
        let mut cells = Vec::new();
        for c in &sweep.cells {
            if kernel_is_excluded(&c.kernel) {
                if !excluded.contains(&c.kernel) {
                    excluded.push(c.kernel.clone());
                }
                continue;
            }
            let ok = c.outcome.kind == "ok";
            cells.push(SweepCellRecord {
                kernel: c.kernel.clone(),
                variant: c.variant.clone(),
                size: c.size.clone(),
                threads: c.threads,
                outcome: c.outcome.kind.clone(),
                sample: if ok { c.timing } else { None },
            });
        }
        let fits = sweep
            .fits
            .into_iter()
            .filter(|f| !kernel_is_excluded(&f.kernel))
            .collect();
        let mut record = SweepRecord {
            schema_version: SCHEMA_VERSION,
            id: String::new(),
            timestamp_unix_s: meta.timestamp_unix_s,
            git_commit: meta.git_commit.clone(),
            machine: meta.machine.clone(),
            seed: sweep.seed,
            reps: sweep.reps,
            sizes: sweep.sizes,
            threads: sweep.threads,
            knee_threshold: sweep.knee_threshold,
            excluded,
            cells,
            fits,
        };
        // The sweep report carries the authoritative backend name.
        record.machine.simd_backend = sweep.simd_backend;
        record.id = match &meta.id {
            Some(id) => id.clone(),
            None => record.derive_id(),
        };
        Ok(record)
    }

    /// Content-derived id: `sweep-<fnv64 of the identifying fields>`.
    pub fn derive_id(&self) -> String {
        let mut h = fnv1a64(b"ninja-perfdb-sweep");
        for part in [self.git_commit.as_str(), self.machine.hostname.as_str()] {
            h = fnv1a64_continue(h, part.as_bytes());
        }
        h = fnv1a64_continue(h, &self.timestamp_unix_s.to_le_bytes());
        h = fnv1a64_continue(h, &self.seed.to_le_bytes());
        h = fnv1a64_continue(h, &(self.cells.len() as u64).to_le_bytes());
        format!("sweep-{h:016x}")
    }

    /// Looks up one grid cell.
    pub fn cell(
        &self,
        kernel: &str,
        variant: &str,
        size: &str,
        threads: usize,
    ) -> Option<&SweepCellRecord> {
        self.cells.iter().find(|c| {
            c.kernel == kernel && c.variant == variant && c.size == size && c.threads == threads
        })
    }

    /// Looks up one curve's fit.
    pub fn fit(&self, kernel: &str, variant: &str, size: &str) -> Option<&SweepFitRecord> {
        self.fits
            .iter()
            .find(|f| f.kernel == kernel && f.variant == variant && f.size == size)
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
}

impl Record for SweepRecord {
    const FILE: &'static str = "sweeps.jsonl";

    fn id(&self) -> &str {
        &self.id
    }

    fn schema_version(&self) -> u32 {
        self.schema_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_json() -> String {
        r#"{
          "seed": 42,
          "reps": 1,
          "simd_backend": "avx2",
          "sizes": ["test"],
          "threads": [1, 2],
          "knee_threshold": 0.5,
          "cells": [
            {"kernel": "nbody", "variant": "parallel", "size": "test", "threads": 1,
             "timing": {"median_s": 0.1, "mean_s": 0.1, "stddev_s": 0.0,
                        "min_s": 0.1, "max_s": 0.1, "runs": 1},
             "outcome": {"kind": "ok"}},
            {"kernel": "nbody", "variant": "parallel", "size": "test", "threads": 2,
             "timing": {"median_s": 0.052, "mean_s": 0.052, "stddev_s": 0.0,
                        "min_s": 0.052, "max_s": 0.052, "runs": 1},
             "outcome": {"kind": "ok"}},
            {"kernel": "chaos-panic", "variant": "naive", "size": "test", "threads": 1,
             "timing": null, "outcome": {"kind": "panicked", "message": "boom"}},
            {"kernel": "nbody", "variant": "ninja", "size": "test", "threads": 2,
             "timing": null, "outcome": {"kind": "timed_out", "budget_s": 5.0}}
          ],
          "fits": [
            {"kernel": "nbody", "variant": "parallel", "size": "test", "bound": "compute",
             "serial_fraction": 0.04, "contention": 0.04, "coherency": 0.0,
             "r_squared": 1.0, "knee_threads": null},
            {"kernel": "chaos-panic", "variant": "parallel", "size": "test", "bound": "compute",
             "serial_fraction": 0.5, "contention": 0.5, "coherency": 0.0,
             "r_squared": 1.0, "knee_threads": 2}
          ]
        }"#
        .to_owned()
    }

    #[test]
    fn ingests_sweep_report_and_excludes_chaos() {
        let meta = RecordMeta::synthetic("sweep-test", "scalar");
        let rec = SweepRecord::from_sweep_json(&sweep_json(), &meta).unwrap();
        assert_eq!(rec.id, "sweep-test");
        assert_eq!(rec.machine.simd_backend, "avx2", "report backend wins");
        assert_eq!(rec.excluded, ["chaos-panic"]);
        assert_eq!(rec.cells.len(), 3);
        assert_eq!(rec.fits.len(), 1, "chaos fit dropped");
        assert_eq!(rec.kernels(), ["nbody"]);
        let cell = rec.cell("nbody", "parallel", "test", 2).unwrap();
        assert!(cell.is_ok());
        assert!((cell.sample.unwrap().median_s - 0.052).abs() < 1e-12);
        // The failed cell keeps its outcome and no sample.
        let failed = rec.cell("nbody", "ninja", "test", 2).unwrap();
        assert_eq!(failed.outcome, "timed_out");
        assert!(failed.sample.is_none());
        let fit = rec.fit("nbody", "parallel", "test").unwrap();
        assert!((fit.serial_fraction - 0.04).abs() < 1e-12);
        assert_eq!(fit.knee_threads, None);
    }

    #[test]
    fn derived_id_is_content_based() {
        let meta = RecordMeta::synthetic("x", "scalar");
        let mut rec = SweepRecord::from_sweep_json(&sweep_json(), &meta).unwrap();
        rec.id = rec.derive_id();
        assert!(rec.id.starts_with("sweep-"), "{}", rec.id);
        let again = rec.derive_id();
        assert_eq!(rec.id, again, "derivation is deterministic");
        rec.git_commit = "different".into();
        assert_ne!(rec.derive_id(), again);
    }

    #[test]
    fn jsonl_roundtrip_preserves_record() {
        let meta = RecordMeta::synthetic("sweep-rt", "scalar");
        let rec = SweepRecord::from_sweep_json(&sweep_json(), &meta).unwrap();
        let line = rec.to_jsonl_line();
        assert!(!line.contains('\n'));
        let back = SweepRecord::from_jsonl_line(&line).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn foreign_schema_version_is_rejected() {
        let meta = RecordMeta::synthetic("sweep-v", "scalar");
        let mut rec = SweepRecord::from_sweep_json(&sweep_json(), &meta).unwrap();
        rec.schema_version = SCHEMA_VERSION + 1;
        let err = SweepRecord::from_jsonl_line(&rec.to_jsonl_line()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn non_sweep_json_is_rejected() {
        let meta = RecordMeta::synthetic("x", "scalar");
        assert!(SweepRecord::from_sweep_json("{}", &meta).is_err());
        assert!(SweepRecord::from_sweep_json("not json", &meta).is_err());
    }
}
