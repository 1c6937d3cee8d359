//! Sweep-record wire tests: the checked-in `tests/fixtures/sweeps.jsonl`
//! fixture with its generator-sync test (same pattern as the `RunRecord`
//! fixture in `cli_integration.rs`), plus end-to-end `perfdb record
//! --sweep` / `trend` round-trips through the binary.
//!
//! Regenerate the fixture after an intentional schema change with:
//!
//! ```text
//! REGEN_FIXTURES=1 cargo test -p ninja-perfdb --test sweep_records
//! ```

use ninja_perfdb::{
    MachineFingerprint, Record, Sample, Store, SweepCellRecord, SweepFitRecord, SweepRecord,
    SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const KERNELS: [(&str, &str); 2] = [("blackscholes", "compute"), ("nbody", "compute")];
const VARIANTS: [&str; 5] = ["naive", "parallel", "simd", "algorithmic", "ninja"];
const THREADS: [usize; 2] = [1, 2];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn sample(median_s: f64) -> Sample {
    let half = median_s * 0.025;
    Sample {
        median_s,
        mean_s: median_s,
        stddev_s: half / 2.0,
        min_s: median_s - half,
        max_s: median_s + half,
        runs: 3,
    }
}

/// Deterministic per-cell 1-thread median (same shape as the run
/// fixture generator).
fn base_median(kernel_idx: usize, variant_idx: usize) -> f64 {
    0.100 / (1.0 + kernel_idx as f64) / (1.0 + variant_idx as f64)
}

/// One fixture sweep: a 2-kernel × 5-rung × {1,2}-thread grid whose
/// parallel/ninja rungs scale with serial fraction `sigma`.
fn fixture_sweep(id: &str, timestamp: u64, sigma: f64) -> SweepRecord {
    let mut cells = Vec::new();
    let mut fits = Vec::new();
    for (ki, &(kernel, bound)) in KERNELS.iter().enumerate() {
        for (vi, &variant) in VARIANTS.iter().enumerate() {
            let scales = matches!(variant, "parallel" | "ninja");
            for &threads in &THREADS {
                let speedup = if scales && threads > 1 {
                    threads as f64 / (1.0 + sigma * (threads as f64 - 1.0))
                } else {
                    1.0
                };
                cells.push(SweepCellRecord {
                    kernel: kernel.to_owned(),
                    variant: variant.to_owned(),
                    size: "test".to_owned(),
                    threads,
                    outcome: "ok".to_owned(),
                    sample: Some(sample(base_median(ki, vi) / speedup)),
                });
            }
            fits.push(SweepFitRecord {
                kernel: kernel.to_owned(),
                variant: variant.to_owned(),
                size: "test".to_owned(),
                bound: bound.to_owned(),
                serial_fraction: if scales { sigma } else { 1.0 },
                contention: if scales { sigma } else { 1.0 },
                coherency: 0.0,
                r_squared: 1.0,
                knee_threads: if scales { None } else { Some(2) },
            });
        }
    }
    SweepRecord {
        schema_version: SCHEMA_VERSION,
        id: id.to_owned(),
        timestamp_unix_s: timestamp,
        git_commit: "fixture".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        seed: 42,
        reps: 3,
        sizes: vec!["test".to_owned()],
        threads: THREADS.to_vec(),
        knee_threshold: 0.5,
        excluded: vec!["chaos-panic".to_owned()],
        cells,
        fits,
    }
}

/// The two fixture sweeps, oldest first: the serial fraction drifts
/// from 0.05 to 0.12 between commits — exactly the drift `perfdb trend`
/// exists to show.
fn fixture_sweeps() -> Vec<SweepRecord> {
    vec![
        fixture_sweep("sweep-0001", 1_700_000_000, 0.05),
        fixture_sweep("sweep-0002", 1_700_086_400, 0.12),
    ]
}

#[test]
fn sweep_fixture_is_in_sync_with_generator() {
    let path = fixture_dir().join("sweeps.jsonl");
    let expected: String = fixture_sweeps()
        .iter()
        .map(|r| r.to_jsonl_line() + "\n")
        .collect();
    if std::env::var("REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        std::fs::write(&path, &expected).unwrap();
    }
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        on_disk, expected,
        "checked-in sweep fixture drifted from its generator; \
         regenerate with REGEN_FIXTURES=1"
    );
    // And every line round-trips through the schema.
    for (i, line) in on_disk.lines().enumerate() {
        let rec = SweepRecord::from_jsonl_line(line)
            .unwrap_or_else(|e| panic!("fixture line {}: {e}", i + 1));
        assert_eq!(rec, fixture_sweeps()[i]);
    }
}

#[test]
fn store_loads_the_fixture_sweeps() {
    let store = Store::open(fixture_dir());
    let (sweeps, skipped) = store.load_lossy::<SweepRecord>().unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(sweeps.len(), 2);
    let f0 = sweeps[0].fit("nbody", "parallel", "test").unwrap();
    let f1 = sweeps[1].fit("nbody", "parallel", "test").unwrap();
    assert!((f0.serial_fraction - 0.05).abs() < 1e-12);
    assert!((f1.serial_fraction - 0.12).abs() < 1e-12, "drift visible");
}

fn perfdb_in(store: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfdb"))
        .args(args)
        .args(["--store", store.to_str().unwrap()])
        .output()
        .expect("spawn perfdb")
}

#[test]
fn trend_on_fixture_store_shows_serial_fraction_drift() {
    let out = perfdb_in(&fixture_dir(), &["trend", "nbody"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("serial-fraction drift"), "stdout: {stdout}");
    assert!(stdout.contains("sweep-0001"), "stdout: {stdout}");
    assert!(stdout.contains("sweep-0002"), "stdout: {stdout}");
    assert!(stdout.contains("0.050"), "stdout: {stdout}");
    assert!(stdout.contains("0.120"), "stdout: {stdout}");
}

#[test]
fn record_sweep_round_trips_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("perfdb-sweep-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A minimal sweep_report.json as `reproduce --scale` writes it.
    let report = r#"{
      "seed": 7, "reps": 1, "simd_backend": "scalar",
      "sizes": ["test"], "threads": [1, 2], "knee_threshold": 0.5,
      "cells": [
        {"kernel": "conv1d", "variant": "ninja", "size": "test", "threads": 1,
         "timing": {"median_s": 0.2, "mean_s": 0.2, "stddev_s": 0.0,
                    "min_s": 0.2, "max_s": 0.2, "runs": 1},
         "outcome": {"kind": "ok"}},
        {"kernel": "conv1d", "variant": "ninja", "size": "test", "threads": 2,
         "timing": {"median_s": 0.11, "mean_s": 0.11, "stddev_s": 0.0,
                    "min_s": 0.11, "max_s": 0.11, "runs": 1},
         "outcome": {"kind": "ok"}}
      ],
      "fits": [
        {"kernel": "conv1d", "variant": "ninja", "size": "test", "bound": "compute",
         "serial_fraction": 0.1, "contention": 0.1, "coherency": 0.0,
         "r_squared": 1.0, "knee_threads": null}
      ]
    }"#;
    let report_path = dir.join("sweep_report.json");
    std::fs::write(&report_path, report).unwrap();

    let store = dir.join("store");
    let out = perfdb_in(
        &store,
        &[
            "record",
            "--sweep",
            report_path.to_str().unwrap(),
            "--id",
            "sweep-cli",
            "--commit",
            "abc123",
            "--timestamp",
            "1700000000",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("recorded sweep sweep-cli"), "{stdout}");

    // The recorded sweep comes back out through `trend`.
    let out = perfdb_in(&store, &["trend", "conv1d"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("serial-fraction drift"), "{stdout}");
    assert!(stdout.contains("sweep-cli"), "{stdout}");
    assert!(stdout.contains("abc123"), "{stdout}");

    // And in machine-readable form.
    let out = perfdb_in(&store, &["trend", "conv1d", "--json", "-"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"sweeps\""), "{stdout}");
    assert!(stdout.contains("\"serial_fraction\""), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_kernel_still_errors_with_sweeps_present() {
    let out = perfdb_in(&fixture_dir(), &["trend", "no-such-kernel"]);
    assert_eq!(out.status.code(), Some(2));
}
