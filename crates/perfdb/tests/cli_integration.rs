//! End-to-end tests of the `perfdb` binary against the checked-in
//! fixture store (`tests/fixtures/runs.jsonl`).
//!
//! The fixture holds three runs of a two-kernel, five-variant suite:
//! `run-0001` and `run-0002` differ only by sub-noise jitter, while
//! `run-0003` carries a synthetic 2x slowdown on the `nbody`/`ninja`
//! cell. Regenerate with:
//!
//! ```text
//! REGEN_FIXTURES=1 cargo test -p ninja-perfdb --test cli_integration
//! ```

use ninja_perfdb::{CellRecord, MachineFingerprint, Record, RunRecord, Sample, SCHEMA_VERSION};
use std::path::{Path, PathBuf};
use std::process::Command;

const KERNELS: [&str; 2] = ["blackscholes", "nbody"];
const VARIANTS: [&str; 5] = ["naive", "parallel", "simd", "algorithmic", "ninja"];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn sample(median_s: f64) -> Sample {
    // 5 % relative spread, symmetric around the median.
    let half = median_s * 0.025;
    Sample {
        median_s,
        mean_s: median_s,
        stddev_s: half / 2.0,
        min_s: median_s - half,
        max_s: median_s + half,
        runs: 5,
    }
}

/// Deterministic per-cell base median: distinct, positive, stable.
fn base_median(kernel_idx: usize, variant_idx: usize) -> f64 {
    0.100 / (1.0 + kernel_idx as f64) / (1.0 + variant_idx as f64)
}

fn fixture_record(
    id: &str,
    timestamp: u64,
    scale: f64,
    slow_cell: Option<(&str, &str)>,
) -> RunRecord {
    let mut cells = Vec::new();
    for (ki, kernel) in KERNELS.iter().enumerate() {
        for (vi, variant) in VARIANTS.iter().enumerate() {
            let mut s = sample(base_median(ki, vi)).scaled(scale);
            if slow_cell == Some((kernel, variant)) {
                s = s.scaled(2.0);
            }
            cells.push(CellRecord {
                kernel: (*kernel).to_owned(),
                variant: (*variant).to_owned(),
                outcome: "ok".to_owned(),
                sample: Some(s),
                attribution: None,
                counters: None,
            });
        }
    }
    RunRecord {
        schema_version: SCHEMA_VERSION,
        id: id.to_owned(),
        timestamp_unix_s: timestamp,
        git_commit: "fixture".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        size: "test".to_owned(),
        seed: 42,
        threads: 2,
        isa: String::new(),
        excluded: vec!["chaos-panic".to_owned()],
        cells,
        vec_profiles: Vec::new(),
    }
}

/// The three fixture runs, oldest first.
fn fixture_records() -> Vec<RunRecord> {
    vec![
        fixture_record("run-0001", 1_700_000_000, 1.0, None),
        fixture_record("run-0002", 1_700_086_400, 1.005, None),
        fixture_record("run-0003", 1_700_172_800, 1.005, Some(("nbody", "ninja"))),
    ]
}

#[test]
fn fixture_store_is_in_sync_with_generator() {
    let path = fixture_dir().join("runs.jsonl");
    let expected: String = fixture_records()
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
        "checked-in fixture drifted from its generator; \
         regenerate with REGEN_FIXTURES=1"
    );
    // And every line round-trips through the schema.
    for (i, line) in on_disk.lines().enumerate() {
        let rec = RunRecord::from_jsonl_line(line)
            .unwrap_or_else(|e| panic!("fixture line {}: {e}", i + 1));
        assert_eq!(rec, fixture_records()[i]);
    }
}

fn perfdb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfdb"))
        .args(args)
        .args(["--store", fixture_dir().to_str().unwrap()])
        .output()
        .expect("spawn perfdb")
}

#[test]
fn compare_flags_the_synthetic_slowdown_with_machine_readable_output() {
    let out = perfdb(&[
        "compare",
        "latest~1",
        "--candidate",
        "latest",
        "--json",
        "-",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a confirmed regression must exit 1\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The JSON names the regressed cell.
    let json_start = stdout.find('{').expect("JSON report on stdout");
    let json = &stdout[json_start..];
    assert!(json.contains("\"kernel\": \"nbody\""), "json: {json}");
    assert!(json.contains("\"variant\": \"ninja\""), "json: {json}");
    assert!(json.contains("\"verdict\": \"regressed\""), "json: {json}");
    // Only that one cell regressed; the other nine are noise.
    assert_eq!(json.matches("\"verdict\": \"regressed\"").count(), 1);
    assert_eq!(json.matches("\"verdict\": \"noise\"").count(), 9);
}

#[test]
fn self_compare_is_noise_and_exits_zero() {
    let out = perfdb(&["compare", "latest", "--candidate", "latest"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "self-comparison must exit 0\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("verdict: noise"), "stdout: {stdout}");
    assert!(stdout.contains("0 regressed"), "stdout: {stdout}");
}

#[test]
fn quiet_neighbors_compare_as_noise() {
    // run-0001 vs run-0002 differ by 0.5 % — inside the 5 % spread floor.
    let out = perfdb(&["compare", "latest~2", "--candidate", "latest~1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn min_of_k_window_still_catches_the_slowdown() {
    let out = perfdb(&[
        "compare",
        "latest~1",
        "--window",
        "2",
        "--candidate",
        "latest",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("min-of-"), "stdout: {stdout}");
}

#[test]
fn trend_renders_the_recorded_trajectory() {
    let out = perfdb(&["trend", "nbody"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("run-0001"), "stdout: {stdout}");
    assert!(stdout.contains("run-0003"), "stdout: {stdout}");
}

#[test]
fn unknown_reference_is_a_usage_error() {
    let out = perfdb(&["compare", "no-such-run"]);
    assert_eq!(out.status.code(), Some(2));
}
