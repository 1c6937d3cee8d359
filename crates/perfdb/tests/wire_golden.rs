//! Byte-level goldens for the optional-field half of the wire format.
//!
//! The fixture store under `tests/fixtures/` only holds records with every
//! later-added field absent. `tests/golden/` holds the other half: a run
//! record with every optional field populated next to a pre-field legacy
//! line, and the `BENCH_history.json` built from the two (one point with
//! and one without `ninja_vec_width_bits`/`ninja_ipc`). The files were
//! written by the hand-written serializers this crate had before its
//! serdes were derived, so a byte mismatch here is a wire-format change.
//!
//! After an *intentional* schema change, regenerate with
//! `REGEN_FIXTURES=1 cargo test -p ninja-perfdb --test wire_golden`.

use ninja_perfdb::schema::{CellAttribution, CellCounters, VecProfileRecord};
use ninja_perfdb::{
    CellRecord, History, MachineFingerprint, RunRecord, Sample, Store, SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn sample(median_s: f64) -> Sample {
    Sample {
        median_s,
        mean_s: median_s * 1.01,
        stddev_s: median_s * 0.0125,
        min_s: median_s * 0.975,
        max_s: median_s * 1.025,
        runs: 5,
    }
}

fn attribution(roofline_pct: f64, pool_steal_ratio: f64) -> CellAttribution {
    CellAttribution {
        achieved_gflops: 12.5,
        achieved_gbs: 3.25,
        roofline_pct,
        bound: "compute".to_owned(),
        pool_imbalance: 1.3,
        pool_idle_pct: 22.0,
        pool_steal_ratio,
    }
}

fn cell(variant: &str, median_s: f64) -> CellRecord {
    CellRecord {
        kernel: "nbody".to_owned(),
        variant: variant.to_owned(),
        outcome: "ok".to_owned(),
        sample: Some(sample(median_s)),
        attribution: None,
        counters: None,
    }
}

/// A record written before `pool_steal_ratio`, `counters`, `isa` and
/// `vec_profiles` existed: attribution yes, the later fields no.
fn legacy_record() -> RunRecord {
    RunRecord {
        schema_version: SCHEMA_VERSION,
        id: "run-legacy".to_owned(),
        timestamp_unix_s: 1_700_000_000,
        git_commit: "golden".to_owned(),
        machine: MachineFingerprint::synthetic("scalar"),
        size: "test".to_owned(),
        seed: 42,
        threads: 2,
        isa: String::new(),
        excluded: Vec::new(),
        cells: vec![
            cell("naive", 0.08),
            cell("algorithmic", 0.013),
            CellRecord {
                attribution: Some(attribution(31.0, 0.0)),
                ..cell("ninja", 0.01)
            },
        ],
        vec_profiles: Vec::new(),
    }
}

/// The same suite one commit later with every optional field populated.
fn full_record() -> RunRecord {
    let mut machine = MachineFingerprint::synthetic("avx2");
    machine.calibrated_freq_ghz = Some(2.4);
    machine.calibrated_simd_f32_lanes = Some(8);
    machine.calibrated_core_bandwidth_gbs = Some(11.5);
    RunRecord {
        schema_version: SCHEMA_VERSION,
        id: "run-full".to_owned(),
        timestamp_unix_s: 1_700_086_400,
        git_commit: "golden".to_owned(),
        machine,
        size: "test".to_owned(),
        seed: 18_446_744_073_709_551_615,
        threads: 4,
        isa: "avx2".to_owned(),
        excluded: vec!["chaos-panic".to_owned()],
        cells: vec![
            cell("naive", 0.08),
            CellRecord {
                outcome: "timed_out".to_owned(),
                sample: None,
                ..cell("algorithmic", 0.0)
            },
            CellRecord {
                attribution: Some(attribution(62.5, 0.25)),
                counters: Some(CellCounters {
                    ipc: Some(2.31),
                    llc_miss_rate: Some(0.04),
                    dram_gbs: Some(9.75),
                    measured_bound: Some("bandwidth".to_owned()),
                    agreement: Some(false),
                }),
                ..cell("ninja", 0.008)
            },
            // A partially-admitted counter group writes only what it saw.
            CellRecord {
                counters: Some(CellCounters {
                    ipc: Some(0.8),
                    llc_miss_rate: None,
                    dram_gbs: None,
                    measured_bound: None,
                    agreement: None,
                }),
                ..cell("simd", 0.02)
            },
        ],
        vec_profiles: vec![VecProfileRecord {
            kernel: "nbody".to_owned(),
            rung: "ninja".to_owned(),
            width_bits: 256,
            fma: true,
            gather: false,
            scatter: false,
            vector_fp_ops: 40,
            scalar_fp_ops: 4,
            vector_int_ops: 3,
            matched_symbols: 1,
            classification: "vec256".to_owned(),
        }],
    }
}

fn golden_records() -> Vec<RunRecord> {
    vec![legacy_record(), full_record()]
}

/// Compares `actual` with the checked-in golden `name`, rewriting the
/// golden first under `REGEN_FIXTURES`.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
    }
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        on_disk, actual,
        "{name} drifted: the wire format of an optional field changed"
    );
}

#[test]
fn populated_and_legacy_run_records_keep_their_bytes() {
    // Write through the store itself, so the bytes compared are the bytes
    // `reproduce --record` would put on disk.
    let dir = std::env::temp_dir().join(format!("perfdb-wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir);
    for record in golden_records() {
        store.append(&record).unwrap();
    }
    let written = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_golden("runs.jsonl", &written);

    // The optional keys sit where they always did: after `cells`, and
    // absent from the legacy line.
    let mut lines = written.lines();
    let (legacy, full) = (lines.next().unwrap(), lines.next().unwrap());
    for key in ["pool_steal_ratio", "counters", "\"isa\"", "vec_profiles"] {
        assert!(!legacy.contains(key), "{key} in the legacy line: {legacy}");
        assert!(
            full.contains(key),
            "{key} missing from the full line: {full}"
        );
    }
    assert!(full.find("\"cells\"").unwrap() < full.find("\"isa\"").unwrap());
    assert!(full.find("\"isa\"").unwrap() < full.find("\"vec_profiles\"").unwrap());

    // And the checked-in bytes load back to exactly the records above.
    assert_eq!(Store::open(golden_dir()).load().unwrap(), golden_records());
}

#[test]
fn history_artifact_keeps_its_bytes() {
    let history = History::from_records(&golden_records());
    let json = history.to_json();
    assert_matches_golden("BENCH_history.json", &json);
    let points = &history.kernel("nbody").unwrap().points;
    assert_eq!(
        (points[0].ninja_vec_width_bits, points[0].ninja_ipc),
        (None, None)
    );
    assert_eq!(
        (points[1].ninja_vec_width_bits, points[1].ninja_ipc),
        (Some(256), Some(2.31))
    );
    let back: History = serde_json::from_str(&json).unwrap();
    assert_eq!(back, history);
}
