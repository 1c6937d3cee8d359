//! The record path, end to end: a measured suite becomes a run record,
//! lands in a store on disk, loads back identical, and compares against
//! itself as noise — the path `reproduce --record` / `--baseline` and the
//! `perfdb` CLI take, exercised by the tier-1 test command.

use ninja_gap::harness::Harness;
use ninja_gap::prelude::*;
use ninja_perfdb::{compare_records, CompareConfig, RecordMeta, Store, Verdict};

#[test]
fn measured_suite_records_loads_and_self_compares_as_noise() {
    let suite = Harness::new()
        .size(ProblemSize::Test)
        .threads(2)
        .repetitions(2)
        .seed(11)
        .run_suite();
    let record = suite.to_run_record(&RecordMeta::synthetic("run-e2e", &suite.simd_backend));
    assert_eq!(record.cells.len(), registry().len() * Variant::ALL.len());
    assert_eq!(record.isa, suite.isa);
    assert!(record
        .cells
        .iter()
        .all(|c| c.is_ok() && c.attribution.is_some()));

    let dir = std::env::temp_dir().join(format!("ninja-gap-record-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir);
    store.append(&record).unwrap();
    let loaded = store.load();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        loaded.unwrap(),
        std::slice::from_ref(&record),
        "the wire loses nothing"
    );

    let report = compare_records(&record, &record, &CompareConfig::default());
    assert_eq!(report.cells.len(), record.cells.len());
    assert!(report.skipped.is_empty(), "{:?}", report.skipped);
    assert!(report.cells.iter().all(|c| c.verdict == Verdict::Noise));
    assert!(!report.has_regressions());
}
