//! Byte-level golden for the optional-field half of `suite_report.json`.
//!
//! `tests/golden/suite_report.json` is a deterministic synthetic report
//! with everything a later PR bolted on populated — attribution with the
//! `measured_*` counter fields, raw `samples`, `isa`, `vec_profiles` —
//! next to a failed cell and a bare one. The file was written by the
//! hand-written serializers `Measurement` and `ninja_model::Attribution`
//! had before their serdes were derived, so a byte mismatch here is a
//! wire-format change. It also pins the one ingestion path: the same
//! bytes go through `to_run_record`, which splits the measured fields
//! into the store's `counters`.
//!
//! After an *intentional* schema change, regenerate with
//! `REGEN_FIXTURES=1 cargo test -p ninja-core --test report_golden`.

use ninja_core::{
    KernelReport, Measurement, SuiteReport, VariantOutcome, VariantResult, VecProfileRecord,
};
use ninja_model::{machines, Attribution};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/suite_report.json")
}

fn timing(median: f64, samples: Vec<f64>) -> Measurement {
    Measurement {
        median_s: median,
        mean_s: median * 1.01,
        stddev_s: median * 0.02,
        min_s: median * 0.97,
        max_s: median * 1.05,
        runs: 3,
        samples,
    }
}

fn ok_cell(variant: &str, median: f64) -> VariantResult {
    VariantResult {
        variant: variant.to_owned(),
        timing: Some(timing(median, Vec::new())),
        checksum: 1.5,
        gflops: 2.0,
        gbs: 0.5,
        validated: true,
        outcome: VariantOutcome::Ok,
        attribution: None,
    }
}

fn golden_report() -> SuiteReport {
    let m = machines::westmere();
    // Streaming-shaped work (0.25 flops/byte) placed on the roofline...
    let modeled = Attribution::new(6e9, 24e9, 1.0, &m).with_pool(1.3, 0.22, 0.25);
    // ...with a full counter group, and with a partially-admitted one.
    let counted = modeled
        .clone()
        .with_counters(&m, Some(1.4), Some(0.12), Some(25.0));
    let partial = Attribution::new(6e9, 24e9, 1.0, &m).with_counters(&m, Some(0.8), None, None);
    SuiteReport {
        size: "test".to_owned(),
        seed: 42,
        threads: 4,
        simd_backend: "avx2".to_owned(),
        isa: "avx2".to_owned(),
        kernels: vec![KernelReport {
            kernel: "lbm".to_owned(),
            bound: "memory".to_owned(),
            variants: vec![
                ok_cell("naive", 0.08),
                VariantResult {
                    attribution: Some(modeled),
                    ..ok_cell("parallel", 0.04)
                },
                VariantResult {
                    attribution: Some(partial),
                    ..ok_cell("simd", 0.02)
                },
                VariantResult {
                    timing: None,
                    checksum: 0.0,
                    gflops: 0.0,
                    gbs: 0.0,
                    outcome: VariantOutcome::TimedOut { budget_s: 2.5 },
                    ..ok_cell("algorithmic", 0.0)
                },
                VariantResult {
                    timing: Some(timing(0.01, vec![0.0105, 0.0097, 0.01])),
                    attribution: Some(counted),
                    ..ok_cell("ninja", 0.01)
                },
            ],
        }],
        vec_profiles: vec![VecProfileRecord {
            kernel: "lbm".to_owned(),
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

#[test]
fn populated_suite_report_keeps_its_bytes() {
    let report = golden_report();
    let json = report.to_json();
    let path = golden_path();
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
    }
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        on_disk, json,
        "suite_report.json drifted: the wire format of an optional field changed"
    );
    assert_eq!(SuiteReport::from_json(&on_disk).unwrap(), report);
}

#[test]
fn golden_report_ingests_into_a_run_record() {
    // The golden bytes (pinned above), through the one ingestion path.
    let meta = ninja_perfdb::RecordMeta::synthetic("golden", "unknown");
    let record = golden_report().to_run_record(&meta);
    assert_eq!(record.isa, "avx2");
    assert_eq!(record.vec_profile("lbm", "ninja").unwrap().width_bits, 256);

    // The measured fields leave the attribution object for `counters`.
    let ninja = record.cell("lbm", "ninja").unwrap();
    assert_eq!(ninja.attribution.as_ref().unwrap().pool_steal_ratio, 0.25);
    let counters = ninja.counters.as_ref().unwrap();
    assert_eq!(counters.ipc, Some(1.4));
    assert_eq!(counters.dram_gbs, Some(25.0));
    assert_eq!(counters.measured_bound.as_deref(), Some("bandwidth"));
    assert_eq!(counters.agreement, Some(true));
    // A partial group keeps what it saw; cells without counters have none.
    let simd = record
        .cell("lbm", "simd")
        .unwrap()
        .counters
        .as_ref()
        .unwrap();
    assert_eq!((simd.ipc, simd.dram_gbs), (Some(0.8), None));
    assert!(record.cell("lbm", "parallel").unwrap().counters.is_none());
    // Failed and bare cells carry neither.
    let failed = record.cell("lbm", "algorithmic").unwrap();
    assert_eq!(failed.outcome, "timed_out");
    assert!(failed.sample.is_none() && failed.attribution.is_none());
    assert!(record.cell("lbm", "naive").unwrap().attribution.is_none());
}
