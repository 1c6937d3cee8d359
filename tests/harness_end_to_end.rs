//! End-to-end harness runs: measurement, report invariants, serialization,
//! and the rendered experiment artifacts.

use ninja_gap::harness::{experiments, render, Harness, SuiteReport};
use ninja_gap::prelude::*;

fn tiny_suite() -> SuiteReport {
    Harness::new()
        .size(ProblemSize::Test)
        .threads(2)
        .repetitions(1)
        .seed(11)
        .run_suite()
}

#[test]
fn full_suite_runs_and_reports_every_kernel() {
    let suite = tiny_suite();
    assert_eq!(suite.kernels.len(), registry().len());
    for k in &suite.kernels {
        assert_eq!(k.variants.len(), 5, "{}", k.kernel);
        for v in &k.variants {
            assert!(v.validated, "{}/{}", k.kernel, v.variant);
            assert!(v.is_ok(), "{}/{}: {}", k.kernel, v.variant, v.outcome);
            let timing = v.timing.as_ref().expect("ok variants carry timing");
            assert!(timing.median_s > 0.0, "{}/{}", k.kernel, v.variant);
            assert!(v.gflops > 0.0, "{}/{}", k.kernel, v.variant);
        }
        assert!(k.measured_gap().unwrap() > 0.0);
        assert!(k.measured_residual().unwrap() > 0.0);
    }
    assert!(suite.average_gap() > 0.0);
}

#[test]
fn report_serialization_roundtrips() {
    let suite = tiny_suite();
    let back = SuiteReport::from_json(&suite.to_json()).expect("parse own JSON");
    assert_eq!(suite, back);
    let csv = suite.to_csv();
    // Header + one row per (kernel, variant).
    assert_eq!(csv.lines().count(), 1 + suite.kernels.len() * 5);
}

#[test]
fn rendered_artifacts_mention_every_kernel() {
    let suite = tiny_suite();
    for artifact in [
        experiments::fig4_residual(&suite),
        render::suite_table(&suite),
    ] {
        for spec in registry() {
            assert!(artifact.contains(spec.name), "{} missing", spec.name);
        }
    }
}

#[test]
fn model_only_figures_render() {
    for artifact in [
        experiments::table1_suite(),
        experiments::table2_platforms(),
        experiments::fig1_gap_growth(),
        experiments::fig_breakdown(&machines::westmere()),
        experiments::fig_breakdown(&machines::mic()),
        experiments::fig5_mic_residual(),
        experiments::fig6_effort(),
        experiments::fig7_hardware_gather(),
    ] {
        assert!(
            artifact.lines().count() >= 3,
            "artifact too short:\n{artifact}"
        );
    }
    // What `reproduce model` prints: the eight sections, and no measured one.
    let report = experiments::model_report();
    for header in [
        "== T1: benchmark suite ==",
        "== T2: platforms ==",
        "== F1 ==",
        "== F2 (Westmere) ==",
        "== F3 (MIC) ==",
        "== F5 ==",
        "== F6 ==",
        "== F7 ==",
    ] {
        assert!(report.contains(header), "{header} missing:\n{report}");
    }
    assert!(!report.contains("== F4"), "{report}");
}

#[test]
fn seeds_change_inputs_but_not_validity() {
    let a = Harness::new()
        .size(ProblemSize::Test)
        .threads(1)
        .repetitions(1)
        .seed(1)
        .run_kernels(&["conv1d"]);
    let b = Harness::new()
        .size(ProblemSize::Test)
        .threads(1)
        .repetitions(1)
        .seed(2)
        .run_kernels(&["conv1d"]);
    let ca = a.kernels[0].variants[0].checksum;
    let cb = b.kernels[0].variants[0].checksum;
    assert_ne!(ca, cb, "different seeds must give different workloads");
}
