//! One entry point per table/figure of the paper.
//!
//! Each function returns the rendered artifact as a `String`; the
//! `reproduce` binary (`ninja-bench`) prints them, and EXPERIMENTS.md
//! records their output next to the paper's numbers.
//!
//! Figure/table numbering follows the reconstructed index in DESIGN.md:
//!
//! * T1 suite table, T2 platform table
//! * F1 gap growth across CPU generations
//! * F2/F3 per-benchmark gap breakdown (Westmere / MIC)
//! * F4/F5 residual gap after low-effort changes (measured / MIC-projected)
//! * F6 programming effort
//! * F7 hardware gather support
//! * C1 measured gap vs the calibrated host model

use crate::render::{log_bar, table};
use crate::report::SuiteReport;
use ninja_kernels::{registry, KernelSpec, Variant};
use ninja_model::{
    gap_breakdown, gather_ablation, geomean, hardware_evolution, machines, predicted_gap,
    predicted_residual, time_per_elem, Machine,
};

/// T1: the benchmark-suite table (name, role, boundedness, key change).
pub fn table1_suite() -> String {
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|s| {
            vec![
                s.name.to_owned(),
                s.description.to_owned(),
                s.bound.to_owned(),
                s.variants[3].what_changed.to_owned(),
            ]
        })
        .collect();
    table(
        &["kernel", "description", "bound", "key low-effort change"],
        &rows,
    )
}

/// T2: the platform table (the paper's measured machines plus futures).
pub fn table2_platforms() -> String {
    let mut ms = machines::cpu_generations();
    ms.push(machines::mic());
    ms.push(machines::future(2));
    let rows: Vec<Vec<String>> = ms
        .iter()
        .map(|m| {
            vec![
                m.name.clone(),
                m.year.to_string(),
                m.cores.to_string(),
                format!("{:.1}", m.freq_ghz),
                m.simd_f32_lanes.to_string(),
                format!("{:.0}", m.peak_gflops()),
                format!("{:.0}", m.bandwidth_gbs),
                if m.has_gather { "yes" } else { "no" }.into(),
            ]
        })
        .collect();
    table(
        &[
            "platform",
            "year",
            "cores",
            "GHz",
            "SIMD",
            "peak GF/s",
            "GB/s",
            "gather",
        ],
        &rows,
    )
}

/// F1: Ninja-gap growth across processor generations (model projection).
///
/// The paper's motivating figure: the naive-vs-Ninja gap grows from the
/// 2-core/SSE era to 6-core Westmere and keeps growing on hypothetical
/// future parts if code stays naive.
pub fn fig1_gap_growth() -> String {
    let mut machines_list = machines::cpu_generations();
    machines_list.push(machines::future(1));
    machines_list.push(machines::future(2));
    let specs = registry();
    let mut rows = Vec::new();
    let mut out = String::from("F1: projected Ninja gap (naive / best) per CPU generation\n\n");
    for m in &machines_list {
        let gaps: Vec<f64> = specs
            .iter()
            .map(|s| predicted_gap(&s.character, m))
            .collect();
        let avg = geomean(&gaps);
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        rows.push(vec![
            m.name.clone(),
            m.year.to_string(),
            format!("{avg:.1}X"),
            format!("{max:.1}X"),
            log_bar(avg, 120.0, 40),
        ]);
    }
    out.push_str(&table(
        &["platform", "year", "avg gap", "max gap", ""],
        &rows,
    ));
    out
}

/// F2/F3: per-benchmark gap breakdown on one machine (model projection).
///
/// Columns mirror the paper's stacked bars: how much of the gap threading
/// alone closes, how much compiler vectorization alone closes, the
/// algorithmic-change factor, and the residual to Ninja.
pub fn fig_breakdown(m: &Machine) -> String {
    let specs = registry();
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for s in &specs {
        let b = gap_breakdown(&s.character, m);
        totals.push(b.total);
        rows.push(vec![
            s.name.to_owned(),
            format!("{:.1}X", b.total),
            format!("{:.1}X", b.parallel),
            format!("{:.1}X", b.simd),
            format!("{:.2}X", b.algorithmic),
            format!("{:.2}X", b.residual),
            log_bar(b.total, 120.0, 40),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".into(),
        format!("{:.1}X", geomean(&totals)),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let mut out = format!("Gap breakdown on {} (model projection)\n\n", m.name);
    out.push_str(&table(
        &[
            "kernel",
            "total gap",
            "+threads",
            "+compiler SIMD",
            "algo factor",
            "residual",
            "",
        ],
        &rows,
    ));
    out
}

/// F4: residual gap after low-effort changes — **measured on this host**
/// next to the Westmere model projection.
///
/// The paper's headline: the residual averages ~1.3X.
pub fn fig4_residual(suite: &SuiteReport) -> String {
    let wm = machines::westmere();
    let specs = registry();
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    let mut projected = Vec::new();
    for s in &specs {
        let model_r = predicted_residual(&s.character, &wm);
        projected.push(model_r);
        let (m_str, bar) = match suite.kernel(s.name).and_then(|k| k.measured_residual()) {
            Some(r) => {
                measured.push(r);
                (format!("{r:.2}X"), log_bar(r, 4.0, 24))
            }
            None => ("-".into(), String::new()),
        };
        rows.push(vec![
            s.name.to_owned(),
            m_str,
            format!("{model_r:.2}X"),
            bar,
        ]);
    }
    let mut footer = vec!["GEOMEAN".to_owned()];
    footer.push(if measured.is_empty() {
        "-".into()
    } else {
        format!("{:.2}X", geomean(&measured))
    });
    footer.push(format!("{:.2}X", geomean(&projected)));
    footer.push(String::new());
    rows.push(footer);
    let mut out = String::from(
        "F4: residual gap of low-effort (algorithmic+compiler+threads) code vs Ninja\n\n",
    );
    out.push_str(&table(
        &["kernel", "measured (this host)", "model (Westmere)", ""],
        &rows,
    ));
    out
}

/// F5: residual gap projected on MIC.
pub fn fig5_mic_residual() -> String {
    let mic = machines::mic();
    let specs = registry();
    let mut rows = Vec::new();
    let mut rs = Vec::new();
    for s in &specs {
        let r = predicted_residual(&s.character, &mic);
        rs.push(r);
        rows.push(vec![
            s.name.to_owned(),
            format!("{r:.2}X"),
            log_bar(r, 4.0, 24),
        ]);
    }
    rows.push(vec![
        "GEOMEAN".into(),
        format!("{:.2}X", geomean(&rs)),
        String::new(),
    ]);
    let mut out = String::from("F5: residual gap vs Ninja on Intel MIC (model projection)\n\n");
    out.push_str(&table(&["kernel", "residual", ""], &rows));
    out
}

/// F6: programming effort (LoC changed vs naive) against the speedup each
/// tier delivers (Westmere projection) — the paper's effort argument:
/// traditional tiers buy most of the performance for a small fraction of
/// the Ninja effort.
pub fn fig6_effort() -> String {
    let wm = machines::westmere();
    let specs = registry();
    let mut rows = Vec::new();
    for s in &specs {
        let gap = predicted_gap(&s.character, &wm);
        let residual = predicted_residual(&s.character, &wm);
        let algo_loc = s.variants[3].effort_loc;
        let ninja_loc = s.variants[4].effort_loc;
        let frac_perf = gap / residual / gap; // fraction of ninja perf reached
        rows.push(vec![
            s.name.to_owned(),
            algo_loc.to_string(),
            ninja_loc.to_string(),
            format!("{:.0}%", 100.0 * algo_loc as f64 / ninja_loc as f64),
            format!("{:.0}%", 100.0 * frac_perf),
        ]);
    }
    let mut out = String::from(
        "F6: programming effort — lines changed vs naive, and the share of\nNinja performance the low-effort tier reaches (Westmere model)\n\n",
    );
    out.push_str(&table(
        &[
            "kernel",
            "low-effort LoC",
            "ninja LoC",
            "effort ratio",
            "perf reached",
        ],
        &rows,
    ));
    out
}

/// F7: hardware programmability — the gather-support ablation.
pub fn fig7_hardware_gather() -> String {
    let wm = machines::westmere();
    let specs = registry();
    let mut rows = Vec::new();
    for s in &specs {
        if s.character.gather_per_elem == 0.0 {
            continue;
        }
        let (r_no, r_yes, ninja_gain) = gather_ablation(&s.character, &wm);
        rows.push(vec![
            s.name.to_owned(),
            format!("{:.0}", s.character.gather_per_elem),
            format!("{r_no:.2}X"),
            format!("{r_yes:.2}X"),
            format!("{ninja_gain:.2}X"),
        ]);
    }
    let mut out =
        String::from("F7: effect of hardware gather support (model, Westmere-class core)\n\n");
    out.push_str(&table(
        &[
            "kernel",
            "gathers/elem",
            "residual w/o gather",
            "residual w/ gather",
            "ninja speedup",
        ],
        &rows,
    ));
    out.push_str("\nHardware-evolution sweep (gather -> +FMA -> +AVX) on the same core:\n\n");
    let mut rows = Vec::new();
    for s in &specs {
        let steps = hardware_evolution(&s.character, &wm);
        let mut row = vec![s.name.to_owned()];
        for step in &steps[1..] {
            row.push(format!("{:.2}X", step.ninja_speedup));
        }
        row.push(format!("{:.2}X", steps[3].residual));
        rows.push(row);
    }
    out.push_str(&table(
        &["kernel", "+gather", "+FMA", "+AVX", "final residual"],
        &rows,
    ));
    out
}

/// The eight artifacts that need no measurement — T1, T2, F1, F2, F3, F5,
/// F6 and F7 — each under its `== … ==` header. `reproduce model` prints
/// exactly this, and [`full_report_with`] opens with it.
pub fn model_report() -> String {
    let mut out = String::new();
    for (header, body) in [
        ("T1: benchmark suite", table1_suite()),
        ("T2: platforms", table2_platforms()),
        ("F1", fig1_gap_growth()),
        ("F2 (Westmere)", fig_breakdown(&machines::westmere())),
        ("F3 (MIC)", fig_breakdown(&machines::mic())),
        ("F5", fig5_mic_residual()),
        ("F6", fig6_effort()),
        ("F7", fig7_hardware_gather()),
    ] {
        out.push_str(&format!("== {header} ==\n\n{body}\n"));
    }
    out
}

/// Runs `specs` on a pre-configured harness (timeout, fail-fast, …) —
/// a subset of the registry, or the registry plus injected chaos kernels
/// — and renders every artifact: [`model_report`], then the measured F4
/// and the suite detail. A failed variant never aborts the run; the
/// rendered output ends with a failure summary when anything went wrong.
pub fn full_report_with(harness: &crate::Harness, specs: &[KernelSpec]) -> (SuiteReport, String) {
    let suite = harness.run_specs(specs);
    let mut out = model_report();
    out.push_str("== F4 ==\n\n");
    out.push_str(&fig4_residual(&suite));
    out.push_str("\n== measured suite detail ==\n\n");
    out.push_str(&crate::render::suite_table(&suite));
    if suite.has_failures() {
        out.push_str("\n== FAILURES (partial results above are still valid) ==\n\n");
        out.push_str(&suite.failure_summary());
    }
    (suite, out)
}

/// C1: the measured Ninja gap of each registry kernel next to the gap the
/// roofline predicts for `machine` (normally this host, calibrated). A
/// kernel without a measured naive and ninja rung — a failed cell, or one
/// left out of the run — shows `-` for the measured gap and the ratio.
pub fn calibration_gap(suite: &SuiteReport, machine: &Machine) -> String {
    let rows: Vec<Vec<String>> = registry()
        .iter()
        .map(|spec| {
            let predicted = predicted_gap(&spec.character, machine);
            let measured = suite.kernel(spec.name).and_then(|k| k.measured_gap());
            vec![
                spec.name.to_owned(),
                measured.map_or("-".into(), |g| format!("{g:.2}X")),
                format!("{predicted:.2}X"),
                measured.map_or("-".into(), |g| format!("{:.1}", g / predicted)),
                format!(
                    "{:.2e}",
                    time_per_elem(&spec.character, Variant::Ninja, machine)
                ),
            ]
        })
        .collect();
    let mut out = format!(
        "C1: measured gap vs the calibrated model (size {}, {} thread(s))\n\n",
        suite.size, suite.threads
    );
    out.push_str(&table(
        &[
            "kernel",
            "measured gap",
            "model gap (calibrated)",
            "ratio",
            "model ninja s/elem",
        ],
        &rows,
    ));
    out.push_str("(a ratio near 1 means the calibrated roofline explains this host's gap)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_all_kernels() {
        let t1 = table1_suite();
        for s in registry() {
            assert!(t1.contains(s.name), "{} missing from T1", s.name);
        }
        assert!(table2_platforms().contains("Westmere"));
        assert!(table2_platforms().contains("MIC"));
    }

    #[test]
    fn fig1_shows_growth() {
        let f = fig1_gap_growth();
        assert!(f.contains("Conroe"));
        assert!(f.contains("Hypothetical"));
    }

    #[test]
    fn breakdown_contains_geomean() {
        let f = fig_breakdown(&machines::westmere());
        assert!(f.contains("GEOMEAN"));
        assert!(f.contains("nbody"));
    }

    #[test]
    fn fig7_covers_gather_table_and_evolution_sweep() {
        let f = fig7_hardware_gather();
        assert!(f.contains("treesearch"));
        assert!(f.contains("volumerender"));
        assert!(f.contains("backprojection"));
        // Evolution sweep covers every kernel, including non-gather ones.
        assert!(f.contains("+FMA") && f.contains("conv1d"));
    }

    #[test]
    fn measured_figures_from_tiny_run() {
        let harness = crate::Harness::new()
            .size(ninja_kernels::ProblemSize::Test)
            .threads(1)
            .repetitions(1);
        let mut suite = harness.run_kernels(&["nbody", "conv1d"]);
        let f4 = fig4_residual(&suite);
        assert!(f4.contains("nbody") && f4.contains("GEOMEAN"));

        // A failed ninja cell leaves conv1d without a gap; lbm never ran.
        let conv1d = suite.kernels.iter_mut().find(|k| k.kernel == "conv1d");
        conv1d.expect("conv1d ran").variants[4] = crate::VariantResult::failed(
            Variant::Ninja,
            true,
            crate::VariantOutcome::Panicked {
                message: "injected".into(),
            },
        );
        let c1 = calibration_gap(&suite, &machines::westmere());
        assert!(c1.contains("size test, 1 thread(s)"), "{c1}");
        let row = |name: &str| -> Vec<String> {
            let line = c1.lines().find(|l| l.starts_with(name)).expect(name);
            line.split_whitespace().map(str::to_owned).collect()
        };
        assert!(row("nbody")[1].ends_with('X'), "{c1}");
        for name in ["conv1d", "lbm"] {
            let cells = row(name);
            assert_eq!((cells[1].as_str(), cells[3].as_str()), ("-", "-"), "{c1}");
            assert!(cells[2].ends_with('X'), "the model column stays: {c1}");
        }
    }
}
