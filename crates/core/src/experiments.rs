//! One entry point per table/figure of the paper.
//!
//! Each function returns the rendered artifact as a `String`; the
//! `ninja-bench` crate wraps them in `table*`/`fig*` binaries, and
//! EXPERIMENTS.md records their output next to the paper's numbers.
//!
//! Figure/table numbering follows the reconstructed index in DESIGN.md:
//!
//! * T1 suite table, T2 platform table
//! * F1 gap growth across CPU generations
//! * F2/F3 per-benchmark gap breakdown (Westmere / MIC)
//! * F4/F5 residual gap after low-effort changes (measured / MIC-projected)
//! * F6 programming effort
//! * F7 hardware gather support

use crate::render::{log_bar, table};
use crate::report::SuiteReport;
use ninja_kernels::{registry, KernelSpec, ProblemSize, Variant};
use ninja_model::{
    gap_breakdown, gather_ablation, geomean, hardware_evolution, machines, predicted_gap,
    predicted_residual, Machine,
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

/// A3 (ours): working-set scaling — throughput (million elements/s) of the
/// naive and ninja tiers across problem-size presets, exposing where each
/// kernel falls off a cache level.
pub fn size_scaling(threads: usize, reps: u32) -> String {
    size_scaling_over(&[ProblemSize::Test, ProblemSize::Quick], threads, reps)
}

/// [`size_scaling`] over an explicit list of presets (exposed for tests and
/// custom sweeps).
pub fn size_scaling_over(sizes: &[ProblemSize], threads: usize, reps: u32) -> String {
    let specs = registry();
    let mut per_kernel: Vec<Vec<String>> = specs.iter().map(|s| vec![s.name.to_owned()]).collect();
    for &size in sizes {
        let harness = crate::Harness::new()
            .size(size)
            .threads(threads)
            .repetitions(reps);
        let suite = harness.run_suite();
        for (row, spec) in per_kernel.iter_mut().zip(specs.iter()) {
            let k = suite.kernel(spec.name).expect("kernel ran");
            let mut cells = Vec::new();
            for vname in ["naive", "ninja"] {
                let median = k
                    .variants
                    .iter()
                    .find(|v| v.variant == vname)
                    .and_then(|v| v.median_s());
                cells.push(match median {
                    Some(s) => {
                        let instance = (spec.make)(size, 42);
                        let elems = instance.work().elems as f64;
                        format!("{:.2}", elems / s / 1e6)
                    }
                    None => "-".into(),
                });
            }
            row.extend(cells);
        }
    }
    let mut headers: Vec<String> = vec!["kernel".into()];
    for size in sizes {
        headers.push(format!("naive@{size}"));
        headers.push(format!("ninja@{size}"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut out =
        String::from("A3: throughput scaling across working-set sizes (million elems/s)\n\n");
    out.push_str(&table(&header_refs, &per_kernel));
    out
}

/// Runs the measured half of the evaluation at the given size and renders
/// everything (convenience for the `reproduce` binary).
pub fn full_report(size: ProblemSize, threads: usize, reps: u32) -> (SuiteReport, String) {
    let harness = crate::Harness::new()
        .size(size)
        .threads(threads)
        .repetitions(reps);
    full_report_with(&harness, &registry())
}

/// [`full_report`] over a pre-configured harness (timeout, fail-fast, …)
/// and a chosen list of specs — a subset of the registry, or the registry
/// plus injected chaos kernels. A failed variant never aborts the run;
/// the rendered output ends with a failure summary when anything went
/// wrong.
pub fn full_report_with(harness: &crate::Harness, specs: &[KernelSpec]) -> (SuiteReport, String) {
    let suite = harness.run_specs(specs);
    let mut out = String::new();
    out.push_str("== T1: benchmark suite ==\n\n");
    out.push_str(&table1_suite());
    out.push_str("\n== T2: platforms ==\n\n");
    out.push_str(&table2_platforms());
    out.push_str("\n== F1 ==\n\n");
    out.push_str(&fig1_gap_growth());
    out.push_str("\n== F2 (Westmere) ==\n\n");
    out.push_str(&fig_breakdown(&machines::westmere()));
    out.push_str("\n== F3 (MIC) ==\n\n");
    out.push_str(&fig_breakdown(&machines::mic()));
    out.push_str("\n== F4 ==\n\n");
    out.push_str(&fig4_residual(&suite));
    out.push_str("\n== F5 ==\n\n");
    out.push_str(&fig5_mic_residual());
    out.push_str("\n== F6 ==\n\n");
    out.push_str(&fig6_effort());
    out.push_str("\n== F7 ==\n\n");
    out.push_str(&fig7_hardware_gather());
    out.push_str("\n== measured suite detail ==\n\n");
    out.push_str(&crate::render::suite_table(&suite));
    if suite.has_failures() {
        out.push_str("\n== FAILURES (partial results above are still valid) ==\n\n");
        out.push_str(&suite.failure_summary());
    }
    (suite, out)
}

/// Measured single-host counterpart of the gap breakdown: speedup of each
/// tier over naive, per kernel (the thread axis is flat on a 1-core host).
pub fn measured_ladder(suite: &SuiteReport) -> String {
    let mut rows = Vec::new();
    for k in &suite.kernels {
        let mut row = vec![k.kernel.clone()];
        for v in [
            Variant::Parallel,
            Variant::Simd,
            Variant::Algorithmic,
            Variant::Ninja,
        ] {
            row.push(match k.speedup_over_naive(v) {
                Some(s) => format!("{s:.2}X"),
                None => "-".into(),
            });
        }
        rows.push(row);
    }
    table(
        &[
            "kernel",
            "+threads",
            "+compiler SIMD",
            "low-effort",
            "ninja",
        ],
        &rows,
    )
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
    fn size_scaling_renders_one_column_pair_per_size() {
        let t = size_scaling_over(&[ProblemSize::Test], 1, 1);
        assert!(t.contains("naive@test") && t.contains("ninja@test"));
        assert!(!t.contains("quick"));
        for s in registry() {
            assert!(t.contains(s.name));
        }
    }

    #[test]
    fn measured_figures_from_tiny_run() {
        let harness = crate::Harness::new()
            .size(ProblemSize::Test)
            .threads(1)
            .repetitions(1);
        let suite = harness.run_kernels(&["nbody", "conv1d"]);
        let f4 = fig4_residual(&suite);
        assert!(f4.contains("nbody") && f4.contains("GEOMEAN"));
        let ladder = measured_ladder(&suite);
        assert!(ladder.contains("conv1d"));
    }
}
