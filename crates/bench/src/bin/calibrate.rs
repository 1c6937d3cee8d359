//! Measures this host's scalar/SIMD FLOP rates and streaming bandwidth,
//! builds a calibrated machine description, and compares the model's
//! single-core predictions against actual kernel measurements.

use ninja_core::render::table;
use ninja_kernels::{registry, ProblemSize, Variant};
use ninja_model::{predicted_gap, time_per_elem};

fn main() {
    let cli = ninja_bench::cli_from_env();
    eprintln!("calibrating host (three ~0.3s microbenchmarks)...");
    let cal = ninja_model::measure_host();
    println!(
        "host calibration: scalar {:.2} GFLOP/s, {} SIMD {:.2} GFLOP/s \
         (effective width {:.2}), stream {:.2} GB/s\n",
        cal.scalar_gflops,
        ninja_simd::isa::active(),
        cal.simd_gflops,
        cal.effective_lanes(),
        cal.bandwidth_gbs
    );
    let machine = ninja_model::calibrate::machine_from(cal, cli.threads);
    println!("calibrated machine: {machine}\n");

    eprintln!("measuring kernels ({} size)...", cli.size);
    let harness = ninja_core::Harness::new()
        .size(cli.size)
        .threads(cli.threads)
        .repetitions(cli.reps);
    let suite = harness.run_suite();

    let mut rows = Vec::new();
    for spec in registry() {
        let k = suite.kernel(spec.name).expect("kernel ran");
        let measured = k.measured_gap().expect("gap available");
        let predicted = predicted_gap(&spec.character, &machine);
        let t_ninja = time_per_elem(&spec.character, Variant::Ninja, &machine);
        rows.push(vec![
            spec.name.to_owned(),
            format!("{measured:.2}X"),
            format!("{predicted:.2}X"),
            format!("{:.1}", measured / predicted),
            format!("{:.2e}", t_ninja),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "kernel",
                "measured gap",
                "model gap (calibrated)",
                "ratio",
                "model ninja s/elem"
            ],
            &rows
        )
    );
    println!(
        "(size preset: {}; a ratio near 1 means the calibrated roofline explains \
         this host's single-core gap)",
        ProblemSize::Quick
    );
}
