//! Quickstart: measure the Ninja gap for one kernel on this machine and
//! compare it with the model's Westmere projection.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ninja_gap::prelude::*;

fn main() {
    // Pick the flagship kernel.
    let spec_name = "nbody";
    println!("== Ninja gap quickstart: {spec_name} ==\n");

    // 1. Measure every optimization tier on this host.
    let harness = Harness::new().size(ProblemSize::Quick).repetitions(3);
    println!(
        "measuring on this host ({} thread(s), {} backend)...\n",
        harness.num_threads(),
        ninja_gap::simd::isa::active()
    );
    let suite = harness.run_kernels(&[spec_name]);
    let report = suite.kernel(spec_name).expect("kernel ran");

    println!("{}", ninja_gap::harness::render::suite_table(&suite));
    println!(
        "measured Ninja gap (naive/ninja):        {:.2}X",
        report.measured_gap().expect("both variants ran")
    );
    println!(
        "measured residual (low-effort/ninja):    {:.2}X",
        report.measured_residual().expect("both variants ran")
    );

    // 2. Project onto the paper's 6-core Westmere and the MIC part.
    let spec = registry()
        .into_iter()
        .find(|s| s.name == spec_name)
        .expect("in registry");
    for m in [machines::westmere(), machines::mic()] {
        println!(
            "projected on {:<28} gap {:5.1}X, residual {:.2}X",
            m.name,
            predicted_gap(&spec.character, &m),
            predicted_residual(&spec.character, &m)
        );
    }
    println!("\n(The paper reports an average gap of 24X and residual of ~1.3X on Westmere.)");
}
