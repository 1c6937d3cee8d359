//! Roofline-style analytical machine model for the Ninja-gap reproduction.
//!
//! The original study measured three CPU generations (Conroe, Nehalem, the
//! 6-core Westmere X980) and the Intel MIC prototype. This host has one
//! core, so everything beyond per-core effects is **projected** by this
//! crate instead of measured: it combines each kernel's roofline
//! characterization ([`ninja_kernels::Characterization`]) with a machine
//! description ([`Machine`]) to predict per-variant execution time, the
//! Ninja gap, its parallel/SIMD/algorithmic decomposition, and the effect
//! of hardware programmability features (gather/scatter) — i.e. the data
//! behind the paper's Figures 1-3, 5 and its hardware-support discussion.
//!
//! The model is deliberately simple (the paper itself reasons about its
//! benchmarks as compute- vs bandwidth-bound): per-core vector throughput
//! with Amdahl-style efficiency terms, a bandwidth roofline, a software
//! gather penalty, and a fixed Ninja tuning margin. It reproduces *shapes*
//! (who wins, by roughly what factor), not the authors' absolute numbers.
//!
//! # Example
//!
//! ```
//! use ninja_model::{machines, predicted_gap};
//! let c = ninja_kernels::registry()[0].character; // nbody
//! let gap = predicted_gap(&c, &machines::westmere());
//! assert!(gap > 10.0, "nbody Ninja gap on Westmere should be large");
//! let residual = ninja_model::predicted_residual(&c, &machines::westmere());
//! assert!(residual < 2.0, "low-effort code should land close to Ninja");
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attribution;
pub mod calibrate;
pub mod machines;
mod roofline;
pub mod scaling;

pub use attribution::{
    Attribution, BOUND_BANDWIDTH, BOUND_COMPUTE, BOUND_POORLY_UTILIZED, UTILIZATION_FLOOR_PCT,
};
pub use calibrate::{measure_host, HostCalibration};
pub use machines::{nominal_host, Machine};
pub use roofline::{
    gap_breakdown, gather_ablation, hardware_evolution, predicted_gap, predicted_residual,
    time_per_elem, GapBreakdown, HardwareStep, COMPILER_VECTOR_EFFICIENCY, NINJA_TUNING,
};
pub use scaling::{
    amdahl_speedup, detect_knee, fit_amdahl, fit_scaling, fit_usl, usl_speedup, ScalingFit,
    DEFAULT_KNEE_THRESHOLD,
};

/// Geometric mean of a slice of positive ratios (the paper reports average
/// gaps as means over benchmarks; geometric mean is the right average for
/// ratios).
///
/// # Panics
///
/// Panics if `xs` is empty or contains a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }
}
