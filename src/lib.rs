//! # ninja-gap
//!
//! A full reproduction of *"Can traditional programming bridge the Ninja
//! performance gap for parallel computing applications?"* (Satish et al.,
//! ISCA 2012) as a Rust workspace.
//!
//! The **Ninja gap** is the performance distance between naively written,
//! parallelism-unaware code and the best hand-optimized ("Ninja")
//! implementation of the same computation. The paper measured an average
//! gap of 24X on a 6-core Westmere, showed it grows with every hardware
//! generation if unaddressed, and demonstrated that a small set of
//! well-known algorithmic changes plus compiler technology shrinks it to
//! ~1.3X.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`simd`] — the width-generic `Isa` SIMD layer with runtime dispatch
//!   and vector math (the intrinsics substrate),
//! * [`parallel`] — the OpenMP-style thread pool,
//! * [`kernels`] — the ten throughput benchmarks, each at five
//!   optimization tiers,
//! * [`model`] — the roofline machine model for cross-architecture
//!   projection,
//! * [`harness`] — measurement, validation, gap analysis, and the
//!   per-figure experiment entry points,
//! * [`probe`] — span tracing, pool utilization metrics, and the trace
//!   export behind `reproduce --trace` / `--probe-metrics`.
//!
//! ## Quickstart
//!
//! ```
//! use ninja_gap::harness::Harness;
//! use ninja_gap::kernels::ProblemSize;
//!
//! let harness = Harness::new().size(ProblemSize::Test).threads(1).repetitions(1);
//! let suite = harness.run_kernels(&["nbody"]);
//! let nbody = suite.kernel("nbody").unwrap();
//! println!("nbody Ninja gap on this host: {:.1}X", nbody.measured_gap().unwrap());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ninja_core as harness;
pub use ninja_kernels as kernels;
pub use ninja_model as model;
pub use ninja_parallel as parallel;
pub use ninja_probe as probe;
pub use ninja_simd as simd;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use ninja_core::{Harness, KernelReport, SuiteReport, VariantOutcome};
    pub use ninja_kernels::{registry, ProblemSize, Variant};
    pub use ninja_model::{machines, predicted_gap, predicted_residual, Machine};
    pub use ninja_parallel::ThreadPool;
}
