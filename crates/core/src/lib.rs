//! The Ninja-gap analysis harness.
//!
//! This crate is the paper's "experimental apparatus": it takes the
//! benchmark suite from [`ninja_kernels`], times every (kernel × variant)
//! pair with validation, computes measured Ninja gaps and residuals,
//! combines them with [`ninja_model`] projections for the machines this
//! host cannot be (multi-core Westmere, MIC, future parts), and renders
//! every table and figure of the paper as ASCII tables/bars, CSV, or JSON.
//!
//! Typical use:
//!
//! ```no_run
//! use ninja_core::{Harness, render};
//! use ninja_kernels::ProblemSize;
//!
//! let harness = Harness::new().size(ProblemSize::Quick).repetitions(3);
//! let suite = harness.run_suite();
//! println!("{}", render::suite_table(&suite));
//! println!("average measured gap: {:.1}X", suite.average_gap());
//! ```
//!
//! The per-figure entry points live in [`experiments`]; the `reproduce`
//! binary (`ninja-bench`) prints them.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
mod harness;
mod measure;
pub mod render;
mod report;
pub mod sweep;

pub use harness::Harness;
pub use measure::{measure, measure_with_samples, Measurement};
/// Assembly-level vectorization evidence for one (kernel, rung) cell, as
/// recorded by the `ninja-lint --asm` oracle (`ninja-bench` converts the
/// lint crate's `VecProfile` into it). The run store's own record type,
/// so the suite report and the store cannot drift apart.
pub use ninja_perfdb::VecProfileRecord;
pub use report::{KernelReport, SuiteReport, VariantOutcome, VariantResult};
pub use sweep::{thread_grid, SweepCell, SweepConfig, SweepFit, SweepReport};
