//! The repo benchmark. Four workloads run one pipeline — set-up, a ladder
//! phase over the workload's kernels, and `solo` and `burst` serving
//! phases over its served kernel — so every metric exists on every
//! workload. The untraced run reports the end-to-end metrics, the traced
//! run the per-layer ones; `BENCHMARK.json` at the repo root names both.
//!
//! Only public functions of the program are driven, from one generator
//! thread plus the program's own threads.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod affinity;
pub mod ladder;
pub mod probes;
pub mod run;
pub mod serving;
pub mod spec;
pub mod stats;
pub mod trace;
