//! Data-parallel runtime for the Ninja-gap reproduction.
//!
//! The paper's "low effort" parallel tier annotates loops with OpenMP
//! `parallel for` pragmas; its Ninja tier hand-partitions work across
//! threads. This crate provides the equivalent substrate in Rust:
//!
//! * [`ThreadPool`] — a persistent pool of worker threads scheduled by a
//!   work-stealing runtime: each worker owns a lock-free Chase–Lev deque
//!   (LIFO pop, randomized FIFO theft by idle peers), with a shared
//!   injector demoted to overflow/external submission,
//! * [`ThreadPoolBuilder`] — scheduling knobs: thread count and
//!   round-robin core affinity,
//! * [`ThreadPool::parallel_for`] — OpenMP-style loop parallelism with
//!   dynamic chunk scheduling,
//! * [`ThreadPool::parallel_reduce`] — parallel map-reduce over an index
//!   range,
//! * [`ThreadPool::join`] — binary fork-join (used by the recursive
//!   merge-sort variants),
//! * [`par_chunks_mut`] — parallel iteration over disjoint mutable chunks of
//!   a slice, the idiom behind "each thread owns a tile of the output".
//!
//! On a single-core host the pool degrades gracefully: a pool with one
//! thread runs everything inline with no queue traffic, so the *naive vs.
//! parallel* comparison measures only scheduling overhead (the multi-core
//! speedup itself is projected by `ninja-model`).
//!
//! The pool is instrumented with `ninja-probe`: when
//! [`ninja_probe::set_metrics`] is on, relaxed-atomic per-lane counters
//! record tasks, chunks, busy nanoseconds, and the scheduler's own
//! traffic (local pops, injector pops, steals, parked time), snapshotted
//! via [`ThreadPool::metrics`]; when tracing is on, each `parallel_for`
//! participant records a span on its own lane. With both flags off (the
//! default) the cost is one relaxed boolean load per region.
//!
//! # Example
//!
//! ```
//! use ninja_parallel::ThreadPool;
//!
//! let pool = ThreadPool::with_threads(2);
//! let total = pool.parallel_reduce(0..1000, 64, 0u64, |r| r.map(|i| i as u64).sum(), |a, b| a + b);
//! assert_eq!(total, 499_500);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod latch;
mod pool;
mod scope;
mod slice;

pub use pool::{ThreadPool, ThreadPoolBuilder};
pub use scope::Scope;
pub use slice::{par_chunks_mut, par_zip_chunks_mut};

/// Returns the number of hardware threads available to this process.
///
/// Falls back to 1 if the operating system cannot report it.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn hardware_threads_is_positive() {
        assert!(super::hardware_threads() >= 1);
    }
}
