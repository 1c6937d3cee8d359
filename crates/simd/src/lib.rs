//! Explicit, width-generic SIMD for the Ninja-gap reproduction.
//!
//! The ISCA 2012 "Ninja gap" study distinguishes three ways of getting SIMD
//! performance out of a core:
//!
//! 1. **Naive code** — scalar loops the compiler cannot vectorize,
//! 2. **Compiler-vectorized code** — restructured scalar loops (unit stride,
//!    no cross-iteration dependences) that an auto-vectorizer handles, and
//! 3. **Ninja code** — hand-written SIMD intrinsics.
//!
//! This crate is the substrate for tier 3, and it is one layer: the
//! [`isa`] module. A kernel is written once against the [`isa::Isa`]
//! trait bundle (lane-wise arithmetic, comparisons and blends, masked
//! tail loads/stores, reductions, gather, `rsqrt`, the bitonic-merge
//! permutes, and the vector transcendentals in [`isa::math`] that the
//! paper's financial kernels obtain from ICC's SVML) and
//! [`isa::dispatch`] runs it at the widest vector width the CPU has.
//! [`AlignedVec`] provides the cache-line-aligned SoA buffers such
//! kernels stream through.
//!
//! # Backends
//!
//! `Scalar` (one lane, pure safe Rust: the conformance reference and the
//! fallback on any architecture), `Sse2` (128-bit, the paper's Westmere
//! width) and `Avx2` (256-bit with FMA, behind a CPUID check). The
//! vector backends are x86-64 only; other targets fall back to `Scalar`.
//! The `NINJA_ISA` environment variable forces one.
//! Every backend is held to the `Scalar` semantics by the differential
//! suites in `tests/`.
//!
//! # Example
//!
//! ```
//! use ninja_simd::isa::{dispatch, Isa, IsaOp, SimdF32};
//!
//! /// `y[i] = a * x[i] + y[i]`, at whatever width the host offers.
//! struct Saxpy<'a>(f32, &'a [f32], &'a mut [f32]);
//!
//! impl IsaOp for Saxpy<'_> {
//!     type Output = ();
//!     fn run<I: Isa>(self) {
//!         let lanes = <I::F32 as SimdF32>::LANES;
//!         let a = I::F32::splat(self.0);
//!         for (x, y) in self.1.chunks(lanes).zip(self.2.chunks_mut(lanes)) {
//!             // Partial loads/stores mask the tail; no scalar remainder loop.
//!             let r = a.mul_add(I::F32::load_partial(x), I::F32::load_partial(y));
//!             r.store_partial(y);
//!         }
//!     }
//! }
//!
//! let x: Vec<f32> = (0..11).map(|i| i as f32).collect();
//! let mut y = vec![1.0f32; 11];
//! dispatch(Saxpy(2.0, &x, &mut y));
//! assert_eq!(y[10], 21.0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod aligned;
pub mod isa;

pub use aligned::{AlignedVec, Element, CACHE_LINE};
