//! Width-generic ISA abstraction with runtime dispatch.
//!
//! A kernel hard-coded to one vector width is exactly the situation the
//! Ninja paper warns about: code tuned for one processor generation
//! cannot ride the next one's wider registers. This module abstracts the
//! *ISA* behind a trait so a kernel written once against [`Isa`] measures
//! at 128-bit (SSE2) and 256-bit (AVX2) widths from the same source.
//!
//! # Architecture
//!
//! * [`Isa`] bundles the associated vector types of one backend:
//!   [`Isa::F32`], [`Isa::F64`], [`Isa::I32`] plus their mask types.
//! * [`SimdF32`]/[`SimdF64`]/[`SimdI32`]/[`SimdMask`] are the per-type
//!   operation contracts: lane-wise arithmetic, comparisons, blends,
//!   masked loads/stores with [`SimdMask::first_n`] tail handling,
//!   fused multiply-add, and (for `f32`) a bounds-checked gather, a
//!   Newton-refined reciprocal square root and the two lane permutes
//!   (`interleave`, `reverse`) a bitonic merge network needs.
//! * Three backends implement [`Isa`], each owning its intrinsics:
//!   [`Scalar`] (one lane, pure safe Rust — the conformance reference
//!   and the portable fallback), `Sse2` (128-bit, x86_64 baseline) and
//!   `Avx2` (256-bit, x86_64 with AVX2+FMA). The vector backends are
//!   x86-64 only; other targets fall back to Scalar. The trait is
//!   width-generic, so a wider backend is one more file.
//! * [`dispatch`] selects a backend at runtime: CPUID-based detection
//!   (best available wins) with a `NINJA_ISA` environment override for
//!   forced-backend testing, and an [`IsaOp`] visitor so the selected
//!   backend's monomorphized kernel body runs inside a
//!   `#[target_feature]` context (letting LLVM inline the intrinsics).
//!
//! # Numeric contract (the differential-test policy)
//!
//! * `i32` operations are bit-exact across backends.
//! * `f32`/`f64` lane operations other than `mul_add` are IEEE-754
//!   correctly rounded, hence bit-exact across backends — including NaN
//!   and infinity propagation. `min`/`max` use the SSE convention
//!   (`a < b ? a : b`, so the *second* operand wins when a lane is NaN);
//!   every backend reproduces it.
//! * `mul_add` may round once (fused, AVX2) or twice (unfused,
//!   Scalar/SSE2), as [`Isa::FMA`] says. Differential tests accept a
//!   result within 2 ULP of *either* reference. A feature frame's
//!   [`Frame::mul_add`] rounds exactly as its backend's `mul_add` does.
//! * `rsqrt` is a hardware estimate plus one refinement step (Scalar
//!   divides): within 2 ULP of `1.0 / x.sqrt()` for normal positive
//!   inputs on every backend, not bit-exact across them.
//! * Reductions may reassociate; they are compared against an `f64`
//!   reference with a small relative tolerance instead of bit-exactly.
//!
//! # Example
//!
//! ```
//! use ninja_simd::isa::{dispatch, Isa, IsaOp, SimdF32};
//!
//! struct Sum<'a>(&'a [f32]);
//! impl IsaOp for Sum<'_> {
//!     type Output = f32;
//!     fn run<I: Isa>(self) -> f32 {
//!         let lanes = <I::F32 as SimdF32>::LANES;
//!         let mut acc = I::F32::zero();
//!         let mut chunks = self.0.chunks_exact(lanes);
//!         for c in chunks.by_ref() {
//!             acc = acc + I::F32::load(c);
//!         }
//!         acc.reduce_sum() + chunks.remainder().iter().sum::<f32>()
//!     }
//! }
//! let xs: Vec<f32> = (0..37).map(|i| i as f32).collect();
//! assert_eq!(dispatch(Sum(&xs)), 666.0);
//! ```

use core::fmt::Debug;
use core::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Shl, Shr, Sub};

#[cfg(target_arch = "x86_64")]
mod avx2;
mod dispatch;
pub mod math;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod sse2;

#[cfg(target_arch = "x86_64")]
pub use avx2::{Avx2, AvxF32, AvxF64, AvxI32, AvxM32, AvxM64};
pub use dispatch::{
    active, available_kinds, detect_best, dispatch, dispatch_on, force_for_test, resolve,
    resolve_from_env, with_active_features, with_features_on, Frame, IsaKind, IsaOp, NINJA_ISA_ENV,
};
pub use scalar::{Scalar, ScalarF32, ScalarF64, ScalarI32, ScalarMask};
#[cfg(target_arch = "x86_64")]
pub use sse2::{Sse2, SseF32, SseF64, SseI32, SseM32, SseM64};

/// The widest `f32` lane count any compiled-in backend exposes; kernels
/// pad SoA buffers to a multiple of this so full-width loads at the end
/// of a rounded-up loop stay in bounds on every backend.
pub const MAX_ISA_F32_LANES: usize = 8;

/// A lane mask: the result of vector comparisons and the argument of
/// blends and masked memory operations.
///
/// Each lane is conceptually a boolean; backends store it as all-ones /
/// all-zeros lanes or as a plain `bool` (Scalar).
pub trait SimdMask: Copy + Send + Sync + 'static {
    /// Number of lanes.
    const LANES: usize;

    /// Mask with every lane false.
    fn none() -> Self;

    /// Mask with every lane true.
    fn all_true() -> Self;

    /// Mask with the first `n` lanes true (all lanes when `n >= LANES`)
    /// — the tail-handling primitive for masked loads and stores.
    fn first_n(n: usize) -> Self;

    /// Truth value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    fn test(self, i: usize) -> bool;

    /// True if any lane is true.
    fn any(self) -> bool;

    /// True if every lane is true.
    fn all(self) -> bool;

    /// Number of true lanes.
    fn count(self) -> u32;

    /// Lane-wise conjunction.
    fn and(self, rhs: Self) -> Self;

    /// Lane-wise disjunction.
    fn or(self, rhs: Self) -> Self;

    /// Lane-wise negation.
    fn not(self) -> Self;
}

/// A vector of `f32` lanes.
///
/// Arithmetic is lane-wise IEEE-754 `f32`; see the module docs for the
/// exact cross-backend numeric contract.
pub trait SimdF32:
    Copy
    + Send
    + Sync
    + Debug
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Number of lanes.
    const LANES: usize;
    /// Mask type produced by comparisons (shared with [`Self::I32`]).
    type Mask: SimdMask;
    /// Same-width integer vector for bit manipulation and indices.
    type I32: SimdI32<Mask = Self::Mask>;

    /// Broadcasts one value to every lane.
    fn splat(v: f32) -> Self;

    /// All-zero vector.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Loads the first `LANES` elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < LANES`.
    fn load(src: &[f32]) -> Self;

    /// Stores all lanes into the first `LANES` elements of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < LANES`.
    fn store(self, dst: &mut [f32]);

    /// Loads lanes where `mask` is true, zeroing the rest. Memory at
    /// false lanes is never accessed.
    ///
    /// # Safety
    ///
    /// `ptr + i` must be valid for reads for every lane `i` where
    /// `mask.test(i)` is true.
    unsafe fn load_ptr_mask(ptr: *const f32, mask: Self::Mask) -> Self;

    /// Stores lanes where `mask` is true. Memory at false lanes is never
    /// accessed.
    ///
    /// # Safety
    ///
    /// `ptr + i` must be valid for writes for every lane `i` where
    /// `mask.test(i)` is true.
    unsafe fn store_ptr_mask(self, ptr: *mut f32, mask: Self::Mask);

    /// Mask with the first `n` lanes true — forwarding to
    /// [`SimdMask::first_n`] so kernel code can name it off the vector
    /// type it already has in scope.
    #[inline(always)]
    fn first_n_mask(n: usize) -> Self::Mask {
        Self::Mask::first_n(n)
    }

    /// Loads `min(src.len(), LANES)` elements, zeroing the remaining
    /// lanes; never reads past `src`.
    #[inline(always)]
    fn load_partial(src: &[f32]) -> Self {
        let n = src.len().min(Self::LANES);
        // SAFETY: the mask limits reads to the first `n` in-bounds elements.
        unsafe { Self::load_ptr_mask(src.as_ptr(), Self::first_n_mask(n)) }
    }

    /// Stores the first `min(dst.len(), LANES)` lanes; never writes past
    /// `dst`.
    #[inline(always)]
    fn store_partial(self, dst: &mut [f32]) {
        let n = dst.len().min(Self::LANES);
        // SAFETY: the mask limits writes to the first `n` in-bounds elements.
        unsafe { self.store_ptr_mask(dst.as_mut_ptr(), Self::first_n_mask(n)) }
    }

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    fn lane(self, i: usize) -> f32;

    /// `self * m + a` — fused on backends with FMA hardware (AVX2),
    /// two roundings elsewhere. See the module numeric contract.
    fn mul_add(self, m: Self, a: Self) -> Self;

    /// Lane-wise minimum with SSE semantics: `a < b ? a : b`, so the
    /// second operand wins when a lane compares unordered (NaN).
    fn min(self, rhs: Self) -> Self;

    /// Lane-wise maximum with SSE semantics: `a > b ? a : b`.
    fn max(self, rhs: Self) -> Self;

    /// Lane-wise absolute value (clears the sign bit).
    fn abs(self) -> Self;

    /// Lane-wise square root (correctly rounded).
    fn sqrt(self) -> Self;

    /// Lane-wise reciprocal square root: the hardware estimate plus one
    /// refinement step — the idiom at the heart of ninja N-body code,
    /// cheaper than a division plus square root. Within 2 ULP of
    /// `1.0 / x.sqrt()` for normal positive lanes; unspecified for
    /// zero, negative, subnormal or non-finite lanes.
    fn rsqrt(self) -> Self;

    /// Lane-wise floor. Backends agree for inputs whose truncation fits
    /// `i32` (the SSE2 lowering converts through `i32`); kernels in this
    /// workspace only call it on reduced-range values.
    fn floor(self) -> Self;

    /// Lane-wise `==` comparison.
    fn simd_eq(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `<` comparison.
    fn simd_lt(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `<=` comparison.
    fn simd_le(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `>` comparison.
    fn simd_gt(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `>=` comparison.
    fn simd_ge(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `if mask { on_true } else { on_false }`.
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self;

    /// Truncating conversion to `i32` lanes.
    fn to_i32_trunc(self) -> Self::I32;

    /// Rounding conversion from `i32` lanes.
    fn from_i32(v: Self::I32) -> Self;

    /// Reinterprets integer lanes as `f32` bit patterns.
    fn from_bits(bits: Self::I32) -> Self;

    /// Reinterprets `f32` lanes as their integer bit patterns.
    fn to_bits(self) -> Self::I32;

    /// Sum of all lanes. Association order is backend-defined.
    fn reduce_sum(self) -> f32;

    /// Minimum over all lanes (SSE `min` semantics lane-combining).
    fn reduce_min(self) -> f32;

    /// Maximum over all lanes (SSE `max` semantics lane-combining).
    fn reduce_max(self) -> f32;

    /// Gathers `table[idx[i]]` per lane, with bounds checking (AVX2 uses
    /// the hardware gather after the check).
    ///
    /// # Panics
    ///
    /// Panics if any lane index is negative or `>= table.len()`.
    fn gather(table: &[f32], idx: Self::I32) -> Self;

    /// Interleaves lanes of `self` and `rhs` pairwise: conceptually the
    /// sequence `[a0, b0, a1, b1, ...]`, returned as (first `LANES`
    /// values, second `LANES` values). The ninja kernels use it to write
    /// `(call, put)`-style paired outputs with full-width stores, and
    /// as the perfect shuffle between bitonic compare-exchange stages.
    fn interleave(self, rhs: Self) -> (Self, Self);

    /// Reverses the lane order: `[a(L-1), .., a1, a0]`. Concatenating an
    /// ascending vector with a reversed ascending one gives the bitonic
    /// sequence a merge network starts from.
    fn reverse(self) -> Self;
}

/// Refines a ~12-bit reciprocal-square-root estimate `y` of `x` (x86
/// `rsqrtps`) with one third-order step: with `r = 1 - x*y*y`,
/// `y' = y + y*r*(1/2 + 3r/8)`. A second-order Newton step would leave
/// `1.5 * err^2`, up to 5 ULP from an estimate this coarse (measured
/// over every normal `f32`); this step's `err^3` term is below rounding
/// and the same sweep stays within 2 ULP.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn refine_rsqrt<V: SimdF32>(x: V, y: V) -> V {
    let r = V::splat(1.0) - x * y * y;
    y.mul_add(r * r.mul_add(V::splat(0.375), V::splat(0.5)), y)
}

/// A vector of `f64` lanes (half the `f32` lane count on every backend).
pub trait SimdF64:
    Copy
    + Send
    + Sync
    + Debug
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Number of lanes.
    const LANES: usize;
    /// Mask type produced by comparisons.
    type Mask: SimdMask;

    /// Broadcasts one value to every lane.
    fn splat(v: f64) -> Self;

    /// All-zero vector.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0.0)
    }

    /// Loads the first `LANES` elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < LANES`.
    fn load(src: &[f64]) -> Self;

    /// Stores all lanes into the first `LANES` elements of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < LANES`.
    fn store(self, dst: &mut [f64]);

    /// Loads lanes where `mask` is true, zeroing the rest.
    ///
    /// # Safety
    ///
    /// `ptr + i` must be valid for reads for every true lane `i`.
    unsafe fn load_ptr_mask(ptr: *const f64, mask: Self::Mask) -> Self;

    /// Stores lanes where `mask` is true.
    ///
    /// # Safety
    ///
    /// `ptr + i` must be valid for writes for every true lane `i`.
    unsafe fn store_ptr_mask(self, ptr: *mut f64, mask: Self::Mask);

    /// Mask with the first `n` lanes true.
    #[inline(always)]
    fn first_n_mask(n: usize) -> Self::Mask {
        Self::Mask::first_n(n)
    }

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    fn lane(self, i: usize) -> f64;

    /// `self * m + a` — fused where the hardware has FMA.
    fn mul_add(self, m: Self, a: Self) -> Self;

    /// Lane-wise minimum, SSE semantics (`a < b ? a : b`).
    fn min(self, rhs: Self) -> Self;

    /// Lane-wise maximum, SSE semantics (`a > b ? a : b`).
    fn max(self, rhs: Self) -> Self;

    /// Lane-wise absolute value.
    fn abs(self) -> Self;

    /// Lane-wise square root.
    fn sqrt(self) -> Self;

    /// Lane-wise `<` comparison.
    fn simd_lt(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `>` comparison.
    fn simd_gt(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `if mask { on_true } else { on_false }`.
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self;

    /// Sum of all lanes. Association order is backend-defined.
    fn reduce_sum(self) -> f64;
}

/// A vector of `i32` lanes.
pub trait SimdI32:
    Copy
    + Send
    + Sync
    + Debug
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Shl<i32, Output = Self>
    + Shr<i32, Output = Self>
{
    /// Number of lanes.
    const LANES: usize;
    /// Mask type produced by comparisons (shared with the `f32` vector).
    type Mask: SimdMask;

    /// Broadcasts one value to every lane.
    fn splat(v: i32) -> Self;

    /// All-zero vector.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0)
    }

    /// Loads the first `LANES` elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() < LANES`.
    fn load(src: &[i32]) -> Self;

    /// Stores all lanes into the first `LANES` elements of `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() < LANES`.
    fn store(self, dst: &mut [i32]);

    /// Value of lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    fn lane(self, i: usize) -> i32;

    /// Lane-wise `==` comparison.
    fn simd_eq(self, rhs: Self) -> Self::Mask;

    /// Lane-wise signed `>` comparison.
    fn simd_gt(self, rhs: Self) -> Self::Mask;

    /// Lane-wise signed `<` comparison.
    fn simd_lt(self, rhs: Self) -> Self::Mask;

    /// Lane-wise `if mask { on_true } else { on_false }`.
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self;

    /// Lane-wise signed minimum.
    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self::select(self.simd_lt(rhs), self, rhs)
    }

    /// Lane-wise signed maximum.
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self::select(self.simd_gt(rhs), self, rhs)
    }

    /// Wrapping sum of all lanes.
    fn reduce_sum(self) -> i32;
}

/// One instruction-set backend: a bundle of same-width vector types plus
/// an availability probe.
///
/// The `F32`/`I32` pair shares one mask type (`M32`, 32-bit lanes) and
/// `F64` has its own (`M64`, 64-bit lanes); the equality constraints
/// below let width-generic kernels move masks between float and integer
/// domains without conversion.
pub trait Isa: Copy + Default + Send + Sync + 'static {
    /// Backend name as recorded in reports and perfdb (`scalar`,
    /// `sse2`, `avx2`).
    const NAME: &'static str;
    /// `f32` vector width in bits (32 for Scalar).
    const WIDTH_BITS: usize;
    /// Whether the backend's `mul_add` rounds once (fused). It is what
    /// [`Frame`] carries into the scalar code of a feature frame.
    const FMA: bool = false;
    /// The `f32` vector type.
    type F32: SimdF32<I32 = Self::I32, Mask = Self::M32>;
    /// The `f64` vector type.
    type F64: SimdF64<Mask = Self::M64>;
    /// The `i32` vector type.
    type I32: SimdI32<Mask = Self::M32>;
    /// Mask over 32-bit lanes.
    type M32: SimdMask;
    /// Mask over 64-bit lanes.
    type M64: SimdMask;

    /// Whether this backend can run on the current CPU and build.
    fn available() -> bool;
}
