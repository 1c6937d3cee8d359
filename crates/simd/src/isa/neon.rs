//! The 128-bit NEON backend via `core::arch::aarch64`.
//!
//! Four `f32` lanes, two `f64` lanes, fused multiply-add. NEON has no
//! masked memory instructions, so masked loads/stores go lane-by-lane,
//! and `min`/`max` are built from compare+select rather than
//! `vminq`/`vmaxq` (whose NaN behaviour differs from the SSE convention
//! the [`Isa`] contract mandates).
//!
//! NEON (AdvSIMD) is architecturally mandatory on AArch64, so this
//! backend is always available there. Intrinsic calls are wrapped in
//! `unsafe` blocks for compatibility across stdarch versions where some
//! of them are still `unsafe fn`; the blocks are no-ops where they have
//! since become safe.
#![allow(unused_unsafe)]

use super::{Isa, SimdF32, SimdF64, SimdI32, SimdMask};
use core::arch::aarch64::*;
use core::fmt;
use core::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Shl, Shr, Sub};

/// Wraps an intrinsic call whose only effects are on register lanes.
macro_rules! neon {
    ($e:expr) => {
        // SAFETY: NEON is architecturally mandatory on AArch64 (the only
        // target this module compiles for); the intrinsic only reads and
        // writes register lanes.
        unsafe { $e }
    };
}

/// The 128-bit NEON backend (aarch64 only).
#[derive(Copy, Clone, Debug, Default)]
pub struct Neon;

impl Isa for Neon {
    const NAME: &'static str = "neon";
    const WIDTH_BITS: usize = 128;
    type F32 = NeonF32;
    type F64 = NeonF64;
    type I32 = NeonI32;
    type M32 = NeonM32;
    type M64 = NeonM64;

    #[inline]
    fn available() -> bool {
        true
    }
}

/// Mask over four 32-bit lanes (all-ones / all-zeros per lane).
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct NeonM32(pub(crate) uint32x4_t);

impl NeonM32 {
    #[inline(always)]
    fn to_array(self) -> [u32; 4] {
        let mut out = [0u32; 4];
        // SAFETY: the store writes exactly 4 lanes into a local array of
        // that size; NEON is mandatory on aarch64.
        unsafe { vst1q_u32(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for NeonM32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NeonM32({:?})", self.to_array().map(|x| x != 0))
    }
}

impl SimdMask for NeonM32 {
    const LANES: usize = 4;

    #[inline(always)]
    fn none() -> Self {
        Self(neon!(vdupq_n_u32(0)))
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(neon!(vdupq_n_u32(u32::MAX)))
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        let l = |b: bool| if b { u32::MAX } else { 0 };
        let arr = [l(n >= 1), l(n >= 2), l(n >= 3), l(n >= 4)];
        // SAFETY: the load reads exactly 4 lanes from a local array of
        // that size; NEON is mandatory on aarch64.
        Self(unsafe { vld1q_u32(arr.as_ptr()) })
    }

    #[inline(always)]
    fn test(self, i: usize) -> bool {
        assert!(i < 4, "lane index out of range");
        self.to_array()[i] != 0
    }

    #[inline(always)]
    fn any(self) -> bool {
        neon!(vmaxvq_u32(self.0)) != 0
    }

    #[inline(always)]
    fn all(self) -> bool {
        neon!(vminvq_u32(self.0)) != 0
    }

    #[inline(always)]
    fn count(self) -> u32 {
        self.to_array().iter().map(|&x| (x != 0) as u32).sum()
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Self(neon!(vandq_u32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(neon!(vorrq_u32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(neon!(vmvnq_u32(self.0)))
    }
}

/// Mask over two 64-bit lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct NeonM64(pub(crate) uint64x2_t);

impl NeonM64 {
    #[inline(always)]
    fn to_array(self) -> [u64; 2] {
        let mut out = [0u64; 2];
        // SAFETY: the store writes exactly 2 lanes into a local array of
        // that size; NEON is mandatory on aarch64.
        unsafe { vst1q_u64(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for NeonM64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NeonM64({:?})", self.to_array().map(|x| x != 0))
    }
}

impl SimdMask for NeonM64 {
    const LANES: usize = 2;

    #[inline(always)]
    fn none() -> Self {
        Self(neon!(vdupq_n_u64(0)))
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(neon!(vdupq_n_u64(u64::MAX)))
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        let l = |b: bool| if b { u64::MAX } else { 0 };
        let arr = [l(n >= 1), l(n >= 2)];
        // SAFETY: the load reads exactly 2 lanes from a local array of
        // that size; NEON is mandatory on aarch64.
        Self(unsafe { vld1q_u64(arr.as_ptr()) })
    }

    #[inline(always)]
    fn test(self, i: usize) -> bool {
        assert!(i < 2, "lane index out of range");
        self.to_array()[i] != 0
    }

    #[inline(always)]
    fn any(self) -> bool {
        let a = self.to_array();
        a[0] != 0 || a[1] != 0
    }

    #[inline(always)]
    fn all(self) -> bool {
        let a = self.to_array();
        a[0] != 0 && a[1] != 0
    }

    #[inline(always)]
    fn count(self) -> u32 {
        let a = self.to_array();
        (a[0] != 0) as u32 + (a[1] != 0) as u32
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Self(neon!(vandq_u64(self.0, rhs.0)))
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(neon!(vorrq_u64(self.0, rhs.0)))
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(neon!(veorq_u64(self.0, vdupq_n_u64(u64::MAX))))
    }
}

/// A vector of four `f32` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct NeonF32(pub(crate) float32x4_t);

impl NeonF32 {
    #[inline(always)]
    fn to_array(self) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        // SAFETY: the store writes exactly 4 lanes into a local array of
        // that size; NEON is mandatory on aarch64.
        unsafe { vst1q_f32(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for NeonF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NeonF32({:?})", self.to_array())
    }
}

impl Add for NeonF32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(neon!(vaddq_f32(self.0, rhs.0)))
    }
}

impl Sub for NeonF32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(neon!(vsubq_f32(self.0, rhs.0)))
    }
}

impl Mul for NeonF32 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(neon!(vmulq_f32(self.0, rhs.0)))
    }
}

impl Div for NeonF32 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(neon!(vdivq_f32(self.0, rhs.0)))
    }
}

impl Neg for NeonF32 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(neon!(vnegq_f32(self.0)))
    }
}

impl SimdF32 for NeonF32 {
    const LANES: usize = 4;
    type Mask = NeonM32;
    type I32 = NeonI32;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        Self(neon!(vdupq_n_f32(v)))
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= 4, "NeonF32::load needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 readable elements.
        Self(unsafe { vld1q_f32(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= 4, "NeonF32::store needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 writable elements.
        unsafe { vst1q_f32(dst.as_mut_ptr(), self.0) };
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f32, mask: Self::Mask) -> Self {
        let m = mask.to_array();
        let mut tmp = [0.0f32; 4];
        for (i, t) in tmp.iter_mut().enumerate() {
            if m[i] != 0 {
                // SAFETY: the caller guarantees `ptr + i` is readable for
                // every lane the mask enables; false lanes stay zero.
                *t = unsafe { ptr.add(i).read() };
            }
        }
        // SAFETY: the load reads exactly 4 lanes from a local array.
        Self(unsafe { vld1q_f32(tmp.as_ptr()) })
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f32, mask: Self::Mask) {
        let m = mask.to_array();
        let tmp = self.to_array();
        for (i, t) in tmp.iter().enumerate() {
            if m[i] != 0 {
                // SAFETY: the caller guarantees `ptr + i` is writable for
                // every lane the mask enables; false lanes are untouched.
                unsafe { ptr.add(i).write(*t) };
            }
        }
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f32 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        // vfmaq(acc, x, y) = acc + x*y, fused.
        Self(neon!(vfmaq_f32(a.0, self.0, m.0)))
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        // Compare+select rather than vminq so NaN lanes resolve to the
        // second operand, matching the SSE convention in the contract.
        Self(neon!(vbslq_f32(vcltq_f32(self.0, rhs.0), self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(neon!(vbslq_f32(vcgtq_f32(self.0, rhs.0), self.0, rhs.0)))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(neon!(vabsq_f32(self.0)))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(neon!(vsqrtq_f32(self.0)))
    }

    #[inline(always)]
    fn rsqrt(self) -> Self {
        // vrsqrte is only an ~8-bit estimate, so it takes two Newton
        // steps to meet the 2-ULP contract; vrsqrts(a, b) computes the
        // step factor (3 - a*b) / 2.
        let y = neon!(vrsqrteq_f32(self.0));
        let y = neon!(vmulq_f32(y, vrsqrtsq_f32(vmulq_f32(self.0, y), y)));
        Self(neon!(vmulq_f32(y, vrsqrtsq_f32(vmulq_f32(self.0, y), y))))
    }

    #[inline(always)]
    fn floor(self) -> Self {
        Self(neon!(vrndmq_f32(self.0)))
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vceqq_f32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vcltq_f32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_le(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vcleq_f32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vcgtq_f32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_ge(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vcgeq_f32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(neon!(vbslq_f32(mask.0, on_true.0, on_false.0)))
    }

    #[inline(always)]
    fn to_i32_trunc(self) -> Self::I32 {
        NeonI32(neon!(vcvtq_s32_f32(self.0)))
    }

    #[inline(always)]
    fn from_i32(v: Self::I32) -> Self {
        Self(neon!(vcvtq_f32_s32(v.0)))
    }

    #[inline(always)]
    fn from_bits(bits: Self::I32) -> Self {
        Self(neon!(vreinterpretq_f32_s32(bits.0)))
    }

    #[inline(always)]
    fn to_bits(self) -> Self::I32 {
        NeonI32(neon!(vreinterpretq_s32_f32(self.0)))
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        neon!(vaddvq_f32(self.0))
    }

    #[inline(always)]
    fn reduce_min(self) -> f32 {
        let m = |x: f32, y: f32| if x < y { x } else { y };
        self.to_array().into_iter().reduce(m).unwrap()
    }

    #[inline(always)]
    fn reduce_max(self) -> f32 {
        let m = |x: f32, y: f32| if x > y { x } else { y };
        self.to_array().into_iter().reduce(m).unwrap()
    }

    #[inline(always)]
    fn gather(table: &[f32], idx: Self::I32) -> Self {
        let i = idx.to_array();
        let pick = |k: i32| table[usize::try_from(k).expect("negative gather index")];
        let arr = [pick(i[0]), pick(i[1]), pick(i[2]), pick(i[3])];
        // SAFETY: the load reads exactly 4 lanes from a local array.
        Self(unsafe { vld1q_f32(arr.as_ptr()) })
    }

    #[inline(always)]
    fn interleave(self, rhs: Self) -> (Self, Self) {
        let lo = neon!(vzip1q_f32(self.0, rhs.0));
        let hi = neon!(vzip2q_f32(self.0, rhs.0));
        (Self(lo), Self(hi))
    }

    #[inline(always)]
    fn reverse(self) -> Self {
        // Swap within each 64-bit half, then swap the halves.
        let r = neon!(vrev64q_f32(self.0));
        Self(neon!(vextq_f32::<2>(r, r)))
    }
}

/// A vector of two `f64` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct NeonF64(pub(crate) float64x2_t);

impl NeonF64 {
    #[inline(always)]
    fn to_array(self) -> [f64; 2] {
        let mut out = [0.0f64; 2];
        // SAFETY: the store writes exactly 2 lanes into a local array of
        // that size; NEON is mandatory on aarch64.
        unsafe { vst1q_f64(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for NeonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NeonF64({:?})", self.to_array())
    }
}

impl Add for NeonF64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(neon!(vaddq_f64(self.0, rhs.0)))
    }
}

impl Sub for NeonF64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(neon!(vsubq_f64(self.0, rhs.0)))
    }
}

impl Mul for NeonF64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(neon!(vmulq_f64(self.0, rhs.0)))
    }
}

impl Div for NeonF64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(neon!(vdivq_f64(self.0, rhs.0)))
    }
}

impl Neg for NeonF64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(neon!(vnegq_f64(self.0)))
    }
}

impl SimdF64 for NeonF64 {
    const LANES: usize = 2;
    type Mask = NeonM64;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self(neon!(vdupq_n_f64(v)))
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        assert!(src.len() >= 2, "NeonF64::load needs at least 2 elements");
        // SAFETY: the assert above guarantees 2 readable elements.
        Self(unsafe { vld1q_f64(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        assert!(dst.len() >= 2, "NeonF64::store needs at least 2 elements");
        // SAFETY: the assert above guarantees 2 writable elements.
        unsafe { vst1q_f64(dst.as_mut_ptr(), self.0) };
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f64, mask: Self::Mask) -> Self {
        let m = mask.to_array();
        let mut tmp = [0.0f64; 2];
        for (i, t) in tmp.iter_mut().enumerate() {
            if m[i] != 0 {
                // SAFETY: the caller guarantees `ptr + i` is readable for
                // every lane the mask enables; false lanes stay zero.
                *t = unsafe { ptr.add(i).read() };
            }
        }
        // SAFETY: the load reads exactly 2 lanes from a local array.
        Self(unsafe { vld1q_f64(tmp.as_ptr()) })
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f64, mask: Self::Mask) {
        let m = mask.to_array();
        let tmp = self.to_array();
        for (i, t) in tmp.iter().enumerate() {
            if m[i] != 0 {
                // SAFETY: the caller guarantees `ptr + i` is writable for
                // every lane the mask enables; false lanes are untouched.
                unsafe { ptr.add(i).write(*t) };
            }
        }
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f64 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        Self(neon!(vfmaq_f64(a.0, self.0, m.0)))
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(neon!(vbslq_f64(vcltq_f64(self.0, rhs.0), self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(neon!(vbslq_f64(vcgtq_f64(self.0, rhs.0), self.0, rhs.0)))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(neon!(vabsq_f64(self.0)))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(neon!(vsqrtq_f64(self.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        NeonM64(neon!(vcltq_f64(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        NeonM64(neon!(vcgtq_f64(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(neon!(vbslq_f64(mask.0, on_true.0, on_false.0)))
    }

    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        neon!(vaddvq_f64(self.0))
    }
}

/// A vector of four `i32` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct NeonI32(pub(crate) int32x4_t);

impl NeonI32 {
    #[inline(always)]
    fn to_array(self) -> [i32; 4] {
        let mut out = [0i32; 4];
        // SAFETY: the store writes exactly 4 lanes into a local array of
        // that size; NEON is mandatory on aarch64.
        unsafe { vst1q_s32(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for NeonI32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NeonI32({:?})", self.to_array())
    }
}

impl Add for NeonI32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(neon!(vaddq_s32(self.0, rhs.0)))
    }
}

impl Sub for NeonI32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(neon!(vsubq_s32(self.0, rhs.0)))
    }
}

impl Mul for NeonI32 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(neon!(vmulq_s32(self.0, rhs.0)))
    }
}

impl BitAnd for NeonI32 {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        Self(neon!(vandq_s32(self.0, rhs.0)))
    }
}

impl BitOr for NeonI32 {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        Self(neon!(vorrq_s32(self.0, rhs.0)))
    }
}

impl Shl<i32> for NeonI32 {
    type Output = Self;
    #[inline(always)]
    fn shl(self, shift: i32) -> Self {
        Self(neon!(vshlq_s32(self.0, vdupq_n_s32(shift))))
    }
}

impl Shr<i32> for NeonI32 {
    type Output = Self;
    /// Arithmetic (sign-extending) right shift.
    #[inline(always)]
    fn shr(self, shift: i32) -> Self {
        // NEON shifts left by a signed amount; negate for a right shift.
        Self(neon!(vshlq_s32(self.0, vdupq_n_s32(-shift))))
    }
}

impl SimdI32 for NeonI32 {
    const LANES: usize = 4;
    type Mask = NeonM32;

    #[inline(always)]
    fn splat(v: i32) -> Self {
        Self(neon!(vdupq_n_s32(v)))
    }

    #[inline(always)]
    fn load(src: &[i32]) -> Self {
        assert!(src.len() >= 4, "NeonI32::load needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 readable elements.
        Self(unsafe { vld1q_s32(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        assert!(dst.len() >= 4, "NeonI32::store needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 writable elements.
        unsafe { vst1q_s32(dst.as_mut_ptr(), self.0) };
    }

    #[inline(always)]
    fn lane(self, i: usize) -> i32 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vceqq_s32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vcgtq_s32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        NeonM32(neon!(vcltq_s32(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(neon!(vbslq_s32(mask.0, on_true.0, on_false.0)))
    }

    #[inline(always)]
    fn reduce_sum(self) -> i32 {
        self.to_array().into_iter().fold(0i32, i32::wrapping_add)
    }
}
