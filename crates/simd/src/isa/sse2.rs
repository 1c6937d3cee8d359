//! The 128-bit x86-64 backend: SSE2 via `core::arch::x86_64`.
//!
//! Four `f32` lanes, two `f64` lanes. SSE2 is part of the x86-64
//! baseline, so this backend needs no CPUID probe and no
//! `#[target_feature]` trampoline; it is the paper's native (Westmere)
//! vector width. SSE2 has no masked memory instructions, no FMA, no
//! `roundps` and no 32-bit `pmulld`, so masked loads/stores go
//! lane-by-lane, `mul_add` rounds twice, `floor` goes through a
//! truncating integer conversion and `i32` multiply is assembled from
//! two widening multiplies.

use super::{Isa, SimdF32, SimdF64, SimdI32, SimdMask};
use core::arch::x86_64::*;
use core::fmt;
use core::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Shl, Shr, Sub};

/// Wraps an intrinsic call whose only effects are on register lanes.
macro_rules! sse {
    ($e:expr) => {
        // SAFETY: SSE2 is baseline on x86_64 (the only target this
        // module compiles for); the intrinsic only reads and writes
        // register lanes.
        unsafe { $e }
    };
}

/// The 128-bit SSE2 backend (x86_64 only).
#[derive(Copy, Clone, Debug, Default)]
pub struct Sse2;

impl Isa for Sse2 {
    const NAME: &'static str = "sse2";
    const WIDTH_BITS: usize = 128;
    type F32 = SseF32;
    type F64 = SseF64;
    type I32 = SseI32;
    type M32 = SseM32;
    type M64 = SseM64;

    #[inline]
    fn available() -> bool {
        true
    }
}

/// Mask over four 32-bit lanes (all-ones / all-zeros per lane).
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct SseM32(pub(crate) __m128);

impl SseM32 {
    #[inline(always)]
    fn movemask(self) -> i32 {
        sse!(_mm_movemask_ps(self.0))
    }
}

impl fmt::Debug for SseM32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SseM32({:#06b})", self.movemask())
    }
}

impl SimdMask for SseM32 {
    const LANES: usize = 4;

    #[inline(always)]
    fn none() -> Self {
        Self(sse!(_mm_setzero_ps()))
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(sse!(_mm_castsi128_ps(_mm_set1_epi32(-1))))
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        // Lane i is true when i < n; clamping first keeps the cast exact.
        Self(sse!(_mm_castsi128_ps(_mm_cmpgt_epi32(
            _mm_set1_epi32(n.min(4) as i32),
            _mm_setr_epi32(0, 1, 2, 3),
        ))))
    }

    #[inline(always)]
    fn test(self, i: usize) -> bool {
        assert!(i < 4, "lane index out of range");
        (self.movemask() >> i) & 1 != 0
    }

    #[inline(always)]
    fn any(self) -> bool {
        self.movemask() != 0
    }

    #[inline(always)]
    fn all(self) -> bool {
        self.movemask() == 0b1111
    }

    #[inline(always)]
    fn count(self) -> u32 {
        self.movemask().count_ones()
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Self(sse!(_mm_and_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(sse!(_mm_or_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(sse!(_mm_xor_ps(self.0, Self::all_true().0)))
    }
}

/// Mask over two 64-bit lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct SseM64(pub(crate) __m128d);

impl SseM64 {
    #[inline(always)]
    fn movemask(self) -> i32 {
        sse!(_mm_movemask_pd(self.0))
    }
}

impl fmt::Debug for SseM64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SseM64({:#04b})", self.movemask())
    }
}

impl SimdMask for SseM64 {
    const LANES: usize = 2;

    #[inline(always)]
    fn none() -> Self {
        Self(sse!(_mm_setzero_pd()))
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(sse!(_mm_castsi128_pd(_mm_set1_epi32(-1))))
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        let l = |b: bool| if b { -1i64 } else { 0 };
        Self(sse!(_mm_castsi128_pd(_mm_set_epi64x(l(n >= 2), l(n >= 1)))))
    }

    #[inline(always)]
    fn test(self, i: usize) -> bool {
        assert!(i < 2, "lane index out of range");
        (self.movemask() >> i) & 1 != 0
    }

    #[inline(always)]
    fn any(self) -> bool {
        self.movemask() != 0
    }

    #[inline(always)]
    fn all(self) -> bool {
        self.movemask() == 0b11
    }

    #[inline(always)]
    fn count(self) -> u32 {
        self.movemask().count_ones()
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Self(sse!(_mm_and_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(sse!(_mm_or_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(sse!(_mm_xor_pd(self.0, Self::all_true().0)))
    }
}

/// A vector of four `f32` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct SseF32(pub(crate) __m128);

impl SseF32 {
    #[inline(always)]
    fn to_array(self) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        // SAFETY: the unaligned store writes exactly 4 elements into a
        // local array of that size; SSE2 is baseline on x86_64.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for SseF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SseF32({:?})", self.to_array())
    }
}

impl Add for SseF32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(sse!(_mm_add_ps(self.0, rhs.0)))
    }
}

impl Sub for SseF32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(sse!(_mm_sub_ps(self.0, rhs.0)))
    }
}

impl Mul for SseF32 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(sse!(_mm_mul_ps(self.0, rhs.0)))
    }
}

impl Div for SseF32 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(sse!(_mm_div_ps(self.0, rhs.0)))
    }
}

impl Neg for SseF32 {
    type Output = Self;
    /// IEEE negation: flips the sign bit, so `-(±0.0)` is `∓0.0`.
    #[inline(always)]
    fn neg(self) -> Self {
        Self(sse!(_mm_xor_ps(self.0, _mm_set1_ps(-0.0))))
    }
}

impl SimdF32 for SseF32 {
    const LANES: usize = 4;
    type Mask = SseM32;
    type I32 = SseI32;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        Self(sse!(_mm_set1_ps(v)))
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= 4, "SseF32::load needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 readable elements; the
        // load is unaligned.
        Self(unsafe { _mm_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= 4, "SseF32::store needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 writable elements; the
        // store is unaligned.
        unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) };
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f32, mask: Self::Mask) -> Self {
        let mut tmp = [0.0f32; 4];
        for (i, t) in tmp.iter_mut().enumerate() {
            if mask.test(i) {
                // SAFETY: the caller guarantees `ptr + i` is readable for
                // every lane the mask enables; false lanes stay zero.
                *t = unsafe { ptr.add(i).read() };
            }
        }
        Self::load(&tmp)
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f32, mask: Self::Mask) {
        for (i, t) in self.to_array().iter().enumerate() {
            if mask.test(i) {
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
        // No FMA in SSE2: two roundings, bit-identical to Scalar.
        self * m + a
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(sse!(_mm_min_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(sse!(_mm_max_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(sse!(_mm_and_ps(
            self.0,
            _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff)),
        )))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(sse!(_mm_sqrt_ps(self.0)))
    }

    #[inline(always)]
    fn rsqrt(self) -> Self {
        super::refine_rsqrt(self, Self(sse!(_mm_rsqrt_ps(self.0))))
    }

    #[inline(always)]
    fn floor(self) -> Self {
        // Truncate through i32, then step down where truncation
        // overshot (negative non-integers).
        let t = sse!(_mm_cvtepi32_ps(_mm_cvttps_epi32(self.0)));
        let overshot = sse!(_mm_cmpgt_ps(t, self.0));
        Self(sse!(_mm_sub_ps(t, _mm_and_ps(overshot, _mm_set1_ps(1.0)))))
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_cmpeq_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_cmplt_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_le(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_cmple_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_cmpgt_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_ge(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_cmpge_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(sse!(_mm_or_ps(
            _mm_and_ps(mask.0, on_true.0),
            _mm_andnot_ps(mask.0, on_false.0),
        )))
    }

    #[inline(always)]
    fn to_i32_trunc(self) -> Self::I32 {
        SseI32(sse!(_mm_cvttps_epi32(self.0)))
    }

    #[inline(always)]
    fn from_i32(v: Self::I32) -> Self {
        Self(sse!(_mm_cvtepi32_ps(v.0)))
    }

    #[inline(always)]
    fn from_bits(bits: Self::I32) -> Self {
        Self(sse!(_mm_castsi128_ps(bits.0)))
    }

    #[inline(always)]
    fn to_bits(self) -> Self::I32 {
        SseI32(sse!(_mm_castps_si128(self.0)))
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        // (a0 + a1) + (a2 + a3).
        let swapped = sse!(_mm_shuffle_ps::<0b10_11_00_01>(self.0, self.0));
        let pairs = sse!(_mm_add_ps(self.0, swapped));
        let high = sse!(_mm_movehl_ps(swapped, pairs));
        sse!(_mm_cvtss_f32(_mm_add_ss(pairs, high)))
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
        // No hardware gather: four bounds-checked scalar loads plus a
        // pack — the cost the paper's gather discussion is about.
        let i = idx.to_array();
        let pick = |k: i32| table[usize::try_from(k).expect("negative gather index")];
        Self(sse!(_mm_setr_ps(
            pick(i[0]),
            pick(i[1]),
            pick(i[2]),
            pick(i[3])
        )))
    }

    #[inline(always)]
    fn interleave(self, rhs: Self) -> (Self, Self) {
        let lo = sse!(_mm_unpacklo_ps(self.0, rhs.0));
        let hi = sse!(_mm_unpackhi_ps(self.0, rhs.0));
        (Self(lo), Self(hi))
    }

    #[inline(always)]
    fn reverse(self) -> Self {
        Self(sse!(_mm_shuffle_ps::<0b00_01_10_11>(self.0, self.0)))
    }
}

/// A vector of two `f64` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct SseF64(pub(crate) __m128d);

impl SseF64 {
    #[inline(always)]
    fn to_array(self) -> [f64; 2] {
        let mut out = [0.0f64; 2];
        // SAFETY: the unaligned store writes exactly 2 elements into a
        // local array of that size; SSE2 is baseline on x86_64.
        unsafe { _mm_storeu_pd(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for SseF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SseF64({:?})", self.to_array())
    }
}

impl Add for SseF64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(sse!(_mm_add_pd(self.0, rhs.0)))
    }
}

impl Sub for SseF64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(sse!(_mm_sub_pd(self.0, rhs.0)))
    }
}

impl Mul for SseF64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(sse!(_mm_mul_pd(self.0, rhs.0)))
    }
}

impl Div for SseF64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(sse!(_mm_div_pd(self.0, rhs.0)))
    }
}

impl Neg for SseF64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(sse!(_mm_xor_pd(self.0, _mm_set1_pd(-0.0))))
    }
}

impl SimdF64 for SseF64 {
    const LANES: usize = 2;
    type Mask = SseM64;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self(sse!(_mm_set1_pd(v)))
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        assert!(src.len() >= 2, "SseF64::load needs at least 2 elements");
        // SAFETY: the assert above guarantees 2 readable elements; the
        // load is unaligned.
        Self(unsafe { _mm_loadu_pd(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        assert!(dst.len() >= 2, "SseF64::store needs at least 2 elements");
        // SAFETY: the assert above guarantees 2 writable elements; the
        // store is unaligned.
        unsafe { _mm_storeu_pd(dst.as_mut_ptr(), self.0) };
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f64, mask: Self::Mask) -> Self {
        let mut tmp = [0.0f64; 2];
        for (i, t) in tmp.iter_mut().enumerate() {
            if mask.test(i) {
                // SAFETY: the caller guarantees `ptr + i` is readable for
                // every lane the mask enables; false lanes stay zero.
                *t = unsafe { ptr.add(i).read() };
            }
        }
        Self::load(&tmp)
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f64, mask: Self::Mask) {
        for (i, t) in self.to_array().iter().enumerate() {
            if mask.test(i) {
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
        self * m + a
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(sse!(_mm_min_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(sse!(_mm_max_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(sse!(_mm_and_pd(
            self.0,
            _mm_castsi128_pd(_mm_set1_epi64x(0x7fff_ffff_ffff_ffff)),
        )))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(sse!(_mm_sqrt_pd(self.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        SseM64(sse!(_mm_cmplt_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        SseM64(sse!(_mm_cmpgt_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(sse!(_mm_or_pd(
            _mm_and_pd(mask.0, on_true.0),
            _mm_andnot_pd(mask.0, on_false.0),
        )))
    }

    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        let a = self.to_array();
        a[0] + a[1]
    }
}

/// A vector of four `i32` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct SseI32(pub(crate) __m128i);

impl SseI32 {
    #[inline(always)]
    fn to_array(self) -> [i32; 4] {
        let mut out = [0i32; 4];
        // SAFETY: the unaligned store writes exactly 4 elements into a
        // local array of that size; SSE2 is baseline on x86_64.
        unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, self.0) };
        out
    }
}

impl fmt::Debug for SseI32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SseI32({:?})", self.to_array())
    }
}

impl Add for SseI32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(sse!(_mm_add_epi32(self.0, rhs.0)))
    }
}

impl Sub for SseI32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(sse!(_mm_sub_epi32(self.0, rhs.0)))
    }
}

impl Mul for SseI32 {
    type Output = Self;
    /// Wrapping lane-wise multiply: two widening `pmuludq` (even and odd
    /// lanes), low halves re-packed.
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let even = sse!(_mm_mul_epu32(self.0, rhs.0));
        let odd = sse!(_mm_mul_epu32(
            _mm_srli_si128::<4>(self.0),
            _mm_srli_si128::<4>(rhs.0),
        ));
        Self(sse!(_mm_unpacklo_epi32(
            _mm_shuffle_epi32::<0b00_00_10_00>(even),
            _mm_shuffle_epi32::<0b00_00_10_00>(odd),
        )))
    }
}

impl BitAnd for SseI32 {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        Self(sse!(_mm_and_si128(self.0, rhs.0)))
    }
}

impl BitOr for SseI32 {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        Self(sse!(_mm_or_si128(self.0, rhs.0)))
    }
}

impl Shl<i32> for SseI32 {
    type Output = Self;
    #[inline(always)]
    fn shl(self, shift: i32) -> Self {
        Self(sse!(_mm_sll_epi32(self.0, _mm_cvtsi32_si128(shift))))
    }
}

impl Shr<i32> for SseI32 {
    type Output = Self;
    /// Arithmetic (sign-extending) right shift.
    #[inline(always)]
    fn shr(self, shift: i32) -> Self {
        Self(sse!(_mm_sra_epi32(self.0, _mm_cvtsi32_si128(shift))))
    }
}

impl SimdI32 for SseI32 {
    const LANES: usize = 4;
    type Mask = SseM32;

    #[inline(always)]
    fn splat(v: i32) -> Self {
        Self(sse!(_mm_set1_epi32(v)))
    }

    #[inline(always)]
    fn load(src: &[i32]) -> Self {
        assert!(src.len() >= 4, "SseI32::load needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 readable elements; the
        // load is unaligned.
        Self(unsafe { _mm_loadu_si128(src.as_ptr() as *const __m128i) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        assert!(dst.len() >= 4, "SseI32::store needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 writable elements; the
        // store is unaligned.
        unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, self.0) };
    }

    #[inline(always)]
    fn lane(self, i: usize) -> i32 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_castsi128_ps(_mm_cmpeq_epi32(self.0, rhs.0))))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        SseM32(sse!(_mm_castsi128_ps(_mm_cmpgt_epi32(self.0, rhs.0))))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        rhs.simd_gt(self)
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        let m = sse!(_mm_castps_si128(mask.0));
        Self(sse!(_mm_or_si128(
            _mm_and_si128(m, on_true.0),
            _mm_andnot_si128(m, on_false.0),
        )))
    }

    #[inline(always)]
    fn reduce_sum(self) -> i32 {
        self.to_array().into_iter().fold(0i32, i32::wrapping_add)
    }
}
