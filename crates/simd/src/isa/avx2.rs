//! The 256-bit backend: AVX2 + FMA via `core::arch::x86_64`.
//!
//! Eight `f32` lanes, four `f64` lanes, hardware masked loads/stores
//! (`vmaskmov`), hardware gather (`vgatherdps`, behind a bounds check)
//! and fused multiply-add. This backend is only reachable through the
//! dispatcher, which verifies `avx2` and `fma` with CPUID before calling
//! into the `#[target_feature]` trampoline — see `dispatch.rs`. The
//! types themselves never check features per operation.

use super::{Isa, SimdF32, SimdF64, SimdI32, SimdMask};
use core::arch::x86_64::*;
use core::fmt;
use core::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Shl, Shr, Sub};

/// Wraps an intrinsic call whose only effects are on register lanes.
macro_rules! avx {
    ($e:expr) => {
        // SAFETY: Avx2 code runs only inside dispatch's
        // `#[target_feature(enable = "avx2,fma")]` trampoline, entered
        // after a runtime CPUID check; the intrinsic only reads and
        // writes register lanes.
        unsafe { $e }
    };
}

/// The 256-bit AVX2+FMA backend (x86_64 only).
#[derive(Copy, Clone, Debug, Default)]
pub struct Avx2;

impl Isa for Avx2 {
    const NAME: &'static str = "avx2";
    const WIDTH_BITS: usize = 256;
    const FMA: bool = true;
    type F32 = AvxF32;
    type F64 = AvxF64;
    type I32 = AvxI32;
    type M32 = AvxM32;
    type M64 = AvxM64;

    #[inline]
    fn available() -> bool {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
}

/// Mask over eight 32-bit lanes (all-ones / all-zeros per lane).
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct AvxM32(pub(crate) __m256);

impl AvxM32 {
    #[inline(always)]
    fn movemask(self) -> i32 {
        avx!(_mm256_movemask_ps(self.0))
    }
}

impl fmt::Debug for AvxM32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AvxM32({:#010b})", self.movemask())
    }
}

impl SimdMask for AvxM32 {
    const LANES: usize = 8;

    #[inline(always)]
    fn none() -> Self {
        Self(avx!(_mm256_setzero_ps()))
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(avx!(_mm256_castsi256_ps(_mm256_set1_epi32(-1))))
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        let l = |b: bool| if b { -1i32 } else { 0 };
        Self(avx!(_mm256_castsi256_ps(_mm256_setr_epi32(
            l(n >= 1),
            l(n >= 2),
            l(n >= 3),
            l(n >= 4),
            l(n >= 5),
            l(n >= 6),
            l(n >= 7),
            l(n >= 8),
        ))))
    }

    #[inline(always)]
    fn test(self, i: usize) -> bool {
        assert!(i < 8, "lane index out of range");
        (self.movemask() >> i) & 1 != 0
    }

    #[inline(always)]
    fn any(self) -> bool {
        self.movemask() != 0
    }

    #[inline(always)]
    fn all(self) -> bool {
        self.movemask() == 0xff
    }

    #[inline(always)]
    fn count(self) -> u32 {
        self.movemask().count_ones()
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Self(avx!(_mm256_and_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(avx!(_mm256_or_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(avx!(_mm256_xor_ps(self.0, Self::all_true().0)))
    }
}

/// Mask over four 64-bit lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct AvxM64(pub(crate) __m256d);

impl AvxM64 {
    #[inline(always)]
    fn movemask(self) -> i32 {
        avx!(_mm256_movemask_pd(self.0))
    }
}

impl fmt::Debug for AvxM64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AvxM64({:#06b})", self.movemask())
    }
}

impl SimdMask for AvxM64 {
    const LANES: usize = 4;

    #[inline(always)]
    fn none() -> Self {
        Self(avx!(_mm256_setzero_pd()))
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(avx!(_mm256_castsi256_pd(_mm256_set1_epi64x(-1))))
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        let l = |b: bool| if b { -1i64 } else { 0 };
        Self(avx!(_mm256_castsi256_pd(_mm256_setr_epi64x(
            l(n >= 1),
            l(n >= 2),
            l(n >= 3),
            l(n >= 4),
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
        Self(avx!(_mm256_and_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(avx!(_mm256_or_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(avx!(_mm256_xor_pd(self.0, Self::all_true().0)))
    }
}

/// A vector of eight `f32` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct AvxF32(pub(crate) __m256);

impl AvxF32 {
    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        // SAFETY: the unaligned store writes exactly 8 elements into a
        // local array of that size; AVX is active in dispatch's trampoline.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for AvxF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AvxF32({:?})", self.to_array())
    }
}

impl Add for AvxF32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(avx!(_mm256_add_ps(self.0, rhs.0)))
    }
}

impl Sub for AvxF32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(avx!(_mm256_sub_ps(self.0, rhs.0)))
    }
}

impl Mul for AvxF32 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(avx!(_mm256_mul_ps(self.0, rhs.0)))
    }
}

impl Div for AvxF32 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(avx!(_mm256_div_ps(self.0, rhs.0)))
    }
}

impl Neg for AvxF32 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(avx!(_mm256_xor_ps(self.0, _mm256_set1_ps(-0.0))))
    }
}

impl SimdF32 for AvxF32 {
    const LANES: usize = 8;
    type Mask = AvxM32;
    type I32 = AvxI32;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        Self(avx!(_mm256_set1_ps(v)))
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        assert!(src.len() >= 8, "AvxF32::load needs at least 8 elements");
        // SAFETY: the assert above guarantees 8 readable elements; the
        // load is unaligned.
        Self(unsafe { _mm256_loadu_ps(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        assert!(dst.len() >= 8, "AvxF32::store needs at least 8 elements");
        // SAFETY: the assert above guarantees 8 writable elements; the
        // store is unaligned.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) };
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f32, mask: Self::Mask) -> Self {
        // SAFETY: `vmaskmovps` architecturally suppresses the memory
        // access for false lanes, so only lanes the caller declared
        // readable are touched.
        Self(unsafe { _mm256_maskload_ps(ptr, _mm256_castps_si256(mask.0)) })
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f32, mask: Self::Mask) {
        // SAFETY: `vmaskmovps` architecturally suppresses the memory
        // access for false lanes, so only lanes the caller declared
        // writable are touched.
        unsafe { _mm256_maskstore_ps(ptr, _mm256_castps_si256(mask.0), self.0) };
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f32 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        Self(avx!(_mm256_fmadd_ps(self.0, m.0, a.0)))
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(avx!(_mm256_min_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(avx!(_mm256_max_ps(self.0, rhs.0)))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(avx!(_mm256_and_ps(
            self.0,
            _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)),
        )))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(avx!(_mm256_sqrt_ps(self.0)))
    }

    #[inline(always)]
    fn rsqrt(self) -> Self {
        super::refine_rsqrt(self, Self(avx!(_mm256_rsqrt_ps(self.0))))
    }

    #[inline(always)]
    fn floor(self) -> Self {
        Self(avx!(_mm256_floor_ps(self.0)))
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_cmp_ps::<_CMP_LT_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_le(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_cmp_ps::<_CMP_LE_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_cmp_ps::<_CMP_GT_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_ge(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_cmp_ps::<_CMP_GE_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(avx!(_mm256_blendv_ps(on_false.0, on_true.0, mask.0)))
    }

    #[inline(always)]
    fn to_i32_trunc(self) -> Self::I32 {
        AvxI32(avx!(_mm256_cvttps_epi32(self.0)))
    }

    #[inline(always)]
    fn from_i32(v: Self::I32) -> Self {
        Self(avx!(_mm256_cvtepi32_ps(v.0)))
    }

    #[inline(always)]
    fn from_bits(bits: Self::I32) -> Self {
        Self(avx!(_mm256_castsi256_ps(bits.0)))
    }

    #[inline(always)]
    fn to_bits(self) -> Self::I32 {
        AvxI32(avx!(_mm256_castps_si256(self.0)))
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        // Halves first, then within the 128-bit half — backend-defined
        // association, per the module contract.
        let a = self.to_array();
        let h = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        (h[0] + h[1]) + (h[2] + h[3])
    }

    #[inline(always)]
    fn reduce_min(self) -> f32 {
        let a = self.to_array();
        let m = |x: f32, y: f32| if x < y { x } else { y };
        a.into_iter().reduce(m).unwrap()
    }

    #[inline(always)]
    fn reduce_max(self) -> f32 {
        let a = self.to_array();
        let m = |x: f32, y: f32| if x > y { x } else { y };
        a.into_iter().reduce(m).unwrap()
    }

    #[inline(always)]
    fn gather(table: &[f32], idx: Self::I32) -> Self {
        // One unsigned compare `idx < limit` for all lanes: flipping the
        // sign bit of both sides turns it into a signed `cmpgt`. A negative
        // lane reads as 2^31 or more, so it fails against every limit; a
        // table longer than `i32::MAX` admits every non-negative lane.
        let limit = table.len().min(1 << 31) as u32;
        let flip = avx!(_mm256_set1_epi32(i32::MIN));
        let bound = avx!(_mm256_set1_epi32((limit ^ (1 << 31)) as i32));
        let lanes = avx!(_mm256_xor_si256(idx.0, flip));
        let in_bounds = avx!(_mm256_cmpgt_epi32(bound, lanes));
        assert!(
            avx!(_mm256_movemask_ps(_mm256_castsi256_ps(in_bounds))) == 0xff,
            "gather index out of bounds"
        );
        // SAFETY: every lane index was just checked to lie in
        // `0..table.len()`, so the hardware gather reads only in-bounds
        // elements.
        Self(unsafe { _mm256_i32gather_ps::<4>(table.as_ptr(), idx.0) })
    }

    #[inline(always)]
    fn interleave(self, rhs: Self) -> (Self, Self) {
        // unpack gives [a0 b0 a1 b1 | a4 b4 a5 b5] / [a2 b2 a3 b3 | a6 b6 a7 b7];
        // the 128-bit permutes re-sequence those into [a0..b3] and [a4..b7].
        let even = avx!(_mm256_unpacklo_ps(self.0, rhs.0));
        let odd = avx!(_mm256_unpackhi_ps(self.0, rhs.0));
        let lo = avx!(_mm256_permute2f128_ps::<0x20>(even, odd));
        let hi = avx!(_mm256_permute2f128_ps::<0x31>(even, odd));
        (Self(lo), Self(hi))
    }

    #[inline(always)]
    fn reverse(self) -> Self {
        let idx = avx!(_mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0));
        Self(avx!(_mm256_permutevar8x32_ps(self.0, idx)))
    }
}

/// A vector of four `f64` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct AvxF64(pub(crate) __m256d);

impl AvxF64 {
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        // SAFETY: the unaligned store writes exactly 4 elements into a
        // local array of that size; AVX is active in dispatch's trampoline.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
        out
    }
}

impl fmt::Debug for AvxF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AvxF64({:?})", self.to_array())
    }
}

impl Add for AvxF64 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(avx!(_mm256_add_pd(self.0, rhs.0)))
    }
}

impl Sub for AvxF64 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(avx!(_mm256_sub_pd(self.0, rhs.0)))
    }
}

impl Mul for AvxF64 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(avx!(_mm256_mul_pd(self.0, rhs.0)))
    }
}

impl Div for AvxF64 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        Self(avx!(_mm256_div_pd(self.0, rhs.0)))
    }
}

impl Neg for AvxF64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(avx!(_mm256_xor_pd(self.0, _mm256_set1_pd(-0.0))))
    }
}

impl SimdF64 for AvxF64 {
    const LANES: usize = 4;
    type Mask = AvxM64;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self(avx!(_mm256_set1_pd(v)))
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        assert!(src.len() >= 4, "AvxF64::load needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 readable elements; the
        // load is unaligned.
        Self(unsafe { _mm256_loadu_pd(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        assert!(dst.len() >= 4, "AvxF64::store needs at least 4 elements");
        // SAFETY: the assert above guarantees 4 writable elements; the
        // store is unaligned.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) };
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f64, mask: Self::Mask) -> Self {
        // SAFETY: `vmaskmovpd` architecturally suppresses the memory
        // access for false lanes, so only lanes the caller declared
        // readable are touched.
        Self(unsafe { _mm256_maskload_pd(ptr, _mm256_castpd_si256(mask.0)) })
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f64, mask: Self::Mask) {
        // SAFETY: `vmaskmovpd` architecturally suppresses the memory
        // access for false lanes, so only lanes the caller declared
        // writable are touched.
        unsafe { _mm256_maskstore_pd(ptr, _mm256_castpd_si256(mask.0), self.0) };
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f64 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        Self(avx!(_mm256_fmadd_pd(self.0, m.0, a.0)))
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(avx!(_mm256_min_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(avx!(_mm256_max_pd(self.0, rhs.0)))
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(avx!(_mm256_and_pd(
            self.0,
            _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff)),
        )))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(avx!(_mm256_sqrt_pd(self.0)))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        AvxM64(avx!(_mm256_cmp_pd::<_CMP_LT_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        AvxM64(avx!(_mm256_cmp_pd::<_CMP_GT_OQ>(self.0, rhs.0)))
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(avx!(_mm256_blendv_pd(on_false.0, on_true.0, mask.0)))
    }

    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        let a = self.to_array();
        (a[0] + a[2]) + (a[1] + a[3])
    }
}

/// A vector of eight `i32` lanes.
#[derive(Copy, Clone)]
#[repr(transparent)]
pub struct AvxI32(pub(crate) __m256i);

impl AvxI32 {
    #[inline(always)]
    fn to_array(self) -> [i32; 8] {
        let mut out = [0i32; 8];
        // SAFETY: the unaligned store writes exactly 8 elements into a
        // local array of that size; AVX is active in dispatch's trampoline.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, self.0) };
        out
    }
}

impl fmt::Debug for AvxI32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AvxI32({:?})", self.to_array())
    }
}

impl Add for AvxI32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(avx!(_mm256_add_epi32(self.0, rhs.0)))
    }
}

impl Sub for AvxI32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(avx!(_mm256_sub_epi32(self.0, rhs.0)))
    }
}

impl Mul for AvxI32 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(avx!(_mm256_mullo_epi32(self.0, rhs.0)))
    }
}

impl BitAnd for AvxI32 {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, rhs: Self) -> Self {
        Self(avx!(_mm256_and_si256(self.0, rhs.0)))
    }
}

impl BitOr for AvxI32 {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, rhs: Self) -> Self {
        Self(avx!(_mm256_or_si256(self.0, rhs.0)))
    }
}

impl Shl<i32> for AvxI32 {
    type Output = Self;
    #[inline(always)]
    fn shl(self, shift: i32) -> Self {
        Self(avx!(_mm256_sll_epi32(self.0, _mm_cvtsi32_si128(shift))))
    }
}

impl Shr<i32> for AvxI32 {
    type Output = Self;
    /// Arithmetic (sign-extending) right shift.
    #[inline(always)]
    fn shr(self, shift: i32) -> Self {
        Self(avx!(_mm256_sra_epi32(self.0, _mm_cvtsi32_si128(shift))))
    }
}

impl SimdI32 for AvxI32 {
    const LANES: usize = 8;
    type Mask = AvxM32;

    #[inline(always)]
    fn splat(v: i32) -> Self {
        Self(avx!(_mm256_set1_epi32(v)))
    }

    #[inline(always)]
    fn load(src: &[i32]) -> Self {
        assert!(src.len() >= 8, "AvxI32::load needs at least 8 elements");
        // SAFETY: the assert above guarantees 8 readable elements; the
        // load is unaligned.
        Self(unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        assert!(dst.len() >= 8, "AvxI32::store needs at least 8 elements");
        // SAFETY: the assert above guarantees 8 writable elements; the
        // store is unaligned.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, self.0) };
    }

    #[inline(always)]
    fn lane(self, i: usize) -> i32 {
        self.to_array()[i]
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_castsi256_ps(_mm256_cmpeq_epi32(self.0, rhs.0))))
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        AvxM32(avx!(_mm256_castsi256_ps(_mm256_cmpgt_epi32(self.0, rhs.0))))
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        rhs.simd_gt(self)
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        Self(avx!(_mm256_castps_si256(_mm256_blendv_ps(
            _mm256_castsi256_ps(on_false.0),
            _mm256_castsi256_ps(on_true.0),
            mask.0,
        ))))
    }

    #[inline(always)]
    fn reduce_sum(self) -> i32 {
        self.to_array().into_iter().fold(0i32, i32::wrapping_add)
    }
}
