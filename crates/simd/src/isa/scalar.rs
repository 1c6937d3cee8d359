//! The one-lane reference backend.
//!
//! Pure safe Rust, one element per "vector": this is the semantics
//! oracle the differential conformance suite compares every other
//! backend against, and the guaranteed-available fallback the runtime
//! dispatcher bottoms out on. `min`/`max` deliberately reproduce the SSE
//! convention (`a < b ? a : b`) and `mul_add` deliberately rounds twice
//! so Scalar and the SSE2 backend are bit-identical.

use super::{Isa, SimdF32, SimdF64, SimdI32, SimdMask};
use core::ops::{Add, BitAnd, BitOr, Div, Mul, Neg, Shl, Shr, Sub};

/// The always-available one-lane reference backend.
#[derive(Copy, Clone, Debug, Default)]
pub struct Scalar;

impl Isa for Scalar {
    const NAME: &'static str = "scalar";
    const WIDTH_BITS: usize = 32;
    type F32 = ScalarF32;
    type F64 = ScalarF64;
    type I32 = ScalarI32;
    type M32 = ScalarMask;
    type M64 = ScalarMask;

    #[inline]
    fn available() -> bool {
        true
    }
}

/// One-lane mask: a plain boolean.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScalarMask(pub bool);

impl SimdMask for ScalarMask {
    const LANES: usize = 1;

    #[inline(always)]
    fn none() -> Self {
        Self(false)
    }

    #[inline(always)]
    fn all_true() -> Self {
        Self(true)
    }

    #[inline(always)]
    fn first_n(n: usize) -> Self {
        Self(n >= 1)
    }

    #[inline(always)]
    fn test(self, i: usize) -> bool {
        assert!(i < 1, "lane index out of range");
        self.0
    }

    #[inline(always)]
    fn any(self) -> bool {
        self.0
    }

    #[inline(always)]
    fn all(self) -> bool {
        self.0
    }

    #[inline(always)]
    fn count(self) -> u32 {
        self.0 as u32
    }

    #[inline(always)]
    fn and(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }

    #[inline(always)]
    fn or(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }

    #[inline(always)]
    fn not(self) -> Self {
        Self(!self.0)
    }
}

/// One-lane `f32` "vector".
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScalarF32(pub f32);

macro_rules! scalar_binop {
    ($vec:ident, $trait:ident, $fn:ident, $op:tt) => {
        impl $trait for $vec {
            type Output = Self;
            #[inline(always)]
            fn $fn(self, rhs: Self) -> Self {
                Self(self.0 $op rhs.0)
            }
        }
    };
}

scalar_binop!(ScalarF32, Add, add, +);
scalar_binop!(ScalarF32, Sub, sub, -);
scalar_binop!(ScalarF32, Mul, mul, *);
scalar_binop!(ScalarF32, Div, div, /);

impl Neg for ScalarF32 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl SimdF32 for ScalarF32 {
    const LANES: usize = 1;
    type Mask = ScalarMask;
    type I32 = ScalarI32;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        Self(v)
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        Self(src[0])
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[0] = self.0;
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f32, mask: Self::Mask) -> Self {
        if mask.0 {
            // SAFETY: the caller guarantees `ptr` is readable for true lanes.
            Self(unsafe { ptr.read() })
        } else {
            Self(0.0)
        }
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f32, mask: Self::Mask) {
        if mask.0 {
            // SAFETY: the caller guarantees `ptr` is writable for true lanes.
            unsafe { ptr.write(self.0) }
        }
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f32 {
        assert!(i < 1, "lane index out of range");
        self.0
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        // Two roundings on purpose: bit-identical to the SSE2 backend,
        // which has no FMA. See the module-level numeric contract.
        Self(self.0 * m.0 + a.0)
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(if self.0 < rhs.0 { self.0 } else { rhs.0 })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(if self.0 > rhs.0 { self.0 } else { rhs.0 })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(f32::from_bits(self.0.to_bits() & 0x7fff_ffff))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(self.0.sqrt())
    }

    #[inline(always)]
    fn rsqrt(self) -> Self {
        Self(1.0 / self.0.sqrt())
    }

    #[inline(always)]
    fn floor(self) -> Self {
        Self(self.0.floor())
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 == rhs.0)
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 < rhs.0)
    }

    #[inline(always)]
    fn simd_le(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 <= rhs.0)
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 > rhs.0)
    }

    #[inline(always)]
    fn simd_ge(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 >= rhs.0)
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        if mask.0 {
            on_true
        } else {
            on_false
        }
    }

    #[inline(always)]
    fn to_i32_trunc(self) -> Self::I32 {
        ScalarI32(self.0 as i32)
    }

    #[inline(always)]
    fn from_i32(v: Self::I32) -> Self {
        Self(v.0 as f32)
    }

    #[inline(always)]
    fn from_bits(bits: Self::I32) -> Self {
        Self(f32::from_bits(bits.0 as u32))
    }

    #[inline(always)]
    fn to_bits(self) -> Self::I32 {
        ScalarI32(self.0.to_bits() as i32)
    }

    #[inline(always)]
    fn reduce_sum(self) -> f32 {
        self.0
    }

    #[inline(always)]
    fn reduce_min(self) -> f32 {
        self.0
    }

    #[inline(always)]
    fn reduce_max(self) -> f32 {
        self.0
    }

    #[inline(always)]
    fn gather(table: &[f32], idx: Self::I32) -> Self {
        Self(table[usize::try_from(idx.0).expect("negative gather index")])
    }

    #[inline(always)]
    fn interleave(self, rhs: Self) -> (Self, Self) {
        (self, rhs)
    }

    #[inline(always)]
    fn reverse(self) -> Self {
        self
    }
}

/// One-lane `f64` "vector".
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ScalarF64(pub f64);

scalar_binop!(ScalarF64, Add, add, +);
scalar_binop!(ScalarF64, Sub, sub, -);
scalar_binop!(ScalarF64, Mul, mul, *);
scalar_binop!(ScalarF64, Div, div, /);

impl Neg for ScalarF64 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl SimdF64 for ScalarF64 {
    const LANES: usize = 1;
    type Mask = ScalarMask;

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Self(v)
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        Self(src[0])
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[0] = self.0;
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be readable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn load_ptr_mask(ptr: *const f64, mask: Self::Mask) -> Self {
        if mask.0 {
            // SAFETY: the caller guarantees `ptr` is readable for true lanes.
            Self(unsafe { ptr.read() })
        } else {
            Self(0.0)
        }
    }

    // SAFETY: unsafe to call per the trait contract — every lane the
    // mask enables must be writable at `ptr + lane`; the body touches
    // no other lane.
    #[inline(always)]
    unsafe fn store_ptr_mask(self, ptr: *mut f64, mask: Self::Mask) {
        if mask.0 {
            // SAFETY: the caller guarantees `ptr` is writable for true lanes.
            unsafe { ptr.write(self.0) }
        }
    }

    #[inline(always)]
    fn lane(self, i: usize) -> f64 {
        assert!(i < 1, "lane index out of range");
        self.0
    }

    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        Self(self.0 * m.0 + a.0)
    }

    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self(if self.0 < rhs.0 { self.0 } else { rhs.0 })
    }

    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self(if self.0 > rhs.0 { self.0 } else { rhs.0 })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        Self(f64::from_bits(self.0.to_bits() & 0x7fff_ffff_ffff_ffff))
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        Self(self.0.sqrt())
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 < rhs.0)
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 > rhs.0)
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        if mask.0 {
            on_true
        } else {
            on_false
        }
    }

    #[inline(always)]
    fn reduce_sum(self) -> f64 {
        self.0
    }
}

/// One-lane `i32` "vector".
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ScalarI32(pub i32);

impl Add for ScalarI32 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self(self.0.wrapping_add(rhs.0))
    }
}

impl Sub for ScalarI32 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.wrapping_sub(rhs.0))
    }
}

impl Mul for ScalarI32 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self(self.0.wrapping_mul(rhs.0))
    }
}

scalar_binop!(ScalarI32, BitAnd, bitand, &);
scalar_binop!(ScalarI32, BitOr, bitor, |);

impl Shl<i32> for ScalarI32 {
    type Output = Self;
    #[inline(always)]
    fn shl(self, rhs: i32) -> Self {
        Self(self.0 << rhs)
    }
}

impl Shr<i32> for ScalarI32 {
    type Output = Self;
    #[inline(always)]
    fn shr(self, rhs: i32) -> Self {
        Self(self.0 >> rhs)
    }
}

impl SimdI32 for ScalarI32 {
    const LANES: usize = 1;
    type Mask = ScalarMask;

    #[inline(always)]
    fn splat(v: i32) -> Self {
        Self(v)
    }

    #[inline(always)]
    fn load(src: &[i32]) -> Self {
        Self(src[0])
    }

    #[inline(always)]
    fn store(self, dst: &mut [i32]) {
        dst[0] = self.0;
    }

    #[inline(always)]
    fn lane(self, i: usize) -> i32 {
        assert!(i < 1, "lane index out of range");
        self.0
    }

    #[inline(always)]
    fn simd_eq(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 == rhs.0)
    }

    #[inline(always)]
    fn simd_gt(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 > rhs.0)
    }

    #[inline(always)]
    fn simd_lt(self, rhs: Self) -> Self::Mask {
        ScalarMask(self.0 < rhs.0)
    }

    #[inline(always)]
    fn select(mask: Self::Mask, on_true: Self, on_false: Self) -> Self {
        if mask.0 {
            on_true
        } else {
            on_false
        }
    }

    #[inline(always)]
    fn reduce_sum(self) -> i32 {
        self.0
    }
}
