//! Scalar mirrors of the `ninja_simd::isa::math` vector transcendentals.
//!
//! These are the "restructured for the compiler" forms: straight-line `f32`
//! polynomial code with no opaque libm calls. Each takes the [`Frame`] of
//! the enclosing [`ninja_simd::isa::with_active_features`] call and fuses
//! exactly where the vector version calls `mul_add`, so it is
//! bit-identical to a lane of the vector version of the frame's own
//! backend: fused in the AVX2 frame, unfused in the others and under
//! `Frame::default()`. The `Simd`/`Algorithmic` tiers of the
//! transcendental-heavy kernels (BlackScholes, Libor, NBody) inline these
//! so the auto-vectorizer vectorizes the whole loop — the paper's
//! `#pragma simd` + SVML configuration with `-fp:fast` contraction, at
//! whatever width the frame compiles for.
//!
//! "Straight-line" is a property of the emitted code, not of the source:
//! `f32::clamp`, `f32::floor` and the saturating `as i32` cast all look
//! branch-free and all lower to per-lane scalar compare/convert sequences
//! (`ucomiss`, `cvttss2si`) inside an otherwise packed loop. Everything
//! here is built from compares, bit masks and `f32` adds instead, and the
//! asm oracle's `sconv=` count keeps it that way.
//!
//! # Accuracy policy
//!
//! One rule: a function here either reproduces its reference bit for bit,
//! or states a ULP bound that an exhaustive or dense test enforces.
//!
//! * [`exp_poly`], [`ln_poly`], [`cnd_poly`] are **bit-identical** to
//!   `isa::math::{exp, ln, norm_cdf}::<I>` in backend `I`'s frame, for
//!   finite inputs: to `Scalar` and `Sse2` unfused (the differential
//!   suite in `ninja-simd` holds every unfused backend to the same
//!   reference), to `Avx2` fused. Every backend's frame is tested.
//!   `exp_poly` propagates NaN and clamps `±inf` to the ends of its
//!   range.
//! * [`floor_f32`] is **exact** for `|x| < 2^22`; it returns `+0.0`
//!   where `f32::floor` returns `-0.0`. [`int_of_integral`] is exact on
//!   the integers of the same range.
//! * [`rsqrt_fast`] is within **2 ULP** of `1/sqrt(x)` rounded from
//!   `f64` for every normal `x >= 2^-125`, and within 3 ULP in the lowest
//!   normal binade, fused or not (every positive normal `f32` is tested
//!   both ways).
//! * [`exp_f64`], the one `f64` function here (it serves Libor's `f64`
//!   reference, not a rung), is within **1 ULP** of libm's `f64::exp`
//!   from the underflow to the overflow threshold, subnormal results
//!   included (4,000,001 evenly spaced points are tested); beyond them,
//!   and for NaN, it returns what `f64::exp` does: `0.0`, `+inf`, NaN.

use ninja_simd::isa::Frame;

/// Branch-free lane select: `if cond { a } else { b }`, computed with bit
/// masks exactly like the SSE2 backend's `select`, so scalar and vector
/// code stay bit-identical while remaining auto-vectorizable.
#[inline(always)]
pub fn select_f32(cond: bool, a: f32, b: f32) -> f32 {
    let mask = (cond as u32).wrapping_neg();
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// `1.5 * 2^23`: adding it to an `f32` of magnitude below `2^22` lands in
/// `[2^23, 2^24)`, where the spacing is exactly 1, so the addition itself
/// rounds to the nearest integer and leaves that integer (biased by
/// `2^22`) in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Branch-free floor: round to nearest with the magic-number addition,
/// then step down where that rounded up. Unlike `f32::floor` (a `floorf`
/// libm call on bare SSE2) and `x as i32 as f32` (a scalar saturating
/// conversion per lane) this is adds, a compare and a mask, so loops
/// using it auto-vectorize at any width. Exact for `|x| < 2^22`; `-0.0`
/// floors to `+0.0`.
#[inline(always)]
pub fn floor_f32(x: f32) -> f32 {
    let t = (x + ROUND_MAGIC) - ROUND_MAGIC;
    select_f32(t > x, t - 1.0, t)
}

/// The `i32` value of an integral `x` with `|x| < 2^22` (a [`floor_f32`]
/// result, say): the magic-number sum carries the integer in its low
/// mantissa bits, so it falls out of a bit subtraction. An add and an
/// integer subtract, where `x as i32` or `x as usize` is a scalar
/// saturating conversion per lane. A non-integral `x` rounds to nearest.
#[inline(always)]
pub fn int_of_integral(x: f32) -> i32 {
    (x + ROUND_MAGIC)
        .to_bits()
        .wrapping_sub(ROUND_MAGIC.to_bits()) as i32
}

/// Scalar mirror of [`ninja_simd::isa::math::exp`]'s polynomial, fused
/// where it calls `mul_add` if `f` has FMA.
#[inline(always)]
pub fn exp_poly(f: Frame, x: f32) -> f32 {
    // A clamp from selects: NaN fails both compares and passes through.
    let x = select_f32(x > 88.376_26, 88.376_26, x);
    let x = select_f32(x < -87.336_54, -87.336_54, x);
    let fx = floor_f32(f.mul_add(x, std::f32::consts::LOG2_E, 0.5));
    let r = x - fx * 0.693_359_4 - fx * -2.121_944_4e-4;
    let mut p = 1.987_569_1e-4;
    p = f.mul_add(p, r, 1.398_199_9e-3);
    p = f.mul_add(p, r, 8.333_452e-3);
    p = f.mul_add(p, r, 4.166_579_6e-2);
    p = f.mul_add(p, r, 1.666_666_6e-1);
    p = f.mul_add(p, r, 0.5);
    let y = f.mul_add(p, r * r, r + 1.0);
    // `fx` is an integer in [-126, 128].
    let n = int_of_integral(fx) as u32;
    let pow2n = f32::from_bits(n.wrapping_add(127) << 23);
    y * pow2n
}

/// [`select_f32`] on `f64` lanes.
#[inline(always)]
fn select_f64(cond: bool, a: f64, b: f64) -> f64 {
    let mask = (cond as u64).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// `1.5 * 2^52`, [`ROUND_MAGIC`] for `f64`: the sum of it and an `f64`
/// of magnitude below `2^51` is that value rounded to an integer, which
/// also sits in the low mantissa bits.
const ROUND_MAGIC_F64: f64 = 6_755_399_441_055_744.0;

/// Largest `x` whose `exp` is finite: `ln(f64::MAX)` rounded down.
const EXP_F64_OVERFLOW: f64 = 709.782_712_893_384;
/// Below this `exp(x)` is under half the smallest subnormal and rounds
/// to zero: `ln(2^-1075)`.
const EXP_F64_UNDERFLOW: f64 = -745.133_219_101_941_1;

/// `e^x` in `f64` from adds, multiplies and bit operations, so a loop
/// calling it vectorizes where libm's `exp` (a call) does not.
///
/// Cody-Waite reduction `x = n ln2 + r`, `|r| <= ln2 / 2`, with `ln2`
/// split so `n * LN2_HI` is exact; then the degree-13 Taylor polynomial
/// of `e^r` (truncation under 0.05 ULP), its two lowest terms added last;
/// then `2^n` applied as two normal factors, so a subnormal result is
/// rounded once. NaN propagates; `+inf` and anything past `ln(f64::MAX)`
/// give `+inf`, `-inf` and anything whose `exp` rounds to zero give
/// `0.0`, as `f64::exp` does.
#[inline(always)]
pub fn exp_f64(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // A clamp from selects: NaN fails both compares and passes through.
    let xc = select_f64(x > EXP_F64_OVERFLOW, EXP_F64_OVERFLOW, x);
    let xc = select_f64(xc < EXP_F64_UNDERFLOW, EXP_F64_UNDERFLOW, xc);
    let t = xc * std::f64::consts::LOG2_E + ROUND_MAGIC_F64;
    let fx = t - ROUND_MAGIC_F64;
    // `n` is in [-1075, 1024].
    let n = t.to_bits().wrapping_sub(ROUND_MAGIC_F64.to_bits()) as i64;
    let r = (xc - fx * LN2_HI) - fx * LN2_LO;
    let mut p = 1.0 / 6_227_020_800.0;
    p = p * r + 1.0 / 479_001_600.0;
    p = p * r + 1.0 / 39_916_800.0;
    p = p * r + 1.0 / 3_628_800.0;
    p = p * r + 1.0 / 362_880.0;
    p = p * r + 1.0 / 40_320.0;
    p = p * r + 1.0 / 5_040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    let y = 1.0 + (r + p * (r * r));
    // `n = n1 + n2` with both halves in [-538, 512]; the logical shift of
    // the biased `n` halves it without a 64-bit arithmetic shift, which
    // AVX2 lacks. (Wrapping: a NaN's `n` is garbage, and so is `y`.)
    let n1 = ((n.wrapping_add(1100) as u64) >> 1) as i64 - 550;
    let n2 = n.wrapping_sub(n1);
    let pow2 = |k: i64| f64::from_bits((k.wrapping_add(1023) as u64) << 52);
    let y = y * pow2(n1) * pow2(n2);
    let y = select_f64(x > EXP_F64_OVERFLOW, f64::INFINITY, y);
    select_f64(x < EXP_F64_UNDERFLOW, 0.0, y)
}

/// Fast reciprocal square root for positive normal `x`: the exponent-
/// halving bit trick for a seed (relative error under 3.5%), then three
/// Newton steps `y <- y * (1.5 - 0.5 * x * y * y)`, each squaring the
/// error (3.5e-2, 1.8e-3, 4.7e-6, below rounding). Where `f` has FMA each
/// step's `1.5 - (0.5 * x * y) * y` is one fused multiply-add; unfused it
/// rounds as written. Multiplies and subtracts only, so a loop calling it is not serialized on the
/// divide/sqrt unit the way `1.0 / x.sqrt()` is — what a compiler does
/// to that expression under `-fp:fast`. Within 2 ULP of the correctly
/// rounded `1/sqrt(x)` (3 ULP below `2^-125`, where `0.5 * x` is
/// subnormal), fused or not; unspecified for zero, negative, subnormal or
/// non-finite `x`.
#[inline(always)]
pub fn rsqrt_fast(f: Frame, x: f32) -> f32 {
    let neg_half_x = -0.5 * x;
    let mut y = f32::from_bits(0x5f37_59df_u32.wrapping_sub(x.to_bits() >> 1));
    y *= f.mul_add(neg_half_x * y, y, 1.5);
    y *= f.mul_add(neg_half_x * y, y, 1.5);
    y *= f.mul_add(neg_half_x * y, y, 1.5);
    y
}

/// Scalar mirror of [`ninja_simd::isa::math::ln`]'s polynomial, fused
/// where it calls `mul_add` if `f` has FMA.
///
/// The exponent reaches `f32` through the mantissa of `2^23` (exact, as
/// in [`floor_f32`]) and the fold compares mantissa bits as integers —
/// `m_raw` is in `[1, 2)`, where float order is bit order — so neither
/// step needs a scalar `cvtsi2ss`/`ucomiss` in a loop's remainder.
#[inline(always)]
pub fn ln_poly(f: Frame, x: f32) -> f32 {
    let bits = x.to_bits();
    let e_raw = f32::from_bits((bits >> 23) | 0x4b00_0000) - 8_388_735.0;
    let m_bits = (bits & 0x007f_ffff) | 0x3f80_0000;
    let m_raw = f32::from_bits(m_bits);
    let fold = m_bits > std::f32::consts::SQRT_2.to_bits();
    let m = select_f32(fold, m_raw * 0.5, m_raw);
    let e = select_f32(fold, e_raw + 1.0, e_raw);
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut p = 2.0 / 9.0;
    p = f.mul_add(p, t2, 2.0 / 7.0);
    p = f.mul_add(p, t2, 2.0 / 5.0);
    p = f.mul_add(p, t2, 2.0 / 3.0);
    p = f.mul_add(p, t2, 2.0);
    f.mul_add(e, std::f32::consts::LN_2, p * t)
}

/// Scalar mirror of [`ninja_simd::isa::math::norm_cdf`] (A&S 26.2.17),
/// fused where it calls `mul_add` if `f` has FMA.
#[inline(always)]
pub fn cnd_poly(f: Frame, x: f32) -> f32 {
    let ax = x.abs();
    let k = 1.0 / f.mul_add(ax, 0.231_641_9, 1.0);
    let mut poly = 1.330_274_5_f32;
    poly = f.mul_add(poly, k, -1.821_255_9);
    poly = f.mul_add(poly, k, 1.781_477_9);
    poly = f.mul_add(poly, k, -0.356_563_78);
    poly = f.mul_add(poly, k, 0.319_381_54);
    poly *= k;
    let pdf = 0.398_942_3 * exp_poly(f, -(ax * ax) * 0.5);
    let cdf_pos = 1.0 - pdf * poly;
    select_f32(x >= 0.0, cdf_pos, 1.0 - cdf_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_simd::isa::math::{exp, ln, norm_cdf};
    use ninja_simd::isa::{
        available_kinds, dispatch_on, with_features_on, Isa, IsaKind, IsaOp, SimdF32,
        MAX_ISA_F32_LANES,
    };

    /// One backend's vector `[exp, ln, norm_cdf]` of each input: lane 0
    /// of a splat.
    struct VectorMath<'a>(&'a [f32]);

    impl IsaOp for VectorMath<'_> {
        type Output = Vec<[f32; 3]>;
        fn run<I: Isa>(self) -> Vec<[f32; 3]> {
            let lane0 = |v: I::F32| {
                let mut out = [0.0; MAX_ISA_F32_LANES];
                v.store_partial(&mut out);
                out[0]
            };
            let math = |x| {
                let v = I::F32::splat(x);
                [exp::<I>(v), ln::<I>(v), norm_cdf::<I>(v)].map(lane0)
            };
            self.0.iter().map(|&x| math(x)).collect()
        }
    }

    /// In every backend's feature frame each mirror is bit-identical to
    /// that backend's vector math: unfused in the Scalar and Sse2 frames,
    /// fused in the AVX2 frame (the differential suite in `ninja-simd`
    /// holds the unfused backends to one another). The `exp` sweep is
    /// dense where `exp_poly` changes regime: 0.001 steps across the
    /// whole clamped range and a little beyond both clamps.
    #[test]
    fn scalar_polys_match_the_vector_math_bitwise() {
        let steps = |n: i32, h: f32| (-n..=n).map(move |i| i as f32 * h);
        let cnd_xs: Vec<f32> = steps(8_000, 0.005).collect();
        // ln across the exponent range, on both sides of the sqrt(2) fold.
        let folds = [
            1.0f32,
            1.37,
            std::f32::consts::SQRT_2,
            1.414_213_7,
            1.999_999_9,
        ];
        let scaled = (-126..=127).flat_map(|k| folds.map(|m| m * 2.0f32.powi(k)));
        let ln_xs: Vec<f32> = cnd_xs
            .iter()
            .copied()
            .filter(|&x| x > 0.0)
            .chain(scaled)
            .collect();
        let cases = [
            ("exp", 0, steps(95_000, 0.001).collect()),
            ("ln", 1, ln_xs),
            ("cnd", 2, cnd_xs),
        ];
        for kind in available_kinds() {
            for (name, col, xs) in &cases {
                let want = dispatch_on(kind, VectorMath(xs));
                let got: Vec<f32> = with_features_on(kind, |f| {
                    let mirror = [exp_poly, ln_poly, cnd_poly][*col];
                    xs.iter().map(|&x| mirror(f, x)).collect()
                });
                for ((x, g), w) in xs.iter().zip(got).zip(want) {
                    assert_eq!(g.to_bits(), w[*col].to_bits(), "{kind} {name} {x:e}");
                }
            }
        }
    }

    #[test]
    fn exp_poly_propagates_nan_and_clamps_infinities() {
        let exp = |x| exp_poly(Frame::default(), x);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), exp(88.376_26));
        assert_eq!(exp(f32::NEG_INFINITY), exp(-87.336_54));
        assert!(exp(f32::INFINITY).is_finite());
        assert!(exp(f32::NEG_INFINITY) > 0.0);
    }

    /// `exp_f64` against `f64::exp` on 4,000,001 evenly spaced points
    /// from where `exp` underflows to zero to where it overflows (the
    /// subnormal results below -708.4 included), and 0.001 steps near 0,
    /// where `n = 0` and the polynomial alone answers.
    #[test]
    fn exp_f64_is_within_one_ulp_of_libm() {
        let ulps = |x: f64| (exp_f64(x).to_bits() as i64).abs_diff(x.exp().to_bits() as i64);
        let (lo, hi) = (EXP_F64_UNDERFLOW, EXP_F64_OVERFLOW);
        let steps = 4_000_000;
        for i in 0..=steps {
            let x = lo + (hi - lo) * (i as f64 / steps as f64);
            assert!(
                ulps(x) <= 1,
                "exp_f64({x}): {:e} vs {:e}",
                exp_f64(x),
                x.exp()
            );
        }
        for i in -2_000..=2_000 {
            let x = i as f64 * 0.001;
            assert!(ulps(x) <= 1, "exp_f64({x})");
        }
    }

    #[test]
    fn exp_f64_handles_nan_overflow_and_underflow_as_libm_does() {
        assert!(exp_f64(f64::NAN).is_nan());
        assert!(exp_f64(-f64::NAN).is_nan());
        assert_eq!(exp_f64(EXP_F64_OVERFLOW), EXP_F64_OVERFLOW.exp());
        assert!(exp_f64(EXP_F64_OVERFLOW).is_finite());
        let past = f64::from_bits(EXP_F64_OVERFLOW.to_bits() + 1);
        for x in [past, 710.0, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(exp_f64(x), f64::INFINITY, "{x}");
            assert_eq!(x.exp(), f64::INFINITY, "{x}");
        }
        // The smallest subnormal just above the threshold, zero below it.
        assert_eq!(exp_f64(-745.13), (-745.13f64).exp());
        assert_eq!(exp_f64(-745.13), f64::from_bits(1));
        for x in [-745.14, -746.0, -1e300, f64::MIN, f64::NEG_INFINITY] {
            assert_eq!(exp_f64(x).to_bits(), 0, "{x}");
            assert_eq!(x.exp().to_bits(), 0, "{x}");
        }
        assert_eq!(exp_f64(0.0), 1.0);
        assert_eq!(exp_f64(-0.0), 1.0);
    }

    #[test]
    fn floor_is_exact_on_its_documented_domain() {
        // Negative integers and -0.0 stay put; ties and near-integers go
        // down, including where the magic-number add rounded up.
        for x in [-1.0f32, -2.0, -127.0, -4_194_303.0, 0.0, 1.0, 128.0] {
            assert_eq!(floor_f32(x), x, "{x}");
        }
        assert_eq!(floor_f32(-0.0).to_bits(), 0.0f32.to_bits());
        for (x, want) in [
            (0.5f32, 0.0f32),
            (1.5, 1.0),
            (2.5, 2.0),
            (-0.5, -1.0),
            (-1.5, -2.0),
            (-2.5, -3.0),
            (0.999_999_94, 0.0),
            (-0.000_000_1, -1.0),
            (127.999_99, 127.0),
        ] {
            assert_eq!(floor_f32(x), want, "{x}");
        }
        // Both edges of |x| < 2^22: the largest magnitudes below it (the
        // spacing there is 0.25), and the first integer beyond it, where
        // the sum lands on a tie and the result is no longer the floor.
        let edge = 4_194_304.0f32;
        assert_eq!(floor_f32(edge - 0.25), edge - 1.0);
        assert_eq!(floor_f32(-edge + 0.25), -edge);
        assert_ne!(floor_f32(edge + 1.0), edge + 1.0);
        // Agreement with std over a dense sweep of the range exp uses.
        for i in -130_000..=130_000 {
            let x = i as f32 * 0.001;
            assert_eq!(floor_f32(x), x.floor(), "{x}");
        }
    }

    #[test]
    fn int_of_integral_is_exact_below_two_to_the_22() {
        let edge = 4_194_303i32;
        for i in (-edge..=edge).step_by(997).chain([-edge, -1, 0, 1, edge]) {
            assert_eq!(int_of_integral(i as f32), i, "{i}");
        }
        // Through floor_f32, as the gather kernels use it.
        for (x, want) in [(0.0f32, 0), (0.75, 0), (5.5, 5), (382.999, 382), (-0.5, -1)] {
            assert_eq!(int_of_integral(floor_f32(x)), want, "{x}");
        }
    }

    /// `rsqrt_fast` against `1/sqrt` evaluated in `f64`, unfused and, on
    /// a CPU with AVX2+FMA, fused in that backend's frame. A release
    /// build visits every positive normal `f32` (2^31 of them, about 10 s
    /// per form: the `isa-matrix` CI job runs this suite in release); a
    /// debug build every 251st. The bound is 2 ULP, except in the lowest
    /// normal binade, where `0.5 * x` is subnormal and has lost a bit:
    /// 3 ULP.
    #[test]
    fn rsqrt_fast_is_within_two_ulp_of_every_positive_normal() {
        #[inline(always)]
        fn check(f: Frame) {
            let stride = if cfg!(debug_assertions) { 251 } else { 1 };
            let lowest_binade_end = (2.0 * f32::MIN_POSITIVE).to_bits();
            for bits in (f32::MIN_POSITIVE.to_bits()..=f32::MAX.to_bits()).step_by(stride) {
                let x = f32::from_bits(bits);
                let want = (1.0 / f64::from(x).sqrt()) as f32;
                let ulps = rsqrt_fast(f, x).to_bits().abs_diff(want.to_bits());
                let bound = if bits < lowest_binade_end { 3 } else { 2 };
                assert!(
                    ulps <= bound,
                    "rsqrt_fast({f:?}, {x:e}): {ulps} ULP from {want:e}"
                );
            }
        }
        check(Frame::default());
        if IsaKind::Avx2.available() {
            with_features_on(IsaKind::Avx2, check);
        }
    }

    #[test]
    fn scalar_polys_match_std() {
        for kind in available_kinds() {
            with_features_on(kind, |f| {
                for i in -40..=40 {
                    let x = i as f32 * 0.5;
                    let err = (exp_poly(f, x) - x.exp()).abs() / x.exp();
                    assert!(err < 3e-6, "{kind} exp {x}");
                }
                for i in 1..200 {
                    let x = i as f32 * 0.37;
                    let err = (ln_poly(f, x) - x.ln()).abs();
                    assert!(err < 3e-6 * x.ln().abs().max(1.0), "{kind} ln {x}");
                }
            });
        }
    }
}
