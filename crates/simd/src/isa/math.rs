//! Width-generic transcendental math over any [`Isa`] backend.
//!
//! Cephes-style polynomial kernels — what the paper's financial
//! benchmarks get from ICC's SVML — written once against the [`SimdF32`]
//! contract so BlackScholes and Libor run them at 1, 4, or 8 lanes from
//! one source. Results differ across backends only through `mul_add`
//! fusion (see the [`super`] numeric contract).
//!
//! Accuracy: relative error below ~2e-6 for [`exp`] over `[-87, 88]`
//! and [`ln`] on normal positive inputs, absolute error below ~1e-6 for
//! [`norm_cdf`] (A&S 26.2.17). [`norm_cdf_scalar`] is the `f64`
//! reference of the same formula.

use super::{Isa, SimdF32, SimdI32};

const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -87.336_54;
const LOG2E: f32 = std::f32::consts::LOG2_E;
// ln(2) split into a high part exactly representable in f32 and a low
// correction, so that `x - n*ln2` stays accurate (Cody-Waite reduction).
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;

/// Lane-wise `e^x`: clamp to `[-87.3, 88.4]`, reduce as `x = n·ln2 + r`,
/// reconstruct a degree-5 polynomial in `r` scaled by `2^n`.
#[inline(always)]
pub fn exp<I: Isa>(x: I::F32) -> I::F32 {
    let x = x.min(I::F32::splat(EXP_HI)).max(I::F32::splat(EXP_LO));

    // n = round(x / ln2), computed as floor(x*log2e + 0.5).
    let fx = x.mul_add(I::F32::splat(LOG2E), I::F32::splat(0.5)).floor();

    // r = x - n*ln2, in two steps for accuracy.
    let r = x - fx * I::F32::splat(LN2_HI) - fx * I::F32::splat(LN2_LO);

    // Degree-5 minimax polynomial for e^r on [-ln2/2, ln2/2] (Cephes expf).
    let mut p = I::F32::splat(1.987_569_1e-4);
    p = p.mul_add(r, I::F32::splat(1.398_199_9e-3));
    p = p.mul_add(r, I::F32::splat(8.333_452e-3));
    p = p.mul_add(r, I::F32::splat(4.166_579_6e-2));
    p = p.mul_add(r, I::F32::splat(1.666_666_6e-1));
    p = p.mul_add(r, I::F32::splat(0.5));
    let y = p.mul_add(r * r, r + I::F32::splat(1.0));

    // 2^n assembled directly in the exponent field.
    let n = fx.to_i32_trunc();
    let pow2n = I::F32::from_bits((n + I::I32::splat(127)) << 23);
    y * pow2n
}

/// Lane-wise natural logarithm.
///
/// Returns a platform-dependent garbage value (not a trap) for
/// non-positive or non-finite lanes, like SVML's fast variants; callers
/// in this workspace only pass positive finite values.
#[inline(always)]
pub fn ln<I: Isa>(x: I::F32) -> I::F32 {
    // Decompose x = m * 2^e with m in [sqrt(0.5), sqrt(2)).
    let bits = x.to_bits();
    let exp_raw = (bits >> 23) - I::I32::splat(127);
    // Mantissa with exponent forced to 0 => m in [1, 2).
    let mant_bits = (bits & I::I32::splat(0x007f_ffff)) | I::I32::splat(0x3f80_0000);
    let m = I::F32::from_bits(mant_bits);

    // Fold m into [sqrt(0.5), sqrt(2)): if m > sqrt(2), halve it and bump e.
    let sqrt2 = I::F32::splat(std::f32::consts::SQRT_2);
    let fold = m.simd_gt(sqrt2);
    let m = I::F32::select(fold, m * I::F32::splat(0.5), m);
    let e = I::F32::from_i32(I::I32::select(fold, exp_raw + I::I32::splat(1), exp_raw));

    // ln(m) via atanh identity: ln(m) = 2·atanh((m-1)/(m+1)).
    let one = I::F32::splat(1.0);
    let t = (m - one) / (m + one);
    let t2 = t * t;
    // Degree-4 polynomial in t^2 for 2*atanh(t)/t.
    let mut p = I::F32::splat(2.0 / 9.0);
    p = p.mul_add(t2, I::F32::splat(2.0 / 7.0));
    p = p.mul_add(t2, I::F32::splat(2.0 / 5.0));
    p = p.mul_add(t2, I::F32::splat(2.0 / 3.0));
    p = p.mul_add(t2, I::F32::splat(2.0));
    let ln_m = p * t;

    e.mul_add(I::F32::splat(std::f32::consts::LN_2), ln_m)
}

/// Lane-wise standard normal CDF (Abramowitz & Stegun 26.2.17, the
/// classic Black-Scholes CND).
#[inline(always)]
pub fn norm_cdf<I: Isa>(x: I::F32) -> I::F32 {
    let one = I::F32::splat(1.0);
    let ax = x.abs();
    let k = one / ax.mul_add(I::F32::splat(0.231_641_9), one);

    let mut poly = I::F32::splat(1.330_274_5);
    poly = poly.mul_add(k, I::F32::splat(-1.821_255_9));
    poly = poly.mul_add(k, I::F32::splat(1.781_477_9));
    poly = poly.mul_add(k, I::F32::splat(-0.356_563_78));
    poly = poly.mul_add(k, I::F32::splat(0.319_381_54));
    poly = poly * k;

    // phi(ax) = exp(-ax^2/2) / sqrt(2*pi)
    let inv_sqrt_2pi = I::F32::splat(0.398_942_3);
    let pdf = inv_sqrt_2pi * exp::<I>(-(ax * ax) * I::F32::splat(0.5));

    let cdf_pos = one - pdf * poly;
    // Reflect for negative inputs: N(-x) = 1 - N(x).
    I::F32::select(x.simd_ge(I::F32::zero()), cdf_pos, one - cdf_pos)
}

/// Scalar standard normal CDF (same A&S 26.2.17 formula, `f64` arithmetic).
///
/// This is the reference the vector version is validated against, and the
/// implementation the *naive* Black-Scholes kernel calls per element.
#[inline]
pub fn norm_cdf_scalar(x: f64) -> f64 {
    let ax = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * ax);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let pdf = (-(ax * ax) * 0.5).exp() * 0.39894228040143267;
    let cdf_pos = 1.0 - pdf * poly;
    if x >= 0.0 {
        cdf_pos
    } else {
        1.0 - cdf_pos
    }
}

#[cfg(test)]
mod tests {
    use super::super::{available_kinds, dispatch_on, IsaKind, IsaOp};
    use super::*;

    #[derive(Copy, Clone)]
    enum Func {
        Exp,
        Ln,
        NormCdf,
    }

    /// Maps one function over `xs` (zero-padded to whole vectors).
    struct Map<'a>(Func, &'a [f32]);
    impl IsaOp for Map<'_> {
        type Output = Vec<f32>;
        fn run<I: Isa>(self) -> Vec<f32> {
            let lanes = <I::F32 as SimdF32>::LANES;
            let mut out = vec![0.0; self.1.len()];
            for (c, o) in self.1.chunks(lanes).zip(out.chunks_mut(lanes)) {
                let v = I::F32::load_partial(c);
                let y = match self.0 {
                    Func::Exp => exp::<I>(v),
                    Func::Ln => ln::<I>(v),
                    Func::NormCdf => norm_cdf::<I>(v),
                };
                y.store_partial(o);
            }
            out
        }
    }

    /// Checks `f` against `reference` within relative `tol` on every
    /// reachable backend.
    fn check(f: Func, reference: impl Fn(f32) -> f32, xs: &[f32], tol: f32) {
        for kind in available_kinds() {
            for (&x, got) in xs.iter().zip(dispatch_on(kind, Map(f, xs))) {
                let want = reference(x);
                let err = (got - want).abs() / want.abs().max(1e-30);
                assert!(err < tol, "{kind}: x={x} got={got} want={want} err={err}");
            }
        }
    }

    #[test]
    fn exp_matches_std() {
        let xs: Vec<f32> = (-860..880).map(|i| i as f32 * 0.1).collect();
        check(Func::Exp, f32::exp, &xs, 2e-6);
    }

    #[test]
    fn exp_extreme_inputs_clamped() {
        for kind in available_kinds() {
            let y = dispatch_on(kind, Map(Func::Exp, &[-1000.0, 1000.0, 0.0]));
            assert!(y[0] > 0.0 && y[0] < 1e-37, "{kind} underflow: {}", y[0]);
            assert!(y[1].is_finite() && y[1] > 1e38, "{kind} overflow: {}", y[1]);
            assert!((y[2] - 1.0).abs() < 1e-6, "{kind}");
        }
    }

    #[test]
    fn ln_matches_std() {
        let xs: Vec<f32> = (1..2000)
            .map(|i| i as f32 * 0.05)
            .chain([1e-6, 1e6, 3.3e7, 0.999, 1.001])
            .collect();
        check(Func::Ln, f32::ln, &xs, 2e-6);
    }

    #[test]
    fn ln_exp_roundtrip() {
        let xs = [0.1f32, 0.5, 1.0, 2.0, 10.0, 42.0];
        for kind in available_kinds() {
            let e = dispatch_on(kind, Map(Func::Exp, &xs));
            for (&x, rt) in xs.iter().zip(dispatch_on(kind, Map(Func::Ln, &e))) {
                assert!((rt - x).abs() < 1e-4, "{kind}: roundtrip {x} -> {rt}");
            }
        }
    }

    #[test]
    fn norm_cdf_matches_scalar_reference() {
        let xs: Vec<f32> = (-100..=100).map(|i| i as f32 * 0.1).collect();
        for kind in available_kinds() {
            for (&x, got) in xs.iter().zip(dispatch_on(kind, Map(Func::NormCdf, &xs))) {
                let want = norm_cdf_scalar(x as f64) as f32;
                assert!(
                    (got - want).abs() < 2e-6,
                    "{kind}: x={x} got={got} want={want}"
                );
            }
        }
    }

    #[test]
    fn norm_cdf_basic_properties() {
        for kind in available_kinds() {
            let y = dispatch_on(kind, Map(Func::NormCdf, &[0.0, -8.0, 8.0, 1.0]));
            assert!((y[0] - 0.5).abs() < 1e-6, "{kind}");
            assert!(y[1] < 1e-6, "{kind}");
            assert!(y[2] > 1.0 - 1e-6, "{kind}");
            assert!((y[3] - 0.841_344_7).abs() < 1e-5, "{kind}");
            // Symmetry: N(x) + N(-x) == 1.
            let xs: Vec<f32> = (0..40).map(|i| i as f32 * 0.25).collect();
            let neg: Vec<f32> = xs.iter().map(|x| -x).collect();
            let (p, n) = (
                dispatch_on(kind, Map(Func::NormCdf, &xs)),
                dispatch_on(kind, Map(Func::NormCdf, &neg)),
            );
            for (a, b) in p.iter().zip(&n) {
                assert!((a + b - 1.0).abs() < 2e-6, "{kind}: {a} + {b}");
            }
            // Bounded, and monotone up to f32 rounding of the approximation.
            let sweep: Vec<f32> = (-480..=480).map(|i| i as f32 * 0.025).collect();
            let cdf = dispatch_on(kind, Map(Func::NormCdf, &sweep));
            assert!(cdf.iter().all(|y| (0.0..=1.0).contains(y)), "{kind}");
            assert!(cdf.windows(2).all(|w| w[1] >= w[0] - 2e-6), "{kind}");
        }
    }

    #[test]
    fn every_reachable_backend_agrees_with_scalar() {
        let xs: Vec<f32> = (0..64).map(|i| i as f32 * 0.37 - 11.0).collect();
        let pos: Vec<f32> = xs.iter().map(|x| x.abs() + 0.5).collect();
        for (f, input) in [(Func::Exp, &xs), (Func::NormCdf, &xs), (Func::Ln, &pos)] {
            let reference = dispatch_on(IsaKind::Scalar, Map(f, input));
            for kind in available_kinds() {
                let got = dispatch_on(kind, Map(f, input));
                for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                    let rel = (g - r).abs() / r.abs().max(1e-6);
                    assert!(rel < 1e-5, "{kind} lane {i}: {g} vs scalar {r}");
                }
            }
        }
    }
}
