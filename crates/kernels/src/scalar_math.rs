//! Scalar mirrors of the `ninja_simd::isa::math` vector transcendentals.
//!
//! These are the "restructured for the compiler" forms: straight-line `f32`
//! polynomial code with no opaque libm calls, bit-identical to a lane of
//! the vector versions on a backend without FMA. The `Simd`/`Algorithmic` tiers of the transcendental-heavy
//! kernels (BlackScholes, Libor) inline these so an auto-vectorizer can in
//! principle vectorize the whole loop — the paper's `#pragma simd` + SVML
//! configuration.

/// Branch-free lane select: `if cond { a } else { b }`, computed with bit
/// masks exactly like the SSE2 backend's `select`, so scalar and vector
/// code stay bit-identical while remaining auto-vectorizable.
#[inline(always)]
pub fn select_f32(cond: bool, a: f32, b: f32) -> f32 {
    let mask = (cond as u32).wrapping_neg();
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// Branch-free floor that mirrors the SSE2 backend's `floor` (truncate,
/// then correct negative non-integers). Unlike `f32::floor`, this lowers to straight-line
/// code on bare SSE2 instead of a `floorf` libm call, so loops using it stay
/// auto-vectorizable. Exact for `|x| < 2^31`.
#[inline(always)]
pub fn floor_f32(x: f32) -> f32 {
    let t = x as i32 as f32;
    select_f32(t > x, t - 1.0, t)
}

/// Scalar mirror of [`ninja_simd::isa::math::exp`]'s polynomial.
#[inline(always)]
pub fn exp_poly(x: f32) -> f32 {
    let x = x.clamp(-87.336_54, 88.376_26);
    let fx = floor_f32(x * std::f32::consts::LOG2_E + 0.5);
    let r = x - fx * 0.693_359_4 - fx * -2.121_944_4e-4;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let y = p * (r * r) + (r + 1.0);
    let pow2n = f32::from_bits((((fx as i32) + 127) << 23) as u32);
    y * pow2n
}

/// Scalar mirror of [`ninja_simd::isa::math::ln`]'s polynomial.
#[inline(always)]
pub fn ln_poly(x: f32) -> f32 {
    let bits = x.to_bits() as i32;
    let e_raw = ((bits >> 23) - 127) as f32;
    let m_raw = f32::from_bits(((bits & 0x007f_ffff) | 0x3f80_0000) as u32);
    let fold = m_raw > std::f32::consts::SQRT_2;
    let m = select_f32(fold, m_raw * 0.5, m_raw);
    let e = select_f32(fold, e_raw + 1.0, e_raw);
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut p = 2.0 / 9.0;
    p = p * t2 + 2.0 / 7.0;
    p = p * t2 + 2.0 / 5.0;
    p = p * t2 + 2.0 / 3.0;
    p = p * t2 + 2.0;
    e * std::f32::consts::LN_2 + p * t
}

/// Scalar mirror of [`ninja_simd::isa::math::norm_cdf`] (A&S 26.2.17).
#[inline(always)]
pub fn cnd_poly(x: f32) -> f32 {
    let ax = x.abs();
    let k = 1.0 / (ax * 0.231_641_9 + 1.0);
    let mut poly = 1.330_274_5_f32;
    poly = poly * k + -1.821_255_9;
    poly = poly * k + 1.781_477_9;
    poly = poly * k + -0.356_563_78;
    poly = poly * k + 0.319_381_54;
    poly *= k;
    let pdf = 0.398_942_3 * exp_poly(-(ax * ax) * 0.5);
    let cdf_pos = 1.0 - pdf * poly;
    select_f32(x >= 0.0, cdf_pos, 1.0 - cdf_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_simd::isa::math::{exp, ln, norm_cdf};
    use ninja_simd::isa::{Scalar, ScalarF32};

    /// Bit-equality with the one-lane reference backend, which the
    /// differential suite in `ninja-simd` holds every unfused backend to.
    #[test]
    fn scalar_polys_match_the_vector_math_bitwise() {
        for i in -50..=50 {
            let x = i as f32 * 0.73;
            assert_eq!(exp_poly(x), exp::<Scalar>(ScalarF32(x)).0, "exp {x}");
            assert_eq!(cnd_poly(x), norm_cdf::<Scalar>(ScalarF32(x)).0, "cnd {x}");
            if x > 0.0 {
                assert_eq!(ln_poly(x), ln::<Scalar>(ScalarF32(x)).0, "ln {x}");
            }
        }
    }

    #[test]
    fn scalar_polys_match_std() {
        for i in -40..=40 {
            let x = i as f32 * 0.5;
            assert!((exp_poly(x) - x.exp()).abs() / x.exp() < 3e-6, "exp {x}");
        }
        for i in 1..200 {
            let x = i as f32 * 0.37;
            assert!(
                (ln_poly(x) - x.ln()).abs() < 3e-6 * x.ln().abs().max(1.0),
                "ln {x}"
            );
        }
    }
}
