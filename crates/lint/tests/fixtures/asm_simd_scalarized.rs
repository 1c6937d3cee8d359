//! Fixture: a simd rung that is vectorized and still compares and
//! converts lane by lane — NL011 (info) must fire exactly once when
//! `check_asm` pairs this file with `asm/scalarized.s`.

/// Simd rung; the paired listing is packed arithmetic around a clamp and
/// a truncating cast the compiler scalarized.
// ninja-lint: variant(simd)
// ninja-lint: expect(vec128)
pub fn run_simd(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = (v.clamp(-87.0, 88.0) * 1.5) as i32 as f32;
    }
}
