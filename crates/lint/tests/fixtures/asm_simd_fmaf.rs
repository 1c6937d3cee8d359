//! Fixture: a simd rung whose `mul_add` was compiled outside a frame
//! with FMA, so each one is a libm `fmaf` call — NL008 must fire exactly
//! once, on that call alone, when `check_asm` pairs this file with
//! `asm/fmacall.s`.

/// Simd rung; the paired listing is packed arithmetic plus the `fmaf`
/// it calls through a register and the one it tail-calls.
// ninja-lint: variant(simd)
// ninja-lint: expect(vec128)
pub fn run_simd(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.mul_add(1.5, 0.5) * 2.0;
    }
}
