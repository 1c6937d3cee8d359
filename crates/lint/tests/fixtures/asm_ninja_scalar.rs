//! Fixture: a ninja rung whose emitted assembly contains no vector
//! arithmetic — NL008 must fire exactly once when `check_asm` pairs this
//! file with `asm/scalar.s`.

/// Ninja-claimed entry point; the paired listing compiles it to purely
/// scalar FP code.
// ninja-lint: variant(ninja)
// ninja-lint: expect(vec128)
pub fn run_ninja(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = *v * 2.0 + 1.0;
    }
}
