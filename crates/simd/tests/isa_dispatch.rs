//! `NINJA_ISA` environment-override tests, isolated in their own test
//! binary because they mutate the process environment. A single #[test]
//! keeps the mutations sequenced.

use ninja_simd::isa::{
    available_kinds, detect_best, dispatch, resolve_from_env, Isa, IsaKind, IsaOp, SimdF32,
    NINJA_ISA_ENV,
};

struct WidthProbe;
impl IsaOp for WidthProbe {
    type Output = usize;
    fn run<I: Isa>(self) -> usize {
        <I::F32 as SimdF32>::LANES * 32
    }
}

#[test]
fn env_override_sequencing() {
    // Unset: auto-detection.
    std::env::remove_var(NINJA_ISA_ENV);
    assert_eq!(resolve_from_env(), Ok(detect_best()));

    // Empty and whitespace: still auto-detection.
    std::env::set_var(NINJA_ISA_ENV, "");
    assert_eq!(resolve_from_env(), Ok(detect_best()));
    std::env::set_var(NINJA_ISA_ENV, "  ");
    assert_eq!(resolve_from_env(), Ok(detect_best()));

    // Every available backend can be named (with surrounding spaces and
    // mixed case) and resolves to itself.
    for kind in available_kinds() {
        std::env::set_var(NINJA_ISA_ENV, format!(" {} ", kind.name().to_uppercase()));
        assert_eq!(resolve_from_env(), Ok(kind), "override {}", kind.name());
    }

    // Unknown names error with the expected-values hint.
    std::env::set_var(NINJA_ISA_ENV, "mmx");
    let err = resolve_from_env().unwrap_err();
    assert!(err.contains("unknown ISA backend"), "got: {err}");
    assert!(err.contains("mmx"), "got: {err}");

    // `active()` (used by `dispatch`) caches its first resolution; with
    // the scalar override in place before any dispatch in this process,
    // the dispatched width must be the scalar width.
    std::env::set_var(NINJA_ISA_ENV, "scalar");
    assert_eq!(dispatch(WidthProbe), 32);
    assert_eq!(IsaKind::Scalar.width_bits(), 32);

    std::env::remove_var(NINJA_ISA_ENV);
}
