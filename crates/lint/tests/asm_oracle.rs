//! Golden-listing tests for the asm vectorization oracle.
//!
//! The classifier runs against checked-in listings (x86-64 AVX2, x86-64
//! SSE-only, AArch64 NEON, fully scalar) so its counting rules are pinned
//! without invoking a compiler; NL008/NL009/NL011 are then exercised
//! through `check_asm` against paired source fixtures, each firing
//! exactly once.

use ninja_lint::{check_asm, parse_listing, Arch, AsmListing, RuleId, Severity, SourceFile};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn listing(name: &str) -> AsmListing {
    let text = std::fs::read_to_string(fixtures_dir().join("asm").join(name))
        .expect("asm fixture readable");
    parse_listing(&text)
}

fn source(name: &str) -> SourceFile {
    let text = std::fs::read_to_string(fixtures_dir().join(name)).expect("source fixture readable");
    SourceFile::from_source(name.to_string(), text)
}

#[test]
fn avx2_listing_classifies_wide_fp_fma_and_gather() {
    let l = listing("avx2.s");
    assert_eq!(l.arch, Arch::X86_64);
    assert_eq!(l.functions.len(), 1);
    let f = &l.functions[0];
    assert_eq!(
        f.path,
        vec!["asm_naive_vectorized".to_string(), "run_naive".to_string()]
    );
    assert_eq!(f.counts.vector_fp_ops, 4, "{:?}", f.counts);
    assert_eq!(f.counts.scalar_fp_ops, 0);
    assert_eq!(f.counts.vector_int_ops, 1, "the gather counts as one");
    assert_eq!(f.counts.max_vector_bits, 256);
    assert!(f.counts.fma);
    assert!(f.counts.gather);
    assert!(!f.counts.scatter);
}

#[test]
fn sse_listing_classifies_128bit_packed_fp() {
    let l = listing("sse.s");
    assert_eq!(l.arch, Arch::X86_64);
    let f = &l.functions[0];
    assert_eq!(f.path, vec!["ssekern".to_string(), "run_simd".to_string()]);
    assert_eq!(f.counts.vector_fp_ops, 5, "{:?}", f.counts);
    assert_eq!(f.counts.scalar_fp_ops, 0);
    assert_eq!(f.counts.vector_int_ops, 1, "paddd with an xmm operand");
    assert_eq!(f.counts.max_vector_bits, 128);
    assert!(!f.counts.fma);
}

#[test]
fn neon_listing_classifies_vectors_and_the_scalar_tail() {
    let l = listing("neon.s");
    assert_eq!(l.arch, Arch::AArch64);
    let f = &l.functions[0];
    assert_eq!(f.path, vec!["neonkern".to_string(), "run_simd".to_string()]);
    assert_eq!(f.counts.vector_fp_ops, 4, "{:?}", f.counts);
    assert_eq!(f.counts.scalar_fp_ops, 1, "the fadd s0 tail is scalar");
    assert_eq!(f.counts.vector_int_ops, 1);
    assert_eq!(f.counts.max_vector_bits, 128);
    assert!(f.counts.fma, "fmla is a fused multiply-add");
}

#[test]
fn scalar_listing_counts_only_scalar_fp() {
    let l = listing("scalar.s");
    let f = &l.functions[0];
    assert_eq!(
        f.path,
        vec!["asm_ninja_scalar".to_string(), "run_ninja".to_string()]
    );
    assert_eq!(f.counts.vector_fp_ops, 0, "{:?}", f.counts);
    assert_eq!(f.counts.scalar_fp_ops, 4);
    assert_eq!(f.counts.vector_int_ops, 0);
    assert_eq!(f.counts.max_vector_bits, 0);
    assert!(!f.counts.any_vector_ops());
}

#[test]
fn nl008_fires_exactly_once_on_a_scalar_ninja_rung() {
    let files = [source("asm_ninja_scalar.rs")];
    let (profiles, findings) = check_asm(&files, &[listing("scalar.s")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::NinjaRungNotVectorized);
    assert_eq!(f.rule.severity(), Severity::Warning);
    assert_eq!(f.file, "asm_ninja_scalar.rs");
    assert!(f.line > 0);
    let p = profiles
        .iter()
        .find(|p| p.kernel == "asm_ninja_scalar" && p.rung == "ninja")
        .expect("profile recorded");
    assert_eq!(p.classification, "scalar");
    assert_eq!(p.matched_symbols, 1);
}

#[test]
fn nl009_fires_exactly_once_on_a_vectorized_naive_rung() {
    let files = [source("asm_naive_vectorized.rs")];
    let (profiles, findings) = check_asm(&files, &[listing("avx2.s")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::ScalarRungAutovectorized);
    assert_eq!(f.rule.severity(), Severity::Info, "NL009 is advisory");
    assert_eq!(f.file, "asm_naive_vectorized.rs");
    let p = profiles
        .iter()
        .find(|p| p.kernel == "asm_naive_vectorized" && p.rung == "naive")
        .expect("profile recorded");
    assert_eq!(p.classification, "vec256");
    assert!(p.fma && p.gather);
}

#[test]
fn nl011_fires_exactly_once_on_a_vectorized_rung_with_scalarized_lanes() {
    let files = [source("asm_simd_scalarized.rs")];
    let (profiles, findings) = check_asm(&files, &[listing("scalarized.s")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::ScalarConversionsInVectorRung);
    assert_eq!(f.rule.severity(), Severity::Info, "NL011 is advisory");
    assert_eq!(f.file, "asm_simd_scalarized.rs");
    assert!(f.message.contains("3 scalar"), "{}", f.message);
    let p = &profiles[0];
    assert_eq!(
        (p.kernel.as_str(), p.rung.as_str()),
        ("asm_simd_scalarized", "simd")
    );
    assert_eq!(
        p.classification, "vec128",
        "the arithmetic alone reads clean"
    );
    assert_eq!(
        (p.vector_fp_ops, p.scalar_fp_ops, p.scalar_conv_ops),
        (2, 0, 3)
    );
    assert!(ninja_lint::render_profiles(&profiles).contains(" sconv=3 "));
}

#[test]
fn mismatched_listing_yields_no_evidence_and_no_findings() {
    // Pairing the ninja source with an unrelated listing must classify as
    // no-evidence (symbols inlined away / absent) and stay silent.
    let files = [source("asm_ninja_scalar.rs")];
    let (profiles, findings) = check_asm(&files, &[listing("sse.s")]);
    assert!(findings.is_empty(), "{findings:#?}");
    let p = &profiles[0];
    assert_eq!(p.matched_symbols, 0);
    assert_eq!(p.classification, "no-evidence");
}

/// Compiles the kernels crate and audits the real tree — slow, so opt-in:
/// `cargo test -p ninja-lint -- --ignored real_tree`.
#[test]
#[ignore = "drives cargo rustc --emit asm on crates/kernels"]
fn real_tree_asm_audit_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let audit =
        ninja_lint::asm_audit(&root, &ninja_lint::AsmOptions::default()).expect("audit runs");
    assert!(
        audit.report.clean,
        "real-tree asm audit must pass:\n{}",
        audit.report.render_text()
    );
    let ninja: Vec<_> = audit
        .profiles
        .iter()
        .filter(|p| p.rung == "ninja")
        .collect();
    // The compiler rungs the feature frame recompiles: 256-bit at the
    // default target-cpu, and no lane taken apart by a scalar compare or
    // conversion in the two kernels whose math is all polynomial.
    for p in &audit.profiles {
        let framed = matches!(p.kernel.as_str(), "nbody" | "libor" | "black_scholes");
        if framed && matches!(p.rung.as_str(), "simd" | "algorithmic") {
            assert_eq!(p.width_bits, 256, "{}/{}", p.kernel, p.rung);
            if p.kernel != "nbody" {
                assert_eq!(p.scalar_conv_ops, 0, "{}/{}", p.kernel, p.rung);
            }
        }
    }
    assert_eq!(ninja.len(), 10, "one ninja profile per kernel");
    for p in ninja {
        assert!(
            p.width_bits >= 128,
            "{}/ninja shows no vector evidence: {}",
            p.kernel,
            p.classification
        );
    }
}
