//! Golden-listing tests for the asm vectorization oracle.
//!
//! The classifier runs against checked-in x86-64 listings (AVX2,
//! SSE-only, fully scalar) so its counting rules are pinned
//! without invoking a compiler; NL008 (a profile clause missed, a libm
//! `fmaf` reached), NL009/NL011/NL012 and the `expect(...)` profiles are
//! then exercised through `check_asm` against
//! paired source fixtures, each firing exactly once.

use ninja_lint::{
    check_asm, parse_listing, AsmListing, RuleId, Severity, SourceFile, AVX2_TRAMPOLINE,
};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn listing(name: &str) -> AsmListing {
    let text = std::fs::read_to_string(fixtures_dir().join("asm").join(name))
        .expect("asm fixture readable");
    parse_listing(&text).expect("x86-64 listing")
}

fn source_text(name: &str) -> String {
    std::fs::read_to_string(fixtures_dir().join(name)).expect("source fixture readable")
}

fn source(name: &str) -> SourceFile {
    SourceFile::from_source(name.to_string(), source_text(name))
}

/// `name`'s fixture with its `expect(vec128)` marker line replaced by
/// `marker` (empty: deleted).
fn remarked(name: &str, marker: &str) -> SourceFile {
    let text = source_text(name).replace("// ninja-lint: expect(vec128)\n", marker);
    SourceFile::from_source(name.to_string(), text)
}

/// The findings of `rule`, asserting no other warning fired.
fn only(findings: &[ninja_lint::Finding], rule: RuleId) -> Vec<&ninja_lint::Finding> {
    let warnings: Vec<_> = findings
        .iter()
        .filter(|f| f.rule.severity() == Severity::Warning)
        .collect();
    assert!(warnings.iter().all(|f| f.rule == rule), "{findings:#?}");
    warnings
}

#[test]
fn avx2_listing_classifies_wide_fp_fma_and_gather() {
    let l = listing("avx2.s");
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
    let f = &l.functions[0];
    assert_eq!(f.path, vec!["ssekern".to_string(), "run_simd".to_string()]);
    assert_eq!(f.counts.vector_fp_ops, 5, "{:?}", f.counts);
    assert_eq!(f.counts.scalar_fp_ops, 0);
    assert_eq!(f.counts.vector_int_ops, 1, "paddd with an xmm operand");
    assert_eq!(f.counts.max_vector_bits, 128);
    assert!(!f.counts.fma);
}

#[test]
fn a_listing_that_is_not_x86_64_is_refused() {
    // AArch64 NEON: no `%` register, so no AT&T x86-64 evidence to count.
    let foreign = "_ZN8neonkern8run_simd17h0123456789abcdefE:\n\
                \tfmla\tv0.4s, v1.4s, v3.4s\n\tfadd\ts0, s0, s1\n\tret\n";
    let err = parse_listing(foreign).unwrap_err();
    assert!(
        err.to_string().contains("x86-64 AT&T listings only"),
        "{err}"
    );
    // `--asm-file` reports it as a usage error (exit 2), never zero counts.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("foreign.s");
    std::fs::write(&path, foreign).expect("temp listing written");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ninja-lint"))
        .args(["--asm", "--asm-file", path.to_str().unwrap(), "--root"])
        .arg(repo_root())
        .output()
        .expect("ninja-lint runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("x86-64 AT&T listings only"), "{stderr}");
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
    let line = ninja_lint::render_profiles(&profiles);
    assert!(
        line.starts_with("vecprofile asm_simd_scalarized/simd: vec128 width=128 fma=no "),
        "{line}"
    );
    assert!(line.contains(" sconv=3 "), "{line}");
}

#[test]
fn an_unmarked_rung_is_a_finding_with_or_without_evidence() {
    // Deleting the marker is one NL008 finding, whether the listing
    // matches the rung (scalar.s) or not (sse.s: inlined away / absent).
    let files = [remarked("asm_ninja_scalar.rs", "")];
    for asm in ["scalar.s", "sse.s"] {
        let (_, findings) = check_asm(&files, &[listing(asm)]);
        let hits = only(&findings, RuleId::NinjaRungNotVectorized);
        assert_eq!(hits.len(), 1, "{asm}: {findings:#?}");
        assert!(
            hits[0].message.contains("no expect(...) marker"),
            "{}",
            hits[0].message
        );
    }
    // A marked rung with no evidence misses its marker.
    let (profiles, findings) = check_asm(&[source("asm_ninja_scalar.rs")], &[listing("sse.s")]);
    assert_eq!(
        (
            profiles[0].matched_symbols,
            profiles[0].classification.as_str()
        ),
        (0, "no-evidence")
    );
    let hits = only(&findings, RuleId::NinjaRungNotVectorized);
    assert_eq!(hits.len(), 1, "{findings:#?}");
    assert!(
        hits[0].message.contains("no listing symbol"),
        "{}",
        hits[0].message
    );
    // An allow(NL008, ..) waiver is the one alternative to a marker.
    let waived = remarked(
        "asm_ninja_scalar.rs",
        "// ninja-lint: allow(NL008, \"scalar by design\")\n",
    );
    assert!(check_asm(&[waived], &[listing("scalar.s")]).1.is_empty());
}

#[test]
fn nl008_fires_exactly_once_on_an_unmarked_algorithmic_rung() {
    let files = [source("asm_algorithmic_unmarked.rs")];
    let (profiles, findings) = check_asm(&files, &[listing("algorithmic.s")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(
        (f.rule, f.file.as_str()),
        (
            RuleId::NinjaRungNotVectorized,
            "asm_algorithmic_unmarked.rs"
        )
    );
    assert!(
        f.message.contains("algorithmic rung") && f.message.contains("no expect(...) marker"),
        "{}",
        f.message
    );
    let p = profiles
        .iter()
        .find(|p| p.rung == "algorithmic")
        .expect("profile recorded");
    assert_eq!(
        (p.matched_symbols, p.classification.as_str()),
        (1, "vec256")
    );
    // A marker it meets clears it; the unmarked parallel rung never fires.
    let marked = source_text("asm_algorithmic_unmarked.rs").replace(
        "// ninja-lint: variant(algorithmic)\n",
        "// ninja-lint: variant(algorithmic)\n// ninja-lint: expect(vec256)\n",
    );
    let files = [SourceFile::from_source(
        "asm_algorithmic_unmarked.rs".into(),
        marked,
    )];
    assert!(check_asm(&files, &[listing("algorithmic.s")]).1.is_empty());
}

#[test]
fn nl008_names_every_unmet_clause_of_a_declared_profile() {
    let src =
        "// ninja-lint: variant(simd)\n// ninja-lint: expect(vec256, fma)\npub fn run_simd() {}\n";
    let files = [SourceFile::from_source("ssekern.rs".into(), src.into())];
    let (_, findings) = check_asm(&files, &[listing("sse.s")]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(
        (f.rule, f.file.as_str(), f.line),
        (RuleId::NinjaRungNotVectorized, "ssekern.rs", 3)
    );
    for clause in [
        "expect(...) marker",
        "vec128 is narrower than vec256",
        "no fma",
    ] {
        assert!(f.message.contains(clause), "{clause}: {}", f.message);
    }
    // The same listing meets a profile it does reach.
    let met = src.replace("expect(vec256, fma)", "expect(vec128)");
    let files = [SourceFile::from_source("ssekern.rs".into(), met)];
    assert!(check_asm(&files, &[listing("sse.s")]).1.is_empty());
}

#[test]
fn nl008_fires_once_on_scalarized_lanes_under_sconv_0() {
    let files = [remarked(
        "asm_simd_scalarized.rs",
        "// ninja-lint: expect(vec128, sconv=0)\n",
    )];
    let (_, findings) = check_asm(&files, &[listing("scalarized.s")]);
    let hits = only(&findings, RuleId::NinjaRungNotVectorized);
    assert_eq!(hits.len(), 1, "{findings:#?}");
    assert!(hits[0].message.contains("sconv=3"), "{}", hits[0].message);
    assert!(!hits[0].message.contains("narrower"), "{}", hits[0].message);
}

#[test]
fn nl008_fires_once_on_a_marked_rung_that_calls_libm_fma() {
    let files = [source("asm_simd_fmaf.rs")];
    let (profiles, findings) = check_asm(&files, &[listing("fmacall.s")]);
    let hits = only(&findings, RuleId::NinjaRungNotVectorized);
    assert_eq!(hits.len(), 1, "{findings:#?}");
    let message = &hits[0].message;
    assert!(message.contains("2 libm fmaf/fma call(s)"), "{message}");
    assert!(!message.contains("narrower"), "{message}");
    assert_eq!(
        (
            profiles[0].classification.as_str(),
            profiles[0].libm_fma_calls
        ),
        ("vec128", 2),
        "the call through a register and the tail call; not `.Lfmaf_table`"
    );
    // The same packed arithmetic without the calls meets the marker.
    let text = std::fs::read_to_string(fixtures_dir().join("asm/fmacall.s")).unwrap();
    let fused: String = text
        .lines()
        .filter(|l| !l.contains("fmaf@"))
        .map(|l| format!("{l}\n"))
        .collect();
    let listing = parse_listing(&fused).expect("x86-64 listing");
    assert!(check_asm(&files, &[listing]).1.is_empty());
}

#[test]
fn nl012_fires_once_on_an_intrinsic_outlined_from_the_trampoline() {
    let files = [source("outlined.rs")];
    let (_, findings) = check_asm(&files, &[listing("outlined.s")]);
    // The Debug impl's call sits outside every trampoline: no finding.
    assert_eq!(findings.len(), 1, "{findings:#?}");
    let f = &findings[0];
    assert_eq!(f.rule, RuleId::OutlinedIntrinsic);
    assert_eq!(f.rule.severity(), Severity::Warning);
    assert_eq!(f.file, "outlined.rs");
    let text = source_text("outlined.rs");
    let run_line = text.lines().position(|l| l.contains("fn run<")).unwrap() + 1;
    assert_eq!(f.line as usize, run_line, "{}", f.message);
    assert!(f.message.contains("`_mm256_fmadd_ps`"), "{}", f.message);
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn nl012_walks_from_the_trampoline_the_dispatch_really_defines() {
    // NL012 roots on a symbol name; a renamed or reshaped trampoline
    // would leave it nothing to walk, so the name is pinned to the source.
    let dispatch = repo_root().join("crates/simd/src/isa/dispatch.rs");
    let file = SourceFile::from_source(
        "dispatch.rs".into(),
        std::fs::read_to_string(dispatch).expect("dispatch source readable"),
    );
    let span = file
        .segmented
        .spans
        .iter()
        .find(|s| s.name == AVX2_TRAMPOLINE);
    let sig = span
        .map(|s| s.sig_line as usize)
        .expect("trampoline fn present");
    let attrs = &file.lines[sig.saturating_sub(4)..sig];
    assert!(
        attrs
            .iter()
            .any(|l| l.contains("#[target_feature(enable = \"avx2")),
        "{attrs:#?}"
    );
}

/// Compiles the kernels crate and audits the real tree — slow, so opt-in:
/// `cargo test -p ninja-lint -- --ignored real_tree`.
#[test]
#[ignore = "drives cargo rustc --emit asm on crates/kernels"]
fn real_tree_asm_audit_is_clean() {
    let audit = ninja_lint::asm_audit(&repo_root(), &ninja_lint::AsmOptions::default())
        .expect("audit runs");
    assert!(
        audit.report.clean,
        "real-tree asm audit must pass:\n{}",
        audit.report.render_text()
    );
    // One profile per (kernel, rung): ten kernels, five rungs. What each
    // must compile to is declared by its `expect(...)` marker and already
    // judged in `clean`.
    let cells: std::collections::BTreeSet<_> = audit
        .profiles
        .iter()
        .map(|p| (p.kernel.as_str(), p.rung.as_str()))
        .collect();
    assert_eq!((cells.len(), audit.profiles.len()), (50, 50), "{cells:?}");
}
