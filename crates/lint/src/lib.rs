//! `ninja-lint`: a taxonomy-enforcing static analysis pass over the
//! kernel suite.
//!
//! The reproduction's entire argument rests on the integrity of its
//! optimization ladder: a *naive* variant must really be serial scalar
//! code, the *parallel* rung must really be "naive plus threads", and the
//! low-effort endpoint must not smuggle in Ninja tricks. A stray
//! `ThreadPool` call inside a naive body would silently corrupt every
//! reported Ninja gap — so this crate audits the sources mechanically:
//!
//! * **Rung purity** (NL001/NL002): variant bodies, segmented via
//!   `// ninja-lint:` markers, must not reference constructs their rung
//!   forbids (thread runtime in naive/simd; explicit SIMD or `unsafe` in
//!   naive/parallel).
//! * **Measured effort** ([`measured_effort`]): per rung, the source lines
//!   added or changed against naive — the number F6 reports.
//! * **`unsafe` audit** (NL005): every unsafe site across the workspace
//!   crates needs an adjacent `// SAFETY:` justification.
//! * **Coverage & hygiene** (NL006/NL007): every rung must be annotated,
//!   and marker typos fail loudly.
//! * **Assembly evidence** (NL008/NL009/NL011/NL012, `--asm` mode): the
//!   [`asm`] and [`vecprofile`] modules parse `rustc --emit asm` output,
//!   attribute symbols back to rungs, and hold each rung to the profile
//!   its `expect(vecN[, fma][, sconv=0])` marker declares (an unmarked
//!   simd/ninja rung must at least emit vector code). They flag an
//!   intrinsic called out of line inside the AVX2 trampoline's reach, and
//!   report when the compiler bridged the gap on a naive rung by itself,
//!   or vectorized a compiler rung's arithmetic while still comparing or
//!   converting lane by lane.
//! * **Ordering audit** (NL010): every `Ordering::Relaxed` site and
//!   `static mut` declaration needs an adjacent `// ORDERING:`
//!   justification, the concurrency sibling of NL005.
//!
//! The crate is std-only (a lightweight hand-rolled lexer, no `syn`),
//! consistent with the offline `third_party/` build, and ships both as a
//! library (unit-testable rule engine, usable as a preflight from the
//! bench harness) and as the `ninja-lint` binary with `--deny-warnings`
//! for CI.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
pub mod lexer;
pub mod markers;
pub mod report;
pub mod rules;
pub mod source;
pub mod spans;
pub mod vecprofile;

pub use asm::{demangle, detect_arch, parse_listing, Arch, AsmFunction, AsmListing, InsnCounts};
pub use report::{FindingRecord, LintReport, RuleRecord};
pub use rules::{measured_effort, Finding, RuleId, Severity, ALL_RULES};
pub use source::SourceFile;
pub use vecprofile::{
    asm_audit, check_asm, profile_rungs, render_profiles, AsmAudit, AsmOptions, VecProfile,
    AVX2_TRAMPOLINE,
};

use std::path::{Path, PathBuf};

/// Crates whose sources the workspace-wide lint scans: every first-party
/// workspace crate (the `third_party/` stand-ins are not scanned). The
/// kernel-ladder rules self-select per file; the SAFETY (NL005) and
/// ORDERING (NL010) audits apply to all of them.
pub const AUDITED_CRATES: [&str; 11] = [
    "crates/bench",
    "crates/core",
    "crates/counters",
    "crates/kernels",
    "crates/lint",
    "crates/model",
    "crates/parallel",
    "crates/perfdb",
    "crates/probe",
    "crates/serve",
    "crates/simd",
];

/// An I/O or configuration error from a lint run.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Lints an explicit set of files. Paths are reported relative to
/// `root` when they live under it, verbatim otherwise.
///
/// # Errors
///
/// Returns a [`LintError`] when a file cannot be read.
pub fn analyze_files(paths: &[PathBuf], root: &Path) -> Result<LintReport, LintError> {
    let mut findings = Vec::new();
    for path in paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        let file = SourceFile::from_source(rel, src);
        findings.extend(rules::check_file(&file));
    }
    Ok(LintReport::new(
        root.to_string_lossy().into_owned(),
        paths.len(),
        findings,
    ))
}

/// Collects the `.rs` sources of every audited crate under `root`.
///
/// # Errors
///
/// Returns a [`LintError`] when an audited crate's `src/` directory is
/// missing or unreadable — a silently-empty scan must not pass CI.
pub fn workspace_sources(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    for krate in AUDITED_CRATES {
        let dir = root.join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        out.extend(files);
    }
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` (binaries live in
/// `src/bin/`, so a flat scan would miss them).
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| LintError(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Propagates [`LintError`] from source collection or file reads.
pub fn analyze_workspace(root: &Path) -> Result<LintReport, LintError> {
    let paths = workspace_sources(root)?;
    analyze_files(&paths, root)
}

/// Walks upward from `start` to the first directory containing a
/// `Cargo.toml` with a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    for dir in start.ancestors() {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint sits two levels below the workspace root")
            .to_path_buf()
    }

    #[test]
    fn workspace_sources_cover_all_audited_crates() {
        let root = repo_root();
        let files = workspace_sources(&root).unwrap();
        for krate in AUDITED_CRATES {
            assert!(
                files.iter().any(|p| p.starts_with(root.join(krate))),
                "no sources found under {krate}"
            );
        }
        assert!(files.len() > 20, "expected a real suite, got {files:?}");
    }

    #[test]
    fn missing_root_is_an_error_not_an_empty_pass() {
        let err = analyze_workspace(Path::new("/nonexistent-lint-root")).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn find_workspace_root_from_nested_dir() {
        let root = repo_root();
        let nested = root.join("crates/lint/src");
        assert_eq!(find_workspace_root(&nested), Some(root));
        assert_eq!(find_workspace_root(Path::new("/")), None);
    }
}
