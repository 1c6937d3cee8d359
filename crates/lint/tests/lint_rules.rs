//! Fixture-corpus integration tests: each deliberate violation fires its
//! rule exactly once, the clean fixture passes, the `ninja-lint` binary's
//! exit codes match, and the real tree is clean under `--deny-warnings`.

use ninja_lint::rules::check_file;
use ninja_lint::{analyze_files, analyze_workspace, LintReport, RuleId, SourceFile};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn lint_fixture(name: &str) -> LintReport {
    let dir = fixtures_dir();
    analyze_files(&[dir.join(name)], &dir).expect("fixture readable")
}

/// Asserts `rule` fires exactly once in `name` and nothing else fires.
fn assert_fires_exactly_once(name: &str, rule: RuleId) {
    let report = lint_fixture(name);
    let hits = report.by_rule(rule).count();
    assert_eq!(
        hits,
        1,
        "{name}: expected exactly one {} finding, got: {:#?}",
        rule.id(),
        report.findings
    );
    assert_eq!(
        report.findings.len(),
        1,
        "{name}: unexpected extra findings: {:#?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.file, name);
    assert!(f.line > 0, "findings carry file:line");
    assert!(!f.message.is_empty());
}

#[test]
fn clean_fixture_passes() {
    // Its ninja entry carries `expect(...)` above `variant(...)`: either
    // order attaches.
    let report = lint_fixture("clean.rs");
    assert!(report.clean, "{:#?}", report.findings);
}

#[test]
fn naive_uses_threads_fires_nl001_once() {
    assert_fires_exactly_once("naive_uses_threads.rs", RuleId::ThreadsInSerialRung);
}

#[test]
fn parallel_uses_isa_fires_nl002_once() {
    assert_fires_exactly_once("parallel_uses_isa.rs", RuleId::SimdInScalarRung);
}

#[test]
fn missing_safety_fires_nl005_once() {
    assert_fires_exactly_once("missing_safety.rs", RuleId::MissingSafetyComment);
}

#[test]
fn relaxed_unjustified_fires_nl010_once() {
    assert_fires_exactly_once("relaxed_unjustified.rs", RuleId::UnjustifiedRelaxedOrdering);
}

#[test]
fn deque_relaxed_steal_fires_nl010_once() {
    assert_fires_exactly_once("deque_relaxed_steal.rs", RuleId::UnjustifiedRelaxedOrdering);
}

#[test]
fn the_real_tree_is_clean() {
    let report = analyze_workspace(&repo_root()).expect("workspace lints");
    assert!(
        report.clean,
        "the merged tree must pass its own lint:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 20);
}

fn run_binary(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ninja-lint"))
        .args(args)
        .output()
        .expect("ninja-lint binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn binary_exits_nonzero_on_each_violation_fixture() {
    let dir = fixtures_dir();
    for name in [
        "naive_uses_threads.rs",
        "parallel_uses_isa.rs",
        "missing_safety.rs",
        "relaxed_unjustified.rs",
        "deque_relaxed_steal.rs",
    ] {
        let (code, stdout, _) = run_binary(&[
            "--root",
            dir.to_str().unwrap(),
            "--deny-warnings",
            dir.join(name).to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "{name} must fail --deny-warnings:\n{stdout}");
        assert!(stdout.contains(name), "findings name the file:\n{stdout}");
        // Without --deny-warnings the same findings are only warnings.
        let (code, _, _) = run_binary(&[
            "--root",
            dir.to_str().unwrap(),
            dir.join(name).to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{name} is advisory without --deny-warnings");
    }
}

#[test]
fn binary_is_clean_on_the_workspace_with_deny_warnings() {
    let root = repo_root();
    let (code, stdout, stderr) = run_binary(&["--root", root.to_str().unwrap(), "--deny-warnings"]);
    assert_eq!(code, 0, "workspace lint failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn binary_emits_json_findings_with_file_and_line() {
    let dir = fixtures_dir();
    let (code, stdout, _) = run_binary(&[
        "--root",
        dir.to_str().unwrap(),
        "--json",
        "-",
        dir.join("naive_uses_threads.rs").to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    for needle in [
        "\"rule\": \"NL001\"",
        "\"name\": \"threads-in-serial-rung\"",
        "\"file\": \"naive_uses_threads.rs\"",
        "\"line\":",
        "\"clean\": false",
    ] {
        assert!(
            needle.is_empty() || stdout.contains(needle),
            "missing {needle}:\n{stdout}"
        );
    }
}

#[test]
fn binary_usage_errors_exit_2() {
    let (code, _, stderr) = run_binary(&["--bogus-flag"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown flag"));
    let (code, _, stderr) = run_binary(&["--root", "/nonexistent-lint-root"]);
    assert_eq!(code, 2, "{stderr}");
}

#[test]
fn binary_lists_rules() {
    let (code, stdout, _) = run_binary(&["--list-rules"]);
    assert_eq!(code, 0);
    for id in [
        "NL001", "NL002", "NL005", "NL006", "NL007", "NL008", "NL009", "NL010", "NL011", "NL012",
    ] {
        assert!(stdout.contains(id), "{stdout}");
    }
    // Retired IDs (the token rule and the declared-effort band) are never
    // listed or reused.
    for retired in [3, 4].map(|n| format!("NL{n:03}")) {
        assert!(!stdout.contains(&retired), "{stdout}");
    }
    assert_eq!(stdout.lines().count(), 10, "{stdout}");
}

#[test]
fn malformed_expect_markers_fire_nl007_once_each() {
    for (marker, why) in [
        ("expect(vec257)", "not an expectation"),
        ("expect(sconv=1)", "not an expectation"),
        ("expect()", "not an expectation"),
        ("expect(fma, fma)", "repeats a clause"),
        ("expect(vec128, vec256)", "repeats a clause"),
        ("expect(fma)", "needs a width"),
        ("expect(vec256)", "no variant(...)"),
    ] {
        let src = format!("// ninja-lint: {marker}\nfn run_ninja() {{}}\n");
        let findings = check_file(&SourceFile::from_source("k.rs".into(), src));
        assert_eq!(findings.len(), 1, "{marker}: {findings:#?}");
        assert_eq!(findings[0].rule, RuleId::MalformedMarker, "{marker}");
        assert!(
            findings[0].message.contains(why),
            "{marker}: {}",
            findings[0].message
        );
    }
}
