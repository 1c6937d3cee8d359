//! The rule engine: per-rung purity rules, the workspace SAFETY audit,
//! marker hygiene, and the measured per-rung effort.
//!
//! Every rule has a stable ID. IDs are load-bearing: `allow(NLnnn, ...)`
//! markers, CI output and the JSON findings report all key on them, so
//! they must never be renumbered.
//!
//! | ID    | name                        | scope        |
//! |-------|-----------------------------|--------------|
//! | NL001 | threads-in-serial-rung      | kernel files |
//! | NL002 | simd-in-scalar-rung         | kernel files |
//! | NL005 | missing-safety-comment      | every file   |
//! | NL006 | incomplete-variant-coverage | kernel files |
//! | NL007 | malformed-marker            | every file   |
//! | NL008 | ninja-rung-not-vectorized   | `--asm` mode |
//! | NL009 | scalar-rung-autovectorized  | `--asm` mode |
//! | NL010 | unjustified-relaxed-ordering| every file   |
//! | NL011 | scalar-conv-in-vector-rung  | `--asm` mode |
//! | NL012 | outlined-intrinsic          | `--asm` mode |
//!
//! NL003 (`ninja-without-simd`, a token check) is retired: NL008 judges
//! each rung against its `expect(...)` marker in the compiled code.
//! NL008/NL009/NL011/NL012 live in [`crate::vecprofile`] because they
//! judge compiler output, not source tokens; they share this module's
//! `RuleId` space so `allow(...)` markers and `--deny-warnings` treat
//! them uniformly.

use crate::markers::Rung;
use crate::source::SourceFile;
use crate::spans::FnSpan;
use std::collections::HashSet;

/// Identifiers whose presence in a serial-rung body means the variant is
/// not actually serial (the `ninja-parallel` public surface).
pub const THREAD_IDENTS: [&str; 6] = [
    "ThreadPool",
    "ninja_parallel",
    "parallel_for",
    "parallel_for_each",
    "parallel_reduce",
    "par_chunks_mut",
];

/// Identifiers whose presence in a traditional-rung body means the
/// variant smuggles in Ninja machinery: the `ninja-simd` crate, its
/// aligned buffers, or the width-generic `Isa` surface — writing a rung
/// against the trait is hand-SIMD, whatever backend the dispatcher
/// picks.
pub const EXPLICIT_SIMD_IDENTS: [&str; 12] = [
    "ninja_simd",
    "AlignedVec",
    "Isa",
    "IsaOp",
    "dispatch",
    "dispatch_on",
    "SimdF32",
    "SimdF64",
    "SimdI32",
    "SimdMask",
    "Sse2",
    "Avx2",
];

/// How many lines above an `unsafe` token the SAFETY audit searches,
/// skipping blanks, attributes and grouped `unsafe impl` lines.
const SAFETY_WINDOW: usize = 10;

/// How many lines above a relaxed-ordering site the ORDERING audit
/// searches, mirroring [`SAFETY_WINDOW`]; grouped `Ordering::Relaxed`
/// sites may share one justification.
const ORDERING_WINDOW: usize = 10;

/// All rules, in ID order.
pub const ALL_RULES: [RuleId; 10] = [
    RuleId::ThreadsInSerialRung,
    RuleId::SimdInScalarRung,
    RuleId::MissingSafetyComment,
    RuleId::IncompleteVariantCoverage,
    RuleId::MalformedMarker,
    RuleId::NinjaRungNotVectorized,
    RuleId::ScalarRungAutovectorized,
    RuleId::UnjustifiedRelaxedOrdering,
    RuleId::ScalarConversionsInVectorRung,
    RuleId::OutlinedIntrinsic,
];

/// Severity of a finding. `Warning` findings gate `--deny-warnings` and
/// flip a report to not-clean; `Info` findings are advisory observations
/// (NL009, the *good* news that the compiler auto-vectorized a naive
/// rung, and NL011, a vectorized compiler rung with scalarized lanes).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Advisory: reported, never fails the build.
    Info,
    /// Violation: fails `--deny-warnings` and marks the report unclean.
    Warning,
}

impl Severity {
    /// Stable lowercase name (`info`/`warning`) for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
        }
    }
}

/// Stable identifier of one lint rule.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// NL001: a Naive/Simd-rung body references the thread runtime.
    ThreadsInSerialRung,
    /// NL002: a Naive/Parallel-rung body references explicit SIMD or
    /// `unsafe`.
    SimdInScalarRung,
    /// NL005: an `unsafe` site without an adjacent `// SAFETY:` comment.
    MissingSafetyComment,
    /// NL006: a kernel file is missing variant attribution for some rung.
    IncompleteVariantCoverage,
    /// NL007: a `ninja-lint` marker that does not parse or attach.
    MalformedMarker,
    /// NL008: a rung whose compiled code is below its `expect(...)`
    /// profile or reaches a libm `fmaf`/`fma` call, or a simd,
    /// algorithmic or ninja rung with no such marker (asm evidence; see
    /// [`crate::vecprofile`]).
    NinjaRungNotVectorized,
    /// NL009 (info): a Naive rung the compiler auto-vectorized.
    ScalarRungAutovectorized,
    /// NL010: `Ordering::Relaxed` or a `static mut` declaration without
    /// an adjacent `// ORDERING:` justification.
    UnjustifiedRelaxedOrdering,
    /// NL011 (info): a Simd/Algorithmic rung with vector evidence that
    /// also emits scalar FP compares or float/integer conversions.
    ScalarConversionsInVectorRung,
    /// NL012: a function reachable from the AVX2 `#[target_feature]`
    /// trampoline that calls a `core_arch` intrinsic out of line.
    OutlinedIntrinsic,
}

impl RuleId {
    /// Stable machine-readable ID (`NL001`...).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::ThreadsInSerialRung => "NL001",
            RuleId::SimdInScalarRung => "NL002",
            RuleId::MissingSafetyComment => "NL005",
            RuleId::IncompleteVariantCoverage => "NL006",
            RuleId::MalformedMarker => "NL007",
            RuleId::NinjaRungNotVectorized => "NL008",
            RuleId::ScalarRungAutovectorized => "NL009",
            RuleId::UnjustifiedRelaxedOrdering => "NL010",
            RuleId::ScalarConversionsInVectorRung => "NL011",
            RuleId::OutlinedIntrinsic => "NL012",
        }
    }

    /// Severity class of findings from this rule.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::ScalarRungAutovectorized | RuleId::ScalarConversionsInVectorRung => {
                Severity::Info
            }
            _ => Severity::Warning,
        }
    }

    /// Short kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::ThreadsInSerialRung => "threads-in-serial-rung",
            RuleId::SimdInScalarRung => "simd-in-scalar-rung",
            RuleId::MissingSafetyComment => "missing-safety-comment",
            RuleId::IncompleteVariantCoverage => "incomplete-variant-coverage",
            RuleId::MalformedMarker => "malformed-marker",
            RuleId::NinjaRungNotVectorized => "ninja-rung-not-vectorized",
            RuleId::ScalarRungAutovectorized => "scalar-rung-autovectorized",
            RuleId::UnjustifiedRelaxedOrdering => "unjustified-relaxed-ordering",
            RuleId::ScalarConversionsInVectorRung => "scalar-conv-in-vector-rung",
            RuleId::OutlinedIntrinsic => "outlined-intrinsic",
        }
    }

    /// One-line description for `--list-rules` and the JSON report.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::ThreadsInSerialRung => {
                "naive/simd variant bodies must not reference the thread runtime \
                 (ThreadPool, parallel_for, par_chunks_mut, ...)"
            }
            RuleId::SimdInScalarRung => {
                "naive/parallel variant bodies must not reference explicit SIMD \
                 (ninja_simd, AlignedVec, the width-generic Isa dispatch \
                 surface), or use `unsafe`"
            }
            RuleId::MissingSafetyComment => {
                "every `unsafe` block/impl/fn needs an adjacent `// SAFETY:` \
                 comment (or a `# Safety` doc section)"
            }
            RuleId::IncompleteVariantCoverage => {
                "a kernel file must attribute an entry span to every rung of \
                 the variant ladder (or be marked skip-file with a reason)"
            }
            RuleId::MalformedMarker => {
                "ninja-lint markers must parse and attach to a fn; typos must \
                 not silently disable enforcement"
            }
            RuleId::NinjaRungNotVectorized => {
                "a rung's compiled code must meet its expect(vecN[, fma][, sconv=0]) \
                 marker and reach no libm fmaf/fma call, and every simd, algorithmic and \
                 ninja rung must carry one; checked against --emit asm evidence in --asm mode"
            }
            RuleId::ScalarRungAutovectorized => {
                "info: the compiler auto-vectorized a naive rung — the paper's \
                 thesis observed directly; reported in --asm mode"
            }
            RuleId::UnjustifiedRelaxedOrdering => {
                "every `Ordering::Relaxed` site and `static mut` declaration \
                 needs an adjacent `// ORDERING:` justification"
            }
            RuleId::ScalarConversionsInVectorRung => {
                "info: a vectorized simd/algorithmic rung still emits scalar FP \
                 compares or float/integer conversions (ucomiss, cvttss2si, ...) \
                 — lanes the compiler took apart; reported in --asm mode"
            }
            RuleId::OutlinedIntrinsic => {
                "a function reachable from the AVX2 #[target_feature] trampoline \
                 must not call a core_arch intrinsic: it was compiled outside the \
                 feature frame (a missing #[inline(always)]), and a default-level \
                 listing must instantiate the trampoline; --asm mode"
            }
        }
    }

    /// Parses `NLnnn` back into a rule.
    pub fn from_id(s: &str) -> Option<RuleId> {
        ALL_RULES.into_iter().find(|r| r.id() == s)
    }
}

/// One finding: a rule violation at a file:line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description with the specifics.
    pub message: String,
}

/// Runs every applicable rule on one analyzed file.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_markers(file, &mut findings);
    check_safety(file, &mut findings);
    check_ordering(file, &mut findings);
    if file.is_kernel_file() && file.segmented.skip_file.is_none() {
        check_purity(file, &mut findings);
        check_coverage(file, &mut findings);
    }
    findings.sort_by_key(|f| (f.line, f.rule.id()));
    findings
}

/// NL007: marker parse errors and orphaned markers.
fn check_markers(file: &SourceFile, findings: &mut Vec<Finding>) {
    for e in file
        .marker_errors
        .iter()
        .chain(file.segmented.orphans.iter())
    {
        findings.push(Finding {
            rule: RuleId::MalformedMarker,
            file: file.rel_path.clone(),
            line: e.line,
            message: e.message.clone(),
        });
    }
}

/// NL001 + NL002: rung purity over attributed spans.
///
/// A span's constraint set is the *intersection* of its rungs' bans: a
/// helper attributed to `effort(simd, algorithmic, ninja)` may use
/// threads (algorithmic/ninja legitimize them), while one attributed to
/// `effort(naive, parallel)` may not use explicit SIMD.
fn check_purity(file: &SourceFile, findings: &mut Vec<Finding>) {
    for span in file.segmented.spans.iter().filter(|s| s.is_attributed()) {
        if span.rungs().all(Rung::bans_threads) && span.allowed("NL001").is_none() {
            if let Some((line, id)) = span.first_reference(&THREAD_IDENTS) {
                findings.push(Finding {
                    rule: RuleId::ThreadsInSerialRung,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "fn `{}` ({}) references thread runtime `{}` — this rung \
                         must be serial",
                        span.name,
                        rung_list(span),
                        id
                    ),
                });
            }
        }
        if span.rungs().all(Rung::bans_explicit_simd) && span.allowed("NL002").is_none() {
            let hit = span
                .first_reference(&EXPLICIT_SIMD_IDENTS)
                .or_else(|| span.first_reference(&["unsafe"]));
            if let Some((line, id)) = hit {
                findings.push(Finding {
                    rule: RuleId::SimdInScalarRung,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "fn `{}` ({}) references `{}` — this rung must stay \
                         within safe, scalar, compiler-visible code",
                        span.name,
                        rung_list(span),
                        id
                    ),
                });
            }
        }
    }
}

/// Measured programming effort of one kernel file, one value per rung in
/// [`Rung::ALL`] order; `None` for a file without attribution markers or
/// with a `skip-file` marker.
///
/// The effort of rung `R` is the number of distinct trimmed, non-comment
/// body lines in the spans `R`'s `variant(...)`/`effort(...)` markers
/// attribute to it that appear in no naive-attributed span — the paper's
/// "lines added/changed relative to the naive version", counted per file.
pub fn measured_effort(src: &str) -> Option<[u32; 5]> {
    let file = SourceFile::from_source(String::new(), src.to_string());
    if !file.is_kernel_file() || file.segmented.skip_file.is_some() {
        return None;
    }
    let naive = attributed_lines(&file, Rung::Naive);
    Some(Rung::ALL.map(|r| attributed_lines(&file, r).difference(&naive).count() as u32))
}

/// Distinct normalized body lines over every span attributed to `rung`.
fn attributed_lines(file: &SourceFile, rung: Rung) -> HashSet<String> {
    let mut set = HashSet::new();
    for span in &file.segmented.spans {
        if !span.rungs().any(|r| r == rung) {
            continue;
        }
        let lo = span.body_start as usize;
        let hi = (span.end_line as usize).min(file.lines.len());
        for raw in &file.lines[lo.saturating_sub(1)..hi] {
            let t = raw.trim();
            if t.is_empty() || t.starts_with("//") {
                continue;
            }
            set.insert(t.to_string());
        }
    }
    set
}

/// NL006: every rung needs an entry span (or the file a skip-file marker).
fn check_coverage(file: &SourceFile, findings: &mut Vec<Finding>) {
    for rung in Rung::ALL {
        let covered = file
            .segmented
            .spans
            .iter()
            .any(|s| s.entry_rungs.contains(&rung));
        if !covered {
            findings.push(Finding {
                rule: RuleId::IncompleteVariantCoverage,
                file: file.rel_path.clone(),
                line: 1,
                message: format!(
                    "kernel file has no `// ninja-lint: variant({rung})` entry \
                     span; the {rung} rung is unauditable"
                ),
            });
        }
    }
}

/// NL005: the `unsafe` audit.
///
/// For every source line containing an `unsafe` token (outside comments
/// and strings), an adjacent justification is required: `SAFETY:` in a
/// comment on the same line or in the contiguous comment/attribute block
/// above it, or a `# Safety` doc section for `unsafe fn` items. Grouped
/// `unsafe impl` lines may share one comment.
fn check_safety(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let mut unsafe_lines: Vec<u32> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // `unsafe fn(...)` with no name between `fn` and `(` is a
        // function-pointer *type*, not an unsafe operation.
        let is_fn_ptr_type = toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
        if !is_fn_ptr_type {
            unsafe_lines.push(t.line);
        }
    }
    unsafe_lines.dedup();

    for line in unsafe_lines {
        if !has_adjacent_safety(file, line) {
            findings.push(Finding {
                rule: RuleId::MissingSafetyComment,
                file: file.rel_path.clone(),
                line,
                message: "`unsafe` without an adjacent `// SAFETY:` comment \
                          (or `# Safety` doc section)"
                    .to_string(),
            });
        }
    }
}

/// Whether the `unsafe` on `line` has a justification nearby.
fn has_adjacent_safety(file: &SourceFile, line: u32) -> bool {
    let has_safety_text = |l: u32| {
        file.comment_on(l)
            .is_some_and(|t| t.contains("SAFETY:") || t.contains("# Safety"))
    };
    if has_safety_text(line) {
        return true;
    }
    let mut cur = line;
    for _ in 0..SAFETY_WINDOW {
        if cur <= 1 {
            return false;
        }
        cur -= 1;
        if has_safety_text(cur) {
            return true;
        }
        let raw = file.line(cur).map(str::trim).unwrap_or("");
        let is_comment = file.comment_on(cur).is_some() || raw.starts_with("//");
        let is_attr = raw.starts_with("#[") || raw.starts_with("#!");
        let is_grouped_unsafe = raw.starts_with("unsafe impl");
        if raw.is_empty() || is_comment || is_attr || is_grouped_unsafe {
            continue;
        }
        return false;
    }
    false
}

/// NL010: the relaxed-ordering audit, NL005's concurrency sibling.
///
/// `Ordering::Relaxed` is correct more often than it is *justified*; the
/// rule demands the justification travel with the site. Every
/// `Ordering::Relaxed` token sequence and every `static mut NAME:`
/// declaration needs `ORDERING:` in a comment on the same line or in the
/// contiguous comment/attribute block above. Neighbouring relaxed sites
/// may share one justification (the upward scan skips lines that are
/// themselves relaxed sites), and a span-level
/// `allow(NL010, "reason")` marker waives the fn.
fn check_ordering(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    // (line, what) per site.
    let mut sites: Vec<(u32, &'static str)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("Relaxed"))
        {
            sites.push((t.line, "`Ordering::Relaxed`"));
        }
        // A `static mut NAME:` *declaration*. Requiring the name + colon
        // keeps `&'static mut T` types (whose lifetime quote the lexer
        // drops) from matching.
        if t.is_ident("static")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("mut"))
            && toks.get(i + 2).is_some_and(|t| t.ident().is_some())
            && toks.get(i + 3).is_some_and(|t| t.is_punct(':'))
        {
            sites.push((t.line, "`static mut`"));
        }
    }
    sites.dedup_by_key(|(line, _)| *line);
    let site_lines: HashSet<u32> = sites.iter().map(|(l, _)| *l).collect();

    for (line, what) in sites {
        if has_adjacent_ordering(file, line, &site_lines) {
            continue;
        }
        let waived = file
            .segmented
            .spans
            .iter()
            .any(|s| s.sig_line <= line && line <= s.end_line && s.allowed("NL010").is_some());
        if waived {
            continue;
        }
        findings.push(Finding {
            rule: RuleId::UnjustifiedRelaxedOrdering,
            file: file.rel_path.clone(),
            line,
            message: format!("{what} without an adjacent `// ORDERING:` justification"),
        });
    }
}

/// Whether the relaxed site on `line` has an `ORDERING:` justification
/// nearby (same-line comment or the contiguous block above, skipping
/// blanks, comments, attributes, sibling relaxed sites, and statement
/// continuations — rustfmt splits `x.field\n.fetch_add(.., Relaxed)`
/// chains, so a line with no `;`/`{`/`}` terminator is treated as part
/// of the site's own statement, not intervening code).
fn has_adjacent_ordering(file: &SourceFile, line: u32, site_lines: &HashSet<u32>) -> bool {
    let has_ordering_text = |l: u32| file.comment_on(l).is_some_and(|t| t.contains("ORDERING:"));
    if has_ordering_text(line) {
        return true;
    }
    let mut cur = line;
    for _ in 0..ORDERING_WINDOW {
        if cur <= 1 {
            return false;
        }
        cur -= 1;
        if has_ordering_text(cur) {
            return true;
        }
        let raw = file.line(cur).map(str::trim).unwrap_or("");
        let is_comment = file.comment_on(cur).is_some() || raw.starts_with("//");
        let is_attr = raw.starts_with("#[") || raw.starts_with("#!");
        let is_continuation = !raw.ends_with(';') && !raw.ends_with('{') && !raw.ends_with('}');
        if raw.is_empty() || is_comment || is_attr || is_continuation || site_lines.contains(&cur) {
            continue;
        }
        return false;
    }
    false
}

/// Formats a span's attributed rungs for messages, e.g. `naive` or
/// `effort: simd+algorithmic`.
fn rung_list(span: &FnSpan) -> String {
    let names: Vec<&str> = span.rungs().map(Rung::name).collect();
    let joined = names.join("+");
    if span.entry_rungs.is_empty() {
        format!("effort: {joined}")
    } else {
        joined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn analyze(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source("test.rs".into(), src.to_string());
        check_file(&file)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.id()).collect()
    }

    /// A minimal clean kernel file exercising every rung.
    const CLEAN: &str = include_str!("../tests/fixtures/clean.rs");

    #[test]
    fn clean_kernel_has_no_findings() {
        let findings = analyze(CLEAN);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn rule_ids_are_stable_and_self_describing() {
        let ids: Vec<_> = ALL_RULES.iter().map(|r| r.id()).collect();
        assert_eq!(
            ids,
            [
                "NL001", "NL002", "NL005", "NL006", "NL007", "NL008", "NL009", "NL010", "NL011",
                "NL012"
            ]
        );
        for r in ALL_RULES {
            assert_eq!(RuleId::from_id(r.id()), Some(r));
            assert!(!r.name().is_empty() && !r.description().is_empty());
        }
        assert_eq!(RuleId::from_id("NL999"), None);
        // The info-severity rules: the two asm-evidence observers.
        let infos: Vec<_> = ALL_RULES
            .iter()
            .filter(|r| r.severity() == Severity::Info)
            .collect();
        assert_eq!(
            infos,
            [
                &RuleId::ScalarRungAutovectorized,
                &RuleId::ScalarConversionsInVectorRung
            ]
        );
    }

    #[test]
    fn threads_in_naive_fires() {
        let findings = analyze(
            "// ninja-lint: variant(naive)\nfn run_naive(pool: &ThreadPool) {\n    pool.parallel_for(0..4, 1, |_| {});\n}\n",
        );
        assert!(rules_of(&findings).contains(&"NL001"), "{findings:#?}");
    }

    #[test]
    fn shared_helper_with_high_rung_may_use_threads() {
        let findings = analyze(
            "// ninja-lint: effort(simd, algorithmic, ninja)\nfn step(pool: Option<&ThreadPool>) {\n    if let Some(p) = pool { p.parallel_for(0..1, 1, |_| {}); }\n}\n",
        );
        assert!(!rules_of(&findings).contains(&"NL001"), "{findings:#?}");
    }

    #[test]
    fn unsafe_in_parallel_rung_fires_nl002() {
        let findings = analyze(
            "// ninja-lint: variant(parallel)\nfn run_parallel(&self) {\n    // SAFETY: not actually sound, which is the point.\n    unsafe { shortcut() };\n}\n",
        );
        assert!(rules_of(&findings).contains(&"NL002"), "{findings:#?}");
        assert!(!rules_of(&findings).contains(&"NL005"));
    }

    #[test]
    fn isa_dispatch_in_parallel_rung_fires_nl002() {
        // The width-generic surface is still explicit SIMD: a
        // naive-plus-threads rung may not route through the dispatcher.
        let findings = analyze(
            "// ninja-lint: variant(parallel)\nfn run_parallel(&self, pool: &ThreadPool) {\n    par_chunks_mut(pool, &mut self.out, 64, |_, chunk| {\n        dispatch(DotRange { out: chunk });\n    });\n}\n",
        );
        assert!(rules_of(&findings).contains(&"NL002"), "{findings:#?}");
    }

    #[test]
    fn allow_waives_a_rule_with_reason() {
        let findings = analyze(
            "// ninja-lint: variant(naive)\n// ninja-lint: allow(NL001, \"measures pool overhead itself\")\nfn run_naive(pool: &ThreadPool) {\n    pool.parallel_for(0..1, 1, |_| {});\n}\n",
        );
        assert!(!rules_of(&findings).contains(&"NL001"), "{findings:#?}");
    }

    #[test]
    fn missing_safety_comment_fires_and_adjacent_passes() {
        let bad = analyze("fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n");
        assert_eq!(rules_of(&bad), ["NL005"]);
        assert_eq!(bad[0].line, 2);

        let good = analyze(
            "fn f(p: *const u32) -> u32 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        );
        assert!(good.is_empty(), "{good:#?}");
    }

    #[test]
    fn safety_comment_reaches_through_attributes_and_grouped_impls() {
        let good = analyze(
            "struct P(*mut u8);\n// SAFETY: P is only read behind a lock.\nunsafe impl Send for P {}\nunsafe impl Sync for P {}\n",
        );
        assert!(good.is_empty(), "{good:#?}");

        let cfg = analyze(
            "fn f() {\n    // SAFETY: sse2 is x86_64 baseline.\n    #[cfg(target_arch = \"x86_64\")]\n    unsafe { intrinsics() };\n}\n",
        );
        assert!(cfg.is_empty(), "{cfg:#?}");
    }

    #[test]
    fn safety_doc_section_counts_for_unsafe_fn() {
        let good = analyze(
            "/// Dereferences p.\n///\n/// # Safety\n/// p must be valid.\nunsafe fn f(p: *const u32) -> u32 {\n    // SAFETY: per this fn's contract.\n    unsafe { *p }\n}\n",
        );
        assert!(good.is_empty(), "{good:#?}");
    }

    #[test]
    fn unsafe_fn_pointer_type_is_not_an_unsafe_site() {
        let findings = analyze("struct J {\n    exec: unsafe fn(*const ()),\n}\n");
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let findings = analyze("fn f() {\n    let s = \"unsafe\"; // unsafe in prose\n}\n");
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn measured_effort_is_a_hand_countable_line_diff() {
        let src = "\
// ninja-lint: variant(naive)
fn run_naive(xs: &[f32]) -> f32 {
    let mut s = 0.0;
    for x in xs {
        s += x;
    }
    s
}

// ninja-lint: variant(parallel, algorithmic)
fn run_parallel(xs: &[f32]) -> f32 {
    // Only the signature differs from naive; this comment and the blank
    // line below do not count.

    let mut s = 0.0;
    for x in xs {
        s += x;
    }
    s
}

// ninja-lint: effort(simd, ninja)
fn widen(x: f32) -> f32 {
    x * 2.0
}

// ninja-lint: variant(simd)
fn run_simd(xs: &[f32]) -> f32 {
    xs.iter().map(|&x| widen(x)).sum()
}

// ninja-lint: variant(ninja)
fn run_ninja(xs: &[f32]) -> f32 {
    let mut s = 0.0;
    for x in xs.chunks(8) {
        s += x.iter().map(|&v| widen(v)).sum::<f32>();
    }
    s
}
";
        // parallel/algorithmic: the signature. simd: signature + body +
        // widen's two non-naive lines. ninja: signature + two changed body
        // lines + widen's two. Every `}` and `s` line also occurs in naive.
        assert_eq!(measured_effort(src), Some([0, 1, 4, 1, 5]));
        assert_eq!(measured_effort("fn f() {}\n"), None);
        let skipped = format!("// ninja-lint: skip-file(\"fault injection\")\n{src}");
        assert_eq!(measured_effort(&skipped), None);
    }

    #[test]
    fn coverage_fires_per_missing_rung() {
        let findings = analyze("// ninja-lint: variant(naive)\nfn run_naive() {}\n");
        let nl006 = findings.iter().filter(|f| f.rule.id() == "NL006").count();
        assert_eq!(nl006, 4, "{findings:#?}");
    }

    #[test]
    fn skip_file_disables_ladder_rules_but_not_safety() {
        let findings = analyze(
            "// ninja-lint: skip-file(\"fault injection kernel\")\nfn f(p: *const u32) -> u32 { unsafe { *p } }\n",
        );
        assert_eq!(rules_of(&findings), ["NL005"], "{findings:#?}");
    }

    #[test]
    fn malformed_marker_fires() {
        let findings = analyze("// ninja-lint: variant(bogus)\nfn f() {}\n");
        assert_eq!(rules_of(&findings), ["NL007"]);
    }

    #[test]
    fn relaxed_ordering_fires_and_justified_passes() {
        let bad = analyze("fn f(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n");
        assert_eq!(rules_of(&bad), ["NL010"], "{bad:#?}");
        assert_eq!(bad[0].line, 2);

        let good = analyze(
            "fn f(c: &AtomicU64) -> u64 {\n    // ORDERING: monotonic counter; readers tolerate staleness.\n    c.load(Ordering::Relaxed)\n}\n",
        );
        assert!(good.is_empty(), "{good:#?}");
    }

    #[test]
    fn grouped_relaxed_sites_share_one_justification() {
        let good = analyze(
            "fn f(a: &AtomicU64, b: &AtomicU64) -> u64 {\n    // ORDERING: both counters are independent statistics.\n    a.load(Ordering::Relaxed)\n        + b.load(Ordering::Relaxed)\n}\n",
        );
        assert!(good.is_empty(), "{good:#?}");
    }

    #[test]
    fn justification_reaches_through_a_rustfmt_split_chain() {
        // rustfmt breaks long chains so the `Relaxed` token lands lines
        // below the comment, with only continuation lines between.
        let good = analyze(
            "fn f(s: &Shared) {\n    // ORDERING: monotonic stats counter.\n    s.counters.lanes[0]\n        .tasks\n        .fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        assert!(good.is_empty(), "{good:#?}");

        // A completed statement (terminated line) still blocks the walk.
        let bad = analyze(
            "fn f(s: &Shared) {\n    // ORDERING: stats counter.\n    let x = other();\n    s.tasks.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        assert_eq!(rules_of(&bad), ["NL010"], "{bad:#?}");
    }

    #[test]
    fn static_mut_declaration_needs_ordering_but_lifetime_does_not() {
        let bad = analyze("static mut COUNTER: u64 = 0;\n");
        assert_eq!(rules_of(&bad), ["NL010"], "{bad:#?}");

        // `&'static mut` is a type, not a declaration; the lexer drops
        // the lifetime quote so this must not match.
        let ty = analyze("fn f(x: &'static mut u64) -> u64 { *x }\n");
        assert!(ty.is_empty(), "{ty:#?}");

        let good = analyze(
            "// ORDERING: written once before any thread spawns.\n// SAFETY: see above.\nstatic mut SEED: u64 = 0;\n",
        );
        assert!(good.is_empty(), "{good:#?}");
    }

    #[test]
    fn other_orderings_are_exempt_from_nl010() {
        let findings = analyze(
            "fn f(c: &AtomicU64) -> u64 {\n    c.fetch_add(1, Ordering::AcqRel);\n    c.load(Ordering::Acquire) + c.load(Ordering::SeqCst)\n}\n",
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn allow_nl010_waives_a_span() {
        let findings = analyze(
            "// ninja-lint: allow(NL010, \"benchmark deliberately races\")\nfn f(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n",
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn relaxed_in_comment_or_string_is_exempt() {
        let findings = analyze(
            "fn f() {\n    // Ordering::Relaxed would be wrong here.\n    let s = \"Ordering::Relaxed\";\n}\n",
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
