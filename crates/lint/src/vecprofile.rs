//! Maps assembly evidence (see [`crate::asm`]) back to kernel rungs and
//! turns it into per-rung vectorization profiles plus the
//! NL008/NL009/NL011/NL012 findings. NL008 holds each rung to the
//! profile its `expect(...)` marker declares, so the judge of "is this
//! rung really vectorized" sits next to the rung.
//!
//! Attribution works symbol-first: a listing function is a *root* for a
//! rung when its demangled path names both the kernel module (the source
//! file stem) and a function that carries a `variant(...)`/`effort(...)`
//! marker for that rung. Trait-impl symbols demangle to compound
//! segments like `<ninja_kernels::conv1d::Conv1d as ...>` followed by a
//! plain `run_naive` segment, and same-function closures keep the
//! function name as a segment, so both match without special cases.
//! Because rung entry points often delegate all floating-point work to
//! closures spawned through the parallel runtime, evidence is collected
//! *transitively*: a breadth-first walk over the mangled symbols
//! referenced by each root's body pulls in the helpers that survived
//! inlining.
//!
//! A function inlined away completely leaves no symbol, so a rung may
//! report `matched_symbols == 0`. That is never a silent pass: every
//! simd, algorithmic or ninja rung carries an `expect(...)` marker (or an
//! `allow(NL008, ..)` waiver), and a marked rung with no evidence misses
//! its marker (DESIGN.md "Vectorization evidence" discusses this).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Serialize;

use crate::asm::{AsmFunction, AsmListing, InsnCounts};
use crate::markers::{Expect, Rung};
use crate::rules::{Finding, RuleId};
use crate::source::SourceFile;
use crate::LintError;

/// The `#[target_feature]` function through which
/// `ninja_simd::isa::dispatch` enters the AVX2 arm; NL012 walks from
/// every instantiation of it.
pub const AVX2_TRAMPOLINE: &str = "run_avx2";

/// The source that defines [`AVX2_TRAMPOLINE`], where NL012 points when
/// a default-level listing has no instantiation of it.
const DISPATCH_SOURCE: &str = "crates/simd/src/isa/dispatch.rs";

/// Minimum packed-FP count before NL009 reports a naive rung as
/// auto-vectorized; the odd stray packed move-adjacent op in prologue
/// code should not count as "the compiler bridged the gap".
const NL009_MIN_VECTOR_FP_OPS: u32 = 4;

/// Vectorization evidence for one (kernel, rung) cell, extracted from
/// compiler output.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct VecProfile {
    /// Kernel name (source file stem, e.g. `black_scholes`).
    pub kernel: String,
    /// Rung name (`naive`/`parallel`/`simd`/`algorithmic`/`ninja`).
    pub rung: String,
    /// Widest vector register on classified arithmetic, in bits; zero
    /// means scalar-only evidence.
    pub width_bits: u32,
    /// Whether fused multiply-add instructions were emitted.
    pub fma: bool,
    /// Whether gather loads were emitted.
    pub gather: bool,
    /// Whether scatter stores were emitted.
    pub scatter: bool,
    /// Packed floating-point arithmetic count.
    pub vector_fp_ops: u32,
    /// Scalar floating-point arithmetic count.
    pub scalar_fp_ops: u32,
    /// Integer vector arithmetic count.
    pub vector_int_ops: u32,
    /// Scalar FP compare and float/integer conversion count — in a
    /// vectorized rung, the lanes the compiler took apart one by one.
    pub scalar_conv_ops: u32,
    /// References to libm's `fmaf`/`fma`: a `mul_add` compiled outside
    /// a frame with FMA, one call per element.
    pub libm_fma_calls: u32,
    /// Number of listing symbols that matched this rung directly
    /// (before the transitive walk). Zero = everything inlined away.
    pub matched_symbols: u32,
    /// Human classification: `no-evidence`, `scalar`, `vec64`,
    /// `vec128`, `vec256` or `vec512`.
    pub classification: String,
}

impl VecProfile {
    fn from_counts(kernel: &str, rung: Rung, counts: InsnCounts, matched: u32) -> Self {
        let classification = if matched == 0 {
            "no-evidence"
        } else if !counts.any_vector_ops() {
            "scalar"
        } else {
            match counts.max_vector_bits {
                512 => "vec512",
                256 => "vec256",
                128 => "vec128",
                64 => "vec64",
                _ => "scalar",
            }
        };
        VecProfile {
            kernel: kernel.to_string(),
            rung: rung.name().to_string(),
            width_bits: counts.max_vector_bits,
            fma: counts.fma,
            gather: counts.gather,
            scatter: counts.scatter,
            vector_fp_ops: counts.vector_fp_ops,
            scalar_fp_ops: counts.scalar_fp_ops,
            vector_int_ops: counts.vector_int_ops,
            scalar_conv_ops: counts.scalar_conv_ops,
            libm_fma_calls: counts.libm_fma_calls,
            matched_symbols: matched,
            classification: classification.to_string(),
        }
    }
}

/// The result of an `--asm` audit: the lint report
/// (NL008/NL009/NL011/NL012 findings) plus every per-rung profile that
/// produced evidence.
#[derive(Clone, Debug)]
pub struct AsmAudit {
    /// Findings wrapped in the standard report (drives `--deny-warnings`
    /// and `--json` exactly like the source-token rules).
    pub report: crate::LintReport,
    /// Per-(kernel, rung) vectorization profiles, sorted.
    pub profiles: Vec<VecProfile>,
}

/// Options for [`asm_audit`].
#[derive(Clone, Debug, Default)]
pub struct AsmOptions {
    /// `-C target-cpu=<level>` to compile with (e.g. `x86-64-v3`);
    /// `None` uses the toolchain default.
    pub target_cpu: Option<String>,
    /// Pre-emitted `.s` listings to audit instead of driving cargo —
    /// used by tests and by CI stages that already built.
    pub asm_files: Vec<PathBuf>,
}

fn kernel_name(rel_path: &str) -> String {
    Path::new(rel_path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| rel_path.to_string())
}

/// Whether a demangled path places the symbol inside `module` — either a
/// plain segment equal to the module name or a compound (trait-impl)
/// segment containing `module::`.
fn path_names_module(path: &[String], module: &str) -> bool {
    let scoped = format!("{module}::");
    path.iter()
        .any(|seg| seg == module || seg.contains(&scoped))
}

/// Per-rung function names that carry markers in one source file.
fn rung_fn_names(file: &SourceFile) -> BTreeMap<Rung, Vec<&str>> {
    let mut map: BTreeMap<Rung, Vec<&str>> = BTreeMap::new();
    for span in &file.segmented.spans {
        for rung in span.rungs() {
            map.entry(rung).or_default().push(span.name.as_str());
        }
    }
    map
}

/// Every listing function by mangled symbol.
fn index_symbols(listings: &[AsmListing]) -> HashMap<&str, &AsmFunction> {
    listings
        .iter()
        .flat_map(|l| &l.functions)
        .map(|f| (f.symbol.as_str(), f))
        .collect()
}

/// Breadth-first walk over the symbols the `roots` reference: every
/// reachable listing function once, roots first.
fn reachable<'a>(
    index: &HashMap<&'a str, &'a AsmFunction>,
    roots: impl IntoIterator<Item = &'a str>,
) -> Vec<&'a AsmFunction> {
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    let mut queue: VecDeque<&AsmFunction> = roots
        .into_iter()
        .filter(|s| visited.insert(s))
        .filter_map(|s| index.get(s).copied())
        .collect();
    let mut out = Vec::new();
    while let Some(f) = queue.pop_front() {
        out.push(f);
        for callee in &f.callees {
            if let Some(&g) = index.get(callee.as_str()) {
                if visited.insert(g.symbol.as_str()) {
                    queue.push_back(g);
                }
            }
        }
    }
    out
}

/// Computes the vectorization profile of every marked rung in `files`
/// against the functions of `listings`. Files without markers and rungs
/// with no surviving symbols still produce a profile (classification
/// `no-evidence`) so the report shows what could not be proven.
pub fn profile_rungs(files: &[SourceFile], listings: &[AsmListing]) -> Vec<VecProfile> {
    let index = index_symbols(listings);
    let mut profiles = Vec::new();
    for file in files {
        if !file.is_kernel_file() || file.segmented.skip_file.is_some() {
            continue;
        }
        let module = kernel_name(&file.rel_path);
        for (rung, fn_names) in rung_fn_names(file) {
            let roots: BTreeSet<&str> = index
                .values()
                .filter(|f| {
                    path_names_module(&f.path, &module)
                        && f.path.iter().any(|seg| fn_names.iter().any(|n| seg == n))
                })
                .map(|f| f.symbol.as_str())
                .collect();
            let mut counts = InsnCounts::default();
            for f in reachable(&index, roots.iter().copied()) {
                counts.merge(&f.counts);
            }
            profiles.push(VecProfile::from_counts(
                &module,
                rung,
                counts,
                roots.len() as u32,
            ));
        }
    }
    profiles.sort_by(|a, b| (&a.kernel, &a.rung).cmp(&(&b.kernel, &b.rung)));
    profiles
}

/// The clauses of `e` the rung's compiled code misses.
fn unmet_clauses(e: Expect, p: &VecProfile) -> Vec<String> {
    if p.matched_symbols == 0 {
        return vec!["no listing symbol matched the rung".into()];
    }
    [
        (p.width_bits < e.min_bits)
            .then(|| format!("{} is narrower than vec{}", p.classification, e.min_bits)),
        (e.fma && !p.fma).then(|| "no fma".into()),
        (e.no_scalar_conv && p.scalar_conv_ops > 0).then(|| format!("sconv={}", p.scalar_conv_ops)),
        (p.libm_fma_calls > 0).then(|| format!("{} libm fmaf/fma call(s)", p.libm_fma_calls)),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Runs the asm-evidence rules over `files` + `listings`: NL008 (a rung
/// below its `expect(...)` profile, or a simd, algorithmic or ninja rung
/// without one), NL009 (naive rung the compiler auto-vectorized; info
/// severity), NL011 (compiler rung that is vectorized but still compares
/// or converts lane by lane; info severity) and NL012 (an intrinsic called out of line
/// inside the AVX2 trampoline's reach). Returns the profiles alongside
/// the findings so callers render both.
pub fn check_asm(files: &[SourceFile], listings: &[AsmListing]) -> (Vec<VecProfile>, Vec<Finding>) {
    let profiles = profile_rungs(files, listings);
    let by_cell: HashMap<(&str, &str), &VecProfile> = profiles
        .iter()
        .map(|p| ((p.kernel.as_str(), p.rung.as_str()), p))
        .collect();

    let mut findings = Vec::new();
    for file in files {
        if !file.is_kernel_file() || file.segmented.skip_file.is_some() {
            continue;
        }
        let module = kernel_name(&file.rel_path);
        for span in &file.segmented.spans {
            let mut emit = |rule: RuleId, message: String| {
                if span.allowed(rule.id()).is_none() {
                    findings.push(Finding {
                        rule,
                        file: file.rel_path.clone(),
                        line: span.sig_line,
                        message,
                    });
                }
            };
            for &rung in &span.entry_rungs {
                let Some(p) = by_cell.get(&(module.as_str(), rung.name())) else {
                    continue;
                };
                if matches!(rung, Rung::Simd | Rung::Algorithmic)
                    && (p.vector_fp_ops > 0 || p.vector_int_ops > 0)
                    && p.scalar_conv_ops > 0
                {
                    emit(
                        RuleId::ScalarConversionsInVectorRung,
                        format!(
                            "{rung} rung of `{module}` is vectorized ({}) but also emits {} \
                             scalar compare/conversion op(s) — a clamp, floor or `as i32` \
                             the compiler scalarized lane by lane",
                            p.classification, p.scalar_conv_ops
                        ),
                    );
                }
                match span.expect.map(|e| unmet_clauses(e, p)) {
                    Some(unmet) if !unmet.is_empty() => emit(
                        RuleId::NinjaRungNotVectorized,
                        format!(
                            "{rung} rung of `{module}` compiles below its expect(...) marker: \
                             {} — the compiled code does not back the rung's claim",
                            unmet.join(", ")
                        ),
                    ),
                    None if matches!(rung, Rung::Simd | Rung::Algorithmic | Rung::Ninja) => emit(
                        RuleId::NinjaRungNotVectorized,
                        format!(
                            "{rung} rung of `{module}` has no expect(...) marker — declare the \
                             profile it compiles to, or waive it with allow(NL008, \"reason\")"
                        ),
                    ),
                    _ => {}
                }
                if rung == Rung::Naive
                    && p.matched_symbols > 0
                    && p.vector_fp_ops >= NL009_MIN_VECTOR_FP_OPS
                {
                    emit(
                        RuleId::ScalarRungAutovectorized,
                        format!(
                            "naive rung of `{module}` was auto-vectorized by the compiler \
                             ({} packed FP op(s), width {}-bit{}) — the paper's thesis, \
                             caught in the act",
                            p.vector_fp_ops,
                            p.width_bits,
                            if p.fma { ", fma" } else { "" }
                        ),
                    );
                }
            }
        }
    }
    findings.extend(outlined_intrinsics(files, listings));
    findings.sort_by_key(|f| (f.file.clone(), f.line, f.rule.id()));
    (profiles, findings)
}

fn is_trampoline(f: &AsmFunction) -> bool {
    f.path.iter().any(|seg| seg == AVX2_TRAMPOLINE)
}

/// NL012 at the default target-cpu, where the AVX2 arm lives behind the
/// trampoline: a listing without one instantiation of it leaves
/// [`outlined_intrinsics`] nothing to walk, so the trampoline was renamed
/// or reshaped — not found clean. (`x86-64-v3` inlines it away, so there
/// zero is right.)
fn missing_trampoline(listings: &[AsmListing]) -> Option<Finding> {
    let found = listings
        .iter()
        .flat_map(|l| &l.functions)
        .any(is_trampoline);
    (!found).then(|| Finding {
        rule: RuleId::OutlinedIntrinsic,
        file: DISPATCH_SOURCE.into(),
        line: 1,
        message: format!(
            "no `{AVX2_TRAMPOLINE}` instantiation in the default-level listing: NL012 had \
             nothing to walk — the AVX2 trampoline was renamed or reshaped"
        ),
    })
}

/// NL012: a function reachable from a `run_avx2` trampoline that still
/// calls a `core_arch` intrinsic was compiled outside the AVX2 feature
/// frame (an `IsaOp::run` or helper without `#[inline(always)]`), where
/// every wide intrinsic is a call. Calls outside any trampoline (a
/// `Debug` impl, say) are not findings. The finding lands on the kernel
/// file the symbol names, or on the listing line when none does; one
/// per source location, however many instantiations share it.
fn outlined_intrinsics(files: &[SourceFile], listings: &[AsmListing]) -> Vec<Finding> {
    let index = index_symbols(listings);
    let trampolines = index
        .values()
        .filter(|f| is_trampoline(f))
        .map(|f| f.symbol.as_str());
    let mut findings = Vec::new();
    for f in reachable(&index, trampolines) {
        // An intrinsic's own body is not a finding.
        let intrinsic = f.callees.iter().find(|c| c.contains("core_arch"));
        let Some(intrinsic) = intrinsic.filter(|_| !f.symbol.contains("core_arch")) else {
            continue;
        };
        let name = f.path.join("::");
        let (file, line) = match files
            .iter()
            .find(|src| path_names_module(&f.path, &kernel_name(&src.rel_path)))
        {
            Some(src) => (src.rel_path.clone(), symbol_line(src, &f.path)),
            None => (name.clone(), f.line),
        };
        findings.push(Finding {
            rule: RuleId::OutlinedIntrinsic,
            file,
            line,
            message: format!(
                "`{name}` is reachable from the AVX2 trampoline but calls `{}` out of \
                 line: it was compiled outside the feature frame, so every intrinsic \
                 is a call — mark it #[inline(always)]",
                crate::asm::demangle(intrinsic).pop().unwrap_or_default()
            ),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings.dedup_by(|a, b| (&a.file, a.line) == (&b.file, b.line));
    findings
}

/// Best-effort source line of a demangled symbol: the first marked or
/// unmarked `fn` named by a path segment, after the `impl` header of
/// the `<module::Type as Trait>` segment when there is one.
fn symbol_line(file: &SourceFile, path: &[String]) -> u32 {
    let ty = path.iter().find_map(|seg| {
        seg.strip_prefix('<')?
            .split(" as ")
            .next()?
            .rsplit("::")
            .next()
    });
    let is_impl = |ty, l: &String| l.trim_start().starts_with("impl") && l.contains(ty);
    let impl_line = ty
        .and_then(|ty| file.lines.iter().position(|l| is_impl(ty, l)))
        .map_or(0, |i| i as u32 + 1);
    file.segmented
        .spans
        .iter()
        .find(|s| s.sig_line > impl_line && path.contains(&s.name))
        .map_or(impl_line.max(1), |s| s.sig_line)
}

/// Renders profiles as stable, grep-friendly lines (one per cell):
/// `vecprofile <kernel>/<rung>: <classification> fma=<y|n> ... sconv=<n> ...`.
pub fn render_profiles(profiles: &[VecProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        out.push_str(&format!(
            "vecprofile {}/{}: {} width={} fma={} gather={} scatter={} vfp={} sfp={} vint={} sconv={} symbols={}\n",
            p.kernel,
            p.rung,
            p.classification,
            p.width_bits,
            yn(p.fma),
            yn(p.gather),
            yn(p.scatter),
            p.vector_fp_ops,
            p.scalar_fp_ops,
            p.vector_int_ops,
            p.scalar_conv_ops,
            p.matched_symbols
        ));
    }
    out
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// Drives the full `--asm` audit: obtain listings (from
/// `opts.asm_files`, or by compiling `crates/kernels` with
/// `--emit asm`), lint the kernel sources against them, and wrap the
/// result in a [`crate::LintReport`] with profiles attached.
///
/// # Errors
///
/// Returns a [`LintError`] when cargo fails, a file cannot be read, or a
/// listing is not x86-64 AT&T assembly.
pub fn asm_audit(root: &Path, opts: &AsmOptions) -> Result<AsmAudit, LintError> {
    let default_level = opts.asm_files.is_empty() && opts.target_cpu.is_none();
    let listings = if opts.asm_files.is_empty() {
        vec![emit_kernel_asm(root, opts.target_cpu.as_deref())?]
    } else {
        let mut v = Vec::new();
        for path in &opts.asm_files {
            let text = std::fs::read_to_string(path)
                .map_err(|e| LintError(format!("cannot read asm file {}: {e}", path.display())))?;
            v.push(
                crate::asm::parse_listing(&text)
                    .map_err(|e| LintError(format!("{}: {e}", path.display())))?,
            );
        }
        v
    };

    let src_dir = root.join("crates").join("kernels").join("src");
    let mut paths = Vec::new();
    crate::collect_rs_files(&src_dir, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for path in &paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        files.push(SourceFile::from_source(rel, src));
    }

    let (profiles, mut findings) = check_asm(&files, &listings);
    if default_level {
        findings.extend(missing_trampoline(&listings));
    }
    let report = crate::LintReport::new(root.to_string_lossy().into_owned(), files.len(), findings);
    Ok(AsmAudit { report, profiles })
}

/// Compiles `crates/kernels` to assembly at the requested
/// `-C target-cpu` level and parses the newest emitted listing.
///
/// The workspace release profile sets `lto = "thin"`, which makes cargo
/// pass `-C linker-plugin-lto` to rlib builds; `--emit asm` would then
/// capture pre-link-LTO IR where the loop vectorizer has not run yet.
/// Appending `-C linker-plugin-lto=no` (last flag wins) restores the
/// normal per-crate codegen pipeline so the listing shows what actually
/// ships in non-LTO terms.
fn emit_kernel_asm(root: &Path, target_cpu: Option<&str>) -> Result<AsmListing, LintError> {
    let tag = target_cpu.unwrap_or("default");
    let target_dir = root.join("target").join("asm-audit").join(tag);
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .env("CARGO_TARGET_DIR", &target_dir)
        .args([
            "rustc",
            "--release",
            "-p",
            "ninja-kernels",
            "--lib",
            "--",
            "--emit=asm",
            "-Clinker-plugin-lto=no",
        ]);
    if let Some(level) = target_cpu {
        cmd.arg(format!("-Ctarget-cpu={level}"));
    }
    let out = cmd
        .output()
        .map_err(|e| LintError(format!("failed to spawn cargo rustc: {e}")))?;
    if !out.status.success() {
        return Err(LintError(format!(
            "cargo rustc --emit=asm failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let deps = target_dir.join("release").join("deps");
    let mut newest: Option<(std::time::SystemTime, PathBuf)> = None;
    let entries = std::fs::read_dir(&deps)
        .map_err(|e| LintError(format!("cannot read {}: {e}", deps.display())))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("ninja_kernels") && name.ends_with(".s") {
            let mtime = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::UNIX_EPOCH);
            if newest.as_ref().is_none_or(|(t, _)| mtime > *t) {
                newest = Some((mtime, path));
            }
        }
    }
    let (_, path) = newest
        .ok_or_else(|| LintError(format!("no ninja_kernels-*.s under {}", deps.display())))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| LintError(format!("cannot read {}: {e}", path.display())))?;
    crate::asm::parse_listing(&text).map_err(|e| LintError(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_listing;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel.to_string(), src.to_string())
    }

    const DEMO_SRC: &str = "\
// ninja-lint: variant(naive)
pub fn run_naive(x: &mut [f32]) { helper(x) }

// ninja-lint: variant(simd)
pub fn run_simd(x: &mut [f32]) { helper(x) }
";

    #[test]
    fn profiles_attribute_evidence_transitively_and_per_rung() {
        // run_naive is scalar; run_simd calls a surviving helper that
        // carries the packed ops.
        let asm = "\
_ZN4demo9run_naive17h0000000000000000E:
\tmulss\t%xmm1, %xmm0
\tretq
_ZN4demo8run_simd17h1111111111111111E:
\tcallq\t_ZN4demo6helper17h2222222222222222E
\tretq
_ZN4demo6helper17h2222222222222222E:
\tvmulps\t%ymm1, %ymm2, %ymm0
\tvfmadd231ps\t%ymm1, %ymm2, %ymm0
\tretq
";
        let files = [file("demo.rs", DEMO_SRC)];
        let listings = [parse_listing(asm).unwrap()];
        let profiles = profile_rungs(&files, &listings);
        assert_eq!(profiles.len(), 2);
        let naive = profiles.iter().find(|p| p.rung == "naive").unwrap();
        assert_eq!(naive.classification, "scalar");
        assert_eq!(naive.scalar_fp_ops, 1);
        assert_eq!(naive.matched_symbols, 1);
        let simd = profiles.iter().find(|p| p.rung == "simd").unwrap();
        assert_eq!(simd.classification, "vec256");
        assert_eq!(simd.vector_fp_ops, 2);
        assert!(simd.fma);
        // helper was pulled in by the walk, not matched directly.
        assert_eq!(simd.matched_symbols, 1);
    }

    #[test]
    fn an_unmarked_simd_rung_is_a_finding_even_when_inlined_away() {
        let asm = "_ZN5other4func17h0000000000000000E:\n\tmovq\t%rdi, %rax\n\tretq\n";
        let files = [file("demo.rs", DEMO_SRC)];
        let listings = [parse_listing(asm).unwrap()];
        let (profiles, findings) = check_asm(&files, &listings);
        assert!(profiles.iter().all(|p| p.classification == "no-evidence"));
        // The naive rung needs no marker; the simd rung does.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::NinjaRungNotVectorized);
        assert!(
            findings[0].message.contains("no expect(...) marker"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn a_listing_without_the_trampoline_is_an_nl012_finding() {
        let asm = "_ZN10ninja_simd3isa8dispatch8run_avx217h0000000000000000E:\n\
                   \tvmovups\t%ymm0, (%rdi)\n\tretq\n";
        assert!(missing_trampoline(&[parse_listing(asm).unwrap()]).is_none());
        let renamed = parse_listing(&asm.replace("run_avx2", "run_wide")).unwrap();
        let f = missing_trampoline(&[renamed]).expect("nothing to walk is a finding");
        assert_eq!(
            (f.rule, f.file.as_str()),
            (RuleId::OutlinedIntrinsic, DISPATCH_SOURCE)
        );
    }

    #[test]
    fn trait_impl_symbols_and_closures_match_the_module() {
        let asm = "\
_ZN48_$LT$demo..Demo$u20$as$u20$framework..Kernel$GT$8run_simd17h0000000000000000E:
\tvaddps\t%zmm1, %zmm2, %zmm0
\tretq
";
        let src = "// ninja-lint: variant(simd)\npub fn run_simd(x: &mut [f32]) {}\n";
        let files = [file("demo.rs", src)];
        let listings = [parse_listing(asm).unwrap()];
        let profiles = profile_rungs(&files, &listings);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].classification, "vec512");
        assert_eq!(profiles[0].width_bits, 512);
    }

    #[test]
    fn render_is_stable_and_grep_friendly() {
        let p = VecProfile::from_counts(
            "demo",
            Rung::Ninja,
            InsnCounts {
                vector_fp_ops: 7,
                max_vector_bits: 256,
                fma: true,
                ..InsnCounts::default()
            },
            2,
        );
        let text = render_profiles(&[p]);
        assert!(
            text.contains("vecprofile demo/ninja: vec256 width=256 fma=yes"),
            "{text}"
        );
    }

    #[test]
    fn integer_simd_counts_as_vectorization_for_nl008() {
        // tree_search/merge_sort-style rungs vectorize with integer ops
        // only; NL008 must not fire on them.
        let asm = "\
_ZN4demo8run_simd17h0000000000000000E:
\tvpaddd\t%xmm1, %xmm2, %xmm0
\tvpcmpgtd\t%xmm1, %xmm2, %xmm0
\tretq
";
        let src = "// ninja-lint: variant(simd)\n// ninja-lint: expect(vec128)\n\
                   pub fn run_simd(x: &mut [i32]) {}\n";
        let files = [file("demo.rs", src)];
        let (profiles, findings) = check_asm(&files, &[parse_listing(asm).unwrap()]);
        assert_eq!(profiles[0].classification, "vec128");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
