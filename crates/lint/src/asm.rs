//! Assembly parsing and instruction classification for the `--asm`
//! vectorization oracle.
//!
//! The source-token rules (NL001–NL007) can only audit what the *author*
//! wrote; this module audits what the *compiler emitted*. It parses the
//! textual assembly of `rustc --emit asm` (x86-64 AT&T syntax only; any
//! other listing is refused), splits it into functions, and counts the
//! instructions that constitute vectorization evidence: packed FP
//! arithmetic, integer vector arithmetic, FMA, gather/scatter, and the
//! widest vector register touched by a *classified* instruction (so
//! `vzeroupper` and `vxorps` zeroing idioms never inflate the width). It
//! also counts the scalar compares and float/integer conversions (`ucomiss`,
//! `cvttss2si`, ...) that a clamp, a `floor` or a saturating `as i32`
//! lowers to: inside a loop that is otherwise packed they mean the
//! compiler took each vector apart lane by lane, which no arithmetic
//! count shows.
//!
//! Like the rest of the crate this is a hand-rolled classifier — no
//! `object`, no `capstone`, no external disassembler — because the
//! workspace builds offline and the lint must stay a std-only leaf.
//!
//! Known limits (documented in DESIGN.md "Vectorization evidence"):
//! moves, shuffles and packed conversions are deliberately *not* counted
//! as arithmetic; a function fully inlined into its caller leaves no symbol
//! of its own, so evidence attribution (see [`crate::vecprofile`]) works
//! on the call graph of symbols that survive codegen.

use std::collections::BTreeSet;

use crate::LintError;

/// Vectorization-relevant instruction counts of one function.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InsnCounts {
    /// Packed floating-point arithmetic instructions.
    pub vector_fp_ops: u32,
    /// Scalar floating-point arithmetic instructions.
    pub scalar_fp_ops: u32,
    /// Integer vector arithmetic/shuffle instructions.
    pub vector_int_ops: u32,
    /// Scalar FP compares and scalar float/integer conversions.
    pub scalar_conv_ops: u32,
    /// Widest vector register (bits) on a *classified* instruction; zero
    /// when no vector arithmetic was seen.
    pub max_vector_bits: u32,
    /// Whether any fused multiply-add was emitted.
    pub fma: bool,
    /// Whether any gather load was emitted.
    pub gather: bool,
    /// Whether any scatter store was emitted.
    pub scatter: bool,
    /// References to libm's `fmaf`/`fma` (a call, a tail jump, or the
    /// address load an indirect call goes through): what `f32::mul_add`
    /// compiles to outside a frame that has FMA.
    pub libm_fma_calls: u32,
}

impl InsnCounts {
    /// Accumulates `other` into `self` (used for transitive call-graph
    /// attribution).
    pub fn merge(&mut self, other: &InsnCounts) {
        self.vector_fp_ops += other.vector_fp_ops;
        self.scalar_fp_ops += other.scalar_fp_ops;
        self.vector_int_ops += other.vector_int_ops;
        self.scalar_conv_ops += other.scalar_conv_ops;
        self.max_vector_bits = self.max_vector_bits.max(other.max_vector_bits);
        self.fma |= other.fma;
        self.gather |= other.gather;
        self.scatter |= other.scatter;
        self.libm_fma_calls += other.libm_fma_calls;
    }

    /// Whether any vector arithmetic (FP or integer) was seen.
    pub fn any_vector_ops(&self) -> bool {
        self.vector_fp_ops > 0 || self.vector_int_ops > 0
    }

    fn bump_width(&mut self, bits: u32) {
        self.max_vector_bits = self.max_vector_bits.max(bits);
    }
}

/// One function extracted from an assembly listing.
#[derive(Clone, Debug)]
pub struct AsmFunction {
    /// Raw (mangled) symbol name.
    pub symbol: String,
    /// Demangled path segments (hash segment dropped), e.g.
    /// `["ninja_kernels", "conv1d", "Conv1d", "run_ninja"]`.
    pub path: Vec<String>,
    /// 1-based line of the defining label in the listing.
    pub line: u32,
    /// Classified instruction counts of the body.
    pub counts: InsnCounts,
    /// Mangled symbols referenced by the body (call/lea targets), for
    /// transitive attribution.
    pub callees: Vec<String>,
}

/// A parsed assembly listing.
#[derive(Clone, Debug)]
pub struct AsmListing {
    /// Functions in listing order (label-delimited; data labels appear
    /// with zero instruction counts and are harmless).
    pub functions: Vec<AsmFunction>,
}

/// Parses one `--emit asm` listing into labeled functions with
/// classified instruction counts.
///
/// # Errors
///
/// Returns a [`LintError`] when the text names no `%`-sigil register:
/// it is not an AT&T x86-64 listing, and the classifier would read it
/// as zero counts rather than fail.
pub fn parse_listing(text: &str) -> Result<AsmListing, LintError> {
    if !text
        .split('%')
        .skip(1)
        .any(|rest| rest.starts_with(|c: char| c.is_ascii_alphabetic()))
    {
        return Err(LintError(
            "asm oracle reads x86-64 AT&T listings only (no `%` register in the listing)".into(),
        ));
    }
    let mut functions: Vec<AsmFunction> = Vec::new();
    let mut current: Option<AsmFunction> = None;
    let mut callees: BTreeSet<String> = BTreeSet::new();

    let mut flush = |cur: &mut Option<AsmFunction>, refs: &mut BTreeSet<String>| {
        if let Some(mut f) = cur.take() {
            f.callees = std::mem::take(refs).into_iter().collect();
            functions.push(f);
        }
        refs.clear();
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        if let Some(label) = global_label(raw) {
            flush(&mut current, &mut callees);
            current = Some(AsmFunction {
                symbol: label.to_string(),
                path: demangle(label),
                line: line_no,
                counts: InsnCounts::default(),
                callees: Vec::new(),
            });
            continue;
        }
        let trimmed = raw.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('.') || trimmed.starts_with('#') {
            continue; // directive, local label context, or comment
        }
        let Some(cur) = current.as_mut() else {
            continue;
        };
        let (mnemonic, operands) = split_insn(trimmed);
        classify_x86(mnemonic, operands, &mut cur.counts);
        if names_libm_fma(operands) {
            cur.counts.libm_fma_calls += 1;
        }
        collect_symbol_refs(operands, &mut callees);
    }
    flush(&mut current, &mut callees);
    Ok(AsmListing { functions })
}

/// A column-0 `name:` label whose name is not a local (`.L...`) label.
fn global_label(line: &str) -> Option<&str> {
    let name = line.strip_suffix(':')?;
    if name.is_empty()
        || name.starts_with('.')
        || name.starts_with(char::is_whitespace)
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '$' | '.' | '@'))
    {
        return None;
    }
    Some(name)
}

/// Splits an instruction line into mnemonic and operand text.
fn split_insn(line: &str) -> (&str, &str) {
    match line.find(char::is_whitespace) {
        Some(at) => (&line[..at], line[at..].trim_start()),
        None => (line, ""),
    }
}

/// Collects mangled-symbol references (`_ZN...` legacy, `_R...` v0) from
/// an operand string. Mangled text inside a longer name is skipped: a
/// local data label such as `.Lswitch.table._ZN...` is named after
/// whichever function LLVM first emitted it for, not a reference to it.
fn collect_symbol_refs(operands: &str, out: &mut BTreeSet<String>) {
    for needle in ["_ZN", "_R"] {
        for (at, _) in operands.match_indices(needle) {
            if operands[..at]
                .ends_with(|c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.'))
            {
                continue;
            }
            let tail = &operands[at..];
            let end = tail
                .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '$' | '.')))
                .unwrap_or(tail.len());
            // `_R` alone (e.g. a register name fragment) is not a symbol.
            if end > needle.len() + 2 {
                out.insert(tail[..end].to_string());
            }
        }
    }
}

/// Whether an operand names libm's `fmaf` or `fma` as a whole symbol:
/// `fmaf@PLT`, `*fma@GOTPCREL(%rip)` or a bare `fmaf`.
fn names_libm_fma(operands: &str) -> bool {
    operands
        .split(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '$' | '@')))
        .any(|token| matches!(token.split('@').next(), Some("fmaf" | "fma")))
}

// ---- x86-64 (AT&T) classification --------------------------------------

/// Bits of the widest vector register named in `operands` (zero when no
/// vector register appears).
fn x86_width(operands: &str) -> u32 {
    if operands.contains("%zmm") {
        512
    } else if operands.contains("%ymm") {
        256
    } else if operands.contains("%xmm") {
        128
    } else {
        0
    }
}

/// FP arithmetic bases shared by the packed (`ps`/`pd`) and scalar
/// (`ss`/`sd`) families.
fn is_fp_arith_base(base: &str) -> bool {
    matches!(
        base,
        "add"
            | "sub"
            | "mul"
            | "div"
            | "min"
            | "max"
            | "sqrt"
            | "rsqrt"
            | "rcp"
            | "rsqrt14"
            | "rcp14"
            | "hadd"
            | "hsub"
            | "addsub"
            | "dp"
            | "round"
            | "blendv"
    ) || base.starts_with("cmp")
}

/// Integer-vector arithmetic/shuffle prefixes (after the `p`); logical
/// ops (`pand`/`por`/`pxor`) and plain moves are excluded because they
/// appear in zeroing idioms and scalar spills.
const X86_INT_VECTOR_BASES: [&str; 17] = [
    "add", "sub", "mull", "mulh", "mulld", "muldq", "min", "max", "cmp", "sll", "srl", "sra",
    "shuf", "unpck", "blend", "abs", "avg",
];

fn classify_x86(mnemonic: &str, operands: &str, c: &mut InsnCounts) {
    let core = mnemonic.strip_prefix('v').unwrap_or(mnemonic);
    // Zeroing idioms and moves are not arithmetic evidence.
    if matches!(core, "xorps" | "xorpd" | "pxor" | "zeroupper" | "zeroall")
        || core.starts_with("mov")
    {
        return;
    }
    // Scalar compares (ucomiss, vcomisd) and scalar float<->integer
    // conversions (cvttss2si, vcvtsi2ssl, vcvttsd2usi, ...).
    if core.starts_with("ucomis")
        || core.starts_with("comis")
        || (core.starts_with("cvt") && ["2si", "2usi", "si2s"].iter().any(|t| core.contains(t)))
    {
        c.scalar_conv_ops += 1;
        return;
    }
    // Fused multiply-add family (vfmadd231ps, vfnmsub132sd, ...).
    if core.starts_with("fmadd")
        || core.starts_with("fmsub")
        || core.starts_with("fnmadd")
        || core.starts_with("fnmsub")
        || core.starts_with("fmaddsub")
        || core.starts_with("fmsubadd")
    {
        if core.ends_with("ps") || core.ends_with("pd") {
            c.vector_fp_ops += 1;
            c.fma = true;
            c.bump_width(x86_width(operands));
        } else if core.ends_with("ss") || core.ends_with("sd") {
            c.scalar_fp_ops += 1;
            c.fma = true;
        }
        return;
    }
    // Gather / scatter (vgatherdps, vpgatherdd, vscatterdpd, ...).
    if core.starts_with("gather") || core.starts_with("pgather") {
        c.gather = true;
        c.vector_int_ops += 1;
        c.bump_width(x86_width(operands));
        return;
    }
    if core.starts_with("scatter") || core.starts_with("pscatter") {
        c.scatter = true;
        c.vector_int_ops += 1;
        c.bump_width(x86_width(operands));
        return;
    }
    // Packed FP arithmetic.
    if let Some(base) = core.strip_suffix("ps").or_else(|| core.strip_suffix("pd")) {
        if is_fp_arith_base(base) {
            c.vector_fp_ops += 1;
            c.bump_width(x86_width(operands));
            return;
        }
    }
    // Scalar FP arithmetic.
    if let Some(base) = core.strip_suffix("ss").or_else(|| core.strip_suffix("sd")) {
        if is_fp_arith_base(base) {
            c.scalar_fp_ops += 1;
            return;
        }
    }
    // Integer vector arithmetic (requires a vector register so `push`
    // and friends never match).
    if let Some(rest) = core.strip_prefix('p') {
        let width = x86_width(operands);
        if width > 0 && X86_INT_VECTOR_BASES.iter().any(|b| rest.starts_with(b)) {
            c.vector_int_ops += 1;
            c.bump_width(width);
        }
    }
}

// ---- demangling --------------------------------------------------------

/// Decodes a mangled symbol into path segments.
///
/// Handles the legacy `_ZN<len><seg>...17h<hash>E` scheme fully (with
/// `$LT$`/`$u7b$`-style escapes and `..` → `::`); for anything else it
/// falls back to extracting the length-prefixed identifier runs, which
/// is enough for rung matching under the v0 mangling too (whose `_`
/// separator before an identifier starting with `_` or a digit is
/// skipped). A symbol with no recognizable segments demangles to itself.
pub fn demangle(symbol: &str) -> Vec<String> {
    let v0 = symbol.starts_with("_R");
    let body = symbol.strip_prefix("_ZN").unwrap_or(symbol);
    let bytes = body.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let n: usize = body[start..i].parse().unwrap_or(0);
            if v0 && bytes.get(i) == Some(&b'_') {
                i += 1;
            }
            if n > 0 && i + n <= bytes.len() {
                let first = bytes[i];
                if first == b'_' || first == b'$' || first.is_ascii_alphabetic() {
                    segs.push(decode_segment(&body[i..i + n]));
                    i += n;
                    continue;
                }
            }
        } else {
            i += 1;
        }
    }
    // The legacy scheme appends a `h<16 hex digits>` hash segment.
    if segs.last().is_some_and(|s| {
        s.len() == 17 && s.starts_with('h') && s[1..].bytes().all(|b| b.is_ascii_hexdigit())
    }) {
        segs.pop();
    }
    if segs.is_empty() {
        segs.push(symbol.to_string());
    }
    segs
}

/// Decodes one mangled path segment: `$LT$` → `<`, `$u7b$` → `{`,
/// `..` → `::`, etc.
fn decode_segment(seg: &str) -> String {
    // Legacy mangling prefixes an extra `_` when a segment starts with
    // an escape (`_$LT$...`); it is not part of the name.
    let seg = if seg.starts_with("_$") {
        &seg[1..]
    } else {
        seg
    };
    let bytes = seg.as_bytes();
    let mut out = String::with_capacity(seg.len());
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] == b'$' {
            if let Some(end) = seg[i + 1..].find('$') {
                let code = &seg[i + 1..i + 1 + end];
                let decoded = match code {
                    "LT" => Some('<'),
                    "GT" => Some('>'),
                    "RF" => Some('&'),
                    "BP" => Some('*'),
                    "C" => Some(','),
                    "SP" => Some('@'),
                    _ => code
                        .strip_prefix('u')
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32),
                };
                if let Some(ch) = decoded {
                    out.push(ch);
                    i += end + 2;
                    continue;
                }
            }
        }
        if bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1] == b'.' {
            out.push_str("::");
            i += 2;
            continue;
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demangles_legacy_symbols_and_drops_the_hash() {
        assert_eq!(
            demangle(
                "_ZN13ninja_kernels13black_scholes12BlackScholes9run_ninja17h0123456789abcdefE"
            ),
            [
                "ninja_kernels",
                "black_scholes",
                "BlackScholes",
                "run_ninja"
            ]
        );
    }

    #[test]
    fn demangles_escapes_and_closures() {
        let segs = demangle(
            "_ZN13ninja_kernels6conv1d6Conv1d8run_simd28_$u7b$$u7b$closure$u7d$$u7d$17h0011223344556677E"
        );
        assert!(segs.contains(&"run_simd".to_string()), "{segs:?}");
        assert!(segs.contains(&"{{closure}}".to_string()), "{segs:?}");
        let generic = demangle(
            "_ZN48_$LT$demo..Demo$u20$as$u20$framework..Kernel$GT$9run_naive17haaaaaaaaaaaaaaaaE",
        );
        assert!(generic[0].contains("demo::Demo"), "{generic:?}");
        assert_eq!(generic[1], "run_naive");
        // v0 (how `core` is mangled): the `_` before `_mm256..` is a separator.
        assert_eq!(
            demangle("_RNvNtNtNtCs1234_4core9core_arch3x863fma15__mm256_fmadd_ps"),
            ["core", "core_arch", "x86", "fma", "_mm256_fmadd_ps"]
        );
    }

    #[test]
    fn unmangleable_symbols_fall_back_to_themselves() {
        assert_eq!(demangle("memcpy"), ["memcpy"]);
        assert_eq!(demangle("rust_begin_unwind"), ["rust_begin_unwind"]);
    }

    #[test]
    fn x86_classifier_counts_packed_scalar_and_ignores_idioms() {
        let mut c = InsnCounts::default();
        classify_x86("vmulps", "%ymm1, %ymm2, %ymm0", &mut c);
        classify_x86("vaddpd", "%xmm1, %xmm2, %xmm0", &mut c);
        classify_x86("mulss", "%xmm1, %xmm0", &mut c);
        classify_x86("vfmadd231ps", "%ymm1, %ymm2, %ymm0", &mut c);
        classify_x86("vxorps", "%xmm0, %xmm0, %xmm0", &mut c); // zeroing
        classify_x86("vzeroupper", "", &mut c);
        classify_x86("vmovups", "(%rdi), %ymm0", &mut c); // move
        classify_x86("pushq", "%rbp", &mut c);
        assert_eq!(c.vector_fp_ops, 3);
        assert_eq!(c.scalar_fp_ops, 1);
        assert_eq!(c.max_vector_bits, 256);
        assert!(c.fma);
        assert!(!c.gather && !c.scatter);
    }

    #[test]
    fn x86_classifier_counts_integer_vectors_and_gathers() {
        let mut c = InsnCounts::default();
        classify_x86("vpaddd", "%xmm1, %xmm2, %xmm0", &mut c);
        classify_x86("vpcmpgtd", "%xmm1, %xmm2, %xmm0", &mut c);
        classify_x86("vpxor", "%xmm0, %xmm0, %xmm0", &mut c); // zeroing
        classify_x86("vgatherdps", "%ymm2, (%rdi,%ymm1,4), %ymm0", &mut c);
        assert_eq!(c.vector_int_ops, 3);
        assert!(c.gather);
        assert_eq!(c.max_vector_bits, 256);
    }

    #[test]
    fn x86_classifier_counts_scalar_compares_and_conversions_apart() {
        let mut c = InsnCounts::default();
        for (m, ops) in [
            ("ucomiss", "%xmm1, %xmm0"),
            ("vucomiss", "%xmm1, %xmm0"),
            ("comisd", "%xmm1, %xmm0"),
            ("cvttss2si", "%xmm0, %eax"),
            ("vcvttss2si", "%xmm0, %rax"),
            ("cvtss2si", "%xmm0, %eax"),
            ("cvtsi2ssl", "%eax, %xmm0"),
            ("vcvtsi2ss", "%rax, %xmm1, %xmm0"),
            ("cvttsd2si", "%xmm0, %rax"),
        ] {
            classify_x86(m, ops, &mut c);
        }
        assert_eq!(c.scalar_conv_ops, 9);
        // Packed conversions and float-width changes are not lane-by-lane
        // work; compares that produce masks are arithmetic, as before.
        classify_x86("cvttps2dq", "%xmm0, %xmm0", &mut c);
        classify_x86("vcvtdq2ps", "%ymm0, %ymm0", &mut c);
        classify_x86("cvtss2sd", "%xmm0, %xmm0", &mut c);
        classify_x86("cmpltss", "%xmm1, %xmm0", &mut c);
        assert_eq!(c.scalar_conv_ops, 9);
        assert_eq!((c.vector_fp_ops, c.scalar_fp_ops), (0, 1));
        assert_eq!(c.max_vector_bits, 0);
    }

    #[test]
    fn parse_listing_splits_functions_and_collects_callees() {
        let asm = "\t.text\n\
                   _ZN4demo3aaa17h0000000000000000E:\n\
                   \tvmulps\t%ymm1, %ymm2, %ymm0\n\
                   \tcallq\t_ZN4demo3bbb17h1111111111111111E\n\
                   \tleaq\t.Lswitch.table._ZN4demo3ccc17h2222222222222222E(%rip), %rax\n\
                   \tretq\n\
                   .Lfunc_end0:\n\
                   _ZN4demo3bbb17h1111111111111111E:\n\
                   \tmulss\t%xmm1, %xmm0\n\
                   \tretq\n";
        let listing = parse_listing(asm).unwrap();
        assert_eq!(listing.functions.len(), 2);
        let a = &listing.functions[0];
        assert_eq!(a.path, ["demo", "aaa"]);
        assert_eq!(a.counts.vector_fp_ops, 1);
        assert_eq!(a.counts.max_vector_bits, 256);
        assert_eq!(a.callees, ["_ZN4demo3bbb17h1111111111111111E"]);
        let b = &listing.functions[1];
        assert_eq!(b.counts.scalar_fp_ops, 1);
        assert_eq!(b.counts.max_vector_bits, 0);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = InsnCounts {
            vector_fp_ops: 2,
            max_vector_bits: 128,
            ..InsnCounts::default()
        };
        let b = InsnCounts {
            vector_fp_ops: 3,
            scalar_fp_ops: 1,
            max_vector_bits: 256,
            fma: true,
            ..InsnCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.vector_fp_ops, 5);
        assert_eq!(a.scalar_fp_ops, 1);
        assert_eq!(a.max_vector_bits, 256);
        assert!(a.fma && a.any_vector_ops());
    }
}
