//! `// ninja-lint:` marker comments.
//!
//! Markers are how kernel sources tell the lint which rung of the
//! [`Variant` ladder](https://example.com) a function implements:
//!
//! ```text
//! // ninja-lint: variant(naive)             exclusive dispatch entry point
//! // ninja-lint: variant(simd, algorithmic) entry shared by two rungs
//! // ninja-lint: effort(ninja)              helper attributed for effort
//! //                                        accounting only (purity rules
//! //                                        use the *least* upper bound of
//! //                                        its rungs)
//! // ninja-lint: expect(vec256, fma)        the entry compiles to >= 256-bit
//! //                                        vector code with FMA (`sconv=0`
//! //                                        also bans scalarized lanes);
//! //                                        NL008 checks it in `--asm` mode
//! // ninja-lint: allow(NL008, "reason")     waive one rule on the next fn
//! // ninja-lint: skip-file("reason")        exempt a file from the ladder
//! //                                        rules (the SAFETY audit still
//! //                                        applies)
//! ```
//!
//! `variant(...)`/`effort(...)`/`expect(...)`/`allow(...)` attach to the
//! next `fn` item, and `expect(...)` only to a `variant(...)` entry;
//! `skip-file` applies to the whole file.

use crate::lexer::Comment;
use std::fmt;

/// One rung of the optimization ladder, mirrored from
/// `ninja_kernels::Variant` (the lint crate is dependency-free on purpose:
/// it must be able to lint a tree that does not compile).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Serial scalar code.
    Naive,
    /// Threads only.
    Parallel,
    /// Compiler-vectorizable restructuring, serial.
    Simd,
    /// Restructuring + threads (the low-effort endpoint).
    Algorithmic,
    /// Hand intrinsics + threads + tuning.
    Ninja,
}

impl Rung {
    /// Every rung in ladder order.
    pub const ALL: [Rung; 5] = [
        Rung::Naive,
        Rung::Parallel,
        Rung::Simd,
        Rung::Algorithmic,
        Rung::Ninja,
    ];

    /// Lowercase label as used in markers and `Variant::name`.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Naive => "naive",
            Rung::Parallel => "parallel",
            Rung::Simd => "simd",
            Rung::Algorithmic => "algorithmic",
            Rung::Ninja => "ninja",
        }
    }

    /// Parses a lowercase rung label.
    pub fn from_name(s: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.name() == s)
    }

    /// Whether this rung's taxonomy forbids any thread-runtime reference.
    pub fn bans_threads(self) -> bool {
        matches!(self, Rung::Naive | Rung::Simd)
    }

    /// Whether this rung's taxonomy forbids explicit SIMD types and
    /// `unsafe` (the "traditional programming" rungs).
    pub fn bans_explicit_simd(self) -> bool {
        matches!(self, Rung::Naive | Rung::Parallel)
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed marker, with the line it appeared on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Marker {
    /// `variant(rungs...)`: the next fn is a dispatch entry for these rungs.
    Variant(Vec<Rung>),
    /// `effort(rungs...)`: the next fn counts toward these rungs' effort.
    Effort(Vec<Rung>),
    /// `expect(vecN[, fma][, sconv=0])`: the next fn's rungs must compile
    /// to at least this profile.
    Expect(Expect),
    /// `allow(RULE, "reason")`: waive one rule on the next fn.
    Allow(String, String),
    /// `skip-file("reason")`: exempt the file from ladder rules.
    SkipFile(String),
}

/// A rung's declared vectorization profile, checked by NL008 against
/// the `--asm` evidence.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    /// Minimum width of the vector arithmetic, in bits (`vecN`).
    pub min_bits: u32,
    /// Fused multiply-add must be emitted (`fma`).
    pub fma: bool,
    /// No scalar compare or float/integer conversion may be emitted
    /// (`sconv=0`).
    pub no_scalar_conv: bool,
}

/// A marker plus its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacedMarker {
    /// 1-based line of the marker comment.
    pub line: u32,
    /// The parsed marker.
    pub marker: Marker,
}

/// A marker comment that failed to parse (reported as rule NL007 so typos
/// cannot silently disable enforcement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarkerError {
    /// 1-based line of the bad marker.
    pub line: u32,
    /// What was wrong with it.
    pub message: String,
}

/// Extracts all markers from a file's comments.
pub fn parse_markers(comments: &[Comment]) -> (Vec<PlacedMarker>, Vec<MarkerError>) {
    let mut markers = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("ninja-lint:") else {
            // A comment that *starts* with the tool name but lacks the colon
            // is a botched marker; prose that merely mentions the tool is not.
            if text.starts_with("ninja-lint") {
                errors.push(MarkerError {
                    line: c.line,
                    message: format!(
                        "comment starts with ninja-lint but is not a `ninja-lint: <directive>` marker: `{text}`"
                    ),
                });
            }
            continue;
        };
        match parse_directive(rest.trim()) {
            Ok(marker) => markers.push(PlacedMarker {
                line: c.line,
                marker,
            }),
            Err(message) => errors.push(MarkerError {
                line: c.line,
                message,
            }),
        }
    }
    (markers, errors)
}

/// Parses the directive text after `ninja-lint:`.
fn parse_directive(s: &str) -> Result<Marker, String> {
    let (head, args) = split_call(s)?;
    match head {
        "variant" => Ok(Marker::Variant(parse_rungs(args)?)),
        "effort" => Ok(Marker::Effort(parse_rungs(args)?)),
        "expect" => Ok(Marker::Expect(parse_expect(args)?)),
        "allow" => {
            let (rule, reason) = args
                .split_once(',')
                .ok_or_else(|| "allow needs `allow(RULE, \"reason\")`".to_string())?;
            let rule = rule.trim();
            if !rule.starts_with("NL") || rule.len() != 5 {
                return Err(format!("`{rule}` is not a rule id (expected NLnnn)"));
            }
            let reason = unquote(reason.trim())?;
            if reason.is_empty() {
                return Err("allow needs a non-empty reason string".into());
            }
            Ok(Marker::Allow(rule.to_string(), reason))
        }
        "skip-file" => {
            let reason = unquote(args.trim())?;
            if reason.is_empty() {
                return Err("skip-file needs a non-empty reason string".into());
            }
            Ok(Marker::SkipFile(reason))
        }
        other => Err(format!(
            "unknown directive `{other}` (expected variant/effort/expect/allow/skip-file)"
        )),
    }
}

/// Splits `name(args)` into `("name", "args")`.
fn split_call(s: &str) -> Result<(&str, &str), String> {
    let open = s
        .find('(')
        .ok_or_else(|| format!("directive `{s}` is missing `(...)`"))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| format!("directive `{s}` is missing closing `)`"))?;
    if close < open || !s[close + 1..].trim().is_empty() {
        return Err(format!("malformed directive `{s}`"));
    }
    Ok((s[..open].trim(), &s[open + 1..close]))
}

/// Parses a comma-separated rung list.
fn parse_rungs(args: &str) -> Result<Vec<Rung>, String> {
    let mut rungs = Vec::new();
    for part in args.split(',') {
        let part = part.trim();
        let rung = Rung::from_name(part).ok_or_else(|| {
            format!("`{part}` is not a rung (naive/parallel/simd/algorithmic/ninja)")
        })?;
        if rungs.contains(&rung) {
            return Err(format!("rung `{part}` listed twice"));
        }
        rungs.push(rung);
    }
    if rungs.is_empty() {
        Err("empty rung list".into())
    } else {
        Ok(rungs)
    }
}

/// Parses `vecN[, fma][, sconv=0]`: one width, each clause at most once.
fn parse_expect(args: &str) -> Result<Expect, String> {
    let mut e = Expect::default();
    for part in args.split(',').map(str::trim) {
        let repeated = match (part, part.strip_prefix("vec").and_then(|n| n.parse().ok())) {
            ("fma", _) => std::mem::replace(&mut e.fma, true),
            ("sconv=0", _) => std::mem::replace(&mut e.no_scalar_conv, true),
            (_, Some(n @ (64 | 128 | 256 | 512))) => std::mem::replace(&mut e.min_bits, n) != 0,
            _ => {
                return Err(format!(
                    "`{part}` is not an expectation (vecN, fma, sconv=0)"
                ))
            }
        };
        if repeated {
            return Err(format!("expect repeats a clause at `{part}`"));
        }
    }
    if e.min_bits == 0 {
        return Err("expect needs a width (vec64/vec128/vec256/vec512)".into());
    }
    Ok(e)
}

/// Strips matching double quotes.
fn unquote(s: &str) -> Result<String, String> {
    let s = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got `{s}`"))?;
    Ok(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: u32, text: &str) -> Comment {
        Comment {
            line,
            text: text.to_string(),
        }
    }

    #[test]
    fn parses_variant_and_effort_lists() {
        let (m, e) = parse_markers(&[
            comment(3, " ninja-lint: variant(naive)"),
            comment(9, " ninja-lint: effort(simd, algorithmic, ninja)"),
        ]);
        assert!(e.is_empty());
        assert_eq!(m[0].marker, Marker::Variant(vec![Rung::Naive]));
        assert_eq!(m[0].line, 3);
        assert_eq!(
            m[1].marker,
            Marker::Effort(vec![Rung::Simd, Rung::Algorithmic, Rung::Ninja])
        );
    }

    #[test]
    fn parses_allow_and_skip_file() {
        let (m, e) = parse_markers(&[
            comment(1, " ninja-lint: allow(NL008, \"scalar by design\")"),
            comment(2, " ninja-lint: skip-file(\"fault-injection kernel\")"),
        ]);
        assert!(e.is_empty(), "{e:?}");
        assert_eq!(
            m[0].marker,
            Marker::Allow("NL008".into(), "scalar by design".into())
        );
        assert_eq!(
            m[1].marker,
            Marker::SkipFile("fault-injection kernel".into())
        );
    }

    #[test]
    fn rejects_typos_loudly() {
        let (_, e) = parse_markers(&[
            comment(1, " ninja-lint: varian(naive)"),
            comment(2, " ninja-lint: variant(nave)"),
            comment(3, " ninja-lint: variant()"),
            comment(4, " ninja-lint: allow(NL1, \"x\")"),
            comment(5, " ninja-lint marker without colon"),
            comment(6, " ninja-lint: variant(naive, naive)"),
        ]);
        assert_eq!(e.len(), 6);
        assert!(e[0].message.contains("unknown directive"));
        assert!(e[1].message.contains("not a rung"));
        assert!(e[4].message.contains("not a"));
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        let (m, e) = parse_markers(&[comment(1, " plain prose about vectors")]);
        assert!(m.is_empty() && e.is_empty());
    }

    #[test]
    fn rung_bans_match_the_paper_taxonomy() {
        assert!(Rung::Naive.bans_threads() && Rung::Simd.bans_threads());
        assert!(!Rung::Parallel.bans_threads() && !Rung::Ninja.bans_threads());
        assert!(Rung::Naive.bans_explicit_simd() && Rung::Parallel.bans_explicit_simd());
        assert!(!Rung::Simd.bans_explicit_simd() && !Rung::Algorithmic.bans_explicit_simd());
        for r in Rung::ALL {
            assert_eq!(Rung::from_name(r.name()), Some(r));
            assert_eq!(format!("{r}"), r.name());
        }
    }
}
