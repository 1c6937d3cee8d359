//! Function-span segmentation: brace matching over the token stream.
//!
//! The lint reasons about *spans* — top-level or impl-level `fn` items
//! together with the markers attached above them. Nested functions and
//! closures are folded into their enclosing span: what matters for the
//! taxonomy is what a dispatch entry point can reach textually.

use crate::lexer::{Lexed, TokKind, Token};
use crate::markers::{Expect, Marker, MarkerError, PlacedMarker, Rung};

/// How far above a `fn` a marker may sit (doc comments and attributes
/// between marker and item are fine; unattached markers are an error).
const ATTACH_WINDOW: u32 = 12;

/// One `fn` item with everything the rules need to know about it.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// 1-based line of the body's closing `}`.
    pub end_line: u32,
    /// 1-based line of the body's opening `{` (== `end_line` for
    /// body-less trait methods, which have no tokens).
    pub body_start: u32,
    /// Identifier tokens inside the body (keywords included), with lines.
    pub body_idents: Vec<(u32, String)>,
    /// Rungs this span is a dispatch entry for (`variant(...)` marker).
    pub entry_rungs: Vec<Rung>,
    /// Rungs this span counts toward for effort only (`effort(...)`).
    pub effort_rungs: Vec<Rung>,
    /// Declared vectorization profile of the entry rungs (`expect(...)`).
    pub expect: Option<Expect>,
    /// Rules waived on this span, with reasons.
    pub allows: Vec<(String, String)>,
}

impl FnSpan {
    /// All rungs this span is attributed to (entry first, then effort).
    pub fn rungs(&self) -> impl Iterator<Item = Rung> + '_ {
        self.entry_rungs
            .iter()
            .chain(self.effort_rungs.iter())
            .copied()
    }

    /// Whether the span carries any attribution at all.
    pub fn is_attributed(&self) -> bool {
        !self.entry_rungs.is_empty() || !self.effort_rungs.is_empty()
    }

    /// Whether rule `id` is waived here; returns the reason if so.
    pub fn allowed(&self, id: &str) -> Option<&str> {
        self.allows
            .iter()
            .find(|(rule, _)| rule == id)
            .map(|(_, reason)| reason.as_str())
    }

    /// First body line referencing any identifier in `names`, with the
    /// matching identifier.
    pub fn first_reference(&self, names: &[&str]) -> Option<(u32, String)> {
        self.body_idents
            .iter()
            .find(|(_, id)| names.contains(&id.as_str()))
            .map(|(line, id)| (*line, id.clone()))
    }
}

/// Segmentation result: spans plus attachment diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Segmented {
    /// All `fn` spans in source order.
    pub spans: Vec<FnSpan>,
    /// skip-file reason, if the file opted out of ladder rules.
    pub skip_file: Option<String>,
    /// Markers that did not attach to any `fn` (rule NL007 feeds on these).
    pub orphans: Vec<MarkerError>,
}

/// Builds spans from lexed tokens and attaches parsed markers.
pub fn segment(lexed: &Lexed, markers: &[PlacedMarker]) -> Segmented {
    let mut out = Segmented::default();
    let toks = &lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            let (span, next) = read_fn(toks, i);
            if let Some(span) = span {
                out.spans.push(span);
            }
            i = next;
        } else {
            i += 1;
        }
    }

    for pm in markers {
        match &pm.marker {
            Marker::SkipFile(reason) => {
                if out.skip_file.is_some() {
                    out.orphans.push(MarkerError {
                        line: pm.line,
                        message: "duplicate skip-file marker".into(),
                    });
                } else {
                    out.skip_file = Some(reason.clone());
                }
            }
            marker => {
                let target = out
                    .spans
                    .iter_mut()
                    .find(|s| s.sig_line > pm.line && s.sig_line - pm.line <= ATTACH_WINDOW);
                match target {
                    Some(span) => match marker {
                        Marker::Variant(rungs) => {
                            if span.entry_rungs.is_empty() {
                                span.entry_rungs = rungs.clone();
                            } else {
                                out.orphans.push(MarkerError {
                                    line: pm.line,
                                    message: format!(
                                        "fn `{}` already has a variant(...) marker",
                                        span.name
                                    ),
                                });
                            }
                        }
                        Marker::Effort(rungs) => {
                            if span.effort_rungs.is_empty() {
                                span.effort_rungs = rungs.clone();
                            } else {
                                out.orphans.push(MarkerError {
                                    line: pm.line,
                                    message: format!(
                                        "fn `{}` already has an effort(...) marker",
                                        span.name
                                    ),
                                });
                            }
                        }
                        Marker::Expect(expect) => {
                            if span.expect.replace(*expect).is_some() {
                                out.orphans.push(MarkerError {
                                    line: pm.line,
                                    message: format!(
                                        "fn `{}` already has an expect(...) marker",
                                        span.name
                                    ),
                                });
                            }
                        }
                        Marker::Allow(rule, reason) => {
                            span.allows.push((rule.clone(), reason.clone()));
                        }
                        Marker::SkipFile(_) => unreachable!("handled above"),
                    },
                    None => out.orphans.push(MarkerError {
                        line: pm.line,
                        message: format!(
                            "marker does not attach to a fn within {ATTACH_WINDOW} lines"
                        ),
                    }),
                }
            }
        }
    }
    // Checked once every marker is attached: `expect(...)` may sit on
    // either side of its `variant(...)`.
    for span in &out.spans {
        if span.expect.is_some() && span.entry_rungs.is_empty() {
            out.orphans.push(MarkerError {
                line: span.sig_line,
                message: format!(
                    "expect(...) on fn `{}`, which has no variant(...)",
                    span.name
                ),
            });
        }
    }
    out
}

/// Reads one `fn` item starting at the `fn` keyword (index `at`).
/// Returns the span (None for body-less trait methods) and the index of
/// the first token after the item.
fn read_fn(toks: &[Token], at: usize) -> (Option<FnSpan>, usize) {
    let sig_line = toks[at].line;
    let mut i = at + 1;
    let name = match toks.get(i).and_then(Token::ident) {
        Some(n) => n.to_string(),
        None => return (None, at + 1),
    };
    // Find the body's `{` at paren depth 0 (or a `;` for trait methods).
    let mut paren = 0i32;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => paren += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => paren -= 1,
            TokKind::Punct(';') if paren == 0 => {
                return (None, i + 1);
            }
            TokKind::Punct('{') if paren == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return (None, toks.len());
    }
    let body_start = toks[i].line;
    let mut depth = 0i32;
    let mut body_idents = Vec::new();
    let mut end_line = body_start;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    end_line = toks[i].line;
                    i += 1;
                    break;
                }
            }
            TokKind::Ident(id) => body_idents.push((toks[i].line, id.clone())),
            _ => {}
        }
        end_line = toks[i].line;
        i += 1;
    }
    (
        Some(FnSpan {
            name,
            sig_line,
            end_line,
            body_start,
            body_idents,
            entry_rungs: Vec::new(),
            effort_rungs: Vec::new(),
            expect: None,
            allows: Vec::new(),
        }),
        i,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::markers::parse_markers;

    fn seg(src: &str) -> Segmented {
        let lexed = lex(src);
        let (markers, errs) = parse_markers(&lexed.comments);
        assert!(errs.is_empty(), "{errs:?}");
        segment(&lexed, &markers)
    }

    #[test]
    fn finds_fns_and_bodies() {
        let s = seg("fn a() { let x = 1; }\n\nimpl T {\n    fn b(&self) -> u32 {\n        self.x\n    }\n}\n");
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].name, "a");
        assert_eq!(s.spans[1].name, "b");
        assert_eq!(s.spans[1].sig_line, 4);
        assert_eq!(s.spans[1].end_line, 6);
        assert!(s.spans[1].body_idents.iter().any(|(_, i)| i == "self"));
    }

    #[test]
    fn nested_fns_fold_into_parent() {
        let s = seg("fn outer() {\n    fn inner() { helper(); }\n    inner();\n}\n");
        assert_eq!(s.spans.len(), 1);
        assert!(s.spans[0].body_idents.iter().any(|(_, i)| i == "helper"));
        assert_eq!(s.spans[0].end_line, 4);
    }

    #[test]
    fn trait_methods_without_bodies_are_skipped() {
        let s = seg(
            "trait T {\n    fn sig(&self) -> f64;\n    fn with_body(&self) -> f64 { 0.0 }\n}\n",
        );
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].name, "with_body");
    }

    #[test]
    fn markers_attach_to_next_fn() {
        let s = seg(concat!(
            "// ninja-lint: variant(naive)\n",
            "/// Docs in between are fine.\n",
            "fn run_naive() { work(); }\n",
            "// ninja-lint: effort(simd, ninja)\n",
            "// ninja-lint: allow(NL001, \"pool is None on this path\")\n",
            "fn helper() { pool(); }\n",
        ));
        assert_eq!(s.spans[0].entry_rungs, vec![Rung::Naive]);
        assert_eq!(s.spans[1].effort_rungs, vec![Rung::Simd, Rung::Ninja]);
        assert_eq!(
            s.spans[1].allowed("NL001"),
            Some("pool is None on this path")
        );
        assert!(s.spans[1].allowed("NL002").is_none());
    }

    #[test]
    fn orphan_markers_are_reported() {
        let s = seg("// ninja-lint: variant(naive)\n\n\n\n\n\n\n\n\n\n\n\n\n\nfn far_away() {}\n");
        assert_eq!(s.spans[0].entry_rungs, Vec::<Rung>::new());
        assert_eq!(s.orphans.len(), 1);
        assert!(s.orphans[0].message.contains("does not attach"));
    }

    #[test]
    fn skip_file_is_captured() {
        let s = seg("// ninja-lint: skip-file(\"fault injection\")\nfn f() {}\n");
        assert_eq!(s.skip_file.as_deref(), Some("fault injection"));
    }

    #[test]
    fn braces_in_match_arms_balance() {
        let s = seg("fn f(v: V) -> u32 {\n    match v {\n        V::A => { 1 }\n        V::B => 2,\n    }\n}\nfn g() {}\n");
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].end_line, 6);
    }
}
