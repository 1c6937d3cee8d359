//! A lightweight Rust lexer: just enough structure for the lint rules.
//!
//! The lexer separates code from comments and string/char literals so the
//! rule engine never mistakes an identifier inside a doc comment or a
//! format string for a real reference. It deliberately does **not** build
//! an AST (no `syn`; the workspace builds offline): brace matching over
//! the token stream is all the downstream span segmentation needs.

/// One lexical token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// 1-based line the token starts on.
    pub line: u32,
    /// What kind of token this is.
    pub kind: TokKind,
}

/// Token categories the lint cares about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `ThreadPool`, ...).
    Ident(String),
    /// Numeric literal, normalized to its source spelling.
    Number(String),
    /// String / char / byte literal (contents discarded).
    Literal,
    /// Any single punctuation character (`{`, `}`, `(`, `:`, ...).
    Punct(char),
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// One comment line (line and block comments are both split per line so
/// adjacency checks and marker parsing stay line-oriented).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line this comment text sits on.
    pub line: u32,
    /// Comment text without the `//` / `/*` framing.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment lines in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source into tokens and comments.
///
/// Handles line/doc comments, nested block comments, string, raw-string,
/// byte-string and char literals, and distinguishes lifetimes from char
/// literals. Unterminated constructs are tolerated (lexing stops at EOF)
/// so the lint degrades gracefully on torn files.
pub fn lex(src: &str) -> Lexed {
    let bytes: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && bytes[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: bytes[start..j].iter().collect(),
                });
                i = j;
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                i = lex_block_comment(&bytes, i, &mut line, &mut out.comments);
            }
            '"' => {
                i = lex_string(&bytes, i, &mut line);
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Literal,
                });
            }
            '\'' => {
                i = lex_quote(&bytes, i, &mut line, &mut out.tokens);
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                // Raw / byte string literals: the prefix lexes as an ident.
                if matches!(word.as_str(), "r" | "b" | "br")
                    && i < n
                    && (bytes[i] == '"' || bytes[i] == '#')
                {
                    i = lex_raw_string(&bytes, i, &mut line);
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Literal,
                    });
                } else {
                    out.tokens.push(Token {
                        line,
                        kind: TokKind::Ident(word),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n {
                    let d = bytes[i];
                    let exponent_sign = (d == '+' || d == '-')
                        && matches!(bytes[i - 1], 'e' | 'E')
                        && bytes[start..i].iter().all(|x| {
                            x.is_ascii_hexdigit()
                                || matches!(x, '.' | '_' | 'e' | 'E' | 'x' | 'o' | 'b')
                        });
                    if d.is_alphanumeric() || d == '_' || d == '.' || exponent_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Number(bytes[start..i].iter().collect()),
                });
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            other => {
                out.tokens.push(Token {
                    line,
                    kind: TokKind::Punct(other),
                });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a (possibly nested) block comment starting at `i`; pushes one
/// [`Comment`] per line of its contents. Returns the index just past `*/`.
fn lex_block_comment(
    bytes: &[char],
    i: usize,
    line: &mut u32,
    comments: &mut Vec<Comment>,
) -> usize {
    let n = bytes.len();
    let mut j = i + 2;
    let mut depth = 1usize;
    let mut cur = String::new();
    let mut cur_line = *line;
    while j < n && depth > 0 {
        if bytes[j] == '/' && j + 1 < n && bytes[j + 1] == '*' {
            depth += 1;
            cur.push_str("/*");
            j += 2;
        } else if bytes[j] == '*' && j + 1 < n && bytes[j + 1] == '/' {
            depth -= 1;
            if depth > 0 {
                cur.push_str("*/");
            }
            j += 2;
        } else if bytes[j] == '\n' {
            comments.push(Comment {
                line: cur_line,
                text: std::mem::take(&mut cur),
            });
            *line += 1;
            cur_line = *line;
            j += 1;
        } else {
            cur.push(bytes[j]);
            j += 1;
        }
    }
    if !cur.is_empty() {
        comments.push(Comment {
            line: cur_line,
            text: cur,
        });
    }
    j
}

/// Consumes a `"..."` string literal starting at the opening quote.
fn lex_string(bytes: &[char], i: usize, line: &mut u32) -> usize {
    let n = bytes.len();
    let mut j = i + 1;
    while j < n {
        match bytes[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Consumes a raw(-byte) string starting at the first `#` or `"` after the
/// `r`/`br` prefix.
fn lex_raw_string(bytes: &[char], i: usize, line: &mut u32) -> usize {
    let n = bytes.len();
    let mut j = i;
    let mut hashes = 0usize;
    while j < n && bytes[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != '"' {
        return j; // not actually a raw string; treat prefix as consumed
    }
    j += 1;
    while j < n {
        if bytes[j] == '\n' {
            *line += 1;
            j += 1;
        } else if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && bytes[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    j
}

/// Disambiguates `'a` (lifetime), `'x'` (char) and `'\n'` (escaped char).
fn lex_quote(bytes: &[char], i: usize, line: &mut u32, tokens: &mut Vec<Token>) -> usize {
    let n = bytes.len();
    if i + 1 >= n {
        return i + 1;
    }
    let next = bytes[i + 1];
    if next == '\\' {
        // Escaped char literal: skip to the closing quote.
        let mut j = i + 2;
        while j < n && bytes[j] != '\'' {
            j += 1;
        }
        tokens.push(Token {
            line: *line,
            kind: TokKind::Literal,
        });
        return (j + 1).min(n);
    }
    if i + 2 < n && bytes[i + 2] == '\'' && next != '\'' {
        if next == '\n' {
            *line += 1;
        }
        tokens.push(Token {
            line: *line,
            kind: TokKind::Literal,
        });
        return i + 3;
    }
    // Lifetime: consume the quote; the label lexes as a normal ident.
    i + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn comments_do_not_produce_tokens() {
        let l = lex("// ThreadPool here\nfn f() {} /* SimdF32 */");
        assert!(l.tokens.iter().all(|t| !t.is_ident("ThreadPool")));
        assert!(l.tokens.iter().all(|t| !t.is_ident("SimdF32")));
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert!(l.comments[0].text.contains("ThreadPool"));
        assert!(l.comments[1].text.contains("SimdF32"));
    }

    #[test]
    fn strings_hide_identifiers() {
        let l = lex("let s = \"ThreadPool {}\"; let r = r#\"SimdF32 \"x\" \"#;");
        assert!(!idents("").contains(&"ThreadPool".into()));
        assert!(l.tokens.iter().all(|t| !t.is_ident("ThreadPool")));
        assert!(l.tokens.iter().all(|t| !t.is_ident("SimdF32")));
        // Braces inside strings must not unbalance brace matching.
        assert!(l.tokens.iter().all(|t| !t.is_punct('{')));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"a".into()));
        assert!(ids.contains(&"str".into()));
        let l = lex("let c = 'x'; let nl = '\\n';");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Literal)
                .count(),
            2
        );
        assert!(l.tokens.iter().all(|t| !t.is_ident("x")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let l = lex("fn a() {}\n\nfn b() {}\n");
        let b = l.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ tail */ fn f() {}");
        assert!(l.tokens.iter().any(|t| t.is_ident("fn")));
        assert!(l.tokens.iter().all(|t| !t.is_ident("outer")));
    }

    #[test]
    fn numbers_including_exponents() {
        let l = lex("let x = 1.5e-3 + 0xff + 42;");
        let nums: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Number(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, ["1.5e-3", "0xff", "42"]);
    }
}
