//! Per-file analysis state: lexed tokens, segmented spans, and
//! line/comment lookup helpers.

use crate::lexer::{lex, Lexed};
use crate::markers::{parse_markers, MarkerError};
use crate::spans::{segment, Segmented};
use std::collections::HashMap;

/// One analyzed source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path (used verbatim in findings).
    pub rel_path: String,
    /// Raw source lines (index 0 = line 1).
    pub lines: Vec<String>,
    /// Lexer output.
    pub lexed: Lexed,
    /// Span segmentation with attached markers.
    pub segmented: Segmented,
    /// Marker comments that failed to parse.
    pub marker_errors: Vec<MarkerError>,
    comments_by_line: HashMap<u32, String>,
}

impl SourceFile {
    /// Lexes, segments and indexes one file's source text.
    pub fn from_source(rel_path: String, src: String) -> Self {
        let lines: Vec<String> = src.lines().map(str::to_owned).collect();
        let lexed = lex(&src);
        let (markers, marker_errors) = parse_markers(&lexed.comments);
        let segmented = segment(&lexed, &markers);
        let mut comments_by_line: HashMap<u32, String> = HashMap::new();
        for c in &lexed.comments {
            let slot = comments_by_line.entry(c.line).or_default();
            slot.push_str(&c.text);
            slot.push(' ');
        }
        Self {
            rel_path,
            lines,
            lexed,
            segmented,
            marker_errors,
            comments_by_line,
        }
    }

    /// Raw text of 1-based `line`, if it exists.
    pub fn line(&self, line: u32) -> Option<&str> {
        self.lines.get(line as usize - 1).map(String::as_str)
    }

    /// Concatenated comment text on 1-based `line`, if any.
    pub fn comment_on(&self, line: u32) -> Option<&str> {
        self.comments_by_line.get(&line).map(String::as_str)
    }

    /// Whether the ladder rules apply to this file: it carries ninja-lint
    /// attribution markers (or a `skip-file` marker opting out of them).
    pub fn is_kernel_file(&self) -> bool {
        self.segmented.skip_file.is_some() || self.segmented.spans.iter().any(|s| s.is_attributed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_comment_lookup() {
        let f = SourceFile::from_source(
            "x.rs".into(),
            "fn a() {}\n// SAFETY: fine\nfn b() {}\n".into(),
        );
        assert_eq!(f.line(3), Some("fn b() {}"));
        assert!(f.comment_on(2).unwrap().contains("SAFETY:"));
        assert!(f.comment_on(1).is_none());
        assert!(f.line(99).is_none());
    }
}
