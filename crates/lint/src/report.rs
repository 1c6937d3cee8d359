//! Machine-readable findings report, mirroring the harness report
//! conventions (`SuiteReport`): stable kind tags, per-item records, and
//! a `to_json` that downstream tooling can consume without parsing
//! human-oriented text.

use crate::rules::{Finding, RuleId, Severity, ALL_RULES};
use crate::vecprofile::VecProfile;
use serde::Serialize;

/// One finding as serialized into the report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FindingRecord {
    /// Stable rule ID (`NL001`...).
    pub rule: String,
    /// Kebab-case rule name.
    pub name: String,
    /// `warning` or `info` (info findings never fail `--deny-warnings`).
    pub severity: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u64,
    /// Human-readable specifics.
    pub message: String,
}

/// Static description of one rule, included so a report is
/// self-describing.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct RuleRecord {
    /// Stable rule ID.
    pub id: String,
    /// Kebab-case rule name.
    pub name: String,
    /// One-line description.
    pub description: String,
}

/// A full lint run over a set of files.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct LintReport {
    /// Root the relative paths are anchored at.
    pub root: String,
    /// Number of files scanned.
    pub files_scanned: u64,
    /// Every rule the engine knows, whether or not it fired.
    pub rules: Vec<RuleRecord>,
    /// All findings, in (file, line) order.
    pub findings: Vec<FindingRecord>,
    /// Per-rung vectorization profiles (`--asm` mode only; empty in a
    /// plain source lint).
    pub vec_profiles: Vec<VecProfile>,
    /// True when no *warning*-severity rule fired (info findings do not
    /// dirty a report).
    pub clean: bool,
}

impl LintReport {
    /// Builds a report from raw findings.
    pub fn new(root: String, files_scanned: usize, findings: Vec<Finding>) -> Self {
        let mut findings = findings;
        findings
            .sort_by(|a, b| (&a.file, a.line, a.rule.id()).cmp(&(&b.file, b.line, b.rule.id())));
        let records: Vec<FindingRecord> = findings
            .iter()
            .map(|f| FindingRecord {
                rule: f.rule.id().to_string(),
                name: f.rule.name().to_string(),
                severity: f.rule.severity().as_str().to_string(),
                file: f.file.clone(),
                line: f.line as u64,
                message: f.message.clone(),
            })
            .collect();
        Self {
            root,
            files_scanned: files_scanned as u64,
            rules: ALL_RULES
                .into_iter()
                .map(|r| RuleRecord {
                    id: r.id().to_string(),
                    name: r.name().to_string(),
                    description: r.description().to_string(),
                })
                .collect(),
            clean: !findings
                .iter()
                .any(|f| f.rule.severity() == Severity::Warning),
            findings: records,
            vec_profiles: Vec::new(),
        }
    }

    /// Attaches `--asm` vectorization profiles to the report.
    pub fn with_profiles(mut self, profiles: Vec<VecProfile>) -> Self {
        self.vec_profiles = profiles;
        self
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("lint reports are serializable")
    }

    /// Findings for one rule.
    pub fn by_rule(&self, rule: RuleId) -> impl Iterator<Item = &FindingRecord> {
        self.findings.iter().filter(move |f| f.rule == rule.id())
    }

    /// Renders the human-readable summary printed by the binary: one
    /// `file:line: [ID name] message` line per finding plus a tally.
    /// Info findings are prefixed so they read as observations.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut infos = 0u64;
        for f in &self.findings {
            let prefix = if f.severity == "info" {
                infos += 1;
                "info: "
            } else {
                ""
            };
            out.push_str(&format!(
                "{}:{}: {}[{} {}] {}\n",
                f.file, f.line, prefix, f.rule, f.name, f.message
            ));
        }
        let warnings = self.findings.len() as u64 - infos;
        if self.clean {
            out.push_str(&format!(
                "ninja-lint: clean ({} file(s) scanned, {} rule(s))\n",
                self.files_scanned,
                self.rules.len()
            ));
            if infos > 0 {
                out.push_str(&format!("ninja-lint: {infos} info note(s)\n"));
            }
        } else {
            out.push_str(&format!(
                "ninja-lint: {} finding(s) across {} file(s)\n",
                warnings, self.files_scanned
            ));
            if infos > 0 {
                out.push_str(&format!("ninja-lint: plus {infos} info note(s)\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: RuleId, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "msg".to_string(),
        }
    }

    #[test]
    fn report_is_sorted_and_self_describing() {
        let r = LintReport::new(
            "/repo".into(),
            3,
            vec![
                finding(RuleId::MissingSafetyComment, "b.rs", 9),
                finding(RuleId::ThreadsInSerialRung, "a.rs", 4),
            ],
        );
        assert!(!r.clean);
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[0].rule, "NL001");
        assert_eq!(r.findings[0].severity, "warning");
        assert_eq!(r.rules.len(), 10);
        assert_eq!(r.by_rule(RuleId::MissingSafetyComment).count(), 1);
    }

    #[test]
    fn json_has_stable_fields() {
        let r = LintReport::new(
            "/repo".into(),
            1,
            vec![finding(RuleId::IncompleteVariantCoverage, "k.rs", 12)],
        );
        let json = r.to_json();
        for needle in [
            "\"rule\": \"NL006\"",
            "\"name\": \"incomplete-variant-coverage\"",
            "\"severity\": \"warning\"",
            "\"file\": \"k.rs\"",
            "\"line\": 12",
            "\"clean\": false",
            "\"files_scanned\": 1",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn text_rendering_names_every_finding() {
        let r = LintReport::new(
            "/repo".into(),
            2,
            vec![finding(RuleId::OutlinedIntrinsic, "k.rs", 1)],
        );
        let text = r.render_text();
        assert!(text.contains("k.rs:1: [NL012 outlined-intrinsic] msg"));
        assert!(text.contains("1 finding(s)"));
        let clean = LintReport::new("/repo".into(), 2, Vec::new());
        assert!(clean.render_text().contains("clean"));
    }

    #[test]
    fn info_findings_do_not_dirty_a_report() {
        let r = LintReport::new(
            "/repo".into(),
            1,
            vec![finding(RuleId::ScalarRungAutovectorized, "k.rs", 3)],
        );
        assert!(r.clean, "info-only reports stay clean: {r:#?}");
        assert_eq!(r.findings[0].severity, "info");
        let text = r.render_text();
        assert!(text.contains("info: [NL009"), "{text}");
        assert!(text.contains("clean"), "{text}");
        assert!(text.contains("1 info note(s)"), "{text}");
    }
}
