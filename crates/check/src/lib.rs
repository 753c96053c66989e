//! encore-check — static type-checking and linting for EnCore templates,
//! rule sets, and corpora.
//!
//! Rule learning is expensive (a full pass over every eligible attribute
//! pair per template), and its inputs — template files, customization
//! files, learned rule sets — are all text that drifts.  This crate checks
//! those inputs *statically*, before (or without) a learning run:
//!
//! * [`typecheck`] — every template against its relation's type signature,
//! * [`corpus`] — template eligibility against a training corpus (dead
//!   templates that would instantiate nothing),
//! * [`rulelint`] — rule-set consistency: contradictions, redundancy,
//!   orphan attributes,
//! * plus [`FilterThresholds`] range validation.
//!
//! Every finding is a [`Diagnostic`] with a stable `EC0xx` [`Code`], and
//! the `encore-lint` binary drives all of it from the command line, exiting
//! nonzero when any error-severity diagnostic is present.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod corpus;
pub mod diag;
pub mod finding;
pub mod gate;
pub mod rulelint;
pub mod sarif;
pub mod typecheck;

pub use baseline::{BaselineDiff, FindingBaseline};
pub use corpus::analyze_corpus;
pub use diag::{Code, Diagnostic, Severity};
pub use finding::{code_registry, Finding, FindingFilter};
pub use gate::FindingsConfig;
pub use rulelint::{lint_rules, lint_snapshot};
pub use typecheck::check_templates;

use encore::obs::json::Json;
use encore::{FilterThresholds, RuleSet, StatsCache, Template};

/// Validate filter thresholds, as `EC050` diagnostics.
pub fn check_thresholds(thresholds: &FilterThresholds) -> Vec<Diagnostic> {
    match thresholds.validate() {
        Ok(()) => Vec::new(),
        Err(problems) => problems
            .into_iter()
            .map(|p| Diagnostic::new(Code::InvalidThresholds, p))
            .collect(),
    }
}

/// The combined result of a lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Append diagnostics from one analyzer.
    pub fn extend(&mut self, diags: Vec<Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    /// All diagnostics, in analyzer order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics carrying a specific code.
    pub fn with_code(&self, code: Code) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// The process exit code the report's findings imply
    /// ([`finding::exit_code`]): `1` on errors (or on warnings when
    /// `deny_warnings`), `0` otherwise.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        finding::exit_code(&self.findings(), deny_warnings)
    }

    /// The report restricted to diagnostics the filter admits (lint
    /// diagnostics carry confidence `1.0`).
    pub fn filtered(&self, filter: &FindingFilter) -> LintReport {
        if filter.is_pass_all() {
            return self.clone();
        }
        LintReport {
            diagnostics: self
                .diagnostics
                .iter()
                .filter(|d| filter.admits_diagnostic(d))
                .cloned()
                .collect(),
        }
    }

    /// Every diagnostic mapped into the unified [`Finding`] model (with its
    /// content fingerprint), in report order.
    pub fn findings(&self) -> Vec<Finding> {
        self.diagnostics
            .iter()
            .map(Finding::from_diagnostic)
            .collect()
    }

    /// Text rendering: one block per diagnostic plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// JSON rendering: an object with a `diagnostics` array and counts.
    pub fn render_json(&self) -> String {
        Json::Obj(vec![
            (
                "diagnostics".to_string(),
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            ("errors".to_string(), Json::Num(self.errors() as u64)),
            ("warnings".to_string(), Json::Num(self.warnings() as u64)),
        ])
        .render()
    }
}

/// Run every analyzer that applies: template type-checking, threshold
/// validation, corpus eligibility, and (when a rule set is given) rule-set
/// linting against the corpus.
pub fn check_all(
    templates: &[Template],
    thresholds: &FilterThresholds,
    cache: &StatsCache,
    rules: Option<&RuleSet>,
) -> LintReport {
    let mut report = LintReport::new();
    report.extend(check_templates(templates));
    report.extend(check_thresholds(thresholds));
    // Only well-typed templates reach the corpus analyzer — an ill-typed
    // template is already an error, and its eligibility is meaningless.
    let well_typed: Vec<Template> = templates
        .iter()
        .filter(|t| t.validate().is_ok())
        .cloned()
        .collect();
    report.extend(analyze_corpus(&well_typed, cache));
    if let Some(rules) = rules {
        report.extend(lint_rules(rules, Some(cache)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_reflects_severities() {
        let mut report = LintReport::new();
        assert_eq!(report.exit_code(false), 0);
        assert_eq!(report.exit_code(true), 0);
        report.extend(vec![Diagnostic::new(Code::DuplicateRule, "dup")]);
        assert_eq!(report.exit_code(false), 0);
        assert_eq!(report.exit_code(true), 1);
        report.extend(vec![Diagnostic::new(Code::OrphanRule, "orphan")]);
        assert_eq!(report.exit_code(false), 1);
        assert!(report.has_errors());
    }

    #[test]
    fn renderings_cover_all_diagnostics() {
        let mut report = LintReport::new();
        report.extend(vec![
            Diagnostic::new(Code::DuplicateRule, "dup").with_context("a == b"),
            Diagnostic::new(Code::OrphanRule, "orphan"),
        ]);
        let text = report.render_text();
        assert!(text.contains("warning[EC032]"));
        assert!(text.contains("error[EC040]"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        let json = report.render_json();
        assert!(json.starts_with("{\"diagnostics\":["));
        assert!(json.contains("\"errors\":1,\"warnings\":1"));
    }

    #[test]
    fn filtered_exit_code_ignores_filtered_out_severities() {
        let mut report = LintReport::new();
        report.extend(vec![
            Diagnostic::new(Code::DuplicateRule, "dup"), // warning
            Diagnostic::new(Code::OrphanRule, "orphan").with_severity(Severity::Info),
        ]);
        // Unfiltered: the warning trips --deny-warnings.
        assert_eq!(report.exit_code(true), 1);
        // Errors-only filter: nothing left to gate on.
        let errors_only = FindingFilter {
            min_severity: Severity::Error,
            ..FindingFilter::default()
        };
        assert_eq!(report.filtered(&errors_only).exit_code(true), 0);
        assert_eq!(report.filtered(&errors_only).diagnostics().len(), 0);
        let warnings_up = FindingFilter {
            min_severity: Severity::Warning,
            ..FindingFilter::default()
        };
        assert_eq!(report.filtered(&warnings_up).diagnostics().len(), 1);
        assert_eq!(report.filtered(&warnings_up).exit_code(true), 1);
        // findings() maps one-to-one with stable fingerprints.
        let findings = report.findings();
        assert_eq!(findings.len(), 2);
        assert_eq!(findings[0].code(), "EC032");
        assert_ne!(findings[0].fingerprint(), findings[1].fingerprint());
    }

    #[test]
    fn bad_thresholds_get_ec050() {
        let bad = FilterThresholds {
            min_confidence: 2.0,
            ..FilterThresholds::default()
        };
        let diags = check_thresholds(&bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::InvalidThresholds);
        assert!(check_thresholds(&FilterThresholds::default()).is_empty());
    }
}
