//! The diagnostic model: stable codes, severities, and renderings.
//!
//! Every finding the checkers produce is a [`Diagnostic`] carrying a stable
//! [`Code`] (`EC0xx`), so scripts and CI can match on codes rather than
//! message text.  Codes are grouped by analyzer:
//!
//! * `EC00x` — template type-checking,
//! * `EC01x` — corpus eligibility (dead templates),
//! * `EC02x`/`EC03x`/`EC04x` — rule-set linting (contradictions,
//!   redundancy, orphans),
//! * `EC05x` — filter-threshold validation,
//! * `EC06x` — rule-graph analysis (transitive ordering cycles).

use encore::obs::json::Json;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but not fatal; `--deny-warnings` promotes these.
    Warning,
    /// A defect — `encore-lint` exits nonzero when any is present.
    Error,
}

impl Severity {
    /// Parse the lowercase name rendered by `Display` (the `--severity`
    /// flag's vocabulary).
    pub fn parse_name(name: &str) -> Option<Severity> {
        match name {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `EC001` — a template line failed to parse.
    TemplateSyntax,
    /// `EC002` — a template's slot types are not admitted by its relation.
    IllTypedTemplate,
    /// `EC003` — a template's confidence override is outside `(0, 1]`.
    BadTemplateConfidence,
    /// `EC004` — the same template appears more than once.
    DuplicateTemplate,
    /// `EC010` — a template has no eligible attributes for a slot.
    DeadTemplateNoSlots,
    /// `EC011` — a template has eligible slots but zero live pairs.
    DeadTemplateNoPairs,
    /// `EC020` — contradictory ordering rules (`A < B` and `B < A`).
    ContradictoryOrdering,
    /// `EC021` — one path is claimed by two different owner entries.
    ConflictingOwners,
    /// `EC022` — an equality rule contradicts a strict ordering rule.
    EqualContradictsOrdering,
    /// `EC030` — a symmetric duplicate of an equality rule.
    SymmetricEqualDuplicate,
    /// `EC031` — a substring rule subsumed by an equality rule.
    SubstringSubsumedByEqual,
    /// `EC032` — an exact duplicate rule.
    DuplicateRule,
    /// `EC040` — a rule references an attribute absent from the corpus.
    OrphanRule,
    /// `EC050` — filter thresholds out of range.
    InvalidThresholds,
    /// `EC060` — a transitive cycle of strict ordering rules
    /// (`A < B`, `B < C`, `C < A`).
    OrderingCycle,
    /// `EC070` — a detector snapshot's format version is newer than this
    /// build supports.
    UnsupportedSnapshotVersion,
    /// `EC071` — a snapshot `TypeMap` entry no rule in the bundled rule set
    /// references (drift between retrains).
    UnreferencedTypeEntry,
}

impl Code {
    /// Every code, in `EC0xx` order (the SARIF rule registry iterates this).
    pub const ALL: [Code; 17] = [
        Code::TemplateSyntax,
        Code::IllTypedTemplate,
        Code::BadTemplateConfidence,
        Code::DuplicateTemplate,
        Code::DeadTemplateNoSlots,
        Code::DeadTemplateNoPairs,
        Code::ContradictoryOrdering,
        Code::ConflictingOwners,
        Code::EqualContradictsOrdering,
        Code::SymmetricEqualDuplicate,
        Code::SubstringSubsumedByEqual,
        Code::DuplicateRule,
        Code::OrphanRule,
        Code::InvalidThresholds,
        Code::OrderingCycle,
        Code::UnsupportedSnapshotVersion,
        Code::UnreferencedTypeEntry,
    ];

    /// The stable `EC0xx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::TemplateSyntax => "EC001",
            Code::IllTypedTemplate => "EC002",
            Code::BadTemplateConfidence => "EC003",
            Code::DuplicateTemplate => "EC004",
            Code::DeadTemplateNoSlots => "EC010",
            Code::DeadTemplateNoPairs => "EC011",
            Code::ContradictoryOrdering => "EC020",
            Code::ConflictingOwners => "EC021",
            Code::EqualContradictsOrdering => "EC022",
            Code::SymmetricEqualDuplicate => "EC030",
            Code::SubstringSubsumedByEqual => "EC031",
            Code::DuplicateRule => "EC032",
            Code::OrphanRule => "EC040",
            Code::InvalidThresholds => "EC050",
            Code::OrderingCycle => "EC060",
            Code::UnsupportedSnapshotVersion => "EC070",
            Code::UnreferencedTypeEntry => "EC071",
        }
    }

    /// One-line description of the defect class (SARIF rule metadata).
    pub fn summary(self) -> &'static str {
        match self {
            Code::TemplateSyntax => "template line failed to parse",
            Code::IllTypedTemplate => "template slot types not admitted by its relation",
            Code::BadTemplateConfidence => "template confidence override outside (0, 1]",
            Code::DuplicateTemplate => "the same template appears more than once",
            Code::DeadTemplateNoSlots => "template has no eligible attributes for a slot",
            Code::DeadTemplateNoPairs => "template has eligible slots but zero live pairs",
            Code::ContradictoryOrdering => "contradictory ordering rules (A < B and B < A)",
            Code::ConflictingOwners => "one path claimed by two different owner entries",
            Code::EqualContradictsOrdering => "equality rule contradicts a strict ordering rule",
            Code::SymmetricEqualDuplicate => "symmetric duplicate of an equality rule",
            Code::SubstringSubsumedByEqual => "substring rule subsumed by an equality rule",
            Code::DuplicateRule => "exact duplicate rule",
            Code::OrphanRule => "rule references an attribute absent from the corpus",
            Code::InvalidThresholds => "filter thresholds out of range",
            Code::OrderingCycle => "transitive cycle of strict ordering rules",
            Code::UnsupportedSnapshotVersion => {
                "detector snapshot version newer than this build supports"
            }
            Code::UnreferencedTypeEntry => "snapshot type entry referenced by no rule",
        }
    }

    /// The severity a diagnostic with this code carries unless the analyzer
    /// overrides it (only [`Code::ConflictingOwners`] is context-dependent:
    /// it downgrades to a warning without row evidence of differing owners).
    pub fn default_severity(self) -> Severity {
        match self {
            Code::TemplateSyntax
            | Code::IllTypedTemplate
            | Code::BadTemplateConfidence
            | Code::ContradictoryOrdering
            | Code::ConflictingOwners
            | Code::EqualContradictsOrdering
            | Code::OrphanRule
            | Code::InvalidThresholds
            | Code::OrderingCycle
            | Code::UnsupportedSnapshotVersion => Severity::Error,
            Code::DuplicateTemplate
            | Code::DeadTemplateNoSlots
            | Code::DeadTemplateNoPairs
            | Code::SymmetricEqualDuplicate
            | Code::SubstringSubsumedByEqual
            | Code::DuplicateRule
            | Code::UnreferencedTypeEntry => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a code, a severity, a message, and optional context (the
/// offending template or rule, rendered).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (the code's default unless overridden).
    pub severity: Severity,
    /// Human-readable description of the defect.
    pub message: String,
    /// The offending artifact, rendered (a template or rule line).
    pub context: Option<String>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            context: None,
        }
    }

    /// Attach the offending artifact.
    pub fn with_context(mut self, context: impl Into<String>) -> Diagnostic {
        self.context = Some(context.into());
        self
    }

    /// Override the severity (e.g. `EC021` without row evidence).
    pub fn with_severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    /// Compiler-style one/two-line text rendering.
    pub fn render_text(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        if let Some(ctx) = &self.context {
            out.push_str("\n  --> ");
            out.push_str(ctx);
        }
        out
    }

    /// Compact JSON object rendering.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// The JSON object: `code`, `severity`, `message`, then `context`
    /// (`null` when absent).
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("code".to_string(), Json::Str(self.code.to_string())),
            ("severity".to_string(), Json::Str(self.severity.to_string())),
            ("message".to_string(), Json::Str(self.message.clone())),
            (
                "context".to_string(),
                self.context.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Code::ALL {
            assert!(c.as_str().starts_with("EC"));
            assert_eq!(c.as_str().len(), 5);
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn severity_names_round_trip() {
        for s in [Severity::Info, Severity::Warning, Severity::Error] {
            assert_eq!(Severity::parse_name(&s.to_string()), Some(s));
        }
        assert_eq!(Severity::parse_name("fatal"), None);
    }

    #[test]
    fn text_rendering_is_compiler_style() {
        let d = Diagnostic::new(Code::IllTypedTemplate, "bad slots")
            .with_context("[A:Size] => [B:UserName]");
        let text = d.render_text();
        assert!(text.starts_with("error[EC002]: bad slots"));
        assert!(text.contains("--> [A:Size] => [B:UserName]"));
    }

    #[test]
    fn json_rendering_escapes_specials() {
        let d = Diagnostic::new(Code::DuplicateRule, "dup \"x\"\nnext").with_context("a\\b");
        let json = d.render_json();
        assert!(json.contains("\"code\":\"EC032\""));
        assert!(json.contains("\"severity\":\"warning\""));
        assert!(json.contains("dup \\\"x\\\"\\nnext"));
        assert!(json.contains("\"context\":\"a\\\\b\""));
    }

    #[test]
    fn severity_override_sticks() {
        let d = Diagnostic::new(Code::ConflictingOwners, "m").with_severity(Severity::Warning);
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(Code::ConflictingOwners.default_severity(), Severity::Error);
    }
}
