//! The unified finding model: one shape for lint diagnostics and detection
//! warnings, with content-derived stable fingerprints.
//!
//! `encore-lint` produces [`Diagnostic`]s (`EC0xx`) and `encore-detect`
//! produces [`encore::Warning`]s (`EW0xx`); CI gates and code-review UIs
//! need *one* shape for both.  A [`Finding`] carries:
//!
//! * a stable **code** (`EC0xx`/`EW0xx`, from the shared [`code_registry`]),
//! * a [`Severity`] and a normalized confidence in `[0, 1]`,
//! * a canonical **location** (the offending template/rule for lint
//!   findings, `system/<id>:<attr>` for detection findings),
//! * the human-readable message,
//! * a **fingerprint**: 64-bit FNV-1a over `code + location + normalized
//!   message`, rendered as 16 lowercase hex digits.
//!
//! The fingerprint is the finding's identity for baselines
//! ([`crate::baseline`]) and SARIF `partialFingerprints`
//! ([`crate::sarif`]).  Its stability contract: the fingerprint depends
//! only on *what* was found (code, canonical location, normalized message)
//! — never on rank, score, worker count, rule order, or the order findings
//! were produced in.  Two runs over the same inputs produce the same
//! fingerprint multiset, so a baseline diff reports exactly the findings
//! that are genuinely new.

use crate::diag::{Code, Diagnostic, Severity};
use encore::{Warning, WarningKind};

/// One unified static-analysis/detection finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    code: String,
    severity: Severity,
    confidence: f64,
    location: String,
    message: String,
    fingerprint: String,
}

impl Finding {
    /// Build a finding; the fingerprint is computed from `code`, `location`,
    /// and the normalized `message`.  Non-finite confidences clamp to `1.0`.
    pub fn new(
        code: impl Into<String>,
        severity: Severity,
        confidence: f64,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Finding {
        let code = code.into();
        let location = location.into();
        let message = message.into();
        let fingerprint = fingerprint(&code, &location, &message);
        let confidence = if confidence.is_finite() {
            confidence.clamp(0.0, 1.0)
        } else {
            1.0
        };
        Finding {
            code,
            severity,
            confidence,
            location,
            message,
            fingerprint,
        }
    }

    /// A lint [`Diagnostic`] as a finding.  The location is the diagnostic's
    /// context (the rendered offending template or rule), and the confidence
    /// is `1.0` — static findings are certain.
    pub fn from_diagnostic(diag: &Diagnostic) -> Finding {
        Finding::new(
            diag.code.as_str(),
            diag.severity,
            1.0,
            diag.context.clone().unwrap_or_default(),
            diag.message.clone(),
        )
    }

    /// A detection [`Warning`] on system `system` as a finding.
    ///
    /// The location is `system/<id>:<attr>` with the attribute in its
    /// unambiguous tagged encoding; the severity is
    /// [`warning_severity`]; the confidence is [`Warning::confidence`].
    pub fn from_warning(system: &str, warning: &Warning) -> Finding {
        Finding::new(
            warning.kind().code(),
            warning_severity(warning.kind()),
            warning.confidence(),
            format!("system/{system}:{}", warning.attr().render_tagged()),
            warning.detail(),
        )
    }

    /// The stable `EC0xx`/`EW0xx` code.
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The severity.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// Normalized confidence in `[0, 1]`.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The canonical location.
    pub fn location(&self) -> &str {
        &self.location
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The 16-hex-digit content fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

/// The severity a detection warning kind maps to: suspicious values are
/// informational (they rank, they don't gate), everything else is a
/// warning — detection evidence is statistical, never an error.
pub fn warning_severity(kind: WarningKind) -> Severity {
    match kind {
        WarningKind::UnknownEntry
        | WarningKind::CorrelationViolation
        | WarningKind::TypeViolation => Severity::Warning,
        WarningKind::SuspiciousValue => Severity::Info,
    }
}

/// Collapse internal whitespace runs to single spaces and trim — the
/// message form the fingerprint hashes, so incidental reformatting does not
/// change a finding's identity.
pub fn normalize_message(message: &str) -> String {
    let mut out = String::with_capacity(message.len());
    let mut in_space = true; // leading whitespace is dropped
    for c in message.chars() {
        if c.is_whitespace() {
            if !in_space {
                out.push(' ');
                in_space = true;
            }
        } else {
            out.push(c);
            in_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// The content fingerprint: [`encore::fnv1a`] over `code`, `location`,
/// and the normalized `message`, NUL-separated so field boundaries cannot
/// collide.
pub fn fingerprint(code: &str, location: &str, message: &str) -> String {
    let fields = format!("{code}\0{location}\0{}", normalize_message(message));
    format!("{:016x}", encore::fnv1a(fields.as_bytes()))
}

/// Severity and confidence thresholds applied to findings before any
/// output or exit-code computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FindingFilter {
    /// Minimum severity to report (`--severity`).
    pub min_severity: Severity,
    /// Minimum confidence to report (`--min-report-confidence`).
    pub min_confidence: f64,
}

impl Default for FindingFilter {
    /// The pass-everything filter.
    fn default() -> FindingFilter {
        FindingFilter {
            min_severity: Severity::Info,
            min_confidence: 0.0,
        }
    }
}

impl FindingFilter {
    /// Whether the filter admits a finding.
    pub fn admits(&self, finding: &Finding) -> bool {
        finding.severity >= self.min_severity && finding.confidence >= self.min_confidence
    }

    /// Whether the filter admits a raw diagnostic (confidence `1.0`).
    pub fn admits_diagnostic(&self, diag: &Diagnostic) -> bool {
        diag.severity >= self.min_severity && 1.0 >= self.min_confidence
    }

    /// Whether this is the default pass-everything filter.
    pub fn is_pass_all(&self) -> bool {
        *self == FindingFilter::default()
    }
}

/// The process exit code a set of (already filtered, already
/// baseline-suppressed) findings implies: `1` on any error-severity finding
/// (or any warning under `deny_warnings`), `0` otherwise.
pub fn exit_code(findings: &[Finding], deny_warnings: bool) -> i32 {
    let gate = if deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    };
    if findings.iter().any(|f| f.severity >= gate) {
        1
    } else {
        0
    }
}

/// One entry of the shared code registry: the SARIF `rules[]` metadata for
/// a stable code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeInfo {
    /// The stable `EC0xx`/`EW0xx` id.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The code's default severity.
    pub level: Severity,
}

/// Every stable code both tools can emit — the lint `EC0xx` codes followed
/// by the detection `EW0xx` codes, each in code order.  SARIF renders this
/// as `runs[].tool.driver.rules[]`.
pub fn code_registry() -> Vec<CodeInfo> {
    let mut out: Vec<CodeInfo> = Code::ALL
        .iter()
        .map(|c| CodeInfo {
            id: c.as_str(),
            summary: c.summary(),
            level: c.default_severity(),
        })
        .collect();
    out.extend(WarningKind::ALL.iter().map(|k| CodeInfo {
        id: k.code(),
        summary: k.summary(),
        level: warning_severity(*k),
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_message_whitespace() {
        let a = fingerprint("EC032", "a == b", "dup  rule\n  seen");
        let b = fingerprint("EC032", "a == b", " dup rule seen ");
        assert_eq!(a, b);
        // Pinned: baselines store fingerprints, so the hash input
        // (NUL-separated fields) must never change.
        assert_eq!(a, "3fa045312eafa45b");
    }

    #[test]
    fn fingerprint_separates_fields() {
        // Field content must not bleed across the separator.
        assert_ne!(
            fingerprint("EC0", "32a", "m"),
            fingerprint("EC032", "a", "m")
        );
        assert_ne!(
            fingerprint("EC032", "ab", "m"),
            fingerprint("EC032", "a", "bm")
        );
    }

    #[test]
    fn fingerprint_is_order_free() {
        // Identity is content, not production order: building the same two
        // findings in either order yields the same fingerprint set.
        let d1 = Diagnostic::new(Code::DuplicateRule, "dup").with_context("a == b");
        let d2 = Diagnostic::new(Code::OrphanRule, "orphan").with_context("x == y");
        let forward: Vec<String> = [&d1, &d2]
            .iter()
            .map(|d| Finding::from_diagnostic(d).fingerprint().to_string())
            .collect();
        let backward: Vec<String> = [&d2, &d1]
            .iter()
            .map(|d| Finding::from_diagnostic(d).fingerprint().to_string())
            .collect();
        let mut f = forward.clone();
        let mut b = backward.clone();
        f.sort();
        b.sort();
        assert_eq!(f, b);
        assert_ne!(forward[0], forward[1]);
    }

    #[test]
    fn filter_thresholds_apply() {
        let info = Finding::new("EW004", Severity::Info, 0.2, "system/a:O:x", "m");
        let warn = Finding::new("EW002", Severity::Warning, 0.95, "system/a:O:y", "m");
        let all = FindingFilter::default();
        assert!(all.admits(&info) && all.admits(&warn));
        assert!(all.is_pass_all());
        let warnings_only = FindingFilter {
            min_severity: Severity::Warning,
            ..FindingFilter::default()
        };
        assert!(!warnings_only.admits(&info));
        assert!(warnings_only.admits(&warn));
        let confident = FindingFilter {
            min_confidence: 0.5,
            ..FindingFilter::default()
        };
        assert!(!confident.admits(&info));
        assert!(confident.admits(&warn));
        assert!(!confident.is_pass_all());
    }

    #[test]
    fn exit_code_respects_severities() {
        let warn = Finding::new("EC032", Severity::Warning, 1.0, "", "dup");
        let err = Finding::new("EC040", Severity::Error, 1.0, "", "orphan");
        assert_eq!(exit_code(&[], false), 0);
        assert_eq!(exit_code(std::slice::from_ref(&warn), false), 0);
        assert_eq!(exit_code(std::slice::from_ref(&warn), true), 1);
        assert_eq!(exit_code(&[warn, err], false), 1);
    }

    #[test]
    fn registry_ids_are_unique_and_cover_both_tools() {
        let registry = code_registry();
        let mut seen = std::collections::BTreeSet::new();
        for info in &registry {
            assert!(seen.insert(info.id), "duplicate {}", info.id);
        }
        assert!(registry.iter().any(|i| i.id == "EC001"));
        assert!(registry.iter().any(|i| i.id == "EC071"));
        assert!(registry.iter().any(|i| i.id == "EW004"));
    }

    #[test]
    fn non_finite_confidence_clamps() {
        let f = Finding::new("EW002", Severity::Warning, f64::NAN, "l", "m");
        assert_eq!(f.confidence(), 1.0);
        let f = Finding::new("EW002", Severity::Warning, 7.0, "l", "m");
        assert_eq!(f.confidence(), 1.0);
    }
}
