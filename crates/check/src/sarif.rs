//! SARIF v2.1.0 emission — findings where code-review UIs expect them.
//!
//! One [`render`] call produces a complete, parseable SARIF v2.1.0 log
//! with
//!
//! * `runs[].tool.driver.rules[]` — the shared stable-code registry
//!   ([`crate::finding::code_registry`]), each rule carrying its summary
//!   and default level,
//! * `runs[].results[]` — one result per [`Finding`], `level` mapped from
//!   [`Severity`] (`error`/`warning`/`note`), the canonical location as a
//!   logical location, the confidence under `properties`, and the stable
//!   content fingerprint under `partialFingerprints` (key
//!   `encoreFinding/v1`), which is what lets a SARIF consumer track a
//!   finding across runs exactly like the baseline layer does.
//!
//! Output is deterministic: rules in registry order, results in the order
//! given (which both binaries keep deterministic), every number rendered
//! via the lossless `{:?}` form.  That float form is why the log is a text
//! template rather than an `encore::obs::json::Json` value, whose numbers
//! are `u64`; its strings still go through the shared
//! [`encore::obs::json::quote`] escaper.

use crate::diag::Severity;
use crate::finding::{code_registry, Finding};
use encore::obs::json::quote;

/// The SARIF `level` for a severity.
pub fn level(severity: Severity) -> &'static str {
    match severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    }
}

/// Render a complete SARIF v2.1.0 log for one run of the binary named
/// `tool` over `findings`; the driver version is the workspace version.
pub fn render(tool: &str, findings: &[Finding]) -> String {
    let registry = code_registry();
    let rule_index = |id: &str| registry.iter().position(|info| info.id == id);

    let mut out = String::with_capacity(4096 + findings.len() * 256);
    out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    out.push_str("\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{");
    out.push_str(&format!(
        "\"name\":{},\"version\":{},\"informationUri\":\"https://example.invalid/encore\",",
        quote(tool),
        quote(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("\"rules\":[");
    for (i, info) in registry.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
             \"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
            quote(info.id),
            quote(info.summary),
            level(info.level)
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, finding) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"ruleId\":{}", quote(finding.code())));
        if let Some(index) = rule_index(finding.code()) {
            out.push_str(&format!(",\"ruleIndex\":{index}"));
        }
        out.push_str(&format!(
            ",\"level\":\"{}\",\"message\":{{\"text\":{}}}",
            level(finding.severity()),
            quote(finding.message())
        ));
        if !finding.location().is_empty() {
            out.push_str(&format!(
                ",\"locations\":[{{\"logicalLocations\":[{{\"fullyQualifiedName\":{}}}]}}]",
                quote(finding.location())
            ));
        }
        out.push_str(&format!(
            ",\"partialFingerprints\":{{\"encoreFinding/v1\":\"{}\"}},\
             \"properties\":{{\"confidence\":{:?}}}}}",
            finding.fingerprint(),
            finding.confidence()
        ));
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_run_is_still_a_complete_log() {
        let log = render("encore-lint", &[]);
        assert!(log.contains("\"version\":\"2.1.0\""));
        assert!(log.contains("\"name\":\"encore-lint\""));
        assert!(log.contains("\"rules\":["));
        assert!(log.contains("\"id\":\"EC001\""));
        assert!(log.contains("\"id\":\"EW004\""));
        assert!(log.ends_with("\"results\":[]}]}"));
    }

    #[test]
    fn results_carry_level_location_and_fingerprint() {
        let findings = vec![
            Finding::new("EC040", Severity::Error, 1.0, "a == b", "orphan \"x\""),
            Finding::new("EW004", Severity::Info, 0.45, "system/img-1:O:port", "odd"),
        ];
        let log = render("encore-lint", &findings);
        assert!(log.contains("\"ruleId\":\"EC040\""));
        assert!(log.contains("\"level\":\"error\""));
        assert!(log.contains("\"level\":\"note\""));
        assert!(log.contains("orphan \\\"x\\\""));
        assert!(log.contains("\"fullyQualifiedName\":\"system/img-1:O:port\""));
        assert!(log.contains(&format!(
            "\"encoreFinding/v1\":\"{}\"",
            findings[0].fingerprint()
        )));
        assert!(log.contains("\"confidence\":0.45"));
        // ruleIndex points into the registry.
        assert!(log.contains("\"ruleIndex\":"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let findings = vec![Finding::new(
            "EC032",
            Severity::Warning,
            1.0,
            "a == b",
            "dup",
        )];
        assert_eq!(
            render("encore-lint", &findings),
            render("encore-lint", &findings)
        );
    }
}
