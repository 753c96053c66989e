//! The customization interface (§5.3, Figure 6).
//!
//! EnCore is customized with a sectioned customization file.  Each section
//! name is prefixed with `$$`:
//!
//! ```text
//! $$TypeDeclaration
//! VersionString : String
//! $$TypeInference
//! VersionString : dotted-digits
//! $$Template
//! [A:Size] < [B:Size] -- 90%
//! [A:FilePath] => [B:UserName]
//! ```
//!
//! The paper embeds Python snippets in the file; a Rust library cannot
//! execute arbitrary code from text, so the file format supports a small
//! matcher vocabulary for type inference (`prefix:`, `suffix:`,
//! `contains:`, `dotted-digits`, `charset:<chars>`), while arbitrary
//! matchers and semantic verifiers are available programmatically through
//! [`CustomType`] closures.  Every declared type needs a `$$TypeInference`
//! line and every such line a declared type, so a misspelled name is an
//! error rather than a type the assembler silently never learns.
//! Templates combine the predefined relations only: [`Relation`] is a
//! closed set that learning and detection both evaluate.
//!
//! [`Relation`]: crate::template::Relation

use crate::template::Template;
use encore_assemble::CustomType;
use encore_model::SemType;
use std::fmt;
use std::sync::Arc;

/// Shared matcher closure over one rendered value.
type ValueMatcher = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// Parsed contents of a customization file.
#[derive(Debug, Default)]
pub struct Customization {
    /// Custom types (declaration + matcher sections).
    pub types: Vec<CustomType>,
    /// Extra templates to instantiate.
    pub templates: Vec<Template>,
}

/// Errors from customization-file parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomizeError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for CustomizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "customization line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CustomizeError {}

/// Build a matcher closure from the matcher vocabulary.
fn build_matcher(spec: &str) -> Option<ValueMatcher> {
    let spec = spec.trim().to_string();
    if let Some(p) = spec.strip_prefix("prefix:") {
        let p = p.trim().to_string();
        return Some(Arc::new(move |v: &str| v.starts_with(&p)));
    }
    if let Some(s) = spec.strip_prefix("suffix:") {
        let s = s.trim().to_string();
        return Some(Arc::new(move |v: &str| v.ends_with(&s)));
    }
    if let Some(c) = spec.strip_prefix("contains:") {
        let c = c.trim().to_string();
        return Some(Arc::new(move |v: &str| v.contains(&c)));
    }
    if let Some(cs) = spec.strip_prefix("charset:") {
        let cs = cs.trim().to_string();
        return Some(Arc::new(move |v: &str| {
            !v.is_empty() && v.chars().all(|ch| cs.contains(ch))
        }));
    }
    if spec == "dotted-digits" {
        return Some(Arc::new(|v: &str| {
            !v.is_empty()
                && v.split('.').count() >= 2
                && v.split('.')
                    .all(|seg| !seg.is_empty() && seg.chars().all(|c| c.is_ascii_digit()))
        }));
    }
    None
}

/// Parse a customization file.
///
/// # Errors
///
/// Reports the first malformed line, or the line of a type that only one
/// of `$$TypeDeclaration` and `$$TypeInference` names.
pub fn parse(text: &str) -> Result<Customization, CustomizeError> {
    #[derive(PartialEq, Clone, Copy)]
    enum Section {
        None,
        TypeDeclaration,
        TypeInference,
        Template,
    }
    let mut section = Section::None;
    let mut out = Customization::default();
    // (name, base type or matcher, line number), in file order.
    let mut declared: Vec<(String, SemType, usize)> = Vec::new();
    let mut matchers: Vec<(String, ValueMatcher, usize)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("$$") {
            section = match name.trim() {
                "TypeDeclaration" => Section::TypeDeclaration,
                "TypeInference" => Section::TypeInference,
                "Template" => Section::Template,
                // Sections we accept but do not interpret textually (the
                // paper embeds code here; use the programmatic API instead).
                "TypeValidation" | "TypeAugmentDeclaration" | "TypeAugment" | "TypeOperator" => {
                    Section::None
                }
                other => {
                    return Err(CustomizeError {
                        line: lineno,
                        message: format!("unknown section `{other}`"),
                    })
                }
            };
            continue;
        }
        match section {
            Section::TypeDeclaration => {
                let (name, ty) = line.split_once(':').ok_or_else(|| CustomizeError {
                    line: lineno,
                    message: "expected `Name : BaseType`".to_string(),
                })?;
                let ty = SemType::parse_name(ty).ok_or_else(|| CustomizeError {
                    line: lineno,
                    message: format!("unknown base type `{}`", ty.trim()),
                })?;
                declared.push((name.trim().to_string(), ty, lineno));
            }
            Section::TypeInference => {
                let (name, spec) = line.split_once(':').ok_or_else(|| CustomizeError {
                    line: lineno,
                    message: "expected `Name : matcher-spec`".to_string(),
                })?;
                let matcher = build_matcher(spec).ok_or_else(|| CustomizeError {
                    line: lineno,
                    message: format!("unknown matcher `{}`", spec.trim()),
                })?;
                matchers.push((name.trim().to_string(), matcher, lineno));
            }
            Section::Template => {
                let t = Template::parse(line).map_err(|e| CustomizeError {
                    line: lineno,
                    message: e,
                })?;
                out.templates.push(t);
            }
            Section::None => {
                // Unparsed (code-bearing) section body: ignored.
            }
        }
    }

    // A matcher for an undeclared name, or a declaration no matcher names,
    // is a misspelling, not a type to drop without a word.
    if let Some((name, _, line)) = matchers
        .iter()
        .find(|(name, _, _)| !declared.iter().any(|(n, _, _)| n == name))
    {
        return Err(CustomizeError {
            line: *line,
            message: format!("type `{name}` is not declared in $$TypeDeclaration"),
        });
    }
    // Join declarations with matchers, preserving declaration order
    // (priority order, §5.3.1).
    for (name, maps_to, line) in declared {
        let Some((_, matcher, _)) = matchers.iter().find(|(n, _, _)| *n == name) else {
            return Err(CustomizeError {
                line,
                message: format!("type `{name}` has no $$TypeInference line"),
            });
        };
        let matcher = Arc::clone(matcher);
        out.types
            .push(CustomType::new(name, maps_to, move |v| matcher(v)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_sysimage::SystemImage;

    const SAMPLE: &str = "\
# sample customization
$$TypeDeclaration
Version : String
SharedObject : PartialFilePath
$$TypeInference
Version : dotted-digits
SharedObject : suffix:.so
$$Template
[A:Size] < [B:Size] -- 90%
[A:FilePath] => [B:UserName]
";

    #[test]
    fn parses_types_and_templates() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.types.len(), 2);
        assert_eq!(c.templates.len(), 2);
        assert_eq!(c.templates[0].min_confidence, Some(0.9));
    }

    #[test]
    fn custom_types_usable_in_assembler() {
        let c = parse(SAMPLE).unwrap();
        let mut assembler = encore_assemble::Assembler::new();
        for t in c.types {
            assembler = assembler.with_custom_type(t);
        }
        let img = SystemImage::builder("t").build();
        let (_, name) = assembler.inference().infer_named("5.1.73", &img);
        assert_eq!(name, Some("Version"));
    }

    #[test]
    fn matcher_vocabulary() {
        assert!(build_matcher("prefix:/usr").unwrap()("/usr/lib"));
        assert!(!build_matcher("prefix:/usr").unwrap()("/var"));
        assert!(build_matcher("suffix:.so").unwrap()("mod_mime.so"));
        assert!(build_matcher("contains:@").unwrap()("a@b"));
        assert!(build_matcher("charset:0123456789.").unwrap()("1.2.3"));
        assert!(!build_matcher("charset:0123456789.").unwrap()("1.2a"));
        assert!(build_matcher("dotted-digits").unwrap()("10.5"));
        assert!(!build_matcher("dotted-digits").unwrap()("105"));
        assert!(build_matcher("regex:x").is_none());
    }

    #[test]
    fn bad_sections_and_lines_error_with_lineno() {
        let err = parse("$$Bogus\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("$$TypeDeclaration\nNoColonHere\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("$$Template\n[A:What] == [B:Str]\n").unwrap_err();
        assert_eq!(err.line, 2);
        // A misspelled type name on either side names its own line.
        let err = parse(
            "$$TypeDeclaration\nSharedObject : PartialFilePath\n\
             $$TypeInference\nSharedObj : suffix:.so\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.message.contains("`SharedObj`"), "{err}");
        let err = parse(
            "$$TypeDeclaration\nVersion : String\nSharedObject : PartialFilePath\n\
             $$TypeInference\nVersion : dotted-digits\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.message.contains("`SharedObject`"), "{err}");
    }

    #[test]
    fn code_bearing_sections_are_tolerated() {
        let text =
            "$$TypeValidation\n(value): { return True }\n$$Template\n[A:Number] < [B:Number]\n";
        let c = parse(text).unwrap();
        assert_eq!(c.templates.len(), 1);
    }
}
