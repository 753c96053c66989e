//! Persistable detector snapshots: train once, detect many.
//!
//! The paper separates learning from checking so "the learned rules can be
//! reused to check different systems" (§3).  A [`DetectorSnapshot`] extends
//! that separation to the whole detector: it bundles the learned
//! [`RuleSet`], the merged [`TypeMap`], and the [`TrainingStats`] (known
//! entries, per-attribute value histograms, corpus size) in one versioned
//! text artifact, so an [`crate::AnomalyDetector`] can be reconstructed on
//! a fleet-serving host that never sees the training corpus.
//!
//! The format follows the same line-oriented philosophy as
//! [`RuleSet::render`]: human-inspectable, one fact per line, `#` comments
//! and blank lines ignored.  Attribute names use the unambiguous tagged
//! encoding ([`AttrName::render_tagged`]) and values are backslash-escaped,
//! so `render` → `parse` is lossless — a reloaded detector produces
//! byte-identical reports.
//!
//! ```text
//! encore-detector-snapshot v1
//! [meta]
//! systems=40
//! [rules]
//! O:datadir\tOwns\tO:user\t38\t0.97
//! [types]
//! O:datadir\tFilePath
//! [entries]
//! datadir
//! [values]
//! O:datadir\t3\t/var/lib/mysql
//! ```

use crate::detect::TrainingStats;
use crate::rules::{Rule, RuleSet};
use crate::types::TypeMap;
use encore_model::{AttrName, SemType};
use std::collections::{BTreeMap, BTreeSet};

/// The bundled learned state of an anomaly detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSnapshot {
    rules: RuleSet,
    types: TypeMap,
    stats: TrainingStats,
}

/// The snapshot format version this build renders and accepts.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &str = "encore-detector-snapshot";

/// Escape a free-form string for a tab-separated snapshot field.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape `\\{other}`")),
            None => return Err("dangling `\\` at end of field".to_string()),
        }
    }
    Ok(out)
}

impl DetectorSnapshot {
    /// Bundle the three learned artifacts.
    pub fn new(rules: RuleSet, types: TypeMap, stats: TrainingStats) -> DetectorSnapshot {
        DetectorSnapshot {
            rules,
            types,
            stats,
        }
    }

    /// The learned rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The merged type map.
    pub fn types(&self) -> &TypeMap {
        &self.types
    }

    /// The training statistics.
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// Decompose into `(rules, types, stats)` for detector construction.
    pub fn into_parts(self) -> (RuleSet, TypeMap, TrainingStats) {
        (self.rules, self.types, self.stats)
    }

    /// Render the versioned text artifact (the inverse of
    /// [`DetectorSnapshot::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{MAGIC} v{FORMAT_VERSION}\n"));
        out.push_str("[meta]\n");
        out.push_str(&format!("systems={}\n", self.stats.systems()));
        out.push_str("[rules]\n");
        for rule in &self.rules {
            out.push_str(&rule.render_tagged());
            out.push('\n');
        }
        out.push_str("[types]\n");
        out.push_str(&self.types.render());
        out.push_str("[entries]\n");
        for entry in self.stats.known_entries() {
            out.push_str(&escape(entry));
            out.push('\n');
        }
        out.push_str("[values]\n");
        for (attr, hist) in self.stats.values() {
            let tag = attr.render_tagged();
            for (value, count) in hist {
                out.push_str(&format!("{tag}\t{count}\t{}\n", escape(value)));
            }
        }
        out
    }

    /// Read just the format version from a snapshot header, without parsing
    /// the body.
    ///
    /// Tools that want to *report* an unsupported version (the linter's
    /// `EC070`) rather than fail opaquely can peek first: a version newer
    /// than [`FORMAT_VERSION`] is a diagnosable fact about the artifact, not
    /// a parse error.
    ///
    /// # Errors
    ///
    /// Returns a description of a missing or malformed `encore-detector-snapshot vN`
    /// header.
    pub fn peek_version(text: &str) -> Result<u32, String> {
        read_header(&mut text.lines().enumerate())
    }

    /// Parse a rendered snapshot.
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number and a description of the first
    /// malformed line, or a description of a missing/unsupported header.
    pub fn parse(text: &str) -> Result<DetectorSnapshot, String> {
        let mut lines = text.lines().enumerate();
        let version = read_header(&mut lines)?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported snapshot version {version} (this build reads v{FORMAT_VERSION})"
            ));
        }

        let mut section: Option<String> = None;
        let mut systems: Option<usize> = None;
        let mut rules = RuleSet::new();
        let mut types = TypeMap::new();
        let mut entries: BTreeSet<String> = BTreeSet::new();
        let mut values: BTreeMap<AttrName, BTreeMap<String, usize>> = BTreeMap::new();

        for (i, raw) in lines {
            let at = |e: String| format!("line {}: {e}", i + 1);
            let line = raw.trim_end_matches(['\r']);
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            if let Some(name) = line.trim().strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| at("unclosed section header".to_string()))?;
                match name {
                    "meta" | "rules" | "types" | "entries" | "values" => {
                        section = Some(name.to_string());
                    }
                    other => return Err(at(format!("unknown section `[{other}]`"))),
                }
                continue;
            }
            match section.as_deref() {
                None => return Err(at("content before the first section header".to_string())),
                Some("meta") => {
                    let (key, value) = line
                        .split_once('=')
                        .ok_or_else(|| at("expected `key=value`".to_string()))?;
                    // Unknown meta keys are ignored for forward
                    // compatibility within the same format version.
                    if key.trim() == "systems" {
                        systems = Some(
                            value
                                .trim()
                                .parse()
                                .map_err(|e| at(format!("bad systems count: {e}")))?,
                        );
                    }
                }
                Some("rules") => rules.push(Rule::parse_tagged(line).map_err(at)?),
                Some("types") => {
                    let (attr, ty) = line
                        .split_once('\t')
                        .ok_or_else(|| at("expected `attr\\ttype`".to_string()))?;
                    let attr = AttrName::parse_tagged(attr).map_err(|e| at(e.to_string()))?;
                    let ty = SemType::parse_name(ty.trim())
                        .ok_or_else(|| at(format!("unknown type `{ty}`")))?;
                    types.set(attr, ty);
                }
                Some("entries") => {
                    entries.insert(unescape(line).map_err(at)?);
                }
                Some("values") => {
                    let mut fields = line.splitn(3, '\t');
                    let attr = fields
                        .next()
                        .ok_or_else(|| at("missing attribute field".to_string()))?;
                    let count = fields
                        .next()
                        .ok_or_else(|| at("missing count field".to_string()))?;
                    let value = fields
                        .next()
                        .ok_or_else(|| at("missing value field".to_string()))?;
                    let attr = AttrName::parse_tagged(attr).map_err(|e| at(e.to_string()))?;
                    let count: usize = count
                        .parse()
                        .map_err(|e| at(format!("bad value count: {e}")))?;
                    values
                        .entry(attr)
                        .or_default()
                        .insert(unescape(value).map_err(at)?, count);
                }
                Some(_) => unreachable!("section names are validated above"),
            }
        }

        let systems = systems.ok_or("missing `systems=` in [meta]")?;
        Ok(DetectorSnapshot {
            rules,
            types,
            stats: TrainingStats::from_parts(systems, entries, values),
        })
    }
}

/// Read the `encore-detector-snapshot vN` header, the first line that is
/// neither blank nor a `#` comment, and return `N`; `lines` is left just
/// past the header.
fn read_header<'a>(lines: &mut impl Iterator<Item = (usize, &'a str)>) -> Result<u32, String> {
    for (i, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rest = line
            .strip_prefix(MAGIC)
            .ok_or_else(|| format!("line {}: expected `{MAGIC} vN` header", i + 1))?;
        return rest
            .trim()
            .strip_prefix('v')
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| format!("line {}: malformed version `{rest}`", i + 1));
    }
    Err(format!("missing `{MAGIC} vN` header"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Relation;

    fn sample() -> DetectorSnapshot {
        let mut rules = RuleSet::new();
        rules.push(Rule::new(
            AttrName::entry("datadir"),
            Relation::Owns,
            AttrName::entry("user"),
            38,
            0.971_428_571_428_571_4,
        ));
        rules.push(Rule::new(
            // A dotted original entry: the display form is ambiguous, the
            // tagged snapshot encoding is not.
            AttrName::entry("session.use_cookies"),
            Relation::Equal,
            AttrName::entry("session.use_only_cookies"),
            21,
            0.9,
        ));
        let mut types = TypeMap::new();
        types.set(AttrName::entry("datadir"), SemType::FilePath);
        types.set(AttrName::entry("session.use_cookies"), SemType::Boolean);
        let mut entries = BTreeSet::new();
        entries.insert("datadir".to_string());
        entries.insert("session.use_cookies".to_string());
        let mut values = BTreeMap::new();
        let mut hist = BTreeMap::new();
        hist.insert("/var/lib/mysql".to_string(), 37usize);
        hist.insert("/var/lib\twith\ttabs".to_string(), 1usize);
        hist.insert("multi\nline".to_string(), 2usize);
        values.insert(AttrName::entry("datadir"), hist);
        let mut owner_hist = BTreeMap::new();
        owner_hist.insert("mysql".to_string(), 40usize);
        values.insert(AttrName::entry("datadir").augmented("owner"), owner_hist);
        DetectorSnapshot::new(rules, types, TrainingStats::from_parts(40, entries, values))
    }

    #[test]
    fn render_parse_round_trips_exactly() {
        let snapshot = sample();
        let text = snapshot.render();
        let back = DetectorSnapshot::parse(&text).expect("parses");
        assert_eq!(back, snapshot);
        // Idempotent: parse→render reproduces the bytes.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parse_tolerates_comments_and_blank_lines() {
        let text = sample().render();
        let commented = format!("# a detector\n\n{}\n# trailing\n", text);
        assert_eq!(DetectorSnapshot::parse(&commented).unwrap(), sample());
    }

    #[test]
    fn parse_rejects_bad_headers_and_sections() {
        assert!(DetectorSnapshot::parse("").is_err());
        assert!(DetectorSnapshot::parse("not-a-snapshot v1\n").is_err());
        assert!(
            DetectorSnapshot::parse("encore-detector-snapshot v999\n[meta]\nsystems=1\n")
                .unwrap_err()
                .contains("unsupported")
        );
        assert!(DetectorSnapshot::parse("encore-detector-snapshot v1\n[nonsense]\n").is_err());
        assert!(DetectorSnapshot::parse("encore-detector-snapshot v1\nstray line\n").is_err());
        // systems= is mandatory.
        assert!(DetectorSnapshot::parse("encore-detector-snapshot v1\n[meta]\n").is_err());
    }

    #[test]
    fn types_section_round_trips_dotted_entries_and_rejects_bad_lines() {
        let snapshot = sample();
        let back = DetectorSnapshot::parse(&snapshot.render()).expect("parses");
        assert_eq!(back.types(), snapshot.types());
        assert_eq!(
            back.types()
                .type_of(&AttrName::entry("session.use_cookies")),
            SemType::Boolean
        );
        let with_types = |line: &str| format!("{MAGIC} v1\n[meta]\nsystems=1\n[types]\n{line}\n");
        assert!(DetectorSnapshot::parse(&with_types("O:user\tUserName")).is_ok());
        let err = DetectorSnapshot::parse(&with_types("no-tab-here")).unwrap_err();
        assert!(err.starts_with("line 5: expected `attr\\ttype`"), "{err}");
        let err = DetectorSnapshot::parse(&with_types("O:x\tNotAType")).unwrap_err();
        assert!(err.starts_with("line 5: unknown type"), "{err}");
    }

    #[test]
    fn peek_version_reads_the_header_only() {
        assert_eq!(DetectorSnapshot::peek_version(&sample().render()), Ok(1));
        assert_eq!(
            DetectorSnapshot::peek_version("# comment\n\nencore-detector-snapshot v999\n[meta]\n"),
            Ok(999)
        );
        assert!(DetectorSnapshot::peek_version("").is_err());
        assert!(DetectorSnapshot::peek_version("not-a-snapshot v1\n").is_err());
        assert!(DetectorSnapshot::peek_version("encore-detector-snapshot vX\n").is_err());
    }

    #[test]
    fn escape_round_trips_control_and_backslash() {
        for s in ["plain", "a\tb", "a\nb", "back\\slash", "\\t literal", ""] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
        assert!(unescape("bad\\x").is_err());
        assert!(unescape("dangling\\").is_err());
    }
}
