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

use crate::detect::{StatsBuilder, TrainingStats};
use crate::rules::{Rule, RuleSet};
use crate::types::TypeMap;
use encore_assemble::augment::static_suffix;
use encore_model::{AttrName, Augmentation, ModelError, SemType};
use std::borrow::Cow;
use std::fmt::Write as _;

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

/// Append `s` to `out`, escaped for a tab-separated snapshot field.
fn push_escaped(out: &mut String, s: &str) {
    if !s.contains(['\\', '\t', '\n', '\r']) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
}

/// Append the inverse of [`push_escaped`] of the field `s` to `out`.
fn unescape_into(out: &mut String, s: &str) -> Result<(), String> {
    if !s.contains('\\') {
        out.push_str(s);
        return Ok(());
    }
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
    Ok(())
}

/// [`AttrName::parse_tagged`] of a `[values]` run's tag.  An `E:` name
/// shares the base of `prev`, the previous run's attribute, when it names
/// the same base, and a Table 5a suffix is the `'static` literal
/// augmentation uses, so a load allocates per attribute base.  The
/// renderer writes a base's attributes together.
fn parse_run_attr(tag: &str, prev: Option<&AttrName>) -> Result<AttrName, ModelError> {
    let Some((base, suffix)) = tag
        .strip_prefix("E:")
        .and_then(|rest| rest.rsplit_once(':'))
    else {
        return AttrName::parse_tagged(tag);
    };
    if suffix.is_empty() {
        return AttrName::parse_tagged(tag);
    }
    let suffix: Cow<'static, str> = match static_suffix(suffix) {
        Some(literal) => literal.into(),
        None => suffix.to_string().into(),
    };
    match prev {
        // An `O:` or `E:` base has passed `AttrName::try_entry`'s checks.
        Some(prev) if prev.base() == base && prev.augmentation() != Augmentation::SystemWide => {
            Ok(prev.augmented(suffix))
        }
        _ => Ok(AttrName::try_entry(base)?.augmented(suffix)),
    }
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
    /// [`DetectorSnapshot::parse`]), every line written into one `String`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = write!(
            out,
            "{MAGIC} v{FORMAT_VERSION}\n[meta]\nsystems={}\n",
            self.stats.systems()
        );
        out.push_str("[rules]\n");
        for rule in &self.rules {
            rule.write_tagged(&mut out);
            out.push('\n');
        }
        // Attributes in the tagged encoding, so dotted entry names survive.
        out.push_str("[types]\n");
        for (attr, ty) in self.types.iter() {
            attr.write_tagged(&mut out);
            out.push('\t');
            out.push_str(ty.name());
            out.push('\n');
        }
        out.push_str("[entries]\n");
        for entry in self.stats.known_entries() {
            push_escaped(&mut out, entry);
            out.push('\n');
        }
        out.push_str("[values]\n");
        let mut tag = String::new();
        for (attr, hist) in self.stats.histograms() {
            tag.clear();
            attr.write_tagged(&mut tag);
            for (value, count) in hist.iter() {
                out.push_str(&tag);
                let _ = write!(out, "\t{count}\t");
                push_escaped(&mut out, value);
                out.push('\n');
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
    /// `[types]`, `[entries]` and `[values]` lines may come in any order:
    /// an attribute's repeated type or value count keeps its last
    /// occurrence, and rules keep their order.  A rendered snapshot, whose
    /// sections are sorted, is read in one pass with no sort.
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

        let mut section: Option<&str> = None;
        let mut systems: Option<usize> = None;
        let mut rules = RuleSet::new();
        let mut types: Vec<(AttrName, SemType)> = Vec::new();
        let mut stats = StatsBuilder::default();
        // The tag of the current `[values]` run of lines.
        let mut run_tag: Option<&str> = None;

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
                    "meta" | "rules" | "types" | "entries" | "values" => section = Some(name),
                    other => return Err(at(format!("unknown section `[{other}]`"))),
                }
                continue;
            }
            match section {
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
                    types.push((attr, ty));
                }
                Some("entries") => stats
                    .entry_with(|buf| unescape_into(buf, line))
                    .map_err(at)?,
                Some("values") => {
                    let mut fields = line.splitn(3, '\t');
                    let tag = fields
                        .next()
                        .ok_or_else(|| at("missing attribute field".to_string()))?;
                    let count = fields
                        .next()
                        .ok_or_else(|| at("missing count field".to_string()))?;
                    let value = fields
                        .next()
                        .ok_or_else(|| at("missing value field".to_string()))?;
                    let attr = match run_tag {
                        Some(run) if run == tag => None,
                        _ => Some(
                            parse_run_attr(tag, stats.last_attr())
                                .map_err(|e| at(e.to_string()))?,
                        ),
                    };
                    let count: usize = count
                        .parse()
                        .map_err(|e| at(format!("bad value count: {e}")))?;
                    if let Some(attr) = attr {
                        stats.run(attr);
                        run_tag = Some(tag);
                    }
                    stats
                        .value_with(count, |buf| unescape_into(buf, value))
                        .map_err(at)?;
                }
                Some(_) => unreachable!("section names are validated above"),
            }
        }

        let systems = systems.ok_or("missing `systems=` in [meta]")?;
        Ok(DetectorSnapshot {
            rules,
            types: types.into_iter().collect(),
            stats: stats.finish(systems),
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

    fn escape(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    fn unescape(s: &str) -> Result<String, String> {
        let mut out = String::new();
        unescape_into(&mut out, s)?;
        Ok(out)
    }

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
        let datadir = AttrName::entry("datadir");
        let owner = datadir.augmented("owner");
        let values = [
            (&datadir, "/var/lib/mysql", 37),
            (&datadir, "/var/lib\twith\ttabs", 1),
            (&datadir, "multi\nline", 2),
            (&owner, "mysql", 40),
        ];
        let entries = ["datadir", "session.use_cookies"];
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
