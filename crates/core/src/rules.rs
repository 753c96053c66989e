//! Concrete rules and rule sets.
//!
//! A [`Rule`] is a template instance with the slots bound to concrete
//! attributes, plus the statistics gathered during inference.  Rules render
//! to a line format so that, as in the paper, "the inferred rules are
//! written to a file with detailed description of the attributes involved
//! and the relation type" (§5).  That form is for people; rules are read
//! back only from the tagged form of detector snapshots
//! ([`Rule::parse_tagged`]).

use crate::relation::{evaluate, Applicability, SystemView};
use crate::template::Relation;
use encore_model::AttrName;
use std::fmt;

/// One concrete correlation rule.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Rule {
    /// First bound attribute (the template's `A` slot).
    pub a: AttrName,
    /// Second bound attribute (the template's `B` slot).
    pub b: AttrName,
    /// The relation.
    pub relation: Relation,
    /// Number of training systems where the rule was applicable.
    pub support: usize,
    /// Fraction of applicable systems where the relation held.
    pub confidence: f64,
}

impl Rule {
    /// Construct a rule with its statistics.
    pub fn new(
        a: AttrName,
        relation: Relation,
        b: AttrName,
        support: usize,
        confidence: f64,
    ) -> Rule {
        Rule {
            a,
            b,
            relation,
            support,
            confidence,
        }
    }

    /// Evaluate the rule on one target system.
    pub fn evaluate(&self, view: SystemView<'_>) -> Applicability {
        evaluate(self.relation, &self.a, &self.b, view)
    }

    /// One-line render for people: `datadir => user [Owns] sup=187
    /// conf=0.99`, with the confidence in its shortest exact form (`{:?}`).
    ///
    /// Nothing parses this form back: display names cannot tell a dotted
    /// original entry from an augmented property (see
    /// [`Rule::render_tagged`]).
    pub fn render(&self) -> String {
        format!(
            "{} {} {} [{}] sup={} conf={:?}",
            self.a,
            self.relation.symbol(),
            self.b,
            self.relation,
            self.support,
            self.confidence
        )
    }

    /// Render the unambiguous tab-separated form used by detector
    /// snapshots: `<a-tagged>\t<Relation>\t<b-tagged>\t<sup>\t<conf>`.
    ///
    /// The readable [`Rule::render`] form prints attributes with their
    /// display names, which cannot distinguish an original dotted entry
    /// (php's `session.use_cookies`) from an augmented property; the tagged
    /// form can, so snapshots reload every rule exactly.
    pub fn render_tagged(&self) -> String {
        let mut out = String::new();
        self.write_tagged(&mut out);
        out
    }

    /// Append the [`Rule::render_tagged`] form to `out`.
    pub fn write_tagged(&self, out: &mut String) {
        use std::fmt::Write as _;
        self.a.write_tagged(out);
        out.push('\t');
        out.push_str(self.relation.name());
        out.push('\t');
        self.b.write_tagged(out);
        // Writing into a `String` cannot fail.
        let _ = write!(out, "\t{}\t{:?}", self.support, self.confidence);
    }

    /// Parse the tagged form produced by [`Rule::render_tagged`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem with the line.
    pub fn parse_tagged(line: &str) -> Result<Rule, String> {
        let mut fields = line.split('\t');
        let mut next = |what: &str| fields.next().ok_or_else(|| format!("missing {what} field"));
        let a = AttrName::parse_tagged(next("attribute A")?).map_err(|e| e.to_string())?;
        let relation_name = next("relation")?;
        let relation = Relation::parse_name(relation_name)
            .ok_or_else(|| format!("unknown relation `{relation_name}`"))?;
        let b = AttrName::parse_tagged(next("attribute B")?).map_err(|e| e.to_string())?;
        let support = next("support")?
            .parse::<usize>()
            .map_err(|e| format!("bad support: {e}"))?;
        let confidence = next("confidence")?
            .parse::<f64>()
            .map_err(|e| format!("bad confidence: {e}"))?;
        if fields.next().is_some() {
            return Err("trailing fields after confidence".to_string());
        }
        Ok(Rule {
            a,
            b,
            relation,
            support,
            confidence,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered collection of learned rules.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// The rules, in learned order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules using a given relation.
    pub fn by_relation(&self, relation: Relation) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.relation == relation)
    }

    /// Render the whole set, one rule per line (the paper's rule file).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }
}

impl FromIterator<Rule> for RuleSet {
    fn from_iter<T: IntoIterator<Item = Rule>>(iter: T) -> Self {
        RuleSet {
            rules: iter.into_iter().collect(),
        }
    }
}

impl Extend<Rule> for RuleSet {
    fn extend<T: IntoIterator<Item = Rule>>(&mut self, iter: T) {
        self.rules.extend(iter);
    }
}

impl<'a> IntoIterator for &'a RuleSet {
    type Item = &'a Rule;
    type IntoIter = std::slice::Iter<'a, Rule>;

    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Rule {
        Rule::new(
            AttrName::entry("datadir"),
            Relation::Owns,
            AttrName::entry("user"),
            187,
            0.99,
        )
    }

    #[test]
    fn render_mentions_everything() {
        let s = rule().render();
        assert!(s.contains("datadir"));
        assert!(s.contains("user"));
        assert!(s.contains("Owns"));
        assert!(s.contains("sup=187"));
    }

    #[test]
    fn tagged_form_round_trips_exactly() {
        let rules = [
            rule(),
            // A dotted original entry: ambiguous in the display form,
            // exact in the tagged form.
            Rule::new(
                AttrName::entry("session.use_cookies"),
                Relation::Equal,
                AttrName::entry("session.use_only_cookies"),
                21,
                0.912_345_678_9,
            ),
            Rule::new(
                AttrName::entry("datadir").augmented("owner"),
                Relation::Equal,
                AttrName::entry("user"),
                10,
                1.0,
            ),
            // Confidence values with no short decimal form must survive
            // exactly: 0.8999 vs 0.900 flips a 0.90 threshold.
            Rule::new(
                AttrName::entry("max_connections"),
                Relation::LessNum,
                AttrName::system("MemSize"),
                187,
                0.899_900_000_000_1,
            ),
        ];
        for r in &rules {
            let back = Rule::parse_tagged(&r.render_tagged())
                .unwrap_or_else(|e| panic!("{e}: {}", r.render_tagged()));
            assert_eq!(&back, r, "{}", r.render_tagged());
        }
        assert!(Rule::parse_tagged("O:a\tOwns\tO:b\t1").is_err());
        assert!(Rule::parse_tagged("O:a\tOwns\tO:b\tx\t1.0").is_err());
        assert!(Rule::parse_tagged("O:a\tNotARel\tO:b\t1\t1.0").is_err());
        assert!(Rule::parse_tagged("O:a\tOwns\tO:b\t1\t1.0\textra").is_err());
    }

    #[test]
    fn ruleset_collects_and_filters() {
        let set: RuleSet = vec![
            rule(),
            Rule::new(
                AttrName::entry("a"),
                Relation::LessSize,
                AttrName::entry("b"),
                10,
                1.0,
            ),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.by_relation(Relation::Owns).count(), 1);
        assert_eq!(set.render().lines().count(), 2);
    }
}
