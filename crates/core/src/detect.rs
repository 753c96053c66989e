//! The anomaly detector (§6).
//!
//! Given the learned rules, the merged type map, and value statistics from
//! the training set, the detector checks a target system along four axes
//! and emits a ranked warning list:
//!
//! 1. **Entry-name violations** — entries never seen in training (likely
//!    misspellings),
//! 2. **Correlation violations** — learned rules that evaluate false on the
//!    target (rules whose entries are absent are skipped),
//! 3. **Data-type violations** — the target value fails the syntactic match
//!    or semantic verification of the entry's trained type,
//! 4. **Suspicious values** — values never seen in training, ranked by the
//!    Inverse Change Frequency heuristic (citation 42): entries with *less* diverse
//!    training values rank higher.

use crate::pool::{self, PoolError};
use crate::relation::{Applicability, SystemView};
use crate::rules::{Rule, RuleSet};
use crate::snapshot::DetectorSnapshot;
use crate::train::TrainingSet;
use crate::types::TypeMap;
use encore_assemble::{augment, AssembleError, Assembler, CellSink, EnvValue, Pairs};
use encore_model::{AppKind, AttrName, ConfigValue, Row, SemType};
use encore_sysimage::SystemImage;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Kind of a detected anomaly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WarningKind {
    /// Entry name never seen in the training set.
    UnknownEntry,
    /// A learned correlation rule is violated.
    CorrelationViolation,
    /// The value fails its trained type's match/verification.
    TypeViolation,
    /// The value was never seen in training.
    SuspiciousValue,
}

impl WarningKind {
    /// Every warning kind, in `EW0xx` code order.
    pub const ALL: [WarningKind; 4] = [
        WarningKind::UnknownEntry,
        WarningKind::CorrelationViolation,
        WarningKind::TypeViolation,
        WarningKind::SuspiciousValue,
    ];

    /// The stable `EW0xx` code for this kind, the detection counterpart of
    /// the linter's `EC0xx` codes: CI matches on these, never on message
    /// text.
    pub fn code(self) -> &'static str {
        match self {
            WarningKind::UnknownEntry => "EW001",
            WarningKind::CorrelationViolation => "EW002",
            WarningKind::TypeViolation => "EW003",
            WarningKind::SuspiciousValue => "EW004",
        }
    }

    /// One-line description of the anomaly class (SARIF rule metadata).
    pub fn summary(self) -> &'static str {
        match self {
            WarningKind::UnknownEntry => "entry name never seen in the training set",
            WarningKind::CorrelationViolation => "a learned correlation rule is violated",
            WarningKind::TypeViolation => "value fails its trained type's match/verification",
            WarningKind::SuspiciousValue => "value never seen in training (ICF-ranked)",
        }
    }
}

impl fmt::Display for WarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WarningKind::UnknownEntry => "unknown entry",
            WarningKind::CorrelationViolation => "correlation violation",
            WarningKind::TypeViolation => "type violation",
            WarningKind::SuspiciousValue => "suspicious value",
        };
        f.write_str(s)
    }
}

/// One ranked warning.
#[derive(Debug, Clone, PartialEq)]
pub struct Warning {
    kind: WarningKind,
    attr: AttrName,
    detail: String,
    score: f64,
    rule: Option<Rule>,
}

impl Warning {
    /// Crate-internal constructor (used by the baselines as well).
    pub(crate) fn internal(
        kind: WarningKind,
        attr: AttrName,
        detail: String,
        score: f64,
    ) -> Warning {
        Warning {
            kind,
            attr,
            detail,
            score,
            rule: None,
        }
    }

    /// The anomaly kind.
    pub fn kind(&self) -> WarningKind {
        self.kind
    }

    /// The offending attribute.
    pub fn attr(&self) -> &AttrName {
        &self.attr
    }

    /// Human-readable explanation.
    pub fn detail(&self) -> &str {
        &self.detail
    }

    /// Ranking score (higher ranks earlier).
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The violated rule, for correlation warnings.
    pub fn rule(&self) -> Option<&Rule> {
        self.rule.as_ref()
    }

    /// A normalized confidence in `[0, 1]` for CI threshold filtering
    /// (`--min-report-confidence`), derived per kind from the same evidence
    /// the ranking [`Warning::score`] uses:
    ///
    /// * correlation violations — the violated rule's learned confidence,
    /// * type violations — `1 / |training values|` (one trained value ⇒
    ///   near-certain, §6's `extension_dir` example),
    /// * unknown entries — a fixed `0.7` (the class-wide prior the ranking
    ///   score encodes),
    /// * suspicious values — `ICF × modal dominance` (the score without its
    ///   `40×` ranking weight).
    ///
    /// Non-finite inputs (a NaN confidence in a hand-edited rule) clamp to
    /// `1.0` so the value is always a finite probability-like number.
    pub fn confidence(&self) -> f64 {
        let raw = match self.kind {
            WarningKind::UnknownEntry => 0.7,
            WarningKind::CorrelationViolation => self
                .rule
                .as_ref()
                .map(|r| r.confidence)
                .unwrap_or((self.score - 100.0) / 10.0),
            WarningKind::TypeViolation => (self.score - 90.0) / 10.0,
            WarningKind::SuspiciousValue => self.score / 40.0,
        };
        if raw.is_finite() {
            raw.clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// Whether this warning points at `entry` (directly or through one of
    /// its augmented attributes or a violated rule's slots).
    pub fn implicates(&self, entry: &str) -> bool {
        let base = crate::relation::strip_occurrence(self.attr.base());
        if base == entry || self.attr.base() == entry {
            return true;
        }
        match &self.rule {
            Some(r) => {
                crate::relation::strip_occurrence(r.a.base()) == entry
                    || crate::relation::strip_occurrence(r.b.base()) == entry
            }
            None => false,
        }
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind, self.attr, self.detail)
    }
}

/// The ranked warning report for one target system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    warnings: Vec<Warning>,
}

impl Report {
    /// Build a report from warnings, sorting by rank (crate-internal).
    pub(crate) fn from_warnings(warnings: Vec<Warning>) -> Report {
        Report { warnings }.finish()
    }

    /// Warnings, highest rank first.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Number of warnings.
    pub fn len(&self) -> usize {
        self.warnings.len()
    }

    /// Whether no anomaly was found.
    pub fn is_empty(&self) -> bool {
        self.warnings.is_empty()
    }

    /// 1-based rank of the first warning implicating `entry`, if any.
    pub fn rank_of(&self, entry: &str) -> Option<usize> {
        self.warnings
            .iter()
            .position(|w| w.implicates(entry))
            .map(|i| i + 1)
    }

    /// Whether any warning implicates `entry`.
    pub fn detects(&self, entry: &str) -> bool {
        self.rank_of(entry).is_some()
    }

    /// Render the ranked list, one line per warning, in rank order.
    ///
    /// Scores use the exact (`{:?}`) representation, so two reports render
    /// byte-identically iff they are equal — the property the fleet
    /// determinism and snapshot round-trip tests compare on.
    pub fn render(&self) -> String {
        if self.warnings.is_empty() {
            return "clean\n".to_string();
        }
        let mut out = String::new();
        for (i, w) in self.warnings.iter().enumerate() {
            out.push_str(&format!(
                "{}. [{}] {} (score={:?}): {}\n",
                i + 1,
                w.kind,
                w.attr,
                w.score,
                w.detail
            ));
        }
        out
    }

    fn finish(mut self) -> Report {
        // `f64::total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN
        // score (e.g. a NaN confidence in a hand-edited loaded rule) would
        // make the latter comparator non-transitive, and the ranking —
        // which callers and fleet byte-identity depend on — nondeterministic.
        // Under the IEEE 754 total order, NaN sorts above +inf, so a
        // NaN-scored warning ranks first, deterministically.
        self.warnings.sort_by(|x, y| {
            y.score
                .total_cmp(&x.score)
                .then_with(|| x.attr.cmp(&y.attr))
        });
        self
    }
}

/// Per-attribute training statistics used by the value checks.
///
/// Together with the learned [`RuleSet`] and merged [`TypeMap`], this is
/// everything a detector needs — a [`DetectorSnapshot`] bundles the three so
/// detection can run without the training corpus ("train once, detect
/// many", §6).
///
/// The value histograms are one table sorted by attribute: each attribute
/// with a present training value owns one contiguous run of `(value,
/// count)` pairs, sorted by value, and all value text lives in one shared
/// buffer; the known entry names are one sorted list in a buffer of their
/// own.  A snapshot load therefore allocates per buffer, not per value.
/// Every constructor leaves the table canonical — sorted, without
/// duplicates, without unused text — so the derived `PartialEq` means
/// "same statistics".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingStats {
    /// Entry names (canonical bases, occurrence-stripped) seen in training,
    /// ascending.
    known_entries: Strings,
    /// Each attribute with a histogram, ascending, with the end of its run
    /// in `values` and `counts`.
    attrs: Vec<(AttrName, usize)>,
    /// Every histogram's values, each attribute's run ascending.
    values: Strings,
    /// `counts[i]`: the training cells whose render is value `i`.
    counts: Vec<usize>,
    /// Number of training systems (exposed through
    /// [`AnomalyDetector::training_systems`]).
    systems: usize,
}

/// Strings back to back in one buffer: string `i` is the text from the
/// end of string `i - 1` (from 0 for the first) to `ends[i]`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Strings {
    text: String,
    ends: Vec<usize>,
}

impl Strings {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Append the text `write` appends to the buffer as one more string;
    /// on an error, append nothing.
    fn push_with<E>(&mut self, write: impl FnOnce(&mut String) -> Result<(), E>) -> Result<(), E> {
        let len = self.text.len();
        if let Err(e) = write(&mut self.text) {
            self.text.truncate(len);
            return Err(e);
        }
        self.ends.push(self.text.len());
        Ok(())
    }

    fn pop(&mut self) {
        self.ends.pop();
        self.text.truncate(self.ends.last().copied().unwrap_or(0));
    }

    /// How the last string compares with the one before it, if `from`, the
    /// first index of its run, leaves one before it.
    fn last_two(&self, from: usize) -> Option<Ordering> {
        let n = self.len();
        (n >= from + 2).then(|| self.get(n - 2).cmp(self.get(n - 1)))
    }

    /// Binary search strings `range`, which ascend, for `s`.
    fn find(&self, range: Range<usize>, s: &str) -> Option<usize> {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(s) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// One attribute's value histogram in a [`TrainingStats`]: its distinct
/// training renders, ascending, each with the number of training cells
/// that render to it.  Never empty.
#[derive(Debug, Clone, Copy)]
pub struct ValueHistogram<'a> {
    values: &'a Strings,
    /// Index in `values` of the first value.
    start: usize,
    counts: &'a [usize],
}

impl<'a> ValueHistogram<'a> {
    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the histogram has no value (never, for a histogram a
    /// [`TrainingStats`] hands out).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Whether training saw the render `value`.
    pub fn contains(&self, value: &str) -> bool {
        let run = self.start..self.start + self.len();
        self.values.find(run, value).is_some()
    }

    /// The values, ascending, with their counts.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, usize)> + 'a {
        let (values, start) = (self.values, self.start);
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &count)| (values.get(start + i), count))
    }

    /// The number of training cells the histogram counts.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The count of the most frequent value.
    pub fn modal(&self) -> usize {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

impl TrainingStats {
    /// Read the statistics off a training set's column table: one entry
    /// name per original-entry column (all-absent columns included, as
    /// every row cell names an entry) and one render histogram per column
    /// with a present value.
    pub fn from_training(training: &TrainingSet) -> TrainingStats {
        let store = training.stats_cache().columns();
        let mut stats = StatsBuilder::default();
        for (i, attr) in store.interner().attrs().iter().enumerate() {
            if attr.is_original() {
                stats.entry(&crate::relation::canonical_entry_name(attr.base()));
            }
            let hist = store.value_histogram(i);
            if !hist.is_empty() {
                stats.run(attr.clone());
                for (value, count) in hist {
                    stats.value(count, value);
                }
            }
        }
        stats.finish(store.num_rows())
    }

    /// Statistics from their parts, in any order: the number of training
    /// systems, the known entry names, and `(attribute, value, count)`
    /// facts.  A later fact for an attribute's value replaces an earlier
    /// one, as a later line of a snapshot does.
    pub fn from_parts<'a>(
        systems: usize,
        known_entries: impl IntoIterator<Item = &'a str>,
        values: impl IntoIterator<Item = (&'a AttrName, &'a str, usize)>,
    ) -> TrainingStats {
        let mut stats = StatsBuilder::default();
        for name in known_entries {
            stats.entry(name);
        }
        for (attr, value, count) in values {
            if stats.last_attr() != Some(attr) {
                stats.run(attr.clone());
            }
            stats.value(count, value);
        }
        stats.finish(systems)
    }

    /// Number of training systems.
    pub fn systems(&self) -> usize {
        self.systems
    }

    /// Canonical entry names seen in training, ascending.
    pub fn known_entries(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.known_entries.len()).map(|i| self.known_entries.get(i))
    }

    /// Whether training saw the canonical entry name `name`.
    pub fn is_known_entry(&self, name: &str) -> bool {
        let all = 0..self.known_entries.len();
        self.known_entries.find(all, name).is_some()
    }

    /// The value histogram of `attr`, if training saw a value for it.
    pub fn histogram(&self, attr: &AttrName) -> Option<ValueHistogram<'_>> {
        let i = self.attrs.binary_search_by(|(a, _)| a.cmp(attr)).ok()?;
        Some(self.histogram_at(i))
    }

    /// Every attribute's value histogram, in [`AttrName`] order.
    pub fn histograms(&self) -> impl ExactSizeIterator<Item = (&AttrName, ValueHistogram<'_>)> {
        (0..self.attrs.len()).map(|i| (&self.attrs[i].0, self.histogram_at(i)))
    }

    fn histogram_at(&self, i: usize) -> ValueHistogram<'_> {
        let start = if i == 0 { 0 } else { self.attrs[i - 1].1 };
        ValueHistogram {
            values: &self.values,
            start,
            counts: &self.counts[start..self.attrs[i].1],
        }
    }
}

/// Builds a [`TrainingStats`] from entry names and attribute runs of
/// `(value, count)` pairs in any order.  Input that arrives ascending, as
/// a rendered snapshot and a column table do, goes straight into the
/// table; anything else is put in order once, by [`StatsBuilder::finish`].
#[derive(Debug, Default)]
pub(crate) struct StatsBuilder {
    table: TrainingStats,
    /// Whether some entry name arrived out of order.
    entries_unsorted: bool,
    /// Whether some attribute or value arrived out of order, or an
    /// attribute's values in more than one run.
    values_unsorted: bool,
}

impl StatsBuilder {
    /// Add a known entry name, written by `write` to the end of the name
    /// buffer.
    pub(crate) fn entry_with<E>(
        &mut self,
        write: impl FnOnce(&mut String) -> Result<(), E>,
    ) -> Result<(), E> {
        let names = &mut self.table.known_entries;
        names.push_with(write)?;
        match names.last_two(0) {
            Some(Ordering::Equal) => names.pop(),
            Some(Ordering::Greater) => self.entries_unsorted = true,
            _ => {}
        }
        Ok(())
    }

    fn entry(&mut self, name: &str) {
        let Ok(()) = self.entry_with(|buf| {
            buf.push_str(name);
            Ok::<(), Infallible>(())
        });
    }

    /// The attribute of the current run.
    pub(crate) fn last_attr(&self) -> Option<&AttrName> {
        self.table.attrs.last().map(|(attr, _)| attr)
    }

    /// Where the current run starts in the value table.
    fn run_start(&self) -> usize {
        let attrs = &self.table.attrs;
        attrs.len().checked_sub(2).map_or(0, |i| attrs[i].1)
    }

    /// Start a run of `attr`'s values; the current run must have a value.
    pub(crate) fn run(&mut self, attr: AttrName) {
        let attrs = &mut self.table.attrs;
        if attrs.last().is_some_and(|(last, _)| *last >= attr) {
            self.values_unsorted = true;
        }
        attrs.push((attr, self.table.counts.len()));
    }

    /// Add a value of the current run's attribute, written by `write` to
    /// the end of the value buffer, with its count.  The same value twice
    /// in a row keeps the later count.
    pub(crate) fn value_with<E>(
        &mut self,
        count: usize,
        write: impl FnOnce(&mut String) -> Result<(), E>,
    ) -> Result<(), E> {
        let run_start = self.run_start();
        let table = &mut self.table;
        table.values.push_with(write)?;
        match table.values.last_two(run_start) {
            Some(Ordering::Equal) => {
                table.values.pop();
                *table.counts.last_mut().expect("the run's last value") = count;
                return Ok(());
            }
            Some(Ordering::Greater) => self.values_unsorted = true,
            _ => {}
        }
        table.counts.push(count);
        table.attrs.last_mut().expect("a value belongs to a run").1 = table.counts.len();
        Ok(())
    }

    fn value(&mut self, count: usize, value: &str) {
        let Ok(()) = self.value_with(count, |buf| {
            buf.push_str(value);
            Ok::<(), Infallible>(())
        });
    }

    /// The statistics of `systems` training systems: each part as built
    /// when it arrived ascending, and otherwise put in order once, values
    /// with a stable sort that keeps the last count of an attribute's
    /// value.  (Occurrence-marked and section-scoped names make a column
    /// table's entry names arrive out of order; its values never do.)
    pub(crate) fn finish(mut self, systems: usize) -> TrainingStats {
        if self.entries_unsorted {
            let mut names: Vec<&str> = self.table.known_entries().collect();
            names.sort_unstable();
            self.table.known_entries = TrainingStats::from_parts(0, names, []).known_entries;
        }
        if self.values_unsorted {
            let mut facts: Vec<((&AttrName, &str), usize)> = self
                .table
                .histograms()
                .flat_map(|(attr, hist)| hist.iter().map(move |(v, n)| ((attr, v), n)))
                .collect();
            encore_model::row::sort_keep_last(&mut facts);
            let facts = facts.into_iter().map(|((attr, v), n)| (attr, v, n));
            let sorted = TrainingStats::from_parts(0, [], facts);
            (self.table.attrs, self.table.values, self.table.counts) =
                (sorted.attrs, sorted.values, sorted.counts);
        }
        TrainingStats {
            systems,
            ..self.table
        }
    }
}

/// Every attribute a detector knows, in one sorted table: the histogram
/// attributes of its [`TrainingStats`], the entries of its [`TypeMap`], and
/// each rule's `A` and `B`.  An attribute's position in the table is its
/// *rank*.  A target's cells are keyed by rank as assembly emits them
/// ([`TargetCells`]), so they reach attribute order through one sort on
/// integers, and the scan reads each cell's facts at its rank instead of
/// searching the detector's name-sorted tables.  A detector builds its
/// table on its first check ([`AnomalyDetector::table`]), not at load.
#[derive(Debug)]
struct AttrTable {
    /// The attributes, ascending.
    names: Vec<AttrName>,
    /// `facts[r]`: what the detector knows of `names[r]`.
    facts: Vec<RankFacts>,
    /// The rule indices grouped by the rank of their `A` slot, each group
    /// ascending: rank `r`'s group ends at `facts[r].rules_end` and starts
    /// where rank `r - 1`'s ends.
    by_a: Vec<usize>,
    /// The rank of each original entry, by its name.
    entries: HashMap<Arc<str>, usize>,
    /// `system[j]`: the rank of the Table 5b attribute
    /// [`augment::SYSTEM_NAMES`]`[j]`, or where the table would insert it.
    system: [Result<usize, usize>; augment::SYSTEM_NAMES.len()],
}

/// What a detector knows of one attribute of its [`AttrTable`].
#[derive(Debug, Clone, Copy)]
struct RankFacts {
    /// The trained type, for an attribute the [`TypeMap`] holds.
    trained: Option<SemType>,
    /// The index of its histogram in the [`TrainingStats`] run table.
    histogram: Option<usize>,
    /// The end of its rule indices in [`AttrTable::by_a`].
    rules_end: usize,
    /// The end of the ranks whose attributes share its base name.
    base_end: usize,
    /// For an original entry: whether its canonical base is a known
    /// entry.
    known_entry: bool,
}

impl AttrTable {
    fn build(rules: &RuleSet, types: &TypeMap, stats: &TrainingStats) -> AttrTable {
        let mut slots: Vec<&AttrName> = rules.into_iter().flat_map(|r| [&r.a, &r.b]).collect();
        slots.sort_unstable();
        // Three ascending runs, which the stable sort merges.
        let mut names: Vec<&AttrName> = stats.attrs.iter().map(|(attr, _)| attr).collect();
        names.extend(types.iter().map(|(attr, _)| attr));
        names.extend(slots);
        names.sort();
        names.dedup();
        let mut by_a: Vec<(&AttrName, usize)> = rules
            .into_iter()
            .enumerate()
            .map(|(i, r)| (&r.a, i))
            .collect();
        by_a.sort_unstable();

        // Each list is a subsequence of `names`, so one walk meets each of
        // their attributes at its rank.
        let mut by_a = by_a.into_iter().peekable();
        let mut trained = types.iter().peekable();
        let mut histograms = stats.attrs.iter().enumerate().peekable();
        let mut table = AttrTable {
            names: Vec::with_capacity(names.len()),
            facts: Vec::with_capacity(names.len()),
            by_a: Vec::with_capacity(rules.len()),
            entries: HashMap::new(),
            system: [Err(0); augment::SYSTEM_NAMES.len()],
        };
        for (rank, &name) in names.iter().enumerate() {
            while let Some((_, i)) = by_a.next_if(|(a, _)| *a == name) {
                table.by_a.push(i);
            }
            let original = name.is_original();
            if original {
                table.entries.insert(Arc::clone(name.shared_base()), rank);
            }
            table.facts.push(RankFacts {
                trained: trained.next_if(|(a, _)| *a == name).map(|(_, ty)| *ty),
                histogram: histograms.next_if(|(_, (a, _))| a == name).map(|(i, _)| i),
                rules_end: table.by_a.len(),
                base_end: rank + 1,
                known_entry: original
                    && stats.is_known_entry(&crate::relation::canonical_entry_name(name.base())),
            });
            table.names.push(name.clone());
        }
        for rank in (1..names.len()).rev() {
            if names[rank - 1].base() == names[rank].base() {
                table.facts[rank - 1].base_end = table.facts[rank].base_end;
            }
        }
        table.system =
            std::array::from_fn(|j| table.position(&AttrName::system(augment::SYSTEM_NAMES[j])));
        table
    }

    /// The rank of `attr`, or where the table would insert it.
    fn position(&self, attr: &AttrName) -> Result<usize, usize> {
        self.names.binary_search(attr)
    }

    /// The rank of the Table 5a attribute `suffix` of the original entry
    /// at rank `entry`, or where the table would insert it.  The ranks
    /// that follow an entry's with its base are the system-wide attribute
    /// of that name, if there is one, and then its Table 5a attributes by
    /// suffix.
    fn augmented(&self, entry: usize, suffix: &str) -> Result<usize, usize> {
        let start = entry + 1;
        self.names[start..self.facts[entry].base_end]
            .binary_search_by(|name| name.suffix().cmp(&Some(suffix)))
            .map(|i| start + i)
            .map_err(|i| start + i)
    }

    /// The indices of the rules whose `A` slot is the attribute at `rank`,
    /// ascending.
    fn rules(&self, rank: usize) -> &[usize] {
        let start = rank.checked_sub(1).map_or(0, |r| self.facts[r].rules_end);
        &self.by_a[start..self.facts[rank].rules_end]
    }

    /// The facts of a bare row's cells: each cell's rank, found in one
    /// walk over the table beside the row, and no assembly type.
    fn ranks_of(&self, row: &Row) -> Vec<CellFacts> {
        let mut names = self.names.iter().enumerate().peekable();
        row.iter()
            .map(|(attr, _)| {
                while names.next_if(|(_, name)| *name < attr).is_some() {}
                CellFacts {
                    rank: names
                        .next_if(|(_, name)| *name == attr)
                        .map(|(rank, _)| rank),
                    assembled: None,
                }
            })
            .collect()
    }
}

/// What the scan reads of one cell of a target row besides its name and
/// value.
#[derive(Debug, Clone, Copy)]
struct CellFacts {
    /// The rank of its attribute, when the detector's table holds it.
    rank: Option<usize>,
    /// For an entry's own cell: the type assembly inferred, when it is
    /// also the type of the cell's render.
    assembled: Option<SemType>,
}

/// Where a target cell's attribute stands in the detector's
/// [`AttrTable`]: at its rank, or, when the table lacks it, by name, where
/// the table would insert it.
#[derive(Debug)]
enum Place {
    Rank(usize),
    Unknown(AttrName, usize),
}

impl Place {
    fn of(name: impl FnOnce() -> AttrName, at: Result<usize, usize>) -> Place {
        match at {
            Ok(rank) => Place::Rank(rank),
            Err(at) => Place::Unknown(name(), at),
        }
    }
}

/// The [`CellSink`] behind [`AnomalyDetector::check_image`]: a target's
/// cells keyed by the ranks of their attributes in the detector's
/// [`AttrTable`].
///
/// A known entry is opened with one lookup of its key, and its Table 5a
/// and Table 5b cells take their ranks from the table, so only an
/// attribute the table lacks carries a name.  [`TargetCells::finish`]
/// puts the cells in [`AttrName`] order with one sort on integer keys:
/// `2·rank + 1` for a known attribute and `2·p` for an unknown one the
/// table would insert at `p`, comparing names only between two unknown
/// attributes at one insertion point.  An entry's own cell carries the
/// type assembly inferred, where it holds for the cell's render, so the
/// scan needs no list of entry types.  A worker keeps one sink for every
/// target it checks.
#[derive(Debug)]
struct TargetCells<'t> {
    table: &'t AttrTable,
    /// Each cell's order key in the high 32 bits, and its index in
    /// `cells` in the low 32.
    order: Vec<u64>,
    cells: Vec<TargetCell>,
}

#[derive(Debug)]
struct TargetCell {
    /// The attribute, when the table lacks it.
    name: Option<AttrName>,
    value: ConfigValue,
    /// [`CellFacts::assembled`].
    assembled: Option<SemType>,
}

impl<'t> TargetCells<'t> {
    fn new(table: &'t AttrTable) -> TargetCells<'t> {
        TargetCells {
            table,
            order: Vec::new(),
            cells: Vec::new(),
        }
    }

    fn push(&mut self, place: Place, value: ConfigValue, assembled: Option<SemType>) {
        let (key, name) = match place {
            Place::Rank(rank) => (2 * rank + 1, None),
            Place::Unknown(name, at) => (2 * at, Some(name)),
        };
        self.order
            .push((key as u64) << 32 | self.cells.len() as u64);
        self.cells.push(TargetCell {
            name,
            value,
            assembled,
        });
    }

    /// The name of the unknown attribute of cell `i`.
    fn name(&self, i: u64) -> Option<&AttrName> {
        self.cells[(i & u64::from(u32::MAX)) as usize].name.as_ref()
    }

    /// The target `id`: its row, with one cell per attribute, the last
    /// one set, as [`Row::from_cells`] keeps, and each cell's facts.  The
    /// sink is left empty for the next target.
    fn finish(&mut self, id: &str) -> (Row, Vec<CellFacts>) {
        let mut order = std::mem::take(&mut self.order);
        order.sort_unstable();
        // Unknown attributes at one insertion point, in name order; the
        // stable sort keeps one name's cells in the order they came.
        for run in order.chunk_by_mut(|x, y| x >> 32 == y >> 32) {
            if run.len() > 1 && (run[0] >> 32) % 2 == 0 {
                run.sort_by(|x, y| self.name(*x).cmp(&self.name(*y)));
            }
        }
        let mut row = Vec::with_capacity(order.len());
        let mut facts = Vec::with_capacity(order.len());
        let mut env_attrs = 0;
        for (i, &key) in order.iter().enumerate() {
            let later = order.get(i + 1);
            if later.is_some_and(|&later| {
                later >> 32 == key >> 32 && self.name(later) == self.name(key)
            }) {
                continue;
            }
            let cell = &mut self.cells[(key & u64::from(u32::MAX)) as usize];
            let rank = ((key >> 32) % 2 == 1).then_some((key >> 33) as usize);
            let name = match rank {
                Some(rank) => self.table.names[rank].clone(),
                None => cell
                    .name
                    .take()
                    .expect("an unknown attribute keeps its name"),
            };
            env_attrs += u64::from(!name.is_original());
            row.push((
                name,
                std::mem::replace(&mut cell.value, ConfigValue::Absent),
            ));
            facts.push(CellFacts {
                rank,
                assembled: cell.assembled,
            });
        }
        encore_assemble::obs::AUGMENTED_ATTRS.add(env_attrs);
        order.clear();
        self.order = order;
        self.cells.clear();
        (Row::from_sorted_cells(id, row), facts)
    }
}

impl CellSink for TargetCells<'_> {
    type Entry = Place;

    fn open(&mut self, key: &str, _raw: &str) -> Option<Place> {
        if let Some(&rank) = self.table.entries.get(key) {
            return Some(Place::Rank(rank));
        }
        let name = AttrName::try_entry(key).ok()?;
        let at = self.table.position(&name);
        Some(Place::of(|| name, at))
    }

    fn env(&mut self, entry: &Place, ty: SemType, i: usize, value: EnvValue<'_>) {
        let suffix = augment::suffixes(ty)[i];
        let place = match entry {
            Place::Rank(rank) => Place::of(
                || self.table.names[*rank].augmented(suffix),
                self.table.augmented(*rank, suffix),
            ),
            // A table can know an entry's Table 5a attribute without the
            // entry: only an exact lookup tells.
            Place::Unknown(name, _) => {
                let name = name.augmented(suffix);
                Place::of(|| name.clone(), self.table.position(&name))
            }
        };
        self.push(place, value.into_value(), None);
    }

    fn close(&mut self, entry: Place, raw: &str, ty: SemType) {
        let value = encore_assemble::infer::coerce(raw, ty);
        // A text cell renders as the trimmed text assembly typed.  Another
        // cell keeps assembly's type where its render is that text too,
        // checked only where the scan re-types it: `3306.0` renders
        // `3306`, which inference may type differently.
        let typed = value.as_str().is_some()
            || matches!(entry, Place::Rank(rank)
                if self.table.facts[rank].trained.is_some_and(|t| !t.is_trivial())
                    && value.rendered() == raw.trim());
        self.push(entry, value, typed.then_some(ty));
    }

    fn system(&mut self, j: usize, value: EnvValue<'_>) {
        let place = Place::of(
            || AttrName::system(augment::SYSTEM_NAMES[j]),
            self.table.system[j],
        );
        self.push(place, value.into_value(), None);
    }
}

/// What one ordered pass over a target row finds: the entry-name, type and
/// value warnings, each in row order, and the indices of the rules whose
/// `A` slot the row carries, ascending.
#[derive(Debug, Default)]
struct RowScan {
    names: Vec<Warning>,
    types: Vec<Warning>,
    values: Vec<Warning>,
    candidates: Vec<usize>,
}

/// Options for batch fleet checking.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Worker threads; `None` uses all available parallelism.  The reports
    /// are identical for every worker count.
    pub workers: Option<usize>,
}

impl FleetOptions {
    /// Options pinning the worker count.
    pub fn with_workers(workers: usize) -> FleetOptions {
        FleetOptions {
            workers: Some(workers),
        }
    }

    fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(crate::pool::available_workers)
    }
}

/// The anomaly detector: rules + types + training statistics.
#[derive(Debug)]
pub struct AnomalyDetector {
    rules: RuleSet,
    types: TypeMap,
    stats: TrainingStats,
    /// Built on the first check.
    table: OnceLock<AttrTable>,
    assembler: Assembler,
}

impl AnomalyDetector {
    /// Build a detector from a training set and learned rules.
    pub fn new(training: &TrainingSet, rules: RuleSet) -> AnomalyDetector {
        AnomalyDetector::from_parts(
            rules,
            training.types().clone(),
            TrainingStats::from_training(training),
        )
    }

    /// Build a detector from its three learned artifacts directly, without
    /// the training corpus.
    pub fn from_parts(rules: RuleSet, types: TypeMap, stats: TrainingStats) -> AnomalyDetector {
        AnomalyDetector {
            rules,
            types,
            stats,
            table: OnceLock::new(),
            assembler: Assembler::new(),
        }
    }

    /// Reconstruct a detector from a persisted snapshot.
    pub fn from_snapshot(snapshot: DetectorSnapshot) -> AnomalyDetector {
        let (rules, types, stats) = snapshot.into_parts();
        AnomalyDetector::from_parts(rules, types, stats)
    }

    /// Capture the detector's learned state as a persistable snapshot.
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot::new(self.rules.clone(), self.types.clone(), self.stats.clone())
    }

    /// The learned rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The merged type map.
    pub fn types(&self) -> &TypeMap {
        &self.types
    }

    /// The training statistics (known entries, value histograms, corpus
    /// size).
    pub fn training_stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// Number of systems the detector was trained on.
    pub fn training_systems(&self) -> usize {
        self.stats.systems
    }

    /// The detector's attribute table, built on the first call: a load
    /// builds none, and a linted snapshot never does.
    fn table(&self) -> &AttrTable {
        self.table
            .get_or_init(|| AttrTable::build(&self.rules, &self.types, &self.stats))
    }

    /// Assemble a target image and check it.  The cells are keyed by the
    /// ranks of their attributes in the detector's attribute table, built
    /// on the first check, and the type check reuses the type assembly
    /// inferred for every entry whose cell renders as its trimmed raw
    /// text, so those entries are not typed twice; the reports equal
    /// [`AnomalyDetector::check`] of the assembled row.
    ///
    /// # Errors
    ///
    /// Propagates assembly failures.
    pub fn check_image(&self, app: AppKind, image: &SystemImage) -> Result<Report, AssembleError> {
        let mut cells = TargetCells::new(self.table());
        self.check_image_into(app, image, &mut Pairs::new(), &mut cells)
    }

    /// [`AnomalyDetector::check_image`] with the configuration parsed into
    /// `pairs`, which is cleared first, and the cells assembled into
    /// `cells`: a fleet worker keeps one of each for all its targets.
    fn check_image_into(
        &self,
        app: AppKind,
        image: &SystemImage,
        pairs: &mut Pairs,
        cells: &mut TargetCells<'_>,
    ) -> Result<Report, AssembleError> {
        self.assembler.assemble_into(app, image, pairs, cells)?;
        let (row, facts) = cells.finish(image.id());
        Ok(self.check_cells(cells.table, &row, &facts, Some(image)))
    }

    /// Check a whole target fleet in one batch over the work-stealing pool.
    ///
    /// Per-image assembly failures stay per-image results (a fleet crawl
    /// must tolerate broken images); the returned vector is index-aligned
    /// with `images` and byte-identical to a sequential
    /// [`AnomalyDetector::check_image`] loop for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if a detection worker panics; [`AnomalyDetector::try_check_fleet`]
    /// surfaces that recoverably instead.
    pub fn check_fleet(
        &self,
        app: AppKind,
        images: &[SystemImage],
        options: &FleetOptions,
    ) -> Vec<Result<Report, AssembleError>> {
        self.try_check_fleet(app, images, options)
            .expect("detection worker panicked")
    }

    /// Check a whole target fleet, surfacing detection-worker panics as a
    /// recoverable [`PoolError`].
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) [`PoolError`] if checking an image
    /// panics.
    pub fn try_check_fleet(
        &self,
        app: AppKind,
        images: &[SystemImage],
        options: &FleetOptions,
    ) -> Result<Vec<Result<Report, AssembleError>>, PoolError> {
        crate::obs::DETECT_FLEET_BATCHES.incr();
        crate::obs::DETECT_FLEET_SYSTEMS.add(images.len() as u64);
        if crate::obs::event::enabled() {
            use crate::obs::json::Json;
            crate::obs::event::emit(
                crate::obs::event::Level::Debug,
                "detect.fleet",
                vec![
                    ("app".to_string(), Json::Str(app.name().to_string())),
                    ("systems".to_string(), Json::Num(images.len() as u64)),
                ],
            );
        }
        let workers = options.resolved_workers();
        let (reports, _) = pool::run_units_with(
            images,
            workers,
            &crate::obs::DETECT_POOL_METRICS,
            |_| (Pairs::new(), TargetCells::new(self.table())),
            |(pairs, cells), image| self.check_image_into(app, image, pairs, cells),
        )?;
        Ok(reports)
    }

    /// Check an already-assembled row (image optional; environment-backed
    /// rules and the type check are skipped without it).
    pub fn check(&self, row: &Row, image: Option<&SystemImage>) -> Report {
        let table = self.table();
        self.check_cells(table, row, &table.ranks_of(row), image)
    }

    /// [`AnomalyDetector::check`] of a row whose cells' `facts` the caller
    /// has, one per cell.
    fn check_cells(
        &self,
        table: &AttrTable,
        row: &Row,
        facts: &[CellFacts],
        image: Option<&SystemImage>,
    ) -> Report {
        let _span = crate::obs::DETECT_TIME.span();
        crate::obs::DETECT_SYSTEMS_CHECKED.incr();
        let scan = self.scan(table, row, facts, image);
        // The four checks' warnings in check order, so equal-rank ties
        // keep their order through the stable rank sort.
        let mut report = Report {
            warnings: scan.names,
        };
        self.check_correlations(row, image, &scan.candidates, &mut report);
        report.warnings.extend(scan.types);
        report.warnings.extend(scan.values);
        if crate::obs::enabled() {
            for warning in &report.warnings {
                match warning.kind {
                    WarningKind::UnknownEntry => crate::obs::DETECT_UNKNOWN_ENTRY.incr(),
                    WarningKind::CorrelationViolation => crate::obs::DETECT_CORRELATION.incr(),
                    WarningKind::TypeViolation => crate::obs::DETECT_TYPE.incr(),
                    WarningKind::SuspiciousValue => crate::obs::DETECT_SUSPICIOUS.incr(),
                }
            }
            crate::obs::DETECT_WARNINGS_PER_SYSTEM.observe(report.warnings.len() as u64);
        }
        report.finish()
    }

    /// Checks 1, 3 and 4, and check 2's rule candidates, in one walk over
    /// the row.  Each cell's trained type, histogram, rule bucket and
    /// known-entry verdict are read at its rank in `table`; a cell the
    /// table lacks has none of them but the verdict.
    ///
    /// 1. **Unknown entry names** (likely misspellings, [31]), deduplicated
    ///    by canonical base name: a misspelled entry repeated on the target
    ///    (`dataadir#1`, `dataadir#2`, or the same unknown directive under
    ///    several Apache section scopes) is one anomaly, not one warning per
    ///    occurrence flooding the ranked list.
    /// 3. **Data-type violations**: each original entry's value must still
    ///    pass the syntactic match and semantic verification of the type
    ///    learned in training.
    /// 4. **Suspicious (never-seen) values**, ranked by Inverse Change
    ///    Frequency [42].
    fn scan(
        &self,
        table: &AttrTable,
        row: &Row,
        cells: &[CellFacts],
        image: Option<&SystemImage>,
    ) -> RowScan {
        let mut scan = RowScan::default();
        let mut reported: BTreeSet<String> = BTreeSet::new();
        for ((attr, value), cell) in row.iter().zip(cells) {
            let facts = cell.rank.map(|rank| &table.facts[rank]);
            let original = attr.is_original();
            // An original the table holds carries its verdict; any other is
            // searched for by its canonical name.
            if original && !facts.is_some_and(|facts| facts.known_entry) {
                let base = crate::relation::canonical_entry_name(attr.base());
                let known = facts.is_none() && self.stats.is_known_entry(&base);
                if !known && reported.insert(base.to_string()) {
                    scan.names.push(Warning {
                        kind: WarningKind::UnknownEntry,
                        attr: attr.clone(),
                        detail: format!("entry `{base}` never appears in the training set"),
                        score: 70.0,
                        rule: None,
                    });
                }
            }
            if value.is_absent() {
                continue;
            }
            if let Some(rank) = cell.rank {
                scan.candidates.extend_from_slice(table.rules(rank));
            }
            let hist = facts
                .and_then(|facts| facts.histogram)
                .map(|i| self.stats.histogram_at(i));
            // `TypeMap::type_of` of an original entry.
            let trained = original.then(|| {
                facts
                    .and_then(|facts| facts.trained)
                    .unwrap_or(SemType::Str)
            });
            let rendered = value.rendered();
            if let (Some(expected), Some(image)) = (trained.filter(|ty| !ty.is_trivial()), image) {
                let inferred = cell.assembled.unwrap_or_else(|| {
                    self.assembler.inference().infer_uncounted(&rendered, image)
                });
                if inferred != expected {
                    // Cardinality of training values drives the rank: a
                    // type violation on an entry that always had one value
                    // is near certain (§6's extension_dir example).
                    let cardinality = hist.map(|h| h.len()).unwrap_or(1).max(1);
                    scan.types.push(Warning {
                        kind: WarningKind::TypeViolation,
                        attr: attr.clone(),
                        detail: format!(
                            "value `{rendered}` is {inferred}, trained type is {expected}"
                        ),
                        score: 90.0 + 10.0 / cardinality as f64,
                        rule: None,
                    });
                }
            }
            // A new attribute has no histogram: check 1 reports it.
            let Some(hist) = hist else { continue };
            // File paths legitimately vary across systems (§7.1.1's Baseline
            // misses wrong paths for this reason); the pure value comparison
            // stays quiet on env-related types and leaves them to checks 2/3.
            if hist.contains(&rendered) || trained == Some(SemType::FilePath) {
                continue;
            }
            // ICF: fewer distinct training values → higher rank, weighted
            // by the modal value's dominance so the per-value counts the
            // histogram tracks actually matter.  An entry where 9 of 10
            // training systems agree on one value (dominance 0.9) changed
            // rarely — a deviation is a strong signal; an entry whose
            // values are spread evenly changed often, which is exactly what
            // the Inverse *Change Frequency* heuristic down-ranks.
            let (total, modal) = (hist.total(), hist.modal());
            let dominance = modal as f64 / total.max(1) as f64;
            let icf = 1.0 / hist.len() as f64;
            scan.values.push(Warning {
                kind: WarningKind::SuspiciousValue,
                attr: attr.clone(),
                detail: format!(
                    "value `{rendered}` never seen in training ({} known values, modal share {modal}/{total})",
                    hist.len()
                ),
                score: 40.0 * icf * dominance,
                rule: None,
            });
        }
        scan.candidates.sort_unstable();
        scan
    }

    /// Check 2: correlation-rule violations.
    ///
    /// Only the `candidates`, the rules whose `A`-slot attribute the
    /// target carries with a value, are evaluated: every relation needs
    /// both slot values present, so the skipped rules would all be
    /// [`Applicability::NotApplicable`], and the warnings are
    /// byte-identical to a full scan of the rule list.
    fn check_correlations(
        &self,
        row: &Row,
        image: Option<&SystemImage>,
        candidates: &[usize],
        report: &mut Report,
    ) {
        let view = match image {
            Some(img) => SystemView::new(row, img),
            None => SystemView::row_only(row),
        };
        if crate::obs::enabled() {
            crate::obs::DETECT_INDEX_RULES_EVALUATED.add(candidates.len() as u64);
            crate::obs::DETECT_INDEX_RULES_SKIPPED
                .add((self.rules.len() - candidates.len()) as u64);
        }
        // Per-A-slot-bucket attribution, accumulated locally and flushed
        // once per call so the profiled path adds one table lock per
        // check, not one per rule.
        let profiling = crate::obs::profile::enabled();
        let mut buckets: BTreeMap<&AttrName, (u64, u64, u64)> = BTreeMap::new();
        for &i in candidates {
            let rule = &self.rules.rules()[i];
            let profiled = profiling.then(Instant::now);
            let verdict = rule.evaluate(view);
            if let Some(started) = profiled {
                let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let (bucket_nanos, checked, violated) = buckets.entry(&rule.a).or_default();
                *bucket_nanos += nanos;
                *checked += 1;
                if matches!(verdict, Applicability::Violated) {
                    *violated += 1;
                }
            }
            if let Applicability::Violated = verdict {
                report.warnings.push(Warning {
                    kind: WarningKind::CorrelationViolation,
                    attr: rule.a.clone(),
                    detail: format!("rule violated: {rule}"),
                    score: 100.0 + rule.confidence * 10.0,
                    rule: Some(rule.clone()),
                });
            }
        }
        for (attr, (nanos, checked, violated)) in buckets {
            crate::obs::DETECT_BUCKET_PROFILE.record(
                &attr.to_string(),
                nanos,
                &[("checked", checked), ("violated", violated)],
            );
        }
    }
}

/// The per-check row loops that [`AnomalyDetector::scan`] and the rule
/// index replaced, kept as the reference the one pass is tested against:
/// a full scan of the rule list, and every type re-inferred from its
/// rendered value.
#[cfg(test)]
impl AnomalyDetector {
    fn check_reference(&self, row: &Row, image: Option<&SystemImage>) -> Report {
        let mut report = Report::default();
        self.check_entry_names(row, &mut report);
        self.check_correlations_unindexed(row, image, &mut report);
        self.check_types(row, image, &mut report);
        self.check_values(row, &mut report);
        report.finish()
    }

    fn check_entry_names(&self, row: &Row, report: &mut Report) {
        let mut reported: BTreeSet<String> = BTreeSet::new();
        for (attr, _) in row.iter() {
            if !attr.is_original() {
                continue;
            }
            let base = crate::relation::canonical_entry_name(attr.base()).into_owned();
            if !self.stats.is_known_entry(&base) && reported.insert(base.clone()) {
                report.warnings.push(Warning {
                    kind: WarningKind::UnknownEntry,
                    attr: attr.clone(),
                    detail: format!("entry `{base}` never appears in the training set"),
                    score: 70.0,
                    rule: None,
                });
            }
        }
    }

    fn check_correlations_unindexed(
        &self,
        row: &Row,
        image: Option<&SystemImage>,
        report: &mut Report,
    ) {
        let view = match image {
            Some(img) => SystemView::new(row, img),
            None => SystemView::row_only(row),
        };
        for rule in &self.rules {
            if let Applicability::Violated = rule.evaluate(view) {
                report.warnings.push(Warning {
                    kind: WarningKind::CorrelationViolation,
                    attr: rule.a.clone(),
                    detail: format!("rule violated: {rule}"),
                    score: 100.0 + rule.confidence * 10.0,
                    rule: Some(rule.clone()),
                });
            }
        }
    }

    fn check_types(&self, row: &Row, image: Option<&SystemImage>, report: &mut Report) {
        let image = match image {
            Some(i) => i,
            None => return,
        };
        let inference = self.assembler.inference();
        for (attr, value) in row.iter() {
            if !attr.is_original() || value.is_absent() {
                continue;
            }
            let expected = self.types.type_of(attr);
            if expected.is_trivial() {
                continue;
            }
            let rendered = value.render();
            let inferred = inference.infer_uncounted(&rendered, image);
            if inferred != expected {
                let cardinality = self
                    .stats
                    .histogram(attr)
                    .map(|h| h.len())
                    .unwrap_or(1)
                    .max(1);
                report.warnings.push(Warning {
                    kind: WarningKind::TypeViolation,
                    attr: attr.clone(),
                    detail: format!("value `{rendered}` is {inferred}, trained type is {expected}"),
                    score: 90.0 + 10.0 / cardinality as f64,
                    rule: None,
                });
            }
        }
    }

    fn check_values(&self, row: &Row, report: &mut Report) {
        for (attr, value) in row.iter() {
            if value.is_absent() {
                continue;
            }
            let hist = match self.stats.histogram(attr) {
                Some(h) => h,
                None => continue,
            };
            let rendered = value.render();
            if hist.contains(&rendered) {
                continue;
            }
            let ty = self.types.type_of(attr);
            if attr.is_original() && ty == SemType::FilePath {
                continue;
            }
            let (total, modal) = (hist.total(), hist.modal());
            let dominance = modal as f64 / total.max(1) as f64;
            let icf = 1.0 / hist.len() as f64;
            report.warnings.push(Warning {
                kind: WarningKind::SuspiciousValue,
                attr: attr.clone(),
                detail: format!(
                    "value `{rendered}` never seen in training ({} known values, modal share {modal}/{total})",
                    hist.len()
                ),
                score: 40.0 * icf * dominance,
                rule: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::RuleInference;
    use crate::FilterThresholds;
    use encore_model::ConfigValue;

    fn fleet(n: usize) -> Vec<SystemImage> {
        (0..n)
            .map(|i| {
                let datadir = format!("/var/lib/mysql{i}");
                SystemImage::builder(format!("img-{i}"))
                    .user("mysql", 27, &["mysql"])
                    .dir(&datadir, "mysql", "mysql", 0o700)
                    .file(
                        "/etc/mysql/my.cnf",
                        "root",
                        "root",
                        0o644,
                        &format!(
                            "[mysqld]\nuser = mysql\ndatadir = {datadir}\nmax_allowed_packet = 16M\n"
                        ),
                    )
                    .build()
            })
            .collect()
    }

    fn engine() -> AnomalyDetector {
        let images = fleet(12);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let (rules, _) =
            RuleInference::predefined().infer(&ts, &FilterThresholds::default().without_entropy());
        AnomalyDetector::new(&ts, rules)
    }

    fn broken_owner_image() -> SystemImage {
        SystemImage::builder("target")
            .user("mysql", 27, &["mysql"])
            .user("backup", 34, &["backup"])
            .dir("/var/lib/mysql", "backup", "backup", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\nmax_allowed_packet = 16M\n",
            )
            .build()
    }

    #[test]
    fn detects_wrong_owner_via_correlation() {
        let det = engine();
        let report = det
            .check_image(AppKind::Mysql, &broken_owner_image())
            .unwrap();
        assert!(report.detects("datadir"), "{report:?}");
        let w = report
            .warnings()
            .iter()
            .find(|w| w.kind() == WarningKind::CorrelationViolation)
            .expect("correlation warning");
        assert!(w.detail().contains("datadir"));
        // correlation violations rank at the top
        assert_eq!(report.rank_of("datadir"), Some(1));
    }

    #[test]
    fn detects_type_violation_for_file_instead_of_dir() {
        let det = engine();
        // datadir points at a regular file — the Figure 1(a) failure shape.
        let img = SystemImage::builder("target")
            .user("mysql", 27, &["mysql"])
            .file("/var/lib/mysql", "mysql", "mysql", 0o644, "oops")
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql3/ghost\nmax_allowed_packet = 16M\n",
            )
            .build();
        let report = det.check_image(AppKind::Mysql, &img).unwrap();
        let type_warning = report
            .warnings()
            .iter()
            .find(|w| w.kind() == WarningKind::TypeViolation)
            .expect("type violation");
        assert_eq!(type_warning.attr().to_string(), "datadir");
    }

    #[test]
    fn detects_unknown_entry_name() {
        let det = engine();
        let img = SystemImage::builder("target")
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql0", "mysql", "mysql", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql0\ndataadir = /tmp\nmax_allowed_packet = 16M\n",
            )
            .build();
        let report = det.check_image(AppKind::Mysql, &img).unwrap();
        assert!(report
            .warnings()
            .iter()
            .any(|w| w.kind() == WarningKind::UnknownEntry && w.attr().base() == "dataadir"));
    }

    #[test]
    fn detects_suspicious_value() {
        let det = engine();
        let img = SystemImage::builder("target")
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql0", "mysql", "mysql", 0o700)
            .file(
                "/etc/mysql/my.cnf",
                "root",
                "root",
                0o644,
                "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql0\nmax_allowed_packet = 999M\n",
            )
            .build();
        let report = det.check_image(AppKind::Mysql, &img).unwrap();
        assert!(report
            .warnings()
            .iter()
            .any(|w| w.kind() == WarningKind::SuspiciousValue
                && w.attr().base() == "max_allowed_packet"));
    }

    #[test]
    fn clean_system_mostly_quiet() {
        let det = engine();
        // An in-distribution image: datadir variant seen in training.
        let img = fleet(1).remove(0);
        let report = det.check_image(AppKind::Mysql, &img).unwrap();
        assert!(
            report
                .warnings()
                .iter()
                .all(|w| w.kind() != WarningKind::CorrelationViolation),
            "{report:?}"
        );
    }

    #[test]
    fn rank_of_missing_entry_is_none() {
        let det = engine();
        let report = det
            .check_image(AppKind::Mysql, &fleet(1).remove(0))
            .unwrap();
        assert_eq!(report.rank_of("not_an_entry"), None);
    }

    #[test]
    fn check_without_image_skips_type_checks() {
        let det = engine();
        let mut row = Row::new("bare");
        row.set(AttrName::entry("user"), ConfigValue::str("mysql"));
        let report = det.check(&row, None);
        assert!(report
            .warnings()
            .iter()
            .all(|w| w.kind() != WarningKind::TypeViolation));
    }

    #[test]
    fn nan_confidence_rule_ranks_deterministically() {
        // A NaN score used to make the `partial_cmp(..).unwrap_or(Equal)`
        // comparator non-transitive and the ranking order dependent on the
        // incoming warning order; `total_cmp` ranks NaN first, always.
        use crate::template::Relation;
        let nan_rule = Rule::new(
            AttrName::entry("datadir"),
            Relation::Owns,
            AttrName::entry("user"),
            10,
            f64::NAN,
        );
        let mut warnings = Vec::new();
        for (name, score) in [("alpha", 50.0), ("omega", f64::NAN), ("beta", 90.0)] {
            warnings.push(Warning {
                kind: WarningKind::CorrelationViolation,
                attr: AttrName::entry(name),
                detail: format!("rule violated: {nan_rule}"),
                score,
                rule: Some(nan_rule.clone()),
            });
        }
        let order = |r: &Report| -> Vec<String> {
            r.warnings()
                .iter()
                .map(|w| w.attr().base().to_string())
                .collect()
        };
        let forward = Report::from_warnings(warnings.clone());
        warnings.reverse();
        let reversed = Report::from_warnings(warnings);
        // NaN != NaN, so compare the ranking order, not the reports.
        assert_eq!(
            order(&forward),
            order(&reversed),
            "ranking must not depend on input order"
        );
        assert!(forward.warnings()[0].score().is_nan(), "NaN ranks first");
        assert_eq!(order(&forward), ["omega", "beta", "alpha"]);
    }

    #[test]
    fn warning_codes_are_stable_and_unique() {
        let mut seen = BTreeSet::new();
        for kind in WarningKind::ALL {
            let code = kind.code();
            assert!(code.starts_with("EW") && code.len() == 5, "{code}");
            assert!(seen.insert(code), "duplicate code {code}");
            assert!(!kind.summary().is_empty());
        }
    }

    #[test]
    fn warning_confidence_is_normalized_per_kind() {
        use crate::template::Relation;
        let rule = Rule::new(
            AttrName::entry("datadir"),
            Relation::Owns,
            AttrName::entry("user"),
            10,
            0.97,
        );
        let correlation = Warning {
            kind: WarningKind::CorrelationViolation,
            attr: AttrName::entry("datadir"),
            detail: String::new(),
            score: 100.0 + 0.97 * 10.0,
            rule: Some(rule.clone()),
        };
        assert_eq!(correlation.confidence(), 0.97);
        let nan_rule = Rule::new(
            AttrName::entry("datadir"),
            Relation::Owns,
            AttrName::entry("user"),
            10,
            f64::NAN,
        );
        let nan = Warning {
            rule: Some(nan_rule),
            score: f64::NAN,
            ..correlation.clone()
        };
        assert_eq!(nan.confidence(), 1.0, "non-finite clamps to 1.0");
        let type_violation = Warning::internal(
            WarningKind::TypeViolation,
            AttrName::entry("datadir"),
            String::new(),
            90.0 + 10.0 / 4.0, // 4 distinct training values
        );
        assert_eq!(type_violation.confidence(), 0.25);
        let unknown = Warning::internal(
            WarningKind::UnknownEntry,
            AttrName::entry("dataadir"),
            String::new(),
            70.0,
        );
        assert_eq!(unknown.confidence(), 0.7);
        let suspicious = Warning::internal(
            WarningKind::SuspiciousValue,
            AttrName::entry("port"),
            String::new(),
            40.0 * 0.5 * 0.9,
        );
        assert_eq!(suspicious.confidence(), 0.45);
    }

    #[test]
    fn repeated_unknown_entry_warns_once() {
        let det = engine();
        // The same misspelled entry flattened into two occurrence-marked
        // attributes must yield ONE warning, not flood the ranked list.
        let mut row = Row::new("target");
        row.set(AttrName::entry("dataadir#1"), ConfigValue::str("/tmp/a"));
        row.set(AttrName::entry("dataadir#2"), ConfigValue::str("/tmp/b"));
        row.set(AttrName::entry("user"), ConfigValue::str("mysql"));
        let report = det.check(&row, None);
        let unknown: Vec<_> = report
            .warnings()
            .iter()
            .filter(|w| w.kind() == WarningKind::UnknownEntry)
            .collect();
        assert_eq!(
            unknown.len(),
            1,
            "one warning per canonical base name: {report:?}"
        );
        assert!(unknown[0].detail().contains("dataadir"));
    }

    #[test]
    fn icf_ranking_is_count_aware() {
        // Two entries, both with 2 distinct training values: `stable` is
        // 9-vs-1 dominated by one value, `churny` an even 5-vs-5 split.
        // Pure distinct-value ICF scored them identically; the count-aware
        // score must rank the deviation on the rarely-changing entry first.
        let (stable, churny) = (AttrName::entry("stable"), AttrName::entry("churny"));
        let values = [
            (&stable, "on", 9),
            (&stable, "off", 1),
            (&churny, "alpha", 5),
            (&churny, "beta", 5),
        ];
        let det = AnomalyDetector::from_parts(
            RuleSet::new(),
            TypeMap::new(),
            TrainingStats::from_parts(10, ["stable", "churny"], values),
        );
        let mut row = Row::new("target");
        row.set(AttrName::entry("stable"), ConfigValue::str("weird"));
        row.set(AttrName::entry("churny"), ConfigValue::str("weird"));
        let report = det.check(&row, None);
        let score_of = |name: &str| {
            report
                .warnings()
                .iter()
                .find(|w| w.kind() == WarningKind::SuspiciousValue && w.attr().base() == name)
                .unwrap_or_else(|| panic!("no suspicious-value warning for {name}: {report:?}"))
                .score()
        };
        assert!(
            score_of("stable") > score_of("churny"),
            "modal dominance must outrank an even split: {report:?}"
        );
        // Pinned: 40 * (1/len) * (modal/total).
        assert_eq!(score_of("stable"), 40.0 * 0.5 * 0.9);
        assert_eq!(score_of("churny"), 40.0 * 0.5 * 0.5);
        assert_eq!(report.rank_of("stable"), Some(1));
    }

    #[test]
    fn indexed_correlation_check_matches_full_scan() {
        let det = engine();
        let targets = [broken_owner_image(), fleet(1).remove(0)];
        for image in &targets {
            let row = det
                .assembler
                .assemble_image(AppKind::Mysql, image)
                .expect("assembles");
            let table = det.table();
            let candidates = det
                .scan(table, &row, &table.ranks_of(&row), Some(image))
                .candidates;
            let mut indexed = Report::default();
            det.check_correlations(&row, Some(image), &candidates, &mut indexed);
            let mut full = Report::default();
            det.check_correlations_unindexed(&row, Some(image), &mut full);
            assert_eq!(indexed, full, "index must be invisible in the warnings");
        }
    }

    /// A detector learned from `n` training images of `app` (seed 1).
    fn learned(app: AppKind, n: usize) -> AnomalyDetector {
        use encore_corpus::genimage::{Population, PopulationOptions};
        let pop = Population::training(app, &PopulationOptions::new(n, 1));
        let training = TrainingSet::assemble(app, pop.images()).expect("assembles");
        let options = crate::LearnOptions {
            workers: Some(2),
            ..crate::LearnOptions::default()
        };
        crate::EnCore::try_learn(&training, &options)
            .expect("learns")
            .into_detector()
    }

    const APPS: [AppKind; 3] = [AppKind::Apache, AppKind::Mysql, AppKind::Php];

    /// A MySQL target whose `my.cnf` is `body`, with the `mysql` service on
    /// 3306.
    fn mysql_target(id: &str, body: &str) -> SystemImage {
        SystemImage::builder(id)
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .service("mysql", 3306)
            .file("/etc/mysql/my.cnf", "root", "root", 0o644, body)
            .build()
    }

    /// A configuration-only copy of `image`, as `encore-serve` builds its
    /// targets.
    fn configuration_only(app: AppKind, image: &SystemImage) -> SystemImage {
        let config = image
            .read_file(app.config_path())
            .expect("has a configuration");
        SystemImage::builder(format!("{}-config", image.id()))
            .file(app.config_path(), "root", "root", 0o644, config)
            .build()
    }

    /// `image` with `lines` appended to its configuration.
    fn appended(app: AppKind, image: &SystemImage, lines: &str) -> SystemImage {
        let config = image
            .read_file(app.config_path())
            .expect("has a configuration");
        let mut vfs = image.vfs().clone();
        vfs.add_file(
            app.config_path(),
            "root",
            "root",
            0o644,
            &format!("{config}\n{lines}"),
        );
        image.clone().with_vfs(vfs)
    }

    /// The rank path and the name path agree on `image`: the row and
    /// ranks the detector's sink builds are the row `SystemCells` builds
    /// and the ranks one walk over the table gives it, and `check_image`,
    /// `check` of that row and the per-check reference loops report the
    /// same bytes.
    fn assert_paths_agree(det: &AnomalyDetector, app: AppKind, image: &SystemImage) -> Report {
        let ctx = format!("{app:?} {}", image.id());
        let system = det
            .assembler
            .assemble_system(app, image)
            .expect("assembles");
        let table = det.table();
        let mut cells = TargetCells::new(table);
        det.assembler
            .assemble_into(app, image, &mut Pairs::new(), &mut cells)
            .expect("assembles");
        let (row, facts) = cells.finish(image.id());
        assert_eq!(row, system.row, "{ctx}");
        let ranks = |facts: &[CellFacts]| facts.iter().map(|f| f.rank).collect::<Vec<_>>();
        assert_eq!(ranks(&facts), ranks(&table.ranks_of(&row)), "{ctx}");
        let report = det.check_image(app, image).expect("checks");
        let rendered = report.render();
        assert_eq!(
            rendered,
            det.check(&system.row, Some(image)).render(),
            "{ctx}"
        );
        assert_eq!(
            rendered,
            det.check_reference(&system.row, Some(image)).render(),
            "{ctx}"
        );
        report
    }

    /// Each rank holds the facts the detector's name-sorted tables hold for
    /// its attribute.
    #[test]
    fn the_attribute_table_holds_each_attributes_facts_at_its_rank() {
        for app in APPS {
            let det = learned(app, 40);
            let table = det.table();
            assert!(table.names.windows(2).all(|pair| pair[0] < pair[1]));
            let stats = &det.stats;
            for (rank, name) in table.names.iter().enumerate() {
                let facts = &table.facts[rank];
                let rules: Vec<usize> = (0..det.rules.len())
                    .filter(|&i| det.rules.rules()[i].a == *name)
                    .collect();
                assert_eq!(table.rules(rank), rules, "{name}");
                assert_eq!(
                    facts.trained,
                    det.types
                        .iter()
                        .find(|(a, _)| *a == name)
                        .map(|(_, ty)| *ty)
                );
                let histogram = facts
                    .histogram
                    .map(|i| stats.histogram_at(i).iter().collect());
                let expected = stats.histogram(name).map(|h| h.iter().collect::<Vec<_>>());
                assert_eq!(histogram, expected, "{name}");
                let canonical = crate::relation::canonical_entry_name(name.base());
                assert_eq!(
                    facts.known_entry,
                    name.is_original() && stats.is_known_entry(&canonical)
                );
                let same_base = table.names[rank..]
                    .iter()
                    .take_while(|other| other.base() == name.base())
                    .count();
                assert_eq!(facts.base_end, rank + same_base, "{name}");
                if name.is_original() {
                    assert_eq!(table.entries.get(name.base()), Some(&rank));
                }
            }
            let known = |attr: &AttrName| table.names.binary_search(attr).is_ok();
            assert!(stats.histograms().all(|(attr, _)| known(attr)));
            assert!(det.types.iter().all(|(attr, _)| known(attr)));
            assert!(det.rules.rules().iter().all(|r| known(&r.a) && known(&r.b)));
            assert_eq!(
                table.entries.len(),
                table.names.iter().filter(|n| n.is_original()).count()
            );
            for (j, name) in augment::SYSTEM_NAMES.iter().enumerate() {
                assert_eq!(table.system[j], table.position(&AttrName::system(name)));
            }
        }
    }

    /// Keying a target's cells by rank and taking assembly's types must be
    /// invisible: `check_image` reports exactly what checking the
    /// assembled row, with every type re-inferred, reports, on full and
    /// configuration-only targets and on crafted ones.
    #[test]
    fn check_image_matches_checking_the_assembled_row() {
        use encore_corpus::genimage::Population;
        for app in APPS {
            let det = learned(app, 40);
            let fleet = Population::ec2_fresh(app, 40, 77);
            for image in fleet.images() {
                assert_paths_agree(&det, app, image);
                assert_paths_agree(&det, app, &configuration_only(app, image));
            }
        }

        let det = learned(AppKind::Mysql, 40);
        let table = det.table();
        let base = Population::ec2_fresh(AppKind::Mysql, 1, 77).images()[0].clone();
        let position = |name: &str| table.position(&AttrName::entry(name));
        // Two unknown entries, each with its unknown Table 5a cells, at one
        // insertion point between two known names, and one past every
        // known name.
        assert!(position("datadir").is_ok());
        let between = position("datadirw").expect_err("unknown");
        assert!(between < table.names.len());
        assert_eq!(position("datadirx"), Err(between));
        assert_eq!(position("zzz_unknown"), Err(table.names.len()));
        // An original named like a Table 5b attribute sorts just before
        // it, whether the table holds that attribute or not.
        let hostname = table
            .position(&AttrName::system("Sys.HostName"))
            .expect("known");
        assert_eq!(position("Sys.HostName"), Err(hostname));
        assert!(table.position(&AttrName::system("MemSize")).is_err());
        for (id, lines) in [
            // The last value and type win, and the cells the first
            // occurrence's augmentation set stay.
            (
                "repeated",
                "[mysqld]\ndatadir = /var/lib/mysql\ndatadir = /no/such/dir\n",
            ),
            ("misspelled", "[mysqld]\ndataadir = /var/lib/mysql\n"),
            (
                "unknown-pair",
                "[mysqld]\ndatadirx = /var/lib/mysql\ndatadirw = /var/lib/mysql\ndatadirx = 3\n",
            ),
            ("unknown-last", "[mysqld]\nzzz_unknown = /var/lib/mysql\n"),
            (
                "system-names",
                "[mysqld]\nMemSize = 4096\nSys.HostName = db1\n",
            ),
        ] {
            let image = appended(AppKind::Mysql, &base, lines);
            let report = assert_paths_agree(&det, AppKind::Mysql, &image);
            if id != "repeated" {
                assert!(
                    report
                        .warnings()
                        .iter()
                        .any(|w| w.kind() == WarningKind::UnknownEntry),
                    "{id}: {report:?}"
                );
            }
        }
        // A running instance's `MemSize`, which the table lacks, beside an
        // original of that name: two unknown attributes at one insertion
        // point.
        let running = SystemImage::builder("running")
            .user("mysql", 27, &["mysql"])
            .hardware(encore_sysimage::HardwareSpec::small())
            .file(
                AppKind::Mysql.config_path(),
                "root",
                "root",
                0o644,
                "[mysqld]\nMemSize = 4096\nuser = mysql\n",
            )
            .build();
        assert_paths_agree(&det, AppKind::Mysql, &running);
        let php = learned(AppKind::Php, 40);
        let base = Population::ec2_fresh(AppKind::Php, 1, 77).images()[0].clone();
        let lines = "session.save_path = /tmp\nsession.zzz = 1\nsession = /tmp\n";
        assert_paths_agree(&php, AppKind::Php, &appended(AppKind::Php, &base, lines));
        let apache = learned(AppKind::Apache, 40);
        let base = Population::ec2_fresh(AppKind::Apache, 1, 77).images()[0].clone();
        let lines = "LoadModule foo_module modules/mod_foo.so\n\
                     LoadModule bar_module modules/mod_bar.so\n\
                     <Directory /srv/new>\nAllowOverride None\nOptions FollowSymLinks\n</Directory>\n\
                     Alias /x /srv/new\n";
        assert_paths_agree(
            &apache,
            AppKind::Apache,
            &appended(AppKind::Apache, &base, lines),
        );

        // A hand-edited snapshot that knows `datadir`'s Table 5a
        // attributes but not `datadir` itself: only an exact lookup finds
        // `datadir.owner`, whose rule and histogram flag the wrong owner.
        let text = det.snapshot().render();
        let edited: String = text
            .lines()
            .filter(|line| *line != "datadir" && !line.split('\t').any(|f| f == "O:datadir"))
            .map(|line| format!("{line}\n"))
            .collect();
        let edited = AnomalyDetector::from_snapshot(
            DetectorSnapshot::parse(&edited).expect("the edited snapshot parses"),
        );
        let owner = AttrName::entry("datadir").augmented("owner");
        assert!(edited
            .table()
            .position(&AttrName::entry("datadir"))
            .is_err());
        assert!(edited.table().position(&owner).is_ok());
        let report = assert_paths_agree(&edited, AppKind::Mysql, &broken_owner_image());
        for kind in [
            WarningKind::CorrelationViolation,
            WarningKind::SuspiciousValue,
        ] {
            assert!(
                report
                    .warnings()
                    .iter()
                    .any(|w| w.kind() == kind && *w.attr() == owner),
                "{kind}: {report:?}"
            );
        }

        // Cells whose render is not the text assembly typed.
        let port = AttrName::entry("port");
        assert_eq!(det.types().type_of(&port), SemType::PortNumber);
        for body in [
            "[mysqld]\nport = 3306.0\n",
            "[mysqld]\nport = 3306\n",
            "[mysqld]\nskip-external-locking = yes\n",
            "[mysqld]\nmax_allowed_packet = 16m\n",
        ] {
            let image = mysql_target("hand", body);
            let report = assert_paths_agree(&det, AppKind::Mysql, &image);
            if body.contains("port") {
                // Assembly types `3306.0` a Number, and the sink leaves it
                // to be re-typed from its render `3306`, the PortNumber the
                // entry was trained as; `3306` renders as its own text and
                // keeps assembly's type.
                let system = det
                    .assembler
                    .assemble_system(AppKind::Mysql, &image)
                    .unwrap();
                let mut cells = TargetCells::new(det.table());
                det.assembler
                    .assemble_into(AppKind::Mysql, &image, &mut Pairs::new(), &mut cells)
                    .unwrap();
                let (row, facts) = cells.finish("hand");
                let i = row.iter().position(|(attr, _)| *attr == port).unwrap();
                let (assembled, kept) = if body.contains("3306.0") {
                    (SemType::Number, None)
                } else {
                    (SemType::PortNumber, Some(SemType::PortNumber))
                };
                assert_eq!(system.type_of(&port), Some(assembled));
                assert_eq!(facts[i].assembled, kept);
                assert!(
                    report
                        .warnings()
                        .iter()
                        .all(|w| w.kind() != WarningKind::TypeViolation),
                    "{report:?}"
                );
            }
        }
    }

    /// The one pass must report exactly what the per-check loops did, with
    /// and without the image.  Apache brings section-scoped and
    /// occurrence-marked names, which take the allocating canonical path.
    #[test]
    fn one_pass_matches_the_per_check_loops() {
        use encore_corpus::genimage::Population;
        for app in APPS {
            let det = learned(app, 40);
            for full in Population::ec2_fresh(app, 30, 77).images() {
                for image in [full, &configuration_only(app, full)] {
                    let row = det.assembler.assemble_image(app, image).expect("assembles");
                    let ctx = format!("{app:?} {}", image.id());
                    assert_eq!(
                        det.check_image(app, image).expect("checks").render(),
                        det.check_reference(&row, Some(image)).render(),
                        "{ctx}"
                    );
                    assert_eq!(
                        det.check(&row, None).render(),
                        det.check_reference(&row, None).render(),
                        "{ctx}"
                    );
                }
            }
        }
        // Unknown entries repeated under occurrence markers and section
        // scopes warn once each.
        let mysql = learned(AppKind::Mysql, 40);
        let mut row = Row::new("dedup");
        row.set(AttrName::entry("dataadir#1"), ConfigValue::str("/tmp/a"));
        row.set(AttrName::entry("dataadir#2"), ConfigValue::str("/tmp/b"));
        row.set(AttrName::entry("user"), ConfigValue::str("mysql"));
        let apache = learned(AppKind::Apache, 40);
        let mut scoped = Row::new("scoped");
        for scope in ["/var/www/html", "/srv/www"] {
            scoped.set(
                AttrName::entry(format!("Directory:{scope}|AllowOveride")),
                ConfigValue::str("None"),
            );
        }
        for (det, row) in [(&mysql, &row), (&apache, &scoped)] {
            let report = det.check(row, None);
            assert_eq!(report.render(), det.check_reference(row, None).render());
            let unknown = report
                .warnings()
                .iter()
                .filter(|w| w.kind() == WarningKind::UnknownEntry)
                .count();
            assert_eq!(unknown, 1, "{report:?}");
        }
    }

    #[test]
    fn check_fleet_matches_sequential_loop() {
        let det = engine();
        let mut targets = fleet(6);
        targets.push(broken_owner_image());
        let sequential: Vec<String> = targets
            .iter()
            .map(|img| {
                det.check_image(AppKind::Mysql, img)
                    .expect("check")
                    .render()
            })
            .collect();
        for workers in [1usize, 2, 4] {
            let batch = det.check_fleet(
                AppKind::Mysql,
                &targets,
                &FleetOptions::with_workers(workers),
            );
            let rendered: Vec<String> = batch
                .into_iter()
                .map(|r| r.expect("fleet image checks").render())
                .collect();
            assert_eq!(rendered, sequential, "workers={workers}");
        }
    }

    /// The per-cell row loop the column-based constructor replaced.
    fn training_stats_from_rows(rows: &[Row]) -> TrainingStats {
        let mut entries: BTreeSet<String> = BTreeSet::new();
        let mut values: BTreeMap<AttrName, BTreeMap<String, usize>> = BTreeMap::new();
        for row in rows {
            for (attr, value) in row.iter() {
                if attr.is_original() {
                    entries.insert(crate::relation::canonical_entry_name(attr.base()).into_owned());
                }
                if !value.is_absent() {
                    *values
                        .entry(attr.clone())
                        .or_default()
                        .entry(value.render())
                        .or_insert(0) += 1;
                }
            }
        }
        TrainingStats::from_parts(
            rows.len(),
            entries.iter().map(String::as_str),
            values
                .iter()
                .flat_map(|(attr, hist)| hist.iter().map(move |(v, &n)| (attr, v.as_str(), n))),
        )
    }

    #[test]
    fn stats_from_parts_in_any_order_are_canonical() {
        let (a, b) = (AttrName::entry("a"), AttrName::entry("b"));
        let sorted =
            TrainingStats::from_parts(3, ["a", "b"], [(&a, "x", 1), (&a, "y", 2), (&b, "z", 3)]);
        // Out of order, `a` in two runs, and `b`'s value first counted 9:
        // one sort, keeping the later count.
        let shuffled = TrainingStats::from_parts(
            3,
            ["b", "a", "b"],
            [(&b, "z", 9), (&a, "y", 2), (&b, "z", 3), (&a, "x", 1)],
        );
        assert_eq!(shuffled, sorted);
        // Attributes in order, one attribute's values not.
        let descending =
            TrainingStats::from_parts(3, ["a", "b"], [(&a, "y", 2), (&a, "x", 1), (&b, "z", 3)]);
        assert_eq!(descending, sorted);
        // The same value twice in a row keeps the later count, unsorted.
        let repeated = TrainingStats::from_parts(
            3,
            ["a", "a", "b"],
            [(&a, "x", 7), (&a, "x", 1), (&a, "y", 2), (&b, "z", 3)],
        );
        assert_eq!(repeated, sorted);

        let hist = sorted.histogram(&a).expect("a has values");
        assert_eq!(hist.iter().collect::<Vec<_>>(), [("x", 1), ("y", 2)]);
        assert_eq!((hist.len(), hist.total(), hist.modal()), (2, 3, 2));
        assert!(hist.contains("x") && hist.contains("y") && !hist.contains("z"));
        assert!(sorted.histogram(&AttrName::entry("c")).is_none());
        let attrs: Vec<&AttrName> = sorted.histograms().map(|(attr, _)| attr).collect();
        assert_eq!(attrs, [&a, &b]);
        assert_eq!(sorted.known_entries().collect::<Vec<_>>(), ["a", "b"]);
        assert!(sorted.is_known_entry("b") && !sorted.is_known_entry("c"));
    }

    #[test]
    fn column_training_stats_match_the_row_loop() {
        use encore_corpus::genimage::{Population, PopulationOptions};
        // The BENCH training set, and the 127-image Apache set.
        for (app, images) in [(AppKind::Mysql, 30), (AppKind::Apache, 127)] {
            let pop = Population::training(app, &PopulationOptions::new(images, 1));
            let training = TrainingSet::assemble(app, pop.images()).expect("assembles");
            let assembler = Assembler::new();
            let rows: Vec<Row> = pop
                .images()
                .iter()
                .filter_map(|img| assembler.assemble_image(app, img).ok())
                .collect();
            assert_eq!(
                TrainingStats::from_training(&training),
                training_stats_from_rows(&rows),
                "{app:?}"
            );
        }
    }

    #[test]
    fn learned_snapshot_matches_a_detector_built_from_the_training_set() {
        use encore_corpus::genimage::{Population, PopulationOptions};
        let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(30, 1));
        let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("assembles");
        let options = crate::LearnOptions {
            workers: Some(2),
            ..crate::LearnOptions::default()
        };
        let engine = crate::EnCore::try_learn(&training, &options).expect("learns");
        let rebuilt = AnomalyDetector::new(&training, engine.rules().clone());
        assert_eq!(engine.snapshot().render(), rebuilt.snapshot().render());
    }

    #[test]
    fn snapshot_round_trip_reconstructs_the_detector() {
        let det = engine();
        let text = det.snapshot().render();
        let loaded = AnomalyDetector::from_snapshot(
            crate::snapshot::DetectorSnapshot::parse(&text).expect("snapshot parses"),
        );
        assert_eq!(loaded.rules(), det.rules());
        assert_eq!(loaded.types(), det.types());
        assert_eq!(loaded.training_stats(), det.training_stats());
        let target = broken_owner_image();
        let a = det.check_image(AppKind::Mysql, &target).unwrap();
        let b = loaded.check_image(AppKind::Mysql, &target).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }
}
