//! Template-guided rule inference (§5.1, Figure 5).
//!
//! For each template, the engine gathers the attributes whose type matches
//! each slot ("Find Eligible Attributes"), iterates over every slot
//! combination ("for each template: Compute Relation"), evaluates the
//! relation on every training system, and passes the resulting candidates
//! through the filters of §5.2 ("Rules").
//!
//! Type-based slot restriction is the scalability fix: instead of the
//! quadratic-in-all-attributes search that sinks FP-Growth (Table 3), each
//! template only touches the handful of attributes of the right types.
//! The instance computations share no state — "this process is highly
//! parallelizable" — so each template's eligible-A list is split into
//! `(template, a-chunk)` work units fed through the work-stealing pool in
//! [`crate::pool`]; chunk results are merged back in unit order, so the
//! learned [`RuleSet`] is byte-identical to a sequential run no matter how
//! many workers steal.  Per-attribute statistics (semantic types, value
//! entropies) come from the training set's [`StatsCache`], built once at
//! assembly and shared read-only by every run.
//!
//! Slot bindings are *indices* into the cache's sorted attribute list, and
//! evaluation is *columnar*: each pair is tallied by a
//! `relation::PairEvaluator` scanning the interned value-id columns of the
//! [`StatsCache`]'s column store, with generic same-type templates drawing
//! their B partners from per-type attribute buckets instead of filtering
//! the full cross product.  Every per-pair and per-candidate step works
//! on those indices: the pair filters, the candidates themselves (index
//! records, deduplicated by the display classes of their attributes), and
//! the judging, which borrows names from the cache's table and builds a
//! [`Rule`] only for the candidates the filters keep.  The output is
//! pinned by golden files — the learned rules, the fleet reports they
//! produce and the evaluated-pair count — recorded from the row-major
//! evaluator this path replaced, and, for the 127-image Apache set whose
//! `#n` families and dotted names exercise the family table and the
//! display classes, from the name-keyed candidates before them.

use crate::eligibility::{
    eligible_indices, is_same_type_generic, pair_considered, partner_indices,
};
use crate::filter::{FilterThresholds, Judge, RejectReason, Verdict};
use crate::obs;
use crate::pool::{self, PoolError};
use crate::relation::{IdHasher, PairEvaluator};
use crate::rules::{Rule, RuleSet};
use crate::stats::StatsCache;
use crate::template::{Relation, Template};
use crate::train::TrainingSet;
use encore_model::{AttrId, AttrName};
use encore_sysimage::SystemImage;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::time::Instant;

/// Statistics from an inference run — the raw numbers behind Tables 12/13.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Template instances whose relation was applicable somewhere.
    pub candidates: usize,
    /// Candidates surviving support+confidence but not entropy (counted
    /// only when the entropy filter is on).
    pub dropped_by_entropy: usize,
    /// Candidates dropped by the support filter.
    pub dropped_by_support: usize,
    /// Candidates dropped by the confidence filter.
    pub dropped_by_confidence: usize,
    /// Rules kept.
    pub kept: usize,
}

/// A worker failed while instantiating templates.
///
/// Unlike the seed implementation — which `expect`ed its way through the
/// thread scope, so one malformed attribute aborted the whole
/// `EnCore::learn` — worker panics are caught per work unit and surfaced
/// through this recoverable error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// A worker panicked while processing the given work unit.
    WorkerPanicked {
        /// Index of the failing unit in the run's work list.
        unit: usize,
        /// Rendered panic payload.
        message: String,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::WorkerPanicked { unit, message } => {
                write!(f, "inference worker panicked on unit {unit}: {message}")
            }
        }
    }
}

impl std::error::Error for InferError {}

impl From<PoolError> for InferError {
    fn from(e: PoolError) -> InferError {
        InferError::WorkerPanicked {
            unit: e.unit,
            message: e.message,
        }
    }
}

/// Tuning knobs for one inference run.
#[derive(Debug, Clone)]
pub struct InferOptions {
    /// Worker threads for template instantiation; `None` uses
    /// [`std::thread::available_parallelism`].  `Some(1)` is the sequential
    /// reference the parallel path must reproduce byte-identically.
    pub workers: Option<usize>,
    /// Skip `(template, a-chunk)` work units that can instantiate nothing —
    /// decided via the [`StatsCache`] presence bitsets before pool
    /// dispatch.  Pruning is semantics-preserving (a dead unit contributes
    /// no candidates either way); disable it only to measure its effect or
    /// to cross-check determinism.
    pub prune_dead_units: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions {
            workers: None,
            prune_dead_units: true,
        }
    }
}

impl InferOptions {
    /// Options pinning the worker count.
    pub fn with_workers(workers: usize) -> InferOptions {
        InferOptions {
            workers: Some(workers),
            ..InferOptions::default()
        }
    }

    /// Disable dead-unit pruning (the unpruned reference the pruned path
    /// must reproduce byte-identically).
    pub fn without_pruning(mut self) -> InferOptions {
        self.prune_dead_units = false;
        self
    }

    fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(crate::pool::available_workers)
    }
}

/// Both judging outcomes of one single candidate-generation pass — the
/// Table 13 staged-filter analysis without inferring twice.
#[derive(Debug, Clone)]
pub struct DualInference {
    /// Rules and stats judged under the given thresholds with the entropy
    /// filter forced **on**.
    pub entropy_on: (RuleSet, InferenceStats),
    /// The same candidates judged with the entropy filter forced **off**
    /// (Table 13's "Original" column).
    pub entropy_off: (RuleSet, InferenceStats),
}

/// The rule-inference engine.
#[derive(Debug, Clone)]
pub struct RuleInference {
    templates: Vec<Template>,
}

impl RuleInference {
    /// Engine over a set of templates.
    pub fn new(templates: Vec<Template>) -> RuleInference {
        RuleInference { templates }
    }

    /// Engine over the 11 predefined templates.
    pub fn predefined() -> RuleInference {
        RuleInference::new(Template::predefined())
    }

    /// The templates in use.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Infer and filter rules from a training set.
    ///
    /// # Panics
    ///
    /// Panics if an inference worker panics; use [`RuleInference::try_infer`]
    /// to handle that recoverably.
    pub fn infer(
        &self,
        training: &TrainingSet,
        thresholds: &FilterThresholds,
    ) -> (RuleSet, InferenceStats) {
        self.try_infer(training, thresholds)
            .expect("inference worker panicked")
    }

    /// Infer and filter rules, surfacing worker panics as [`InferError`].
    ///
    /// # Errors
    ///
    /// Returns [`InferError::WorkerPanicked`] if any work unit panics.
    pub fn try_infer(
        &self,
        training: &TrainingSet,
        thresholds: &FilterThresholds,
    ) -> Result<(RuleSet, InferenceStats), InferError> {
        self.try_infer_with(training, thresholds, &InferOptions::default())
    }

    /// [`RuleInference::try_infer`] with explicit tuning options.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::WorkerPanicked`] if any work unit panics.
    pub fn try_infer_with(
        &self,
        training: &TrainingSet,
        thresholds: &FilterThresholds,
        options: &InferOptions,
    ) -> Result<(RuleSet, InferenceStats), InferError> {
        let candidates = self.collect_candidates(training, options)?;
        Ok(judge_candidates(
            &candidates,
            thresholds,
            training.stats_cache(),
        ))
    }

    /// Judge one candidate pass under the given thresholds **and** their
    /// entropy-free variant — candidates are threshold-independent, so the
    /// Table 13 comparison needs only one instantiation sweep, not two.
    ///
    /// # Errors
    ///
    /// Returns [`InferError::WorkerPanicked`] if any work unit panics.
    pub fn try_infer_dual(
        &self,
        training: &TrainingSet,
        thresholds: &FilterThresholds,
        options: &InferOptions,
    ) -> Result<DualInference, InferError> {
        let cache = training.stats_cache();
        let candidates = self.collect_candidates(training, options)?;
        let mut on = *thresholds;
        on.use_entropy = true;
        let off = on.without_entropy();
        Ok(DualInference {
            entropy_on: judge_candidates(&candidates, &on, cache),
            entropy_off: judge_candidates(&candidates, &off, cache),
        })
    }

    /// Generate the deduplicated candidates via the work-stealing pool: one
    /// chunk per work unit, in unit order, so the concatenation is
    /// deterministic.
    fn collect_candidates(
        &self,
        training: &TrainingSet,
        options: &InferOptions,
    ) -> Result<Vec<Vec<Candidate>>, InferError> {
        let _span = obs::INFER_TIME.span();
        let mut chunks = self.instantiate_via(training, options, instantiate_unit)?;
        let dedup_started = obs::profile::enabled().then(Instant::now);
        let classes = display_classes(training.stats_cache().attributes());
        let dropped = dedup_candidates(&mut chunks, &self.templates, &classes);
        obs::INFER_CANDIDATES_DEDUPED.add(dropped);
        if let Some(started) = dedup_started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let kept = chunks.iter().map(Vec::len).sum::<usize>();
            let [_, _, dedup_row] = obs::INFER_MAIN_THREAD_ROWS;
            obs::INFER_TEMPLATE_PROFILE.record(dedup_row, nanos, &[("candidates", kept as u64)]);
        }
        Ok(chunks)
    }

    /// Instantiate every template over the work-stealing pool, before the
    /// dedup: one chunk per work unit, in unit order.
    ///
    /// Worker seam: `run_unit` processes one `(template, a-chunk)` unit.
    /// Production passes [`instantiate_unit`]; tests substitute panicking
    /// closures to exercise error propagation through the real pipeline.
    fn instantiate_via<F>(
        &self,
        training: &TrainingSet,
        options: &InferOptions,
        run_unit: F,
    ) -> Result<Vec<Vec<Candidate>>, InferError>
    where
        F: Fn(&WorkUnit<'_, '_>, &[SystemImage], &StatsCache) -> Vec<Candidate> + Sync,
    {
        let (images, cache) = (training.images(), training.stats_cache());
        // Pipeline phases outside the per-unit loop get pseudo-rows in the
        // template table — `(plan)`, `(attribute)`, `(dedup)` — so the
        // table accounts for (almost) everything under `infer.time`, not
        // just instantiation (the coverage invariant, DESIGN.md §16).
        let profiling = obs::profile::enabled();
        let [plan_row, attribute_row, _] = obs::INFER_MAIN_THREAD_ROWS;
        let plan_started = profiling.then(Instant::now);
        obs::INFER_TEMPLATES.add(self.templates.len() as u64);
        let works: Vec<TemplateWork<'_>> = self
            .templates
            .iter()
            .enumerate()
            .map(|(index, t)| TemplateWork::new(index, t, cache))
            .collect();
        let all_units: Vec<WorkUnit<'_, '_>> = works
            .iter()
            .flat_map(|work| {
                let len = work.eligible_a.len();
                (0..len.div_ceil(A_CHUNK)).map(move |chunk| WorkUnit {
                    work,
                    a_range: chunk * A_CHUNK..((chunk + 1) * A_CHUNK).min(len),
                })
            })
            .collect();
        obs::INFER_UNITS_TOTAL.add(all_units.len() as u64);
        let total_units = all_units.len();
        let units: Vec<WorkUnit<'_, '_>> = all_units
            .into_iter()
            .filter(|unit| !options.prune_dead_units || unit.is_live(cache))
            .collect();
        obs::INFER_UNITS_PRUNED.add((total_units - units.len()) as u64);
        if let Some(started) = plan_started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs::INFER_TEMPLATE_PROFILE.record(plan_row, nanos, &[("units", units.len() as u64)]);
        }
        let workers = options.resolved_workers();
        let chunks = pool::run_units(&units, workers, |unit| run_unit(unit, images, cache))?;
        let attribute_started = profiling.then(Instant::now);
        if obs::enabled() {
            // Attribute candidates to templates on the main thread, after
            // the pool returns, so the tallies are scheduling-independent.
            for (unit, chunk) in units.iter().zip(&chunks) {
                obs::INFER_CANDIDATES.add(chunk.len() as u64);
                obs::INFER_CANDIDATES_BY_TEMPLATE
                    .observe_n(unit.work.index as u64, chunk.len() as u64);
            }
        }
        if let Some(started) = attribute_started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs::INFER_TEMPLATE_PROFILE.record(attribute_row, nanos, &[]);
        }
        Ok(chunks)
    }
}

/// Attributes per work unit: small enough that one quadratic template
/// shatters into many stealable units, large enough that scheduling noise
/// stays negligible next to the per-pair evaluation loop.
const A_CHUNK: usize = 8;

/// One template plus its eligible slot bindings — *indices* into the
/// cache's sorted attribute list — resolved once per run.
struct TemplateWork<'a> {
    /// Position in the run's template list (drives the per-template
    /// candidate histogram).
    index: usize,
    template: &'a Template,
    /// The template's profile row name, rendered once per run rather than
    /// once per unit.
    name: String,
    generic: bool,
    eligible_a: Vec<usize>,
    eligible_b: Vec<usize>,
    /// Union of the row-presence bitsets of every eligible-B attribute: a
    /// chunk of A attributes none of which is ever present alongside *any*
    /// eligible B cannot instantiate anything.
    b_presence: Vec<u64>,
}

impl<'a> TemplateWork<'a> {
    fn new(index: usize, template: &'a Template, cache: &StatsCache) -> TemplateWork<'a> {
        let generic = is_same_type_generic(template);
        let (eligible_a, eligible_b) = if generic {
            let all: Vec<usize> = (0..cache.attributes().len()).collect();
            (all.clone(), all)
        } else {
            (
                eligible_indices(cache, template.a.ty),
                eligible_indices(cache, template.b.ty),
            )
        };
        // The union stays over the *full* eligible-B set even for generic
        // templates (whose per-A partners narrow to a type bucket): liveness
        // only needs to be conservative, and keeping it bucket-independent
        // keeps pruning decisions identical to the pre-bucket enumeration.
        let store = cache.columns();
        let mut b_presence = vec![0u64; cache.num_rows().div_ceil(64)];
        for &bi in &eligible_b {
            for (acc, word) in b_presence.iter_mut().zip(store.column(bi).presence()) {
                *acc |= word;
            }
        }
        TemplateWork {
            index,
            template,
            name: template.to_string(),
            generic,
            eligible_a,
            eligible_b,
            b_presence,
        }
    }
}

/// One stealable unit: a chunk of a template's eligible-A attributes.
struct WorkUnit<'a, 'w> {
    work: &'w TemplateWork<'a>,
    a_range: Range<usize>,
}

impl WorkUnit<'_, '_> {
    /// Whether any attribute in this unit's A-chunk ever co-occurs with any
    /// eligible B — a necessary condition for the unit to produce a
    /// candidate.  Dead units are dropped before pool dispatch; liveness is
    /// conservative (a live verdict may still instantiate nothing), so
    /// pruning never changes the learned rule set.
    fn is_live(&self, cache: &StatsCache) -> bool {
        let store = cache.columns();
        self.work.eligible_a[self.a_range.clone()]
            .iter()
            .any(|&ai| {
                store
                    .column(ai)
                    .presence()
                    .iter()
                    .zip(&self.work.b_presence)
                    .any(|(x, y)| x & y != 0)
            })
    }
}

/// One template instance that was applicable somewhere, as an index
/// record: the pair is two indices into the cache's attribute table, so a
/// candidate copies no name.  A [`Rule`] is built only for the candidates
/// the filters accept.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    a: AttrId,
    b: AttrId,
    relation: Relation,
    support: usize,
    confidence: f64,
    template_min_confidence: Option<f64>,
}

/// The id of the attribute at sorted index `index`: ids are sorted
/// indices, and the interner gave every attribute one.
fn attr_id(index: usize) -> AttrId {
    AttrId(u32::try_from(index).expect("< 2^32 attributes"))
}

/// Each attribute's display class, indexed like the attribute table: a
/// small id shared by exactly the attributes whose names render alike,
/// such as an entry literally named `datadir.owner` and the augmented
/// `datadir.owner`.  One hash of each name's display form, once per run,
/// with no name rendered.
fn display_classes(attrs: &[AttrName]) -> Vec<u32> {
    let mut ids: HashMap<DisplayName<'_>, u32, BuildHasherDefault<IdHasher>> =
        HashMap::with_capacity_and_hasher(attrs.len(), BuildHasherDefault::default());
    attrs
        .iter()
        .map(|attr| {
            let next = u32::try_from(ids.len()).expect("< 2^32 names");
            *ids.entry(DisplayName(attr)).or_insert(next)
        })
        .collect()
}

/// An attribute name hashed and compared by its display form, `base` or
/// `base.suffix`, read from the name's pieces.  Its hash writes the pieces
/// one after another, which [`IdHasher`] hashes as the joined form.
struct DisplayName<'a>(&'a AttrName);

impl<'a> DisplayName<'a> {
    fn pieces(&self) -> [&'a [u8]; 3] {
        let attr = self.0;
        match attr.suffix() {
            Some(suffix) => [attr.base().as_bytes(), b".", suffix.as_bytes()],
            None => [attr.base().as_bytes(), b"", b""],
        }
    }
}

impl PartialEq for DisplayName<'_> {
    fn eq(&self, other: &DisplayName<'_>) -> bool {
        let (a, b) = (self.pieces(), other.pieces());
        a.iter().copied().flatten().eq(b.iter().copied().flatten())
    }
}

impl Eq for DisplayName<'_> {}

impl Hash for DisplayName<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for piece in self.pieces() {
            state.write(piece);
        }
    }
}

/// Drop duplicate template instances (the same `(a, relation, b)` can fall
/// out of several templates) from the unit-ordered chunks, in place,
/// keeping the first seen, and return how many were dropped.
///
/// Two candidates are the same when their relations are and their
/// attribute names render the same, that is when their attributes'
/// `classes` ([`display_classes`]) are; `AttrName` equality would tell
/// apart names that render alike.  Few candidates can be the same as
/// another: within one template each `(a, b)` index pair is instantiated
/// at most once, since the eligible lists and type buckets hold each index
/// once.  So two candidates share a key only when their relation belongs
/// to more than one of `templates`, or when one of their attributes shares
/// its class with another attribute.  Only such candidates are inserted
/// into the set, in unit order; every other one is kept without hashing,
/// and when no candidate can collide the chunks are not walked at all.
fn dedup_candidates(chunks: &mut [Vec<Candidate>], templates: &[Template], classes: &[u32]) -> u64 {
    let shared_relations: Vec<Relation> = templates
        .iter()
        .map(|t| t.relation)
        .filter(|&r| templates.iter().filter(|t| t.relation == r).count() > 1)
        .collect();
    let mut members = vec![0u32; classes.len()];
    for &class in classes {
        members[class as usize] += 1;
    }
    let shares_class: Vec<bool> = classes.iter().map(|&c| members[c as usize] > 1).collect();
    if shared_relations.is_empty() && !shares_class.contains(&true) {
        return 0;
    }
    let mut seen: HashSet<(u32, Relation, u32)> = HashSet::new();
    let mut dropped = 0u64;
    for chunk in chunks {
        chunk.retain(|cand| {
            let (a, b) = (cand.a.index(), cand.b.index());
            if !shares_class[a] && !shares_class[b] && !shared_relations.contains(&cand.relation) {
                return true;
            }
            let fresh = seen.insert((classes[a], cand.relation, classes[b]));
            dropped += u64::from(!fresh);
            fresh
        });
    }
    dropped
}

/// Run the §5.2 filters over the deduplicated candidate chunks, in order,
/// with the run's minimum support resolved once and entropies read by
/// attribute index, and build a [`Rule`], with names from the cache's
/// attribute table, only for the candidates accepted.
fn judge_candidates(
    candidates: &[Vec<Candidate>],
    thresholds: &FilterThresholds,
    cache: &StatsCache,
) -> (RuleSet, InferenceStats) {
    let _span = obs::FILTER_TIME.span();
    let attrs = cache.attributes();
    let judge = Judge::new(thresholds, cache);
    let mut stats = InferenceStats {
        candidates: candidates.iter().map(Vec::len).sum(),
        ..InferenceStats::default()
    };
    let mut rules = RuleSet::new();
    for cand in candidates.iter().flatten() {
        let (a, b) = (cand.a.index(), cand.b.index());
        match judge.verdict(
            Some(a),
            Some(b),
            cand.support,
            cand.confidence,
            cand.template_min_confidence,
        ) {
            Verdict::Accept => {
                stats.kept += 1;
                rules.push(Rule::new(
                    attrs[a].clone(),
                    cand.relation,
                    attrs[b].clone(),
                    cand.support,
                    cand.confidence,
                ));
            }
            Verdict::Reject(RejectReason::LowSupport) => stats.dropped_by_support += 1,
            Verdict::Reject(RejectReason::LowConfidence) => stats.dropped_by_confidence += 1,
            Verdict::Reject(RejectReason::LowEntropy) => stats.dropped_by_entropy += 1,
        }
    }
    (rules, stats)
}

/// Flush one finished unit's self-time and work counts into the
/// per-template profile table.  `profiled` is the unit's start instant,
/// present only when the profiler was on at unit start; worker self-time
/// sums across the pool, as the summed worker-busy time the table is
/// referenced against does (the coverage invariant, DESIGN.md §16).
fn finish_unit_profile(
    work: &TemplateWork<'_>,
    profiled: Option<Instant>,
    pairs_evaluated: u64,
    candidates: usize,
) {
    if let Some(started) = profiled {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs::INFER_TEMPLATE_PROFILE.record(
            &work.name,
            nanos,
            &[
                ("pairs", pairs_evaluated),
                ("candidates", candidates as u64),
            ],
        );
    }
}

/// Instantiate one unit: tally every considered pair with its A
/// attribute's [`PairEvaluator`] over the interned value-id columns —
/// presence gating is a bitset intersection, the value-only relations
/// decide each distinct value pair once from the columns' value postings
/// where those are small enough, and `=~` reads shared family rows.  A
/// pair tallied either way counts as evaluated all the same.
fn instantiate_unit(
    unit: &WorkUnit<'_, '_>,
    images: &[SystemImage],
    cache: &StatsCache,
) -> Vec<Candidate> {
    let work = unit.work;
    let template = work.template;
    // Self-time per unit, attributed to the unit's template when the
    // profiler is on (the decision is made here, once per unit, so the
    // per-pair loop below stays branch-free).
    let profiled = obs::profile::enabled().then(Instant::now);
    let mut out = Vec::new();
    // Tallied locally and flushed once per unit: one atomic add per unit
    // instead of one per pair across the worker pool.
    let (mut pairs_evaluated, mut pairs_by_value) = (0u64, 0u64);
    for &ai in &work.eligible_a[unit.a_range.clone()] {
        // One evaluator per A attribute: the `=~` family rows it builds for
        // one partner serve every partner of the same family.
        let mut evaluator = PairEvaluator::new(template.relation, cache, ai);
        for &bi in partner_indices(cache, work.generic, &work.eligible_b, ai) {
            // Structural filters (self-pairs, original-entry anchoring,
            // generic same-type restriction, symmetry canonicalization) —
            // shared with the eligibility analyzer in [`crate::eligibility`].
            if !pair_considered(template, work.generic, cache, ai, bi) {
                continue;
            }
            pairs_evaluated += 1;
            let (holds, applicable) = evaluator.tally(bi, images);
            if applicable == 0 {
                continue;
            }
            out.push(Candidate {
                a: attr_id(ai),
                b: attr_id(bi),
                relation: template.relation,
                support: applicable,
                confidence: holds as f64 / applicable as f64,
                template_min_confidence: template.min_confidence,
            });
        }
        pairs_by_value += evaluator.pairs_by_value();
    }
    obs::INFER_PAIRS_EVALUATED.add(pairs_evaluated);
    obs::INFER_PAIRS_BY_VALUE.add(pairs_by_value);
    finish_unit_profile(work, profiled, pairs_evaluated, out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_model::AppKind;
    use encore_sysimage::SystemImage;

    fn fleet(n: usize) -> Vec<SystemImage> {
        (0..n)
            .map(|i| {
                // Vary datadir across images so entropy admits it.
                let datadir = format!("/var/lib/mysql{i}");
                SystemImage::builder(format!("img-{i}"))
                    .user("mysql", 27, &["mysql"])
                    .dir(&datadir, "mysql", "mysql", 0o700)
                    .file(
                        "/etc/mysql/my.cnf",
                        "root",
                        "root",
                        0o644,
                        &format!("[mysqld]\nuser = mysql\ndatadir = {datadir}\n"),
                    )
                    .build()
            })
            .collect()
    }

    #[test]
    fn learns_ownership_rule() {
        let images = fleet(12);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        // `user` is constant across the fleet, so the entropy filter would
        // drop the rule — run without it, like the paper's Table 13 notes
        // for default-heavy template images.
        let (rules, stats) = engine.infer(&ts, &FilterThresholds::default().without_entropy());
        assert!(stats.kept > 0);
        assert!(
            rules
                .by_relation(Relation::Owns)
                .any(|r| r.a.to_string() == "datadir" && r.b.to_string() == "user"),
            "rules: {}",
            rules.render()
        );
    }

    #[test]
    fn dedup_keeps_the_first_candidate_of_each_rendered_key() {
        use crate::types::TypeMap;
        use encore_model::{ConfigValue, Row};
        let user = AttrName::entry("user");
        let owner = AttrName::entry("datadir").augmented("owner");
        // An entry literally named `datadir.owner` renders as the
        // augmented name does, so the two make one key.
        let literal = AttrName::entry("datadir.owner");
        let mut row = Row::new("s0");
        for attr in [&user, &owner, &literal] {
            row.set(attr.clone(), ConfigValue::str("mysql"));
        }
        let cache = StatsCache::from_rows(&[&row], &TypeMap::new());
        assert_eq!(cache.attributes().len(), 3, "both spellings are columns");
        let id = |attr: &AttrName| attr_id(cache.attr_index(attr).expect("attribute in the cache"));
        let cand = |a: &AttrName, relation, b: &AttrName, support| Candidate {
            a: id(a),
            b: id(b),
            relation,
            support,
            confidence: 1.0,
            template_min_confidence: None,
        };
        let mut chunks = vec![
            vec![cand(&owner, Relation::Owns, &user, 1)],
            vec![],
            vec![
                cand(&literal, Relation::Owns, &user, 2),
                cand(&owner, Relation::Equal, &user, 3),
                cand(&user, Relation::Owns, &owner, 4),
            ],
            vec![cand(&owner, Relation::Equal, &user, 5)],
        ];
        let classes = display_classes(cache.attributes());
        let mut reference = chunks.clone();
        assert_eq!(dedup_reference(&mut reference, &classes), 2);
        assert_eq!(
            dedup_candidates(&mut chunks, &Template::predefined(), &classes),
            2
        );
        assert_eq!(chunks, reference);
        let kept: Vec<usize> = chunks.iter().flatten().map(|c| c.support).collect();
        assert_eq!(kept, [1, 3, 4]);
    }

    /// Two attributes share a display class exactly when their names
    /// render alike, with classes numbered in first-seen order: checked
    /// against the rendered names on dotted entries beside the augmented
    /// names they spell, an entry beside a system attribute of the same
    /// name, and one rendering split at different dots.
    #[test]
    fn display_classes_group_exactly_the_names_that_render_alike() {
        let attrs = [
            AttrName::entry("a.b.c"),
            AttrName::entry("a").augmented("b.c"),
            AttrName::entry("a.b").augmented("c"),
            AttrName::entry("a.b"),
            AttrName::entry("a").augmented("b"),
            AttrName::entry("a"),
            AttrName::system("a"),
            AttrName::entry("ab"),
            AttrName::entry("datadir").augmented("owner"),
            AttrName::entry("datadir.owner"),
            AttrName::entry("datadir.owne"),
            AttrName::entry("datadir").augmented("owners"),
        ];
        let classes = display_classes(&attrs);
        assert_eq!(classes, [0, 0, 0, 1, 1, 2, 2, 3, 4, 4, 5, 6]);
        for (i, x) in attrs.iter().enumerate() {
            for (j, y) in attrs.iter().enumerate() {
                assert_eq!(
                    classes[i] == classes[j],
                    x.to_string() == y.to_string(),
                    "{x} vs {y}"
                );
            }
        }
    }

    /// The full-set dedup the collision rule replaced: every candidate's
    /// key inserted into one set, in unit order, keeping the first; returns
    /// how many were dropped.
    fn dedup_reference(chunks: &mut [Vec<Candidate>], classes: &[u32]) -> u64 {
        let mut seen = HashSet::new();
        let mut dropped = 0u64;
        for chunk in chunks {
            chunk.retain(|cand| {
                let fresh = seen.insert((
                    classes[cand.a.index()],
                    cand.relation,
                    classes[cand.b.index()],
                ));
                dropped += u64::from(!fresh);
                fresh
            });
        }
        dropped
    }

    /// Check [`dedup_candidates`] against [`dedup_reference`] on one
    /// training set at 1, 2 and 4 workers: the same candidates in the same
    /// order and the same count, and `try_infer_dual`, which dedups through
    /// the production path, judging what the reference kept.  Returns the
    /// count the reference dropped.
    fn dedup_matches_reference(engine: &RuleInference, ts: &TrainingSet, label: &str) -> u64 {
        let cache = ts.stats_cache();
        let classes = display_classes(cache.attributes());
        let thresholds = FilterThresholds::default();
        let mut counts = Vec::new();
        for workers in [1, 2, 4] {
            let options = InferOptions::with_workers(workers);
            let mut expected = engine
                .instantiate_via(ts, &options, instantiate_unit)
                .unwrap();
            let mut got = expected.clone();
            let expected_dropped = dedup_reference(&mut expected, &classes);
            let dropped = dedup_candidates(&mut got, engine.templates(), &classes);
            assert_eq!(dropped, expected_dropped, "{label} workers={workers}");
            assert!(
                got == expected,
                "{label} workers={workers}: kept candidates differ"
            );
            let dual = engine.try_infer_dual(ts, &thresholds, &options).unwrap();
            assert_eq!(
                dual.entropy_on,
                judge_candidates(&expected, &thresholds, cache),
                "{label} workers={workers}"
            );
            assert_eq!(
                dual.entropy_off,
                judge_candidates(&expected, &thresholds.without_entropy(), cache),
                "{label} workers={workers}"
            );
            counts.push(expected_dropped);
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{label}: {counts:?}"
        );
        counts[0]
    }

    #[test]
    fn dedup_matches_the_full_set_reference() {
        use encore_corpus::genimage::{Population, PopulationOptions};
        let mut repeated = Template::predefined();
        for text in [
            "[A:FilePath] => [B:UserName] -- 80%",
            "[A:String] == [B:String]",
        ] {
            repeated.push(Template::parse(text).unwrap());
        }
        let (predefined, repeated) = (RuleInference::predefined(), RuleInference::new(repeated));
        for (app, n, seed) in [
            (AppKind::Apache, 127, 1),
            (AppKind::Mysql, 300, 3),
            (AppKind::Php, 60, 3),
        ] {
            let pop = Population::training(app, &PopulationOptions::new(n, seed));
            let ts = TrainingSet::assemble(app, pop.images()).unwrap();
            let label = format!("{app:?} {n}/{seed}");
            // No two predefined templates share a relation, and no two
            // attributes of these sets render alike: nothing collides.
            assert_eq!(dedup_matches_reference(&predefined, &ts, &label), 0);
            // A repeated relation's instances collide with the first ones.
            assert!(
                dedup_matches_reference(&repeated, &ts, &label) > 0,
                "{label}"
            );
        }
    }

    #[test]
    fn dedup_matches_the_reference_on_names_that_render_alike() {
        // An entry literally named `datadir.owner` beside the augmented
        // `datadir.owner`: the one class the two share makes candidates
        // collide though no relation is shared.
        let images: Vec<SystemImage> = (0..12)
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
                            "[mysqld]\nuser = mysql\ndatadir = {datadir}\ndatadir.owner = mysql\n"
                        ),
                    )
                    .build()
            })
            .collect();
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let attrs = ts.stats_cache().attributes();
        let spellings = attrs
            .iter()
            .filter(|a| a.to_string() == "datadir.owner")
            .count();
        assert_eq!(spellings, 2, "both spellings are columns");
        assert!(dedup_matches_reference(&RuleInference::predefined(), &ts, "datadir.owner") > 0);
    }

    #[test]
    fn stats_attribute_drops() {
        let images = fleet(12);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        let (_, stats) = engine.infer(&ts, &FilterThresholds::default());
        assert_eq!(
            stats.candidates,
            stats.kept
                + stats.dropped_by_support
                + stats.dropped_by_confidence
                + stats.dropped_by_entropy
        );
    }

    #[test]
    fn no_rule_relates_attribute_to_itself() {
        let images = fleet(8);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let (rules, _) =
            RuleInference::predefined().infer(&ts, &FilterThresholds::default().without_entropy());
        assert!(rules.rules().iter().all(|r| r.a != r.b));
    }

    #[test]
    fn worker_counts_agree_with_sequential_reference() {
        let images = fleet(10);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        let thresholds = FilterThresholds::default().without_entropy();
        let (reference, ref_stats) = engine
            .try_infer_with(&ts, &thresholds, &InferOptions::with_workers(1))
            .unwrap();
        for workers in [2, 4, 8] {
            let (rules, stats) = engine
                .try_infer_with(&ts, &thresholds, &InferOptions::with_workers(workers))
                .unwrap();
            assert_eq!(rules, reference, "workers={workers}");
            assert_eq!(rules.render(), reference.render(), "workers={workers}");
            assert_eq!(stats, ref_stats, "workers={workers}");
        }
    }

    #[test]
    fn dual_inference_matches_two_separate_runs() {
        let images = fleet(12);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        let thresholds = FilterThresholds::default();
        let dual = engine
            .try_infer_dual(&ts, &thresholds, &InferOptions::default())
            .unwrap();
        let with = engine.infer(&ts, &thresholds);
        let without = engine.infer(&ts, &thresholds.without_entropy());
        assert_eq!(dual.entropy_on, with);
        assert_eq!(dual.entropy_off, without);
        // On this fleet the entropy filter removes rules.
        assert!(
            dual.entropy_on.0.len() < dual.entropy_off.0.len(),
            "{} rules with the entropy filter, {} without",
            dual.entropy_on.0.len(),
            dual.entropy_off.0.len()
        );
    }

    #[test]
    fn worker_panic_is_a_recoverable_error() {
        let images = fleet(6);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        let err = engine
            .instantiate_via(
                &ts,
                &InferOptions::with_workers(4),
                |_, _, _| -> Vec<Candidate> { panic!("malformed attribute") },
            )
            .expect_err("panicking workers must surface an error");
        let InferError::WorkerPanicked { message, .. } = err;
        assert!(message.contains("malformed attribute"));
        // The process (and this test) survived: the error is recoverable,
        // and a subsequent well-formed run still succeeds.
        assert!(engine.try_infer(&ts, &FilterThresholds::default()).is_ok());
    }

    #[test]
    fn dead_unit_pruning_is_invisible_in_output() {
        let images = fleet(10);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        let thresholds = FilterThresholds::default().without_entropy();
        let (unpruned, unpruned_stats) = engine
            .try_infer_with(
                &ts,
                &thresholds,
                &InferOptions::with_workers(1).without_pruning(),
            )
            .unwrap();
        for workers in [1, 2, 4] {
            let (pruned, stats) = engine
                .try_infer_with(&ts, &thresholds, &InferOptions::with_workers(workers))
                .unwrap();
            assert_eq!(pruned, unpruned, "workers={workers}");
            assert_eq!(pruned.render(), unpruned.render(), "workers={workers}");
            assert_eq!(stats, unpruned_stats, "workers={workers}");
        }
    }

    /// Learned rules and statistics on the 12-image fleet, recorded from
    /// the row-major evaluator the columnar one replaced.  Regenerate after
    /// an intentional change with `UPDATE_GOLDEN=1 cargo test -p encore
    /// --lib inference_matches`.
    const INFER_GOLDEN: &str = include_str!("../tests/golden/infer_fleet12.txt");

    #[test]
    fn inference_matches_the_golden_file() {
        let images = fleet(12);
        let ts = TrainingSet::assemble(AppKind::Mysql, &images).unwrap();
        let engine = RuleInference::predefined();
        let run = |workers: usize| {
            // Both filter settings, so entropy-sensitive f64s are pinned too.
            let mut rendered = String::new();
            for thresholds in [
                FilterThresholds::default(),
                FilterThresholds::default().without_entropy(),
            ] {
                let (rules, stats) = engine
                    .try_infer_with(&ts, &thresholds, &InferOptions::with_workers(workers))
                    .unwrap();
                rendered.push_str(&format!(
                    "== use_entropy={}\n{stats:?}\n{}",
                    thresholds.use_entropy,
                    rules.render()
                ));
            }
            rendered
        };
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            let path = concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/infer_fleet12.txt"
            );
            std::fs::write(path, run(1)).expect("write golden");
            return;
        }
        for workers in [1, 2, 4] {
            assert_eq!(
                run(workers),
                INFER_GOLDEN,
                "workers={workers}; run with UPDATE_GOLDEN=1 if intentional"
            );
        }
    }
}
