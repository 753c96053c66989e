//! Template eligibility analysis over a corpus.
//!
//! EnCore's search is *type-directed* (Finding 3, §5.1): a template slot
//! only accepts attributes of a matching [`SemType`].  This module is the
//! single source of truth for what "eligible" means — which attributes fit
//! each slot, and which `(a, b)` pairs a template would actually evaluate —
//! shared by the inference engine ([`crate::infer`]) and the `encore-check`
//! corpus analyzer, so the two can never drift.
//!
//! On top of the type restriction, the [`StatsCache`] presence bitsets give
//! a cheap *liveness* test: a pair whose attributes never co-occur in any
//! training row can never be applicable, so work spent evaluating it is
//! dead.  [`analyze_templates`] reports per-template liveness (the
//! `encore-lint` dead-template diagnostics), and the inference engine uses
//! the same masks to skip dead `(template, a-chunk)` units before they
//! reach the worker pool.

use crate::stats::StatsCache;
use crate::template::{Relation, Template};
use encore_model::SemType;

/// Sorted attribute indices eligible for a slot type, served from the
/// per-type buckets the [`StatsCache`] inverts out of its resolved types —
/// a bucket lookup instead of a type test over every attribute.
///
/// `Str` slots accept only genuinely string-typed attributes — allowing
/// every attribute in `Str` slots would reintroduce the quadratic blow-up
/// the type restriction exists to avoid.
pub(crate) fn eligible_indices(cache: &StatsCache, slot_ty: SemType) -> Vec<usize> {
    match slot_ty {
        // Plain numbers and ports compare; sizes have their own template
        // (comparing seconds against bytes is never a correlation).  The
        // merge keeps indices ascending, so the binding order matches the
        // sorted-attribute filter this replaced.
        SemType::Number => {
            let (nums, ports) = (
                cache.type_bucket(SemType::Number),
                cache.type_bucket(SemType::PortNumber),
            );
            let mut merged = Vec::with_capacity(nums.len() + ports.len());
            let (mut i, mut j) = (0, 0);
            while i < nums.len() || j < ports.len() {
                match (nums.get(i), ports.get(j)) {
                    (Some(&n), Some(&p)) if n < p => {
                        merged.push(n);
                        i += 1;
                    }
                    (Some(_), Some(&p)) => {
                        merged.push(p);
                        j += 1;
                    }
                    (Some(&n), None) => {
                        merged.push(n);
                        i += 1;
                    }
                    (None, Some(&p)) => {
                        merged.push(p);
                        j += 1;
                    }
                    (None, None) => unreachable!("loop guard"),
                }
            }
            merged
        }
        other => cache.type_bucket(other).to_vec(),
    }
}

/// The b-side attribute indices the instantiation loop enumerates for the
/// a-side attribute at `a_index` — shared by [`crate::infer`] and
/// [`analyze_templates`] so the two enumerations can never drift.
///
/// For a same-type generic template this is the type-bucket join: only b's
/// of `a`'s own type, since [`pair_considered`] rejects every cross-type
/// pair anyway.  The bucket is an ascending sub-sequence of the full
/// eligible-B list, so the surviving pair order (and every pair count) is
/// identical to filtering the cross product.  [`pair_considered`] remains
/// the authority on each enumerated pair.
pub(crate) fn partner_indices<'c>(
    cache: &'c StatsCache,
    generic: bool,
    eligible_b: &'c [usize],
    a_index: usize,
) -> &'c [usize] {
    if generic {
        cache.type_bucket(cache.type_at(a_index))
    } else {
        eligible_b
    }
}

/// Whether a template is *same-type generic*: the paper's `==` and `=~`
/// templates read "an entry should equal another entry *of the same type*",
/// so a `[A:Str] == [B:Str]` spelling instantiates over every type, with the
/// pair constrained to matching types.
pub(crate) fn is_same_type_generic(template: &Template) -> bool {
    template.relation.signature().same_type_generic
        && template.a.ty == SemType::Str
        && template.b.ty == SemType::Str
}

/// Whether the instantiation loop would evaluate the pair of attributes at
/// sorted indices `(ai, bi)` for this template at all — the structural
/// filters applied before any row is touched.  Shared by [`crate::infer`]
/// and the eligibility analysis.
///
/// The cache's attribute table is sorted and holds each name once, so
/// index equality is name equality and index order is name order: self
/// pairs and the `Equal` symmetry are decided without comparing names, and
/// types come from the per-index table.
pub(crate) fn pair_considered(
    template: &Template,
    generic: bool,
    cache: &StatsCache,
    ai: usize,
    bi: usize,
) -> bool {
    if ai == bi {
        return false;
    }
    let attrs = cache.attributes();
    let (a, b) = (&attrs[ai], &attrs[bi]);
    // Rules must anchor on at least one original configuration entry.
    // Augmented attributes of ownership-coupled paths form large
    // equivalence cliques (X.owner == Y.owner == ... for every pair); the
    // original-entry rules (X.owner == user, X => user) already capture
    // that structure without the quadratic echo.
    if !a.is_original() && !b.is_original() {
        return false;
    }
    // Ownership/accessibility rules bind the *user entry* itself (the
    // paper's `DataDir => user`); letting the user slot range over
    // augmented `.owner` mirrors re-derives each ownership clique
    // transitively.
    if matches!(template.relation, Relation::Owns | Relation::NotAccessible) && !b.is_original() {
        return false;
    }
    if generic {
        let (ta, tb) = (cache.type_at(ai), cache.type_at(bi));
        // Same-type restriction, and equality over booleans/enums is
        // vacuous co-occurrence rather than correlation — skip it,
        // matching the spirit of the paper's type-based selection.
        if ta != tb || matches!(ta, SemType::Boolean | SemType::Enum) {
            return false;
        }
        // Equality is symmetric: keep the canonical ordering only.
        if template.relation == Relation::Equal && ai > bi {
            return false;
        }
        // `=~` quantifies over an entry *family* (occurrence-indexed
        // attributes like `LoadModule#n/arg1` or `Directory#n/section`);
        // a singleton B degenerates to `==`, so require a family.
        if template.relation == Relation::MemberEq && !b.base().contains('#') {
            return false;
        }
    }
    // Owner relations between an entry and its own augmented attribute are
    // tautologies (datadir.owner always owns datadir); skip same-base pairs
    // for env-backed relations.
    if a.base() == b.base()
        && matches!(
            template.relation,
            Relation::Owns | Relation::Equal | Relation::MemberEq
        )
    {
        return false;
    }
    true
}

/// Per-template eligibility under one corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct EligibilityReport {
    /// The analyzed template.
    pub template: Template,
    /// Attributes eligible for slot A.
    pub eligible_a: usize,
    /// Attributes eligible for slot B.
    pub eligible_b: usize,
    /// Pairs surviving the structural filters (types, anchoring, symmetry).
    pub considered_pairs: usize,
    /// Considered pairs whose attributes co-occur in at least one row —
    /// the pairs that can possibly produce a candidate rule.
    pub live_pairs: usize,
}

impl EligibilityReport {
    /// A *dead* template instantiates nothing under this corpus: the full
    /// O(pairs × rows) pass is wasted work and the template deserves a
    /// diagnostic.
    pub fn is_dead(&self) -> bool {
        self.live_pairs == 0
    }
}

/// Analyze each template's eligibility under the corpus captured by
/// `cache`.  The pair accounting matches the inference engine exactly —
/// both sides call the same slot and pair predicates.
pub fn analyze_templates(templates: &[Template], cache: &StatsCache) -> Vec<EligibilityReport> {
    templates
        .iter()
        .map(|template| {
            let n = cache.attributes().len();
            let generic = is_same_type_generic(template);
            let (eligible_a, eligible_b): (Vec<usize>, Vec<usize>) = if generic {
                ((0..n).collect(), (0..n).collect())
            } else {
                (
                    eligible_indices(cache, template.a.ty),
                    eligible_indices(cache, template.b.ty),
                )
            };
            let mut considered = 0usize;
            let mut live = 0usize;
            for &ai in &eligible_a {
                for &bi in partner_indices(cache, generic, &eligible_b, ai) {
                    if !pair_considered(template, generic, cache, ai, bi) {
                        continue;
                    }
                    considered += 1;
                    if cache.co_occurs(ai, bi) {
                        live += 1;
                    }
                }
            }
            EligibilityReport {
                template: template.clone(),
                eligible_a: eligible_a.len(),
                eligible_b: eligible_b.len(),
                considered_pairs: considered,
                live_pairs: live,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainingSet;
    use encore_model::{AppKind, AttrName};
    use encore_sysimage::SystemImage;

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
                        &format!("[mysqld]\nuser = mysql\ndatadir = {datadir}\n"),
                    )
                    .build()
            })
            .collect()
    }

    #[test]
    fn ownership_template_is_live_on_mysql_fleet() {
        let ts = TrainingSet::assemble(AppKind::Mysql, &fleet(8)).unwrap();
        let cache = ts.stats_cache();
        let templates = vec![Template::new(
            SemType::FilePath,
            Relation::Owns,
            SemType::UserName,
        )];
        let reports = analyze_templates(&templates, cache);
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].is_dead(), "{:?}", reports[0]);
        assert!(reports[0].live_pairs > 0);
        assert!(reports[0].live_pairs <= reports[0].considered_pairs);
    }

    #[test]
    fn type_starved_template_is_dead() {
        let ts = TrainingSet::assemble(AppKind::Mysql, &fleet(8)).unwrap();
        let cache = ts.stats_cache();
        // The MySQL corpus has no URL-typed attributes.
        let templates = vec![Template::new(SemType::Url, Relation::Equal, SemType::Url)];
        let reports = analyze_templates(&templates, cache);
        assert!(reports[0].is_dead(), "{:?}", reports[0]);
        assert_eq!(reports[0].eligible_a, 0);
    }

    #[test]
    fn bucket_eligibility_matches_filter_reference() {
        let ts = TrainingSet::assemble(AppKind::Mysql, &fleet(8)).unwrap();
        let cache = ts.stats_cache();
        for ty in SemType::PRIORITY {
            let via_buckets = eligible_indices(cache, ty);
            let reference: Vec<usize> = cache
                .attributes()
                .iter()
                .enumerate()
                .filter(|(_, a)| {
                    let t = cache.type_of(a);
                    match ty {
                        SemType::Number => matches!(t, SemType::Number | SemType::PortNumber),
                        other => t == other,
                    }
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(via_buckets, reference, "{ty}");
        }
    }

    #[test]
    fn type_bucket_join_matches_filtered_cross_product() {
        // For generic templates the bucket join must enumerate exactly the
        // pairs surviving `pair_considered` over the full cross product, in
        // the same order — the invariant that keeps the evaluated-pair
        // stream (and `infer.pairs.evaluated`) byte-identical.
        let ts = TrainingSet::assemble(AppKind::Mysql, &fleet(8)).unwrap();
        let cache = ts.stats_cache();
        let attrs = cache.attributes();
        let all: Vec<usize> = (0..attrs.len()).collect();
        for template in Template::predefined() {
            if !is_same_type_generic(&template) {
                continue;
            }
            for &ai in &all {
                let survives = |&&bi: &&usize| pair_considered(&template, true, cache, ai, bi);
                let joined: Vec<usize> = partner_indices(cache, true, &all, ai)
                    .iter()
                    .filter(survives)
                    .copied()
                    .collect();
                let crossed: Vec<usize> = all.iter().filter(survives).copied().collect();
                assert_eq!(joined, crossed, "template {template:?} a={}", attrs[ai]);
            }
        }
    }

    #[test]
    fn pair_filters_reject_self_and_augmented_pairs() {
        let ts = TrainingSet::assemble(AppKind::Mysql, &fleet(4)).unwrap();
        let cache = ts.stats_cache();
        let index = |attr: &AttrName| cache.attr_index(attr).expect("attribute in the cache");
        let t = Template::new(SemType::FilePath, Relation::Owns, SemType::UserName);
        let a = index(&AttrName::entry("datadir"));
        assert!(!pair_considered(&t, false, cache, a, a));
        // Owns must bind an original user entry, not an augmented mirror.
        let aug = index(&AttrName::entry("datadir").augmented("owner"));
        assert!(!pair_considered(&t, false, cache, a, aug));
        let user = index(&AttrName::entry("user"));
        assert!(pair_considered(&t, false, cache, a, user));
    }

    /// The name-based pair filter the index version replaced: self pairs
    /// and the `Equal` symmetry by name comparison, types through
    /// [`StatsCache::type_of`].
    fn pair_considered_by_name(
        template: &Template,
        generic: bool,
        cache: &StatsCache,
        a: &AttrName,
        b: &AttrName,
    ) -> bool {
        if a == b {
            return false;
        }
        if !a.is_original() && !b.is_original() {
            return false;
        }
        if matches!(template.relation, Relation::Owns | Relation::NotAccessible) && !b.is_original()
        {
            return false;
        }
        if generic {
            let (ta, tb) = (cache.type_of(a), cache.type_of(b));
            if ta != tb || matches!(ta, SemType::Boolean | SemType::Enum) {
                return false;
            }
            if template.relation == Relation::Equal && a > b {
                return false;
            }
            if template.relation == Relation::MemberEq && !b.base().contains('#') {
                return false;
            }
        }
        !(a.base() == b.base()
            && matches!(
                template.relation,
                Relation::Owns | Relation::Equal | Relation::MemberEq
            ))
    }

    /// The per-pair `=~` family scan the family table replaced: every
    /// attribute whose occurrence-stripped base and suffix match `b`'s.
    fn family_by_scan(cache: &StatsCache, b: usize) -> Vec<usize> {
        let attrs = cache.attributes();
        let stripped = crate::relation::strip_occurrence(attrs[b].base());
        (0..attrs.len())
            .filter(|&j| {
                crate::relation::strip_occurrence(attrs[j].base()) == stripped
                    && attrs[j].suffix() == attrs[b].suffix()
            })
            .collect()
    }

    /// The BENCH training set (MySQL, 30 images, seed 1) and the
    /// `train-wide` one (Apache, 127 images, seed 1).
    fn reference_sets() -> [TrainingSet; 2] {
        use encore_corpus::genimage::{Population, PopulationOptions};
        [(AppKind::Mysql, 30), (AppKind::Apache, 127)].map(|(app, n)| {
            let pop = Population::training(app, &PopulationOptions::new(n, 1));
            TrainingSet::assemble(app, pop.images()).unwrap()
        })
    }

    #[test]
    fn index_pair_filter_matches_the_name_reference() {
        for ts in reference_sets() {
            let cache = ts.stats_cache();
            let attrs = cache.attributes();
            for template in Template::predefined() {
                let generic = is_same_type_generic(&template);
                for ai in 0..attrs.len() {
                    for bi in 0..attrs.len() {
                        assert_eq!(
                            pair_considered(&template, generic, cache, ai, bi),
                            pair_considered_by_name(
                                &template, generic, cache, &attrs[ai], &attrs[bi]
                            ),
                            "{:?} {template} ({}, {})",
                            ts.app(),
                            attrs[ai],
                            attrs[bi]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn family_table_matches_the_per_pair_scan() {
        for ts in reference_sets() {
            let cache = ts.stats_cache();
            let mut multi = 0;
            for b in 0..cache.attributes().len() {
                assert_eq!(
                    cache.family(b),
                    family_by_scan(cache, b),
                    "{:?} {}",
                    ts.app(),
                    cache.attributes()[b]
                );
                multi += usize::from(cache.family(b).len() > 1);
            }
            // Apache's `#n` entries form real families; MySQL has none.
            assert_eq!(multi > 0, ts.app() == AppKind::Apache, "{:?}", ts.app());
        }
    }
}
