//! Rule-set linting: contradictions, redundancy, and orphans in a learned
//! (or hand-written) rule set.
//!
//! The inference filters guarantee per-rule statistical quality, but say
//! nothing about the set as a whole — two individually high-confidence
//! rules can still be jointly unsatisfiable, and customization files (§5.3)
//! are hand-edited, so they drift.  This linter checks the *set*:
//!
//! * **Contradictions** — `A < B` with `B < A` (`EC020`), one path owned by
//!   two different user entries (`EC021`), `A == B` alongside a strict
//!   ordering between the same pair (`EC022`).
//! * **Redundancy** — symmetric duplicates of the commutative `==`
//!   (`EC030`), substring rules subsumed by an equality on the same pair
//!   (`EC031`), exact duplicates (`EC032`).
//! * **Orphans** — rules referencing attributes the corpus does not contain
//!   at all (`EC040`); such rules can never fire and usually indicate a
//!   renamed entry or a stale customization file.
//! * **Ordering cycles** — a *transitive* contradiction through three or
//!   more strict ordering rules (`A < B`, `B < C`, `C < A`, `EC060`); each
//!   pair is individually satisfiable, so the pairwise `EC020` check cannot
//!   see it, but the set as a whole admits no assignment.

use crate::diag::{Code, Diagnostic, Severity};
use encore::{DetectorSnapshot, Relation, Rule, RuleSet, StatsCache};
use encore_model::AttrName;
use std::collections::{BTreeMap, BTreeSet};

/// Lint a detector snapshot's bundled artifacts against each other.
///
/// `EC071`: a [`encore::TypeMap`] entry that no rule in the bundled rule
/// set references *and* that the bundled training statistics never
/// observed.  Rules, types, and stats are retrained together, and every
/// type the inference produces comes from an observed value — so a typed
/// attribute with neither a referencing rule nor a value histogram means
/// the type map comes from a *different* retrain than the rest of the
/// snapshot (hand-stitched from two training runs, or edited after the
/// fact) — drift worth flagging before the artifact serves a fleet.  The
/// type still participates in check 3 (data-type violations), so this is a
/// warning, not an error.
pub fn lint_snapshot(snapshot: &DetectorSnapshot) -> Vec<Diagnostic> {
    let referenced: BTreeSet<&AttrName> = snapshot
        .rules()
        .rules()
        .iter()
        .flat_map(|r| [&r.a, &r.b])
        .collect();
    let observed = snapshot.stats();
    snapshot
        .types()
        .iter()
        .filter(|(attr, _)| !referenced.contains(attr) && observed.histogram(attr).is_none())
        .map(|(attr, ty)| {
            Diagnostic::new(
                Code::UnreferencedTypeEntry,
                format!(
                    "type entry `{attr}: {ty}` is referenced by no rule and was never \
                     observed in the snapshot's training statistics (rules and types \
                     from different retrains?)"
                ),
            )
            .with_context(format!("{}\t{}", attr.render_tagged(), ty.name()))
        })
        .collect()
}

/// Lint a rule set.  With a [`StatsCache`] the linter also checks orphans
/// against the corpus and looks for row evidence when judging conflicting
/// owners; without one, corpus-dependent checks are skipped or downgraded.
pub fn lint_rules(rules: &RuleSet, cache: Option<&StatsCache>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let all: Vec<&Rule> = rules.rules().iter().collect();

    for (i, rule) in all.iter().enumerate() {
        let earlier = &all[..i];

        // EC032: exact duplicate (same pair, same relation).
        if earlier
            .iter()
            .any(|p| p.relation == rule.relation && p.a == rule.a && p.b == rule.b)
        {
            diags.push(
                Diagnostic::new(
                    Code::DuplicateRule,
                    format!(
                        "rule `{} {} {}` appears more than once",
                        rule.a, rule.relation, rule.b
                    ),
                )
                .with_context(rule.render()),
            );
            continue; // further findings would duplicate the first copy's
        }

        // EC020: contradictory strict ordering.
        if matches!(rule.relation, Relation::LessNum | Relation::LessSize) {
            if let Some(rev) = earlier
                .iter()
                .find(|p| p.relation == rule.relation && p.a == rule.b && p.b == rule.a)
            {
                diags.push(
                    Diagnostic::new(
                        Code::ContradictoryOrdering,
                        format!(
                            "`{} < {}` contradicts the earlier `{} < {}`: no system \
                             can satisfy both",
                            rule.a, rule.b, rev.a, rev.b
                        ),
                    )
                    .with_context(rule.render()),
                );
            }
        }

        // EC030: symmetric duplicate of the commutative ==.
        if rule.relation == Relation::Equal {
            if let Some(rev) = earlier
                .iter()
                .find(|p| p.relation == Relation::Equal && p.a == rule.b && p.b == rule.a)
            {
                diags.push(
                    Diagnostic::new(
                        Code::SymmetricEqualDuplicate,
                        format!(
                            "`{} == {}` restates the earlier `{} == {}`: equality is \
                             symmetric",
                            rule.a, rule.b, rev.a, rev.b
                        ),
                    )
                    .with_context(rule.render()),
                );
            }
        }

        // EC022: equality alongside a strict ordering on the same pair.
        if matches!(rule.relation, Relation::LessNum | Relation::LessSize) {
            if let Some(eq) = earlier
                .iter()
                .find(|p| p.relation == Relation::Equal && same_pair_unordered(p, &rule.a, &rule.b))
            {
                diags.push(equal_vs_ordering(rule, eq).with_context(rule.render()));
            }
        }
        if rule.relation == Relation::Equal {
            if let Some(ord) = earlier.iter().find(|p| {
                matches!(p.relation, Relation::LessNum | Relation::LessSize)
                    && same_pair_unordered(rule, &p.a, &p.b)
            }) {
                diags.push(equal_vs_ordering(ord, rule).with_context(rule.render()));
            }
        }

        // EC031: substring subsumed by equality on the same pair.
        if rule.relation == Relation::SubstringOf {
            if let Some(eq) = earlier
                .iter()
                .find(|p| p.relation == Relation::Equal && same_pair_unordered(p, &rule.a, &rule.b))
            {
                diags.push(
                    Diagnostic::new(
                        Code::SubstringSubsumedByEqual,
                        format!(
                            "`{} substring-of {}` is implied by the equality `{} == {}`",
                            rule.a, rule.b, eq.a, eq.b
                        ),
                    )
                    .with_context(rule.render()),
                );
            }
        }

        // EC021: one path claimed by two different owner entries.
        if rule.relation == Relation::Owns {
            if let Some(other) = earlier
                .iter()
                .find(|p| p.relation == Relation::Owns && p.a == rule.a && p.b != rule.b)
            {
                diags.push(conflicting_owners(rule, other, cache));
            }
        }

        // EC040: orphan attributes.
        if let Some(cache) = cache {
            for attr in [&rule.a, &rule.b] {
                if !cache.has_attribute(attr) {
                    diags.push(
                        Diagnostic::new(
                            Code::OrphanRule,
                            format!("rule references `{attr}`, which no training system has"),
                        )
                        .with_context(rule.render()),
                    );
                }
            }
        }
    }
    diags.extend(ordering_cycles(&all));
    diags
}

/// EC060: transitive cycles in the strict-ordering rule graph.
///
/// Each of `<num` and `<size` induces a directed graph over attributes; a
/// cycle of length ≥ 3 means the rules are jointly unsatisfiable even
/// though every pair passes the `EC020` check.  2-cycles are exactly what
/// `EC020` already reports and are skipped here.  Cycles are deduplicated
/// by canonical rotation (smallest attribute first), and each diagnostic
/// carries the cycle-closing rule as context.
fn ordering_cycles(all: &[&Rule]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for relation in [Relation::LessNum, Relation::LessSize] {
        // Edge map a → (b, closing rule); first rule wins for duplicates
        // (EC032 reports the copies).
        let mut adjacency: BTreeMap<&AttrName, Vec<&AttrName>> = BTreeMap::new();
        let mut edge_rule: BTreeMap<(&AttrName, &AttrName), &Rule> = BTreeMap::new();
        for rule in all {
            if rule.relation == relation {
                adjacency.entry(&rule.a).or_default().push(&rule.b);
                edge_rule.entry((&rule.a, &rule.b)).or_insert(rule);
            }
        }
        let mut seen: BTreeSet<Vec<&AttrName>> = BTreeSet::new();
        for cycle in find_cycles(&adjacency) {
            if cycle.len() < 3 || !seen.insert(canonical_rotation(&cycle)) {
                continue;
            }
            let chain = cycle
                .iter()
                .chain(std::iter::once(&cycle[0]))
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(" < ");
            let closing = edge_rule[&(*cycle.last().expect("non-empty cycle"), cycle[0])];
            diags.push(
                Diagnostic::new(
                    Code::OrderingCycle,
                    format!(
                        "ordering cycle `{chain}`: every pair is satisfiable, but the \
                         {} rules together admit no assignment",
                        cycle.len()
                    ),
                )
                .with_context(closing.render()),
            );
        }
    }
    diags
}

/// Rotate a cycle so its smallest attribute comes first — the canonical
/// form under which rotations of the same cycle compare equal.
fn canonical_rotation<'a>(cycle: &[&'a AttrName]) -> Vec<&'a AttrName> {
    let start = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, a)| **a)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[start..]);
    out.extend_from_slice(&cycle[..start]);
    out
}

/// Depth-first cycle search with the usual white/gray/black coloring: a
/// back edge to a gray node closes a cycle, read off the path stack.
/// Every component is visited, so disjoint cycles are all found; nodes are
/// blackened after exploration, so the search stays linear in the graph.
fn find_cycles<'a>(
    adjacency: &BTreeMap<&'a AttrName, Vec<&'a AttrName>>,
) -> Vec<Vec<&'a AttrName>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        Gray,
        Black,
    }
    fn visit<'a>(
        node: &'a AttrName,
        adjacency: &BTreeMap<&'a AttrName, Vec<&'a AttrName>>,
        color: &mut BTreeMap<&'a AttrName, Color>,
        path: &mut Vec<&'a AttrName>,
        cycles: &mut Vec<Vec<&'a AttrName>>,
    ) {
        color.insert(node, Color::Gray);
        path.push(node);
        for &next in adjacency.get(node).into_iter().flatten() {
            match color.get(next) {
                Some(Color::Gray) => {
                    let start = path
                        .iter()
                        .position(|&n| n == next)
                        .expect("gray node is on the path");
                    cycles.push(path[start..].to_vec());
                }
                Some(Color::Black) => {}
                None => visit(next, adjacency, color, path, cycles),
            }
        }
        path.pop();
        color.insert(node, Color::Black);
    }

    let mut color = BTreeMap::new();
    let mut cycles = Vec::new();
    for &node in adjacency.keys() {
        if !color.contains_key(node) {
            visit(node, adjacency, &mut color, &mut Vec::new(), &mut cycles);
        }
    }
    cycles
}

/// Whether `rule` relates exactly the unordered pair `{a, b}`.
fn same_pair_unordered(rule: &Rule, a: &AttrName, b: &AttrName) -> bool {
    (rule.a == *a && rule.b == *b) || (rule.a == *b && rule.b == *a)
}

fn equal_vs_ordering(ordering: &Rule, eq: &Rule) -> Diagnostic {
    Diagnostic::new(
        Code::EqualContradictsOrdering,
        format!(
            "`{} == {}` contradicts the strict ordering `{} < {}`",
            eq.a, eq.b, ordering.a, ordering.b
        ),
    )
}

/// Two `Owns` rules claim the same path for different user entries.  That is
/// only a real contradiction if the two user entries can hold *different*
/// values — if they always agree (aliased entries), it is merely redundant.
/// With a corpus we look for the first row where both are present and
/// their rendered values differ; found ⇒ Error, not found (or no corpus) ⇒
/// Warning.
fn conflicting_owners(rule: &Rule, other: &Rule, cache: Option<&StatsCache>) -> Diagnostic {
    let evidence = cache.and_then(|cache| {
        let store = cache.columns();
        let interner = store.interner();
        let a = store.column(cache.attr_index(&rule.b)?);
        let b = store.column(cache.attr_index(&other.b)?);
        (0..store.num_rows()).find_map(|row| {
            let (va, vb) = (a.value_id(row)?, b.value_id(row)?);
            (interner.render_class(va) != interner.render_class(vb)).then(|| {
                format!(
                    "system `{}` has {}={} but {}={}",
                    cache.system_id(row),
                    rule.b,
                    interner.render_of(va),
                    other.b,
                    interner.render_of(vb)
                )
            })
        })
    });
    let base = format!(
        "`{}` is claimed by both `{}` and `{}` as owner",
        rule.a, rule.b, other.b
    );
    match evidence {
        Some(ev) => Diagnostic::new(Code::ConflictingOwners, format!("{base}; {ev}"))
            .with_context(rule.render()),
        None => Diagnostic::new(
            Code::ConflictingOwners,
            format!("{base}; no training row shows them differing, so this may be an alias"),
        )
        .with_severity(Severity::Warning)
        .with_context(rule.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(a: &str, relation: Relation, b: &str) -> Rule {
        Rule::new(AttrName::entry(a), relation, AttrName::entry(b), 10, 1.0)
    }

    #[test]
    fn clean_set_is_clean() {
        let set: RuleSet = vec![
            rule("datadir", Relation::Owns, "user"),
            rule("min_size", Relation::LessSize, "max_size"),
        ]
        .into_iter()
        .collect();
        assert!(lint_rules(&set, None).is_empty());
    }

    #[test]
    fn contradictory_ordering_gets_ec020() {
        let set: RuleSet = vec![
            rule("a", Relation::LessNum, "b"),
            rule("b", Relation::LessNum, "a"),
        ]
        .into_iter()
        .collect();
        let diags = lint_rules(&set, None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::ContradictoryOrdering);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn equal_vs_ordering_gets_ec022_both_orders() {
        for rules in [
            vec![
                rule("a", Relation::Equal, "b"),
                rule("b", Relation::LessSize, "a"),
            ],
            vec![
                rule("a", Relation::LessNum, "b"),
                rule("b", Relation::Equal, "a"),
            ],
        ] {
            let set: RuleSet = rules.into_iter().collect();
            let diags = lint_rules(&set, None);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, Code::EqualContradictsOrdering);
        }
    }

    #[test]
    fn symmetric_equal_gets_ec030_and_duplicate_gets_ec032() {
        let set: RuleSet = vec![
            rule("a", Relation::Equal, "b"),
            rule("b", Relation::Equal, "a"),
            rule("a", Relation::Equal, "b"),
        ]
        .into_iter()
        .collect();
        let diags = lint_rules(&set, None);
        let codes: Vec<Code> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![Code::SymmetricEqualDuplicate, Code::DuplicateRule],
            "{diags:?}"
        );
    }

    #[test]
    fn substring_subsumed_gets_ec031() {
        let set: RuleSet = vec![
            rule("a", Relation::Equal, "b"),
            rule("a", Relation::SubstringOf, "b"),
        ]
        .into_iter()
        .collect();
        let diags = lint_rules(&set, None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::SubstringSubsumedByEqual);
    }

    #[test]
    fn three_cycle_gets_one_ec060() {
        let set: RuleSet = vec![
            rule("a", Relation::LessNum, "b"),
            rule("b", Relation::LessNum, "c"),
            rule("c", Relation::LessNum, "a"),
        ]
        .into_iter()
        .collect();
        let diags = lint_rules(&set, None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::OrderingCycle);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("a < b < c < a"), "{diags:?}");
        // Context is the cycle-closing rule.
        assert!(
            diags[0].context.as_deref().unwrap_or("").contains('c'),
            "{diags:?}"
        );
    }

    #[test]
    fn acyclic_chain_has_no_ec060() {
        let set: RuleSet = vec![
            rule("a", Relation::LessNum, "b"),
            rule("b", Relation::LessNum, "c"),
            rule("a", Relation::LessNum, "c"),
        ]
        .into_iter()
        .collect();
        assert!(lint_rules(&set, None).is_empty());
    }

    #[test]
    fn two_cycle_is_ec020_not_ec060() {
        let set: RuleSet = vec![
            rule("a", Relation::LessSize, "b"),
            rule("b", Relation::LessSize, "a"),
        ]
        .into_iter()
        .collect();
        let codes: Vec<Code> = lint_rules(&set, None).iter().map(|d| d.code).collect();
        assert_eq!(codes, vec![Code::ContradictoryOrdering]);
    }

    #[test]
    fn disjoint_cycles_each_get_ec060() {
        let set: RuleSet = vec![
            rule("a", Relation::LessNum, "b"),
            rule("b", Relation::LessNum, "c"),
            rule("c", Relation::LessNum, "a"),
            rule("x", Relation::LessNum, "y"),
            rule("y", Relation::LessNum, "z"),
            rule("z", Relation::LessNum, "x"),
        ]
        .into_iter()
        .collect();
        let diags = lint_rules(&set, None);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == Code::OrderingCycle));
    }

    #[test]
    fn mixed_relations_do_not_form_a_cycle() {
        // a <num b <size c <num a: no single relation's graph is cyclic.
        let set: RuleSet = vec![
            rule("a", Relation::LessNum, "b"),
            rule("b", Relation::LessSize, "c"),
            rule("c", Relation::LessNum, "a"),
        ]
        .into_iter()
        .collect();
        assert!(lint_rules(&set, None).is_empty());
    }

    #[test]
    fn unreferenced_type_entries_get_ec071() {
        use encore::{TrainingStats, TypeMap};
        use encore_model::SemType;
        let rules: RuleSet = vec![rule("datadir", Relation::Owns, "user")]
            .into_iter()
            .collect();
        let mut types = TypeMap::new();
        types.set(AttrName::entry("datadir"), SemType::FilePath);
        types.set(AttrName::entry("ghost_entry"), SemType::Number);
        // `port` is unreferenced by the rules but *observed* in training —
        // the normal case for value-check-only attributes — so it is clean.
        types.set(AttrName::entry("port"), SemType::Number);
        let port = AttrName::entry("port");
        let snapshot = DetectorSnapshot::new(
            rules,
            types,
            TrainingStats::from_parts(8, [], [(&port, "3306", 8)]),
        );
        let diags = lint_snapshot(&snapshot);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::UnreferencedTypeEntry);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("ghost_entry"), "{diags:?}");
    }

    #[test]
    fn fully_referenced_snapshot_types_are_clean() {
        use encore::{TrainingStats, TypeMap};
        use encore_model::SemType;
        let rules: RuleSet = vec![rule("a", Relation::LessNum, "b")]
            .into_iter()
            .collect();
        let mut types = TypeMap::new();
        types.set(AttrName::entry("a"), SemType::Number);
        types.set(AttrName::entry("b"), SemType::Number);
        let snapshot = DetectorSnapshot::new(rules, types, TrainingStats::from_parts(8, [], []));
        assert!(lint_snapshot(&snapshot).is_empty());
    }

    #[test]
    fn conflicting_owners_without_corpus_is_warning() {
        let set: RuleSet = vec![
            rule("datadir", Relation::Owns, "user"),
            rule("datadir", Relation::Owns, "backup_user"),
        ]
        .into_iter()
        .collect();
        let diags = lint_rules(&set, None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::ConflictingOwners);
        assert_eq!(diags[0].severity, Severity::Warning);
    }
}
