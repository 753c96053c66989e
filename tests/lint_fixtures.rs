//! Fixture-driven acceptance tests for the static analysis layer: a corpus
//! with seeded defects must be flagged with the stable `EC0xx` codes and a
//! failing exit status, while the predefined templates plus a cleanly
//! learned rule set must produce zero error-severity diagnostics.

use encore::prelude::*;
use encore::{StatsCache, TypeMap};
use encore_check::{check_all, Code, LintReport, Severity};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::{AppKind, AttrName, ConfigValue, Row, SemType};

fn mysql_training() -> TrainingSet {
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(20, 7));
    TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles")
}

#[test]
fn seeded_defects_are_flagged_with_stable_codes() {
    let training = mysql_training();
    let cache = training.stats_cache();

    // Seed the template list with an ill-typed template (Owns over Size
    // slots) and a well-typed but dead one (no Url attributes in a MySQL
    // corpus), alongside the clean predefined set.
    let mut templates = Template::predefined();
    templates.push(Template::new(
        SemType::Size,
        Relation::Owns,
        SemType::UserName,
    ));
    templates.push(Template::new(SemType::Url, Relation::Equal, SemType::Url));

    // Seed the rule set with a contradictory ordering pair and an orphan.
    let existing: Vec<&AttrName> = cache
        .attributes()
        .iter()
        .filter(|a| {
            matches!(
                cache.type_of(a),
                SemType::Number | SemType::PortNumber | SemType::Size
            )
        })
        .take(2)
        .collect();
    assert!(existing.len() >= 2, "corpus has numeric attributes");
    let (x, y) = (existing[0].clone(), existing[1].clone());
    let mut rules = RuleSet::new();
    rules.push(Rule::new(x.clone(), Relation::LessNum, y.clone(), 10, 1.0));
    rules.push(Rule::new(y, Relation::LessNum, x, 10, 1.0));
    rules.push(Rule::new(
        AttrName::entry("no_such_entry"),
        Relation::Equal,
        AttrName::entry("also_missing"),
        10,
        1.0,
    ));

    let report = check_all(
        &templates,
        &FilterThresholds::default(),
        cache,
        Some(&rules),
    );

    for code in [
        Code::IllTypedTemplate,
        Code::DeadTemplateNoSlots,
        Code::ContradictoryOrdering,
        Code::OrphanRule,
    ] {
        assert!(
            report.with_code(code).count() > 0,
            "expected {code} in:\n{}",
            report.render_text()
        );
    }
    // Each defect is error-severity, so the run must fail.
    assert!(report.has_errors());
    assert_eq!(report.exit_code(false), 1);
    assert_eq!(report.exit_code(true), 1);
}

#[test]
fn seeded_transitive_ordering_cycle_is_flagged_ec060() {
    // Three ordering rules over real corpus attributes forming A < B < C < A:
    // every pair is individually satisfiable (so EC020 stays quiet), but the
    // set admits no assignment — the transitive cycle check must flag it.
    let training = mysql_training();
    let cache = training.stats_cache();
    let numeric: Vec<AttrName> = cache
        .attributes()
        .iter()
        .filter(|a| {
            matches!(
                cache.type_of(a),
                SemType::Number | SemType::PortNumber | SemType::Size
            )
        })
        .take(3)
        .cloned()
        .collect();
    assert!(numeric.len() >= 3, "corpus has three numeric attributes");
    let mut rules = RuleSet::new();
    for (a, b) in [(0, 1), (1, 2), (2, 0)] {
        rules.push(Rule::new(
            numeric[a].clone(),
            Relation::LessNum,
            numeric[b].clone(),
            10,
            1.0,
        ));
    }

    let report = check_all(
        &Template::predefined(),
        &FilterThresholds::default(),
        cache,
        Some(&rules),
    );
    let cycles: Vec<_> = report.with_code(Code::OrderingCycle).collect();
    assert_eq!(cycles.len(), 1, "{}", report.render_text());
    assert_eq!(cycles[0].severity, Severity::Error);
    assert!(
        report.with_code(Code::ContradictoryOrdering).count() == 0,
        "no pairwise contradiction was seeded:\n{}",
        report.render_text()
    );
    assert_eq!(report.exit_code(false), 1);
}

#[test]
fn conflicting_owners_with_row_evidence_is_an_error() {
    // Hand-built corpus where two user-typed entries genuinely differ, so
    // two Owns rules claiming the same path for each are contradictory.
    let rows: Vec<Row> = (0..4)
        .map(|i| {
            let mut row = Row::new(format!("s{i}"));
            row.set(AttrName::entry("run_user"), ConfigValue::str("mysql"));
            row.set(AttrName::entry("backup_user"), ConfigValue::str("backup"));
            row.set(
                AttrName::entry("datadir"),
                ConfigValue::path("/var/lib/mysql"),
            );
            row
        })
        .collect();
    let mut types = TypeMap::new();
    types.set(AttrName::entry("run_user"), SemType::UserName);
    types.set(AttrName::entry("backup_user"), SemType::UserName);
    types.set(AttrName::entry("datadir"), SemType::FilePath);
    let cache = StatsCache::from_rows(&rows.iter().collect::<Vec<_>>(), &types);

    let mut rules = RuleSet::new();
    rules.push(Rule::new(
        AttrName::entry("datadir"),
        Relation::Owns,
        AttrName::entry("run_user"),
        4,
        1.0,
    ));
    rules.push(Rule::new(
        AttrName::entry("datadir"),
        Relation::Owns,
        AttrName::entry("backup_user"),
        4,
        1.0,
    ));

    let diags = encore_check::lint_rules(&rules, Some(&cache));
    let conflict: Vec<_> = diags
        .iter()
        .filter(|d| d.code == Code::ConflictingOwners)
        .collect();
    assert_eq!(conflict.len(), 1, "{diags:?}");
    assert_eq!(conflict[0].severity, Severity::Error);
    assert!(
        conflict[0].message.contains("mysql") && conflict[0].message.contains("backup"),
        "evidence names the differing values: {}",
        conflict[0].message
    );
}

#[test]
fn clean_templates_and_learned_rules_have_zero_errors() {
    let training = mysql_training();
    let cache = training.stats_cache();
    let engine = EnCore::learn(&training, &LearnOptions::default());
    let report: LintReport = check_all(
        &Template::predefined(),
        &FilterThresholds::default(),
        cache,
        Some(engine.rules()),
    );
    assert_eq!(
        report.errors(),
        0,
        "clean inputs must produce zero error-severity diagnostics:\n{}",
        report.render_text()
    );
    assert_eq!(report.exit_code(false), 0);
}
