//! End-to-end pipeline observability: one small collection → assembly →
//! inference → detection run with the sink enabled must produce a
//! [`encore::obs::PipelineReport`] carrying all six phase sections with
//! plausible counts, and the report must survive a JSON round-trip.

use encore::infer::{InferOptions, RuleInference};
use encore::obs;
use encore::prelude::*;
use encore::{AnomalyDetector, TrainingStats};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use std::sync::{Mutex, MutexGuard};

/// The sink and metric statics are process-global; serialize the tests in
/// this binary that toggle or read them.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn end_to_end_run_populates_all_six_phases() {
    let _gate = gate();
    obs::reset();
    obs::enable();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(15, 3));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let engine = EnCore::learn(&training, &LearnOptions::default());
    let target = pop.images()[0].clone();
    let _report = engine
        .check_image(AppKind::Mysql, &target)
        .expect("target checks");
    let report = obs::pipeline_report();
    obs::disable();

    let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        vec!["collect", "assemble", "infer", "stats", "filter", "detect"]
    );

    let counters = report.counters();
    for (name, expect_nonzero) in [
        ("collect.images.built", true),
        ("collect.vfs.nodes", true),
        ("assemble.parse.entries", true),
        ("assemble.rows.assembled", true),
        ("assemble.augment.attrs", true),
        ("infer.templates.instantiated", true),
        ("infer.units.total", true),
        ("infer.pairs.evaluated", true),
        ("infer.pairs.by_value", true),
        ("infer.candidates.emitted", true),
        ("infer.pool.units_run", true),
        ("stats.cache.attributes", true),
        ("detect.systems.checked", true),
        ("assemble.parse.errors", false),
    ] {
        let value = *counters
            .get(name)
            .unwrap_or_else(|| panic!("counter `{name}` missing from report"));
        if expect_nonzero {
            assert!(value > 0, "counter `{name}` should be nonzero");
        } else {
            assert_eq!(value, 0, "counter `{name}` should be zero");
        }
    }
    // Every candidate got exactly one filter verdict.
    let verdicts = counters["filter.accepted"]
        + counters["filter.rejected.support"]
        + counters["filter.rejected.confidence"]
        + counters["filter.rejected.entropy"];
    assert!(verdicts > 0, "filter judged some candidates");

    let parsed = obs::PipelineReport::parse_json(&report.render_json()).expect("report parses");
    assert_eq!(parsed, report);

    let text = report.render_text();
    for phase in names {
        assert!(text.contains(&format!("phase {phase}")), "{text}");
    }
}

#[test]
fn disabled_sink_leaves_the_report_empty() {
    let _gate = gate();
    obs::reset();
    obs::disable();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(8, 4));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let _engine = EnCore::learn(&training, &LearnOptions::default());
    let report = obs::pipeline_report();
    assert_eq!(report.phases.len(), 6, "sections are present even when off");
    assert!(
        report.counters().values().all(|&v| v == 0),
        "disabled sink must record nothing: {}",
        report.render_text()
    );
}

/// A training set is pivoted into its column table once, at assembly:
/// learning, both inference entry points, the detector and its statistics
/// all read that table instead of pivoting the rows again.
#[test]
fn one_training_set_is_pivoted_once() {
    let _gate = gate();
    obs::reset();
    obs::enable();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(15, 3));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let engine = EnCore::learn(&training, &LearnOptions::default());
    let inference = RuleInference::predefined();
    let thresholds = FilterThresholds::default();
    let (rules, _) = inference
        .try_infer_with(&training, &thresholds, &InferOptions::default())
        .expect("inference");
    inference
        .try_infer_dual(&training, &thresholds, &InferOptions::default())
        .expect("dual inference");
    let detector = AnomalyDetector::new(&training, rules);
    let stats = TrainingStats::from_training(&training);
    let report = obs::pipeline_report();
    obs::disable();

    assert_eq!(engine.rules(), detector.rules());
    assert_eq!(&stats, detector.training_stats());
    let spans = |timer: &str| {
        report
            .phases
            .iter()
            .flat_map(|phase| &phase.timers)
            .find(|(name, _)| name == timer)
            .map(|(_, timer)| timer.spans)
    };
    assert_eq!(
        spans("assemble.columns.time"),
        Some(1),
        "pivots of one training set"
    );
    assert_eq!(
        spans("stats.cache.build"),
        Some(1),
        "stats builds of one training set"
    );
    let counters = report.counters();
    assert_eq!(
        counters["assemble.columns.built"],
        training.stats_cache().attributes().len() as u64,
        "columns built"
    );
    assert_eq!(
        counters["assemble.values.interned"],
        training.stats_cache().columns().interner().num_values() as u64,
        "values interned"
    );
}
