//! Regression: parallel rule inference must be invisible in the output.
//!
//! The work-stealing pool may execute `(template, a-chunk)` units in any
//! order on any number of workers; the merged candidate stream — and
//! therefore the learned `RuleSet`, its rendering, and the inference
//! statistics — must be byte-identical to the sequential (`workers = 1`)
//! reference for every fleet.

use encore::infer::{InferOptions, RuleInference};
use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The observability sink and its metric statics are process-global; tests
/// here toggle and read them, so every test in this binary serializes on
/// this gate (the harness runs tests on parallel threads).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn work_stealing_ruleset_is_identical_to_sequential() {
    let _gate = gate();
    let engine = RuleInference::predefined();
    for app in [AppKind::Mysql, AppKind::Apache] {
        for seed in [11u64, 47] {
            let pop = Population::training(app, &PopulationOptions::new(40, seed));
            let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
            let thresholds = FilterThresholds::default();
            let (reference, ref_stats) = engine
                .try_infer_with(&training, &thresholds, &InferOptions::with_workers(1))
                .expect("sequential inference");
            for workers in [2usize, 8] {
                let (rules, stats) = engine
                    .try_infer_with(&training, &thresholds, &InferOptions::with_workers(workers))
                    .expect("parallel inference");
                let ctx = format!("app={app:?} seed={seed} workers={workers}");
                assert_eq!(rules, reference, "{ctx}");
                assert_eq!(rules.render(), reference.render(), "{ctx}");
                assert_eq!(stats, ref_stats, "{ctx}");
            }
        }
    }
}

#[test]
fn learn_is_deterministic_across_worker_counts() {
    let _gate = gate();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(30, 5));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let sequential = EnCore::learn(
        &training,
        &LearnOptions {
            workers: Some(1),
            ..LearnOptions::default()
        },
    );
    let parallel = EnCore::learn(
        &training,
        &LearnOptions {
            workers: Some(4),
            ..LearnOptions::default()
        },
    );
    assert_eq!(
        sequential.rules().render(),
        parallel.rules().render(),
        "EnCore::learn must not depend on the worker count"
    );
    assert_eq!(sequential.stats(), parallel.stats());
}

#[test]
fn sink_enabled_output_is_byte_identical_to_disabled() {
    let _gate = gate();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(25, 9));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let engine = RuleInference::predefined();
    let thresholds = FilterThresholds::default();
    encore::obs::disable();
    let (off_rules, off_stats) = engine
        .try_infer_with(&training, &thresholds, &InferOptions::with_workers(2))
        .expect("inference with sink off");
    encore::obs::enable();
    let (on_rules, on_stats) = engine
        .try_infer_with(&training, &thresholds, &InferOptions::with_workers(2))
        .expect("inference with sink on");
    encore::obs::disable();
    assert_eq!(
        on_rules, off_rules,
        "instrumentation must not perturb rules"
    );
    assert_eq!(
        on_rules.render(),
        off_rules.render(),
        "rendering must be byte-identical with the sink on"
    );
    assert_eq!(on_stats, off_stats);
}

#[test]
fn counter_totals_identical_across_worker_counts() {
    let _gate = gate();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(25, 9));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let engine = RuleInference::predefined();
    let thresholds = FilterThresholds::default();
    // Counters and histograms count *work*, which is scheduling-independent;
    // gauges and timers (worker load, wall time) are exempt by design.
    let mut reference = None;
    for workers in [1usize, 2, 4] {
        encore::obs::reset();
        encore::obs::enable();
        engine
            .try_infer_with(&training, &thresholds, &InferOptions::with_workers(workers))
            .expect("inference");
        let report = encore::obs::pipeline_report();
        encore::obs::disable();
        let totals = (report.counters(), report.histograms());
        assert!(
            totals.0.values().any(|&v| v > 0),
            "workers={workers}: instrumentation recorded no work"
        );
        match &reference {
            None => reference = Some(totals),
            Some(first) => {
                assert_eq!(&totals.0, &first.0, "counter totals, workers={workers}");
                assert_eq!(&totals.1, &first.1, "histogram counts, workers={workers}");
            }
        }
    }
}

/// The seeded BENCH workload's `infer.pairs.evaluated`, learned `RuleSet`
/// and fleet transcript, recorded from the row-major evaluator the
/// columnar one replaced.  Regenerate after an intentional change with
/// `UPDATE_GOLDEN=1 cargo test --test determinism columnar_path`.
const BENCH_GOLDEN: &str = include_str!("golden/bench_workload.txt");

/// The columnar evaluator must reproduce the recorded BENCH output byte
/// for byte — the learned `RuleSet`, every fleet report, and the
/// `infer.pairs.evaluated` counter — at 1, 2, and 4 workers.
#[test]
fn columnar_path_is_byte_identical_on_the_bench_workload() {
    let _gate = gate();
    // The BENCH populations: mysql, 30 training images (seed 1) checked
    // against 20 targets (seed 77, 21% misconfigured) — exactly what
    // `encore-detect --train 30 --targets 20` runs.
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(30, 1));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let targets = Population::training(
        AppKind::Mysql,
        &PopulationOptions::new(20, 77).with_misconfig_percent(21),
    );
    let engine = RuleInference::predefined();
    let thresholds = FilterThresholds::default();

    let run = |options: &InferOptions| {
        encore::obs::reset();
        encore::obs::enable();
        let (rules, _) = engine
            .try_infer_with(&training, &thresholds, options)
            .expect("inference");
        let report = encore::obs::pipeline_report();
        encore::obs::disable();
        let pairs = report.counters()["infer.pairs.evaluated"];
        let detector = AnomalyDetector::new(&training, rules.clone());
        let fleet_options = FleetOptions {
            workers: options.workers,
        };
        let transcript: String = detector
            .check_fleet(AppKind::Mysql, targets.images(), &fleet_options)
            .into_iter()
            .map(|result| match result {
                Ok(report) => report.render(),
                Err(e) => format!("error: {e}\n"),
            })
            .collect();
        format!(
            "infer.pairs.evaluated {pairs}\n== rules\n{}== fleet\n{transcript}",
            rules.render()
        )
    };

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/bench_workload.txt"
        );
        std::fs::write(path, run(&InferOptions::with_workers(1))).expect("write golden");
        return;
    }
    assert!(BENCH_GOLDEN.starts_with("infer.pairs.evaluated 6202\n"));
    for workers in [1usize, 2, 4] {
        let got = run(&InferOptions::with_workers(workers));
        assert!(
            got == BENCH_GOLDEN,
            "BENCH output drifted from tests/golden/bench_workload.txt at workers={workers}; \
             run with UPDATE_GOLDEN=1 if intentional\n{got}"
        );
    }
}

/// The Apache inference work counts, filter statistics and learned
/// `RuleSet` on the 127-image seed-1 training set — the `train-wide`
/// workload, whose `#n` entry families and dotted names the BENCH golden
/// (MySQL only) does not reach.  Regenerate after an intentional change
/// with `UPDATE_GOLDEN=1 cargo test --test determinism apache_inference`.
const APACHE_GOLDEN: &str = include_str!("golden/infer_apache127.txt");

#[test]
fn apache_inference_matches_the_golden_file() {
    let _gate = gate();
    let pop = Population::training(AppKind::Apache, &PopulationOptions::new(127, 1));
    let training =
        TrainingSet::assemble(AppKind::Apache, pop.images()).expect("training assembles");
    let engine = RuleInference::predefined();
    let run = |options: &InferOptions| {
        encore::obs::reset();
        encore::obs::enable();
        let (rules, stats) = engine
            .try_infer_with(&training, &FilterThresholds::default(), options)
            .expect("inference");
        let counters = encore::obs::pipeline_report().counters();
        encore::obs::disable();
        let mut out = String::new();
        for name in [
            "infer.pairs.evaluated",
            "infer.pairs.by_value",
            "infer.candidates.emitted",
            "infer.candidates.deduped",
        ] {
            out.push_str(&format!("{name} {}\n", counters[name]));
        }
        format!("{out}{stats:?}\n== rules\n{}", rules.render())
    };
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/infer_apache127.txt"
        );
        std::fs::write(path, run(&InferOptions::with_workers(1))).expect("write golden");
        return;
    }
    assert!(APACHE_GOLDEN.starts_with("infer.pairs.evaluated 48192\n"));
    for workers in [1usize, 2, 4] {
        let got = run(&InferOptions::with_workers(workers));
        assert!(
            got == APACHE_GOLDEN,
            "Apache inference drifted from tests/golden/infer_apache127.txt at \
             workers={workers}; run with UPDATE_GOLDEN=1 if intentional\n{got}"
        );
    }
}

/// The event log and the cost profiler must be invisible in the output:
/// on the BENCH workload the learned `RuleSet` and the fleet transcript
/// are byte-identical with both fully on and with everything off, and
/// the pinned BENCH invariants (6202 pairs, 29 rules, 121 warnings)
/// still hold under instrumentation.
#[test]
fn event_log_and_profiler_do_not_perturb_the_bench_workload() {
    let _gate = gate();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(30, 1));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let targets = Population::training(
        AppKind::Mysql,
        &PopulationOptions::new(20, 77).with_misconfig_percent(21),
    );
    let engine = RuleInference::predefined();
    let thresholds = FilterThresholds::default();
    let events = std::env::temp_dir().join(format!(
        "encore-determinism-events-{}.jsonl",
        std::process::id()
    ));

    let run = |observed: bool| {
        encore::obs::reset();
        if observed {
            encore::obs::enable();
            encore::obs::profile::enable();
            encore::obs::event::install(&events).expect("install event log");
        }
        let (rules, _) = engine
            .try_infer_with(&training, &thresholds, &InferOptions::with_workers(2))
            .expect("inference");
        let detector = AnomalyDetector::new(&training, rules.clone());
        let results = detector.check_fleet(
            AppKind::Mysql,
            targets.images(),
            &FleetOptions { workers: Some(2) },
        );
        let warnings: usize = results
            .iter()
            .map(|r| r.as_ref().map_or(0, Report::len))
            .sum();
        let transcript: String = results
            .into_iter()
            .map(|result| match result {
                Ok(report) => report.render(),
                Err(e) => format!("error: {e}\n"),
            })
            .collect();
        let pairs = observed.then(|| {
            let pairs = encore::obs::pipeline_report().counters()["infer.pairs.evaluated"];
            encore::obs::profile::disable();
            encore::obs::event::shutdown();
            encore::obs::disable();
            pairs
        });
        (rules.len(), rules.render(), transcript, warnings, pairs)
    };

    let (_, off_rules, off_fleet, off_warnings, _) = run(false);
    let (rule_count, on_rules, on_fleet, on_warnings, pairs) = run(true);
    let _ = std::fs::remove_file(&events);
    assert_eq!(
        on_rules, off_rules,
        "RuleSet render drifted under instrumentation"
    );
    assert_eq!(
        on_fleet, off_fleet,
        "fleet transcript drifted under instrumentation"
    );
    assert_eq!(on_warnings, off_warnings);
    // The BENCH pins (see ROADMAP.md): any drift here means the
    // instrumentation changed what the pipeline computes, not just when.
    assert_eq!(pairs, Some(6_202), "infer.pairs.evaluated");
    assert_eq!(rule_count, 29, "learned rule count");
    assert_eq!(on_warnings, 121, "total fleet warnings");
}

/// The per-template profiler must account for at least 95% of the
/// `infer.time` wall clock it decomposes.  With one worker the
/// per-template self-times are disjoint slices of the one measured
/// span, so coverage is a true fraction (no multi-worker overlap).
#[test]
fn template_profiler_covers_the_inference_wall_clock() {
    let _gate = gate();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(30, 1));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let engine = RuleInference::predefined();
    let thresholds = FilterThresholds::default();
    encore::obs::reset();
    encore::obs::enable();
    encore::obs::profile::enable();
    engine
        .try_infer_with(&training, &thresholds, &InferOptions::with_workers(1))
        .expect("inference");
    let attributed = encore::obs::INFER_TEMPLATE_PROFILE.total_nanos();
    let wall = encore::obs::INFER_TIME.total_nanos();
    encore::obs::profile::disable();
    encore::obs::disable();
    assert!(wall > 0, "the inference timer recorded nothing");
    let permille = attributed.saturating_mul(1_000) / wall;
    assert!(
        permille >= 950,
        "template profiler covers only {permille}\u{2030} of infer.time \
         ({attributed} of {wall} ns)"
    );
}

/// The template rows sum self-time across workers, so the profile
/// compares them with time summed the same way: the worker-busy spans
/// plus the main-thread rows.  Every unit runs inside its worker's busy
/// span, so with two workers the BENCH fleet's profile still reads at
/// most 100% (against the `infer.time` wall clock it read above).
#[test]
fn multi_worker_profile_coverage_is_at_most_100_percent() {
    use encore::obs::json::{self, Json};
    let _gate = gate();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(30, 1));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    encore::obs::reset();
    encore::obs::enable();
    encore::obs::profile::enable();
    RuleInference::predefined()
        .try_infer_with(
            &training,
            &FilterThresholds::default(),
            &InferOptions::with_workers(2),
        )
        .expect("inference");
    let text = encore::obs::profile::render_json(&encore::obs::profile_sections());
    encore::obs::profile::disable();
    encore::obs::disable();
    let profile = json::parse(&text).expect("profile parses");
    let templates = profile
        .get("tables")
        .and_then(Json::as_arr)
        .and_then(|tables| tables.first())
        .expect("the template table");
    assert_eq!(
        templates.get("name").and_then(Json::as_str),
        Some("infer.templates")
    );
    let permille = templates
        .get("coverage_permille")
        .and_then(Json::as_u64)
        .expect("coverage_permille");
    assert!(
        permille <= 1000,
        "two-worker profile reads {permille}\u{2030}: {text}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Dead-unit pruning consults the presence bitsets to skip
    /// `(template, a-chunk)` units that cannot instantiate anything; the
    /// learned rules, their rendering, and the inference statistics must be
    /// byte-identical to the unpruned reference at every worker count, for
    /// any generated fleet.
    #[test]
    fn mask_pruned_inference_matches_unpruned(
        seed in 0u64..1_000,
        images in 12usize..40,
        app_idx in 0usize..3,
    ) {
        let _gate = gate();
        let app = [AppKind::Mysql, AppKind::Apache, AppKind::Php][app_idx];
        let pop = Population::training(app, &PopulationOptions::new(images, seed));
        let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
        let thresholds = FilterThresholds::default();
        let engine = RuleInference::predefined();
        let (unpruned, unpruned_stats) = engine
            .try_infer_with(
                &training,
                &thresholds,
                &InferOptions::with_workers(1).without_pruning(),
            )
            .expect("unpruned inference");
        for workers in [1usize, 2, 4] {
            let (pruned, stats) = engine
                .try_infer_with(&training, &thresholds, &InferOptions::with_workers(workers))
                .expect("pruned inference");
            let ctx = format!("app={app:?} seed={seed} images={images} workers={workers}");
            prop_assert_eq!(&pruned, &unpruned, "{}", ctx);
            prop_assert_eq!(pruned.render(), unpruned.render(), "{}", ctx);
            prop_assert_eq!(&stats, &unpruned_stats, "{}", ctx);
        }
    }
}
