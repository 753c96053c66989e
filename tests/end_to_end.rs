//! Cross-crate integration tests: the full pipeline from image generation
//! through assembly, rule learning, and anomaly detection, for every
//! evaluated application.

use encore::baseline::{Baseline, BaselineEnv};
use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_corpus::realworld;
use encore_injector::Injector;
use encore_model::AppKind;
use encore_parser::LensRegistry;

fn training(app: AppKind, n: usize, seed: u64) -> (Population, TrainingSet) {
    let pop = Population::training(app, &PopulationOptions::new(n, seed));
    let ts = TrainingSet::assemble(app, pop.images()).expect("assembles");
    (pop, ts)
}

#[test]
fn every_app_trains_and_learns_rules() {
    for app in AppKind::EVALUATED {
        let (_, ts) = training(app, 40, 1);
        assert_eq!(ts.len(), 40, "{app}");
        let engine = EnCore::learn(&ts, &LearnOptions::default());
        assert!(
            engine.rules().len() >= 5,
            "{app}: only {} rules",
            engine.rules().len()
        );
        // Rule statistics are self-consistent.
        for rule in engine.rules() {
            assert!(rule.support > 0, "{app}: {rule}");
            assert!((0.0..=1.0).contains(&rule.confidence), "{app}: {rule}");
        }
    }
}

#[test]
fn clean_in_distribution_images_raise_no_high_confidence_correlations() {
    for app in AppKind::EVALUATED {
        let (pop, ts) = training(app, 40, 2);
        let engine = EnCore::learn(&ts, &LearnOptions::default());
        // Check a training member itself: perfect-confidence rules cannot
        // fire on data they were learned from.
        let report = engine.check_image(app, &pop.images()[0]).expect("check");
        for w in report.warnings() {
            if let Some(rule) = w.rule() {
                assert!(
                    rule.confidence < 1.0,
                    "{app}: perfect rule violated on its own training image: {w}"
                );
            }
        }
    }
}

#[test]
fn ownership_misconfiguration_detected_per_app() {
    // The Figure 1(b) shape, generalized: break the ownership coupling of
    // each app's coupled path and expect a correlation violation.
    let case = realworld::all_cases(3)
        .into_iter()
        .find(|c| c.id == 3)
        .unwrap();
    let (_, ts) = training(AppKind::Mysql, 60, 3);
    let engine = EnCore::learn(&ts, &LearnOptions::default());
    let report = engine.check_image(case.app, &case.image).expect("check");
    assert_eq!(report.rank_of("datadir"), Some(1), "{report:?}");
}

#[test]
fn injected_errors_detected_better_by_encore_than_baselines() {
    let app = AppKind::Mysql;
    let (pop, ts) = training(app, 60, 4);
    let engine = EnCore::learn(&ts, &LearnOptions::default());
    let baseline = Baseline::train(app, pop.images()).unwrap();
    let baseline_env = BaselineEnv::train(app, pop.images()).unwrap();

    let target = Population::training(app, &PopulationOptions::new(1, 999)).images()[0].clone();
    let registry = LensRegistry::with_defaults();
    let lens = registry.lens(app.name()).unwrap();
    let config = target.read_file(app.config_path()).unwrap().to_string();
    let (broken_text, injections) = Injector::with_seed(5)
        .inject(lens.as_ref(), &config, 10)
        .unwrap();
    let mut vfs = target.vfs().clone();
    vfs.add_file(app.config_path(), "root", "root", 0o644, &broken_text);
    let broken = target.with_vfs(vfs);

    let detected = |report: &Report| {
        injections
            .iter()
            .filter(|inj| {
                report.warnings().iter().any(|w| {
                    w.score() >= 10.0
                        && (w.implicates(&inj.entry) || w.implicates(&inj.entry_after))
                })
            })
            .count()
    };
    let d_encore = detected(&engine.check_image(app, &broken).unwrap());
    let d_base = detected(&baseline.check_image(app, &broken).unwrap());
    let d_env = detected(&baseline_env.check_image(app, &broken).unwrap());
    assert!(
        d_encore >= d_env && d_env >= d_base,
        "EnCore {d_encore} vs Baseline+Env {d_env} vs Baseline {d_base}"
    );
    assert!(d_encore > d_base, "EnCore must beat the baseline");
}

#[test]
fn real_world_cases_match_paper_detectability() {
    // Train one engine per app at small scale, then check every case:
    // paper-detected cases must be detected, and case #8 must stay missed.
    let mut engines = Vec::new();
    for app in AppKind::EVALUATED {
        let n = match app {
            AppKind::Mysql => 80,
            _ => 60,
        };
        let (_, ts) = training(app, n, 6);
        engines.push((app, EnCore::learn(&ts, &LearnOptions::default())));
    }
    let mut detected = 0;
    let mut missed = Vec::new();
    for case in realworld::all_cases(20140301) {
        let engine = &engines.iter().find(|(a, _)| *a == case.app).unwrap().1;
        let report = engine.check_image(case.app, &case.image).expect("check");
        match report.rank_of(case.culprit) {
            Some(_) => detected += 1,
            None => missed.push(case.id),
        }
    }
    // Paper: 9 of 10 detected; #8 missed (no hardware info in training).
    assert!(missed.contains(&8), "case 8 must be missed: {missed:?}");
    assert!(
        detected >= 8,
        "at least 8 of 10 cases detected, got {detected} (missed {missed:?})"
    );
}

#[test]
fn seeded_population_errors_found() {
    let app = AppKind::Mysql;
    let (_, ts) = training(app, 60, 7);
    let engine = EnCore::learn(&ts, &LearnOptions::default());
    let fresh = Population::ec2_fresh(app, 40, 8);
    assert!(!fresh.seeded().is_empty());
    let mut found = 0;
    for seeded in fresh.seeded() {
        let image = fresh
            .images()
            .iter()
            .find(|i| i.id() == seeded.image_id)
            .unwrap();
        let report = engine.check_image(app, image).expect("check");
        if report.detects(&seeded.entry) {
            found += 1;
        }
    }
    assert!(
        found * 2 >= fresh.seeded().len(),
        "found {found} of {} seeded errors",
        fresh.seeded().len()
    );
}

#[test]
fn learned_rules_are_reusable_across_targets() {
    // "Since the checking and the learning are cleanly separated, the
    // learned rules can be reused to check different systems" (§3).
    let app = AppKind::Php;
    let (_, ts) = training(app, 40, 9);
    let engine = EnCore::learn(&ts, &LearnOptions::default());
    let targets = Population::training(app, &PopulationOptions::new(5, 10));
    for img in targets.images() {
        let r1 = engine.check_image(app, img).expect("check");
        let r2 = engine.check_image(app, img).expect("check again");
        assert_eq!(r1, r2, "detection must be deterministic");
    }
}

#[test]
fn table_shapes_hold_at_reduced_scale() {
    use encore_bench::experiments::{self, ExperimentConfig};
    let config = ExperimentConfig::scaled(0.25);

    // Table 8: EnCore detects more than the baselines; the paper's headline
    // is a 1.6x-3.5x improvement over value comparison.
    let t8 = experiments::table_8(&config);
    // Exact rows (Total/Baseline/Baseline+Env/EnCore), so a count that
    // moves fails here, not only an ordering that flips.
    for (app, want) in [
        ("apache", [15.0, 6.0, 7.0, 10.0]),
        ("mysql", [15.0, 7.0, 7.0, 10.0]),
        ("php", [15.0, 4.0, 6.0, 10.0]),
    ] {
        assert_eq!(t8.values(app), Some(&want[..]), "Table 8 {app}");
    }
    let mut ratios = Vec::new();
    for app in ["apache", "mysql", "php"] {
        let row = t8.values(app).expect(app);
        let (base, env, encore) = (row[1], row[2], row[3]);
        assert!(encore >= env, "{app}: EnCore {encore} < Baseline+Env {env}");
        assert!(encore > base, "{app}: EnCore {encore} <= Baseline {base}");
        ratios.push(encore / base.max(1.0));
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(avg >= 1.3, "mean improvement {avg} too small");

    // Table 2: attribute counts grow monotonically through the pipeline.
    let t2 = experiments::table_2(&config);
    let orig = t2.values("Original").unwrap().to_vec();
    let aug = t2.values("Augmented").unwrap().to_vec();
    let bin = t2.values("Binominal").unwrap().to_vec();
    // Apache, MySQL, PHP.
    assert_eq!(orig, [208.0, 113.0, 53.0], "Table 2 Original");
    assert_eq!(aug, [501.0, 238.0, 103.0], "Table 2 Augmented");
    assert_eq!(bin, [821.0, 600.0, 306.0], "Table 2 Binominal");
    for i in 0..3 {
        assert!(orig[i] < aug[i], "augmentation must add attributes");
        assert!(aug[i] <= bin[i], "discretization must not shrink");
    }

    // Table 13: the entropy filter removes many false rules and few true
    // ones.
    let t13 = experiments::table_13(&config);
    // Original, FP Reduced, FN Introduced.
    for (app, want) in [
        ("apache", [690.0, 624.0, 44.0]),
        ("mysql", [589.0, 557.0, 1.0]),
        ("php", [69.0, 47.0, 0.0]),
    ] {
        assert_eq!(t13.values(app), Some(&want[..]), "Table 13 {app}");
    }
    for app in ["apache", "mysql", "php"] {
        let row = t13.values(app).expect(app);
        let (original, fp_reduced, fn_introduced) = (row[0], row[1], row[2]);
        assert!(fp_reduced + fn_introduced <= original);
        assert!(
            fn_introduced <= fp_reduced,
            "{app}: filter removed more true rules than false ones"
        );
    }
}
