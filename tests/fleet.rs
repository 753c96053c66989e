//! Regression: fleet-scale detection must be invisible in the output.
//!
//! Two serving-layer properties the paper's "train once, detect many"
//! separation (§3, §6) depends on:
//!
//! 1. `check_fleet` may schedule target images on any number of pool
//!    workers; the per-system reports must be byte-identical to a
//!    sequential `check_image` loop.
//! 2. A detector reconstructed from a rendered-and-reparsed
//!    `DetectorSnapshot` must produce byte-identical reports to the
//!    detector that trained on the corpus — the artifact carries the whole
//!    learned state, losslessly.

use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_sysimage::SystemImage;

fn learn(app: AppKind, images: usize, seed: u64) -> EnCore {
    let pop = Population::training(app, &PopulationOptions::new(images, seed));
    let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
    EnCore::learn(&training, &LearnOptions::default())
}

fn target_fleet(app: AppKind, n: usize, seed: u64) -> Vec<SystemImage> {
    Population::training(
        app,
        &PopulationOptions::new(n, seed).with_misconfig_percent(21),
    )
    .images()
    .to_vec()
}

/// Render a whole fleet result as one string (per-image assembly errors
/// included), so comparisons catch ordering and content drift alike.
fn render_fleet(results: &[Result<Report, encore_assemble::AssembleError>]) -> String {
    let mut out = String::new();
    for (i, result) in results.iter().enumerate() {
        out.push_str(&format!("== {i}\n"));
        match result {
            Ok(report) => out.push_str(&report.render()),
            Err(e) => out.push_str(&format!("error: {e}\n")),
        }
    }
    out
}

/// A configuration-only copy of `image`, as `encore-serve` builds its
/// targets.
fn configuration_only(app: AppKind, image: &SystemImage) -> SystemImage {
    let config = image
        .read_file(app.config_path())
        .expect("has a configuration");
    SystemImage::builder(image.id())
        .file(app.config_path(), "root", "root", 0o644, config)
        .build()
}

#[test]
fn check_fleet_is_identical_to_sequential_for_every_worker_count() {
    for app in [AppKind::Mysql, AppKind::Apache, AppKind::Php] {
        let engine = learn(app, 30, 5);
        let mut targets = target_fleet(app, 20, 77);
        let copies: Vec<SystemImage> = targets
            .iter()
            .map(|img| configuration_only(app, img))
            .collect();
        targets.extend(copies);
        let sequential: String = render_fleet(
            &targets
                .iter()
                .map(|img| engine.check_image(app, img))
                .collect::<Vec<_>>(),
        );
        // `check_image` keys the target's cells by the detector's ranks;
        // `check` of the row `assemble_system` builds finds them by name.
        let assembler = encore_assemble::Assembler::new();
        let by_name: String = render_fleet(
            &targets
                .iter()
                .map(|img| {
                    let system = assembler.assemble_system(app, img)?;
                    Ok(engine.detector().check(&system.row, Some(img)))
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(by_name, sequential, "app={app:?}");
        for workers in [1usize, 2, 4] {
            let batch = engine.check_fleet(app, &targets, &FleetOptions::with_workers(workers));
            assert_eq!(
                render_fleet(&batch),
                sequential,
                "app={app:?} workers={workers}"
            );
        }
    }
}

#[test]
fn snapshot_save_load_produces_identical_reports() {
    for app in [AppKind::Mysql, AppKind::Php] {
        let engine = learn(app, 30, 5);
        let text = engine.snapshot().render();
        let snapshot = DetectorSnapshot::parse(&text).expect("snapshot parses");
        // The artifact itself round-trips byte-identically...
        assert_eq!(snapshot.render(), text, "app={app:?}");
        let loaded = AnomalyDetector::from_snapshot(snapshot);
        assert_eq!(loaded.rules(), engine.rules(), "app={app:?}");
        // ...and so do the reports it produces on a misconfigured fleet.
        // The loaded detector's first check is a batch on 8 workers, so
        // its attribute table is first built by racing workers.
        let targets = target_fleet(app, 20, 77);
        let original: Vec<_> = targets
            .iter()
            .map(|img| engine.check_image(app, img))
            .collect();
        let reloaded = loaded.check_fleet(app, &targets, &FleetOptions::with_workers(8));
        assert_eq!(
            render_fleet(&reloaded),
            render_fleet(&original),
            "app={app:?}: a reloaded detector must serve identical reports"
        );
    }
}

/// The rendered `check_fleet` reports of 30 `ec2_fresh` Apache and PHP
/// targets (seed 77), checked by detectors learned from 127 Apache and 123
/// PHP training images (seed 1).  Regenerate after an intentional change
/// with `UPDATE_GOLDEN=1 cargo test --test fleet apache_and_php`.
const APACHE_PHP_GOLDEN: &str = include_str!("golden/detect_apache_php.txt");

/// Section-scoped Apache names and PHP's dotted entries go through every
/// detection check; their reports must match the recorded ones byte for
/// byte.
#[test]
fn apache_and_php_fleet_reports_match_the_golden() {
    let mut got = String::new();
    for (app, images) in [(AppKind::Apache, 127), (AppKind::Php, 123)] {
        let engine = learn(app, images, 1);
        let targets = Population::ec2_fresh(app, 30, 77);
        let results = engine.check_fleet(app, targets.images(), &FleetOptions::default());
        got.push_str(&format!("=== {}\n{}", app.name(), render_fleet(&results)));
    }
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/detect_apache_php.txt"
        );
        std::fs::write(path, got).expect("write golden");
        return;
    }
    assert!(
        got == APACHE_PHP_GOLDEN,
        "Apache/PHP fleet reports drifted from tests/golden/detect_apache_php.txt; \
         run with UPDATE_GOLDEN=1 if intentional\n{got}"
    );
}

#[test]
fn fleet_results_stay_index_aligned_with_broken_images() {
    let app = AppKind::Mysql;
    let engine = learn(app, 20, 5);
    let mut targets = target_fleet(app, 4, 77);
    // An image with no configuration at all fails assembly; its error must
    // stay at its own index instead of poisoning the batch.
    targets.insert(2, SystemImage::builder("hollow").build());
    let results = engine.check_fleet(app, &targets, &FleetOptions::with_workers(2));
    assert_eq!(results.len(), targets.len());
    assert!(results[2].is_err(), "broken image reports its own error");
    for (i, result) in results.iter().enumerate() {
        if i != 2 {
            assert!(result.is_ok(), "image {i} checks");
        }
    }
}

#[test]
fn fleet_workers_reuse_their_pair_buffer_across_broken_images() {
    let app = AppKind::Mysql;
    let engine = learn(app, 20, 5);
    let mut targets = target_fleet(app, 12, 77);
    // A configuration that fails to parse after two good lines, and an
    // image with no configuration: a worker checks its next target with
    // the pair buffer these left behind.
    let mut vfs = targets[0].vfs().clone();
    vfs.add_file(
        app.config_path(),
        "root",
        "root",
        0o644,
        "[mysqld]\nport = 1\ndatadir = /tmp\n[x\n",
    );
    targets.insert(5, SystemImage::builder("unparseable").build().with_vfs(vfs));
    targets.insert(6, SystemImage::builder("hollow").build());
    let sequential = render_fleet(
        &targets
            .iter()
            .map(|img| engine.check_image(app, img))
            .collect::<Vec<_>>(),
    );
    assert!(
        sequential.contains("== 5\nerror: parse failure"),
        "{sequential}"
    );
    assert!(
        sequential.contains("== 6\nerror: image has no"),
        "{sequential}"
    );
    for workers in [1usize, 2, 3, 8] {
        let batch = engine.check_fleet(app, &targets, &FleetOptions::with_workers(workers));
        assert_eq!(render_fleet(&batch), sequential, "workers={workers}");
    }
}
