//! Report deltas and the service's watched-directory source, end to end:
//! a report diffed against itself is empty, a perturbed counter trips the
//! fixed work-count gate with a violation naming the metric and its gate,
//! counter/histogram sections never differ across worker counts, and
//! [`Poller`] ticks re-check only added/changed targets (all of them after
//! a hot reload) while each heartbeat line carries exactly one tick.

use encore::obs;
use encore::obs::{PipelineReport, ReportDelta};
use encore::prelude::*;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_serve::{Poller, Scan, SnapshotRegistry};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The observability sink and its metric statics are process-global;
/// every test in this binary toggles or reads them, so they serialize on
/// this gate (the harness runs tests on parallel threads).
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Train on a small MySQL fleet and re-check it, returning the full
/// pipeline report for the run.  Callers hold the gate.
fn instrumented_run(workers: usize) -> PipelineReport {
    obs::reset();
    obs::enable();
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(15, 3));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    let detector = EnCore::learn(
        &training,
        &LearnOptions {
            workers: Some(workers),
            ..LearnOptions::default()
        },
    )
    .into_detector();
    let _ = detector.check_fleet(
        AppKind::Mysql,
        pop.images(),
        &FleetOptions {
            workers: Some(workers),
        },
    );
    let report = obs::pipeline_report();
    obs::disable();
    report
}

/// A unique, cleaned-up temp directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn self_diff_is_empty_and_passes_the_default_policy() {
    let _gate = gate();
    let report = instrumented_run(2);
    assert!(
        report.counters().values().any(|&v| v > 0),
        "the run recorded work"
    );
    let delta = ReportDelta::diff(&report, &report);
    assert!(delta.is_empty(), "self-diff: {}", delta.render_text());
    assert_eq!(delta.render_text(), "== report delta: no differences ==\n");
    assert!(delta.violations().is_empty());
}

#[test]
fn perturbed_counter_violation_names_the_metric_and_gate() {
    let _gate = gate();
    let base = instrumented_run(2);
    let mut current = base.clone();
    let (name, value) = {
        let phase = &mut current.phases[2]; // infer
        let counter = phase
            .counters
            .iter_mut()
            .find(|(name, _)| name == "infer.pairs.evaluated")
            .expect("infer.pairs.evaluated present");
        counter.1 += 1;
        counter.clone()
    };
    let delta = ReportDelta::diff(&base, &current);
    assert_eq!(delta.counters.len(), 1, "{}", delta.render_text());
    assert_eq!(delta.counters[0].name, name);
    assert_eq!(delta.counters[0].current, Some(value));

    let violations = delta.violations();
    assert_eq!(violations.len(), 1, "exact gate trips on the counter");
    let rendered = &violations[0];
    assert!(rendered.contains(&name), "{rendered}");
    assert!(rendered.contains("exact"), "{rendered}");
}

#[test]
fn worker_count_never_changes_counters_or_histograms() {
    let _gate = gate();
    let reference = instrumented_run(1);
    for workers in [2usize, 4] {
        let report = instrumented_run(workers);
        let delta = ReportDelta::diff(&reference, &report);
        assert!(
            delta.counters.is_empty(),
            "workers={workers}: counter deltas\n{}",
            delta.render_text()
        );
        assert!(
            delta.histograms.is_empty(),
            "workers={workers}: histogram deltas\n{}",
            delta.render_text()
        );
        // Gauges and timers (worker load, wall time) may differ; they
        // never fail the gate.
        assert!(delta.violations().is_empty());
    }
}

/// Build a small trained detector for the watch tests.
fn small_detector(seed: u64) -> AnomalyDetector {
    let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(12, seed));
    let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("training assembles");
    EnCore::learn(&training, &LearnOptions::default()).into_detector()
}

/// Register a small detector as app `mysql`, its snapshot saved inside the
/// watched `dir` (a registered snapshot is never a target), and watch
/// `dir` for it.  Resets and enables the sink; callers hold the gate.
fn watch(dir: &Path) -> (SnapshotRegistry, Poller) {
    obs::reset();
    encore_serve::obs::reset();
    obs::enable();
    let snapshot = dir.join("mysql.snap");
    std::fs::write(&snapshot, small_detector(7).snapshot().render()).unwrap();
    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &snapshot)
        .expect("snapshot loads");
    let poller = Poller::new(&registry, &[("mysql".to_string(), dir.to_path_buf())])
        .expect("mysql is registered");
    (registry, poller)
}

/// One poll tick with the re-checks run directly on the registry, plus
/// the heartbeat line it would append, round-tripped through JSON.
fn tick(poller: &mut Poller, registry: &SnapshotRegistry) -> (Scan, PipelineReport) {
    let mut scans = poller.tick(registry, |app, targets| {
        registry.check(app, &targets, Some(1))
    });
    assert_eq!(scans.len(), 1, "one watched directory");
    let scan = scans.remove(0).expect("scan succeeds");
    let line = poller.heartbeat().render_json();
    obs::json::parse(&line).expect("heartbeat line is JSON");
    let heartbeat = PipelineReport::parse_json(&line).expect("heartbeat line parses");
    (scan, heartbeat)
}

fn names(scan: &Scan) -> Vec<&str> {
    scan.reports.iter().map(|(name, _)| name.as_str()).collect()
}

#[test]
fn watch_cycles_recheck_only_changed_targets_and_emit_jsonl() {
    let _gate = gate();
    let dir = scratch_dir("watch-jsonl");
    std::fs::write(dir.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(
        dir.join("b.cnf"),
        "[mysqld]\nport = 3307\nskip-networking\n",
    )
    .unwrap();
    std::fs::write(dir.join(".hidden.cnf"), "[mysqld]\n").unwrap(); // dotfile: not a target
    let (registry, mut poller) = watch(&dir);

    let (first, beat) = tick(&mut poller, &registry);
    assert_eq!((first.added, first.changed, first.removed), (2, 0, 0));
    assert_eq!(
        names(&first),
        ["a.cnf", "b.cnf"],
        "both new targets re-checked"
    );
    assert_eq!(
        first.tracked, 2,
        "neither the snapshot nor the dotfile is tracked"
    );
    let counters = beat.counters();
    assert_eq!(counters["serve.watch.scans"], 1);
    assert_eq!(counters["serve.watch.targets_added"], 2);
    assert_eq!(counters["serve.watch.targets_rechecked"], 2);

    // Grow the file so the size component of the signature changes even
    // on filesystems with coarse mtime granularity.
    std::thread::sleep(std::time::Duration::from_millis(20));
    std::fs::write(
        dir.join("b.cnf"),
        "[mysqld]\nport = 3307\nskip-networking\nmax_connections = 100\n",
    )
    .unwrap();
    let (second, beat) = tick(&mut poller, &registry);
    assert_eq!((second.added, second.changed, second.removed), (0, 1, 0));
    assert_eq!(
        names(&second),
        ["b.cnf"],
        "only the changed target re-checks"
    );
    assert_eq!(beat.counters()["serve.watch.targets_rechecked"], 1);

    std::fs::remove_file(dir.join("a.cnf")).unwrap();
    let (third, beat) = tick(&mut poller, &registry);
    assert_eq!((third.added, third.changed, third.removed), (0, 0, 1));
    assert!(third.reports.is_empty(), "a removal re-checks nothing");
    assert_eq!(third.tracked, 1);
    let counters = beat.counters();
    assert_eq!(
        counters["serve.watch.scans"], 1,
        "one tick per heartbeat line"
    );
    assert_eq!(counters["serve.watch.targets_rechecked"], 0);
    assert_eq!(counters["serve.watch.targets_removed"], 1);
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_detects_same_size_rewrite_with_preserved_mtime() {
    let _gate = gate();
    let dir = scratch_dir("watch-same-size");
    let target = dir.join("a.cnf");
    std::fs::write(&target, "[mysqld]\nport = 3306\n").unwrap();
    let (registry, mut poller) = watch(&dir);
    let (first, _) = tick(&mut poller, &registry);
    assert_eq!((first.added, first.changed), (1, 0));
    let mtime = std::fs::metadata(&target).unwrap().modified().unwrap();

    // Same byte length, different contents, original mtime restored: the
    // metadata signature is identical, so only the content fingerprint can
    // flag the rewrite.  Regression for missing in-place same-size edits
    // within the filesystem's mtime granularity.
    std::fs::write(&target, "[mysqld]\nport = 3307\n").unwrap();
    std::fs::File::options()
        .write(true)
        .open(&target)
        .unwrap()
        .set_modified(mtime)
        .unwrap();
    let (second, _) = tick(&mut poller, &registry);
    assert_eq!((second.added, second.changed, second.removed), (0, 1, 0));
    assert_eq!(names(&second), ["a.cnf"], "the rewritten target re-checks");

    let (third, _) = tick(&mut poller, &registry);
    assert_eq!((third.added, third.changed, third.removed), (0, 0, 0));
    assert!(third.reports.is_empty());
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_quiet_cycles_produce_identical_counter_sections() {
    let _gate = gate();
    let dir = scratch_dir("watch-quiet");
    std::fs::write(dir.join("only.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    let (registry, mut poller) = watch(&dir);
    let _warmup = tick(&mut poller, &registry);
    let (_, quiet_a) = tick(&mut poller, &registry);
    let (_, quiet_b) = tick(&mut poller, &registry);
    obs::disable();

    // Each heartbeat line covers only its own tick: were it cumulative,
    // the second quiet line would read higher than the first.
    assert_eq!(quiet_a.counters(), quiet_b.counters());
    assert_eq!(quiet_a.counters()["serve.watch.scans"], 1);
    assert_eq!(quiet_a.counters()["serve.watch.targets_rechecked"], 0);
    let delta = ReportDelta::diff(&quiet_a, &quiet_b);
    assert!(delta.counters.is_empty(), "{}", delta.render_text());
    assert!(delta.histograms.is_empty(), "{}", delta.render_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_rechecks_every_tracked_target_against_the_new_detector() {
    let _gate = gate();
    let dir = scratch_dir("watch-reload");
    let targets = [
        ("a.cnf", "[mysqld]\nport = 3306\nuser = mysql\n"),
        ("b.cnf", "[mysqld]\nport = 3307\nmystery_knob = 1\n"),
    ];
    for (name, config) in targets {
        std::fs::write(dir.join(name), config).unwrap();
    }
    let (registry, mut poller) = watch(&dir);
    let (first, _) = tick(&mut poller, &registry);
    assert_eq!(names(&first), ["a.cnf", "b.cnf"]);
    let (quiet, _) = tick(&mut poller, &registry);
    assert!(quiet.reports.is_empty());

    // Deploy a detector trained on another fleet; no target file changes.
    let retrained = small_detector(9);
    std::fs::write(dir.join("mysql.snap"), retrained.snapshot().render()).unwrap();
    let (reloaded, beat) = tick(&mut poller, &registry);
    assert_eq!(
        registry.statuses()[0].reloads,
        1,
        "the snapshot hot-reloaded"
    );
    assert_eq!((reloaded.added, reloaded.changed), (0, 0));
    assert_eq!(beat.counters()["serve.watch.targets_rechecked"], 2);

    // Every tracked target was re-checked, against the new rules.
    let images: Vec<_> = targets
        .iter()
        .map(|(name, config)| encore_serve::target_image(AppKind::Mysql, name, config))
        .collect();
    let expected: Vec<(String, String)> = retrained
        .check_fleet(AppKind::Mysql, &images, &FleetOptions { workers: Some(1) })
        .into_iter()
        .zip(targets)
        .map(|(report, (name, _))| (name.to_string(), report.expect("assembles").render()))
        .collect();
    assert_eq!(reloaded.reports, expected);

    let (after, _) = tick(&mut poller, &registry);
    assert!(after.reports.is_empty(), "one full re-check per reload");
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}
