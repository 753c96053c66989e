//! Live telemetry of the detection daemon end to end: per-app readiness
//! tracking snapshot hot-reload health while a watched directory keeps
//! being served, monotone Prometheus scrapes across poll ticks, and the
//! guarantee that scraping never changes the heartbeat lines.

use encore::obs;
use encore::obs::expose;
use encore::obs::PipelineReport;
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn small_detector(app: AppKind) -> AnomalyDetector {
    let pop = Population::training(app, &PopulationOptions::new(12, 7));
    let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
    EnCore::learn(&training, &LearnOptions::default()).into_detector()
}

/// Reset and enable the sink, then register `mysql` (snapshot saved in
/// `dir`) watching `dir/targets`.  Callers hold the gate.
fn watched_mysql(dir: &Path) -> (SnapshotRegistry, Poller, PathBuf) {
    obs::reset();
    encore_serve::obs::reset();
    obs::enable();
    let snapshot = dir.join("mysql.snap");
    std::fs::write(
        &snapshot,
        small_detector(AppKind::Mysql).snapshot().render(),
    )
    .unwrap();
    let targets = dir.join("targets");
    std::fs::create_dir_all(&targets).unwrap();
    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &snapshot)
        .expect("mysql loads");
    let poller =
        Poller::new(&registry, &[("mysql".to_string(), targets.clone())]).expect("registered");
    (registry, poller, targets)
}

/// One poll tick with the re-checks run directly on the registry.
fn tick(poller: &mut Poller, registry: &SnapshotRegistry) -> Scan {
    let mut scans = poller.tick(registry, |app, targets| {
        registry.check(app, &targets, Some(1))
    });
    scans.remove(0).expect("scan succeeds")
}

/// The value of an exposition sample (no labels), e.g.
/// `sample_value(&text, "encore_serve_watch_scans_total")`.
fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(|v| v.parse().expect("sample value parses"))
    })
}

#[test]
fn readyz_flips_on_failed_hot_reload_while_the_old_detector_serves() {
    let _gate = gate();
    let dir = scratch_dir("telemetry-readyz");
    let (registry, mut poller, targets) = watched_mysql(&dir);
    let good_snapshot = std::fs::read_to_string(dir.join("mysql.snap")).unwrap();
    let web = dir.join("web.snap");
    std::fs::write(&web, small_detector(AppKind::Apache).snapshot().render()).unwrap();
    registry
        .load("web", AppKind::Apache, &web)
        .expect("web loads");
    let target = targets.join("a.cnf");
    std::fs::write(&target, "[mysqld]\nport = 3306\n").unwrap();

    // `/readyz` serves `registry.ready()`: a watched app waits for its
    // first scan, the unwatched one is ready at once.
    assert_eq!(
        registry.ready(),
        (false, "mysql not-ready\nweb ready\n".to_string())
    );
    let first = tick(&mut poller, &registry);
    assert_eq!(first.reports.len(), 1);
    assert_eq!(
        registry.ready(),
        (true, "mysql ready\nweb ready\n".to_string())
    );

    // A bad deploy: the snapshot file is replaced with garbage.  The app
    // must keep serving with the old detector but advertise not-ready so
    // an orchestrator stops routing new work to it; `web` is untouched.
    let (_, old_detector) = registry.detector("mysql").expect("registered");
    std::fs::write(dir.join("mysql.snap"), "not a snapshot at all\n").unwrap();
    let changed = "[mysqld]\nport = 3307\nold_unknown_key = 1\n";
    std::fs::write(&target, changed).unwrap();
    let second = tick(&mut poller, &registry);
    assert_eq!(
        registry.ready(),
        (false, "mysql not-ready\nweb ready\n".to_string())
    );
    assert!(
        registry.statuses()[0].last_error.is_some(),
        "failure surfaced"
    );
    let image = encore_serve::target_image(AppKind::Mysql, "a.cnf", changed);
    let expected = old_detector
        .check_fleet(AppKind::Mysql, &[image], &FleetOptions { workers: Some(1) })
        .remove(0)
        .expect("assembles")
        .render();
    assert_eq!(
        second.reports,
        vec![("a.cnf".to_string(), expected)],
        "the changed target is checked with the previous rules"
    );

    // Nothing changed on disk: no retry storm, still not ready.
    let _third = tick(&mut poller, &registry);
    assert_eq!(
        encore_serve::obs::RELOAD_FAILURES.get(),
        1,
        "bad file parsed once"
    );
    assert!(!registry.ready().0, "not-ready latches");

    // The fixed deploy lands: ready again on the successful reload.
    std::fs::write(
        dir.join("mysql.snap"),
        format!("{good_snapshot}\n# fixed\n"),
    )
    .unwrap();
    let _fourth = tick(&mut poller, &registry);
    assert!(registry.ready().0, "recovery flips ready back");
    assert_eq!(encore_serve::obs::SNAPSHOT_RELOADS.get(), 1);
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prometheus_scrapes_of_a_running_watcher_are_monotone() {
    let _gate = gate();
    let dir = scratch_dir("telemetry-scrape");
    let (registry, mut poller, targets) = watched_mysql(&dir);
    std::fs::write(targets.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(targets.join("b.cnf"), "[mysqld]\nport = 3307\n").unwrap();

    let mut last_checked = 0.0;
    for round in 1..=3u64 {
        tick(&mut poller, &registry);
        let scrape = encore_serve::obs::render_prometheus();
        expose::validate(&scrape).unwrap_or_else(|e| panic!("scrape {round}: {e}"));
        let scans = sample_value(&scrape, "encore_serve_watch_scans_total").expect("scans sample");
        let checked = sample_value(&scrape, "encore_serve_watch_targets_rechecked_total")
            .expect("rechecked sample");
        assert_eq!(scans, round as f64, "cumulative across ticks");
        assert!(checked >= last_checked, "monotone");
        last_checked = checked;
        let tracked =
            sample_value(&scrape, "encore_serve_watch_targets_tracked").expect("tracked gauge");
        assert_eq!(tracked, 2.0);
    }
    assert_eq!(encore_serve::obs::WATCH_SCANS.get(), 3);
    assert_eq!(last_checked, 2.0, "both targets checked once, first tick");
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run a fixed three-tick watch script (add two targets, change one,
/// quiet tick) and return the heartbeat lines, parsed.  When `scrape` is
/// set, `/metrics` is rendered between ticks exactly as a live scraper
/// would, which must not perturb the heartbeat.
fn watch_script(tag: &str, scrape: bool) -> Vec<PipelineReport> {
    let dir = scratch_dir(tag);
    let (registry, mut poller, targets) = watched_mysql(&dir);
    std::fs::write(targets.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(targets.join("b.cnf"), "[mysqld]\nport = 3307\n").unwrap();
    let mut lines = Vec::new();
    for round in 1..=3 {
        if round == 2 {
            std::fs::write(
                targets.join("b.cnf"),
                "[mysqld]\nport = 3307\nmax_connections = 100\n",
            )
            .unwrap();
        }
        tick(&mut poller, &registry);
        if scrape {
            let text = encore_serve::obs::render_prometheus();
            expose::validate(&text).unwrap_or_else(|e| panic!("scrape {round}: {e}"));
        }
        lines.push(poller.heartbeat().render_json());
    }
    obs::disable();
    let _ = std::fs::remove_dir_all(&dir);
    lines
        .iter()
        .map(|line| PipelineReport::parse_json(line).expect("line parses"))
        .collect()
}

#[test]
fn concurrent_scraping_never_changes_the_jsonl_reports() {
    let _gate = gate();
    let plain = watch_script("telemetry-jsonl-plain", false);
    let scraped = watch_script("telemetry-jsonl-scraped", true);
    assert_eq!(plain.len(), 3);
    assert_eq!(scraped.len(), 3);
    for (tick, (p, s)) in plain.iter().zip(&scraped).enumerate() {
        // Counters and histograms are deterministic per tick (timers and
        // wall-clock gauges are not, which is why `ReportDelta::violations`
        // never fails on them).
        assert_eq!(
            p.counters(),
            s.counters(),
            "tick {}: scraping changed the counter section",
            tick + 1
        );
        assert_eq!(
            p.histograms(),
            s.histograms(),
            "tick {}: scraping changed the histogram section",
            tick + 1
        );
    }
    assert_eq!(plain[0].counters()["serve.watch.targets_added"], 2);
    assert_eq!(plain[1].counters()["serve.watch.targets_changed"], 1);
    assert_eq!(plain[2].counters()["serve.watch.targets_rechecked"], 0);
}
