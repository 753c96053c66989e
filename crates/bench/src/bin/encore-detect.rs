//! Fleet-scale detection driver: train once, detect many.
//!
//! ```text
//! encore-detect --app mysql --train 40 --targets 20      # train + check
//! encore-detect --save-detector det.txt --targets 0      # train + persist
//! encore-detect --load-detector det.txt --targets 20     # serve from snapshot
//! encore-detect --targets 20 --workers 4                 # parallel checking
//! ```
//!
//! The target reports are printed to stdout in fleet order, one
//! `== system <id>` block per image, rendered with the exact-score
//! [`encore::Report::render`] form — byte-identical for every worker count
//! and for a trained-vs-reloaded detector, which is what the CI snapshot
//! round-trip job diffs.
//!
//! Setting `ENCORE_TRACE` (or passing `--report`) enables the observability
//! sink; the per-phase pipeline report goes to stderr under `ENCORE_TRACE`
//! and to the `--report` path as JSON when given.  `--trace-out FILE`
//! records every timer span and writes a Chrome trace-viewer /
//! Perfetto-compatible JSON trace on exit.
//!
//! `--save-detector FILE` replaces the file atomically (temp file in the
//! same directory, fsync, rename), so an `encore-serve` poller hot-reloading
//! that path never reads a half-written snapshot.
//!
//! # CI/CD surface
//!
//! Warnings also flow through the unified finding model (stable `EW0xx`
//! codes with content fingerprints): `--severity`/`--min-report-confidence`
//! filter findings, `--sarif FILE` writes a SARIF v2.1.0 log, and
//! `--write-baseline`/`--baseline FILE` record/diff accepted fingerprints so
//! only *new* findings fail the build (exit 1).  `--quiet` suppresses
//! stdout and turns any admitted finding into exit 1.  Flag-free
//! invocations keep the historical stdout and exit-0 behavior exactly.
//!
//! # Continuous checking
//!
//! To keep re-checking a directory of config files as they change, save a
//! snapshot here and run `encore-serve --app NAME=KIND=SNAPSHOT --watch
//! NAME=DIR`.

use encore::prelude::*;
use encore_check::{
    baseline::FindingBaseline,
    finding::{self, Finding, FindingFilter},
    sarif, Severity,
};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;

const USAGE: &str = "usage: encore-detect [--app NAME] [--train N] [--seed N] \
[--targets N] [--target-seed N] [--misconfig-percent P] [--workers N] \
[--save-detector FILE] [--load-detector FILE] [--no-entropy] [--report FILE] \
[--trace-out FILE] [--event-log FILE] [--profile FILE] [--severity LEVEL] \
[--min-report-confidence X] [--quiet] [--sarif FILE] \
[--baseline FILE | --write-baseline FILE]";

/// Print a diagnostic plus the usage line to stderr and exit 2.  All
/// argument-handling failures funnel through here so the binary has exactly
/// one error shape.
fn usage(problem: &str) -> ! {
    eprintln!("encore-detect: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    app: AppKind,
    train: usize,
    seed: u64,
    targets: usize,
    target_seed: u64,
    misconfig_percent: u32,
    workers: Option<usize>,
    save_detector: Option<String>,
    load_detector: Option<String>,
    no_entropy: bool,
    report: Option<String>,
    trace_out: Option<String>,
    event_log: Option<String>,
    profile: Option<String>,
    filter: FindingFilter,
    quiet: bool,
    sarif: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
}

fn parse_args() -> Option<Args> {
    let mut parsed = Args {
        app: AppKind::Mysql,
        train: 40,
        seed: 1,
        targets: 20,
        target_seed: 77,
        misconfig_percent: 21,
        workers: None,
        save_detector: None,
        load_detector: None,
        no_entropy: false,
        report: None,
        trace_out: None,
        event_log: None,
        profile: None,
        filter: FindingFilter::default(),
        quiet: false,
        sarif: None,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    // One shape for every `--flag VALUE` pair: take the value or die with
    // the flag name in the diagnostic.
    let value = |flag: &str, next: Option<String>| -> String {
        match next {
            Some(v) => v,
            None => usage(&format!("{flag} requires a value")),
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--app" => {
                let v = value("--app", args.next());
                parsed.app = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("unknown app `{v}`")));
            }
            "--train" => {
                let v = value("--train", args.next());
                parsed.train = v
                    .parse()
                    .unwrap_or_else(|_| usage("--train requires a count"));
            }
            "--seed" => {
                let v = value("--seed", args.next());
                parsed.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed requires a number"));
            }
            "--targets" => {
                let v = value("--targets", args.next());
                parsed.targets = v
                    .parse()
                    .unwrap_or_else(|_| usage("--targets requires a count"));
            }
            "--target-seed" => {
                let v = value("--target-seed", args.next());
                parsed.target_seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--target-seed requires a number"));
            }
            "--misconfig-percent" => {
                let v = value("--misconfig-percent", args.next());
                parsed.misconfig_percent = v
                    .parse()
                    .unwrap_or_else(|_| usage("--misconfig-percent requires 0..=100"));
            }
            "--workers" => {
                let v = value("--workers", args.next());
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| usage("--workers requires a count"));
                if n == 0 {
                    usage("--workers must be at least 1");
                }
                parsed.workers = Some(n);
            }
            "--save-detector" => parsed.save_detector = Some(value("--save-detector", args.next())),
            "--load-detector" => parsed.load_detector = Some(value("--load-detector", args.next())),
            "--no-entropy" => parsed.no_entropy = true,
            "--report" => parsed.report = Some(value("--report", args.next())),
            "--trace-out" => parsed.trace_out = Some(value("--trace-out", args.next())),
            "--event-log" => parsed.event_log = Some(value("--event-log", args.next())),
            "--profile" => parsed.profile = Some(value("--profile", args.next())),
            "--severity" => {
                let v = value("--severity", args.next());
                parsed.filter.min_severity = Severity::parse_name(&v).unwrap_or_else(|| {
                    usage(&format!("bad --severity `{v}` (error|warning|info)"))
                });
            }
            "--min-report-confidence" => {
                let v = value("--min-report-confidence", args.next());
                let x: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage("--min-report-confidence requires a number"));
                if !(0.0..=1.0).contains(&x) {
                    usage("--min-report-confidence must be in [0, 1]");
                }
                parsed.filter.min_confidence = x;
            }
            "--quiet" | "-q" => parsed.quiet = true,
            "--sarif" => parsed.sarif = Some(value("--sarif", args.next())),
            "--baseline" => parsed.baseline = Some(value("--baseline", args.next())),
            "--write-baseline" => {
                parsed.write_baseline = Some(value("--write-baseline", args.next()));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return None;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    Some(parsed)
}

/// Train a fresh detector, or reconstruct one from `--load-detector`.
fn build_detector(args: &Args) -> AnomalyDetector {
    if let Some(path) = &args.load_detector {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read detector `{path}`: {e}")));
        let snapshot = DetectorSnapshot::parse(&text)
            .unwrap_or_else(|e| usage(&format!("bad detector `{path}`: {e}")));
        return AnomalyDetector::from_snapshot(snapshot);
    }
    let pop = Population::training(args.app, &PopulationOptions::new(args.train, args.seed));
    let training = TrainingSet::assemble(args.app, pop.images())
        .unwrap_or_else(|e| usage(&format!("training corpus does not assemble: {e}")));
    let thresholds = if args.no_entropy {
        FilterThresholds::default().without_entropy()
    } else {
        FilterThresholds::default()
    };
    let options = encore::LearnOptions {
        thresholds,
        ..encore::LearnOptions::default()
    };
    EnCore::learn(&training, &options).into_detector()
}

/// Write `text` to `path` atomically: a temp file in the same directory,
/// fsynced, then renamed over the target, and the directory fsynced so
/// the rename survives a crash.  A reader of `path` sees the old file or
/// the new one, never a truncated one.
fn write_atomically(path: &str, text: &str) -> std::io::Result<()> {
    use std::io::Write;
    let target = std::path::Path::new(path);
    let name = target
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other("not a file path"))?;
    let temp = target.with_file_name(format!(".{name}.tmp-{}", std::process::id()));
    let written = std::fs::File::create(&temp).and_then(|mut file| {
        file.write_all(text.as_bytes())?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&temp, target)) {
        let _ = std::fs::remove_file(&temp);
        return Err(e);
    }
    let dir = target
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    std::fs::File::open(dir)?.sync_all()
}

/// Write the recorded span trace as Chrome trace-viewer JSON when
/// `--trace-out` is set.  The phase-summary lane comes from the
/// cumulative roll-up, so it covers the whole run (training included).
fn write_trace(args: &Args) {
    let Some(path) = &args.trace_out else {
        return;
    };
    let report = encore::obs::pipeline_report();
    let json = encore::obs::trace::render_chrome_json(Some(&report));
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("encore-detect: cannot write trace to `{path}`: {e}");
        std::process::exit(2);
    }
}

/// Write the `--profile` cost report (JSON file + text table on stderr)
/// and drain the event-log writer thread, so queued lines reach the file
/// even when the process exits right after.
fn finish_observability(args: &Args) {
    if let Some(path) = &args.profile {
        if let Err(e) = std::fs::write(path, encore::obs::render_profile_json()) {
            eprintln!("encore-detect: cannot write profile to `{path}`: {e}");
            std::process::exit(2);
        }
        eprint!("{}", encore::obs::render_profile_text(10));
    }
    encore::obs::event::shutdown();
}

fn main() {
    let args = match parse_args() {
        Some(args) => args,
        None => return,
    };
    if args.load_detector.is_some() && args.save_detector.is_some() {
        usage("--load-detector and --save-detector are mutually exclusive");
    }
    if args.baseline.is_some() && args.write_baseline.is_some() {
        usage("--baseline and --write-baseline are mutually exclusive");
    }
    let trace = encore::obs::enable_from_env();
    if args.report.is_some()
        || args.trace_out.is_some()
        // The profiler's coverage reference is the `infer.time` timer,
        // which records only while the sink is on.
        || args.profile.is_some()
    {
        encore::obs::enable();
    }
    if args.trace_out.is_some() {
        // Start before training so its spans land in the trace too.
        encore::obs::trace::start_recording(0);
    }
    match &args.event_log {
        Some(path) => {
            if let Err(e) = encore::obs::event::install(std::path::Path::new(path)) {
                eprintln!("encore-detect: cannot open event log `{path}`: {e}");
                std::process::exit(2);
            }
        }
        None => {
            let _ = encore::obs::event::install_from_env();
        }
    }
    if args.profile.is_some() {
        // Before training, so learn-phase template costs are attributed.
        encore::obs::profile::enable();
    }

    let detector = build_detector(&args);
    eprintln!(
        "encore-detect: {} rules, {} known entries, trained on {} systems",
        detector.rules().len(),
        detector.training_stats().known_entries().len(),
        detector.training_systems(),
    );
    if let Some(path) = &args.save_detector {
        if let Err(e) = write_atomically(path, &detector.snapshot().render()) {
            eprintln!("encore-detect: cannot write detector to `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!("encore-detect: detector saved to `{path}`");
    }

    let fleet = Population::training(
        args.app,
        &PopulationOptions::new(args.targets, args.target_seed)
            .with_misconfig_percent(args.misconfig_percent),
    );
    let options = FleetOptions {
        workers: args.workers,
    };
    let results = detector.check_fleet(args.app, fleet.images(), &options);
    let mut with_warnings = 0usize;
    // Findings accumulate in fleet order — deterministic for every worker
    // count, because check_fleet returns results in image order.
    let mut findings: Vec<Finding> = Vec::new();
    for (image, result) in fleet.images().iter().zip(&results) {
        if !args.quiet {
            println!("== system {}", image.id());
        }
        match result {
            Ok(report) => {
                if !report.is_empty() {
                    with_warnings += 1;
                }
                for w in report.warnings() {
                    let f = Finding::from_warning(image.id(), w);
                    if args.filter.admits(&f) {
                        findings.push(f);
                    }
                }
                if !args.quiet {
                    print!("{}", report.render());
                }
            }
            Err(e) if args.quiet => eprintln!("encore-detect: system {}: {e}", image.id()),
            Err(e) => println!("error: {e}"),
        }
    }
    if !args.quiet {
        println!(
            "== summary: {} systems checked, {} with warnings",
            results.len(),
            with_warnings
        );
    }

    let report = encore::obs::pipeline_report();
    if trace {
        eprint!("{}", report.render_text());
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            eprintln!("encore-detect: cannot write report to `{path}`: {e}");
            std::process::exit(2);
        }
    }
    write_trace(&args);
    finish_observability(&args);

    // The CI surface: SARIF log, baseline write/diff, and the findings
    // exit code.  A flag-free invocation keeps the historical behavior —
    // stdout reports, exit 0 — so the snapshot round-trip diff in CI and
    // every existing consumer are unaffected.
    if let Some(path) = &args.sarif {
        let tool = sarif::SarifTool {
            name: "encore-detect",
            version: env!("CARGO_PKG_VERSION"),
        };
        if let Err(e) = std::fs::write(path, sarif::render(&tool, &findings)) {
            eprintln!("encore-detect: cannot write SARIF to `{path}`: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.write_baseline {
        let baseline = FindingBaseline::from_findings(&findings);
        if let Err(e) = std::fs::write(path, baseline.render()) {
            eprintln!("encore-detect: cannot write baseline to `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "encore-detect: wrote baseline `{path}` accepting {} finding(s)",
            baseline.len()
        );
        return;
    }
    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage(&format!("cannot read baseline `{path}`: {e}")));
        let baseline = FindingBaseline::parse(&text)
            .unwrap_or_else(|e| usage(&format!("baseline `{path}`: {e}")));
        let diff = baseline.diff(&findings);
        eprintln!(
            "encore-detect: baseline `{path}`: {} fresh, {} suppressed, {} stale",
            diff.fresh.len(),
            diff.suppressed,
            diff.stale.len()
        );
        for (fingerprint, annotation) in &diff.stale {
            eprintln!("encore-detect: stale baseline entry {fingerprint}\t{annotation}");
        }
        // Detection findings are at most warning severity, so the gate
        // denies warnings: any fresh (unbaselined) finding fails the build.
        std::process::exit(finding::exit_code(&diff.fresh, true));
    }
    if args.quiet {
        // Exit-code-only mode without a baseline: the presence of any
        // admitted finding is the signal.
        std::process::exit(finding::exit_code(&findings, true));
    }
}
