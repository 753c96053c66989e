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
//! Observability goes through one [`encore::obs::ObsConfig`]: the
//! per-phase pipeline report goes to stderr under `ENCORE_TRACE` and to
//! the `--report` path as JSON, `--trace-out FILE` writes every timer span
//! as a Chrome trace-viewer / Perfetto-compatible JSON trace, `--event-log
//! FILE` appends the JSONL event log, and `--profile FILE` writes the
//! per-template cost tables (top rows also on stderr).
//!
//! Every file this binary writes — `--save-detector`, the observability
//! outputs, `--sarif`, `--write-baseline` — replaces its target atomically
//! ([`encore::write_atomically`]), so an `encore-serve` poller
//! hot-reloading a snapshot never reads a half-written one.
//!
//! # CI/CD surface
//!
//! Warnings also flow through the unified finding model (stable `EW0xx`
//! codes with content fingerprints), and the six findings flags go
//! through the same [`FindingsConfig`] as `encore-lint`:
//! `--severity`/`--min-report-confidence` filter findings, `--sarif FILE`
//! writes a SARIF v2.1.0 log, and `--write-baseline`/`--baseline FILE`
//! record/diff accepted fingerprints so only *new* findings fail the build
//! (exit 1).  The baseline is read before training, so a missing or
//! malformed one exits 2 with nothing written.  `--quiet` suppresses
//! stdout and turns any admitted finding into exit 1.  Without `--quiet`
//! or `--baseline` the run exits 0, so flag-free invocations keep the
//! historical stdout and exit code exactly.
//!
//! # Continuous checking
//!
//! To keep re-checking a directory of config files as they change, save a
//! snapshot here and run `encore-serve --app NAME=KIND=SNAPSHOT --watch
//! NAME=DIR`.

use encore::obs::ObsConfig;
use encore::prelude::*;
use encore::write_atomically;
use encore_check::{Finding, FindingsConfig};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;

const USAGE: &str = "usage: encore-detect [--app NAME] [--train N] [--seed N] \
[--targets N] [--target-seed N] [--misconfig-percent P] [--workers N] \
[--save-detector FILE] [--load-detector FILE] [--no-entropy] [--report FILE] \
[--trace-out FILE] [--event-log FILE] [--profile FILE] [--severity LEVEL] \
[--min-report-confidence X] [--quiet] [--sarif FILE] \
[--baseline FILE | --write-baseline FILE]";

/// Print a diagnostic plus the usage line to stderr and exit 2.  Every
/// malformed command line funnels through here.
fn usage(problem: &str) -> ! {
    eprintln!("encore-detect: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Print a failure of a well-formed command (an unreadable or malformed
/// input file, a corpus that does not assemble, an output that cannot be
/// written) as one stderr line, without the usage line, and exit 2.
fn fail(problem: &str) -> ! {
    eprintln!("encore-detect: {problem}");
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
    obs: ObsConfig,
    findings: FindingsConfig,
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
        obs: ObsConfig::from_env(),
        findings: FindingsConfig::default(),
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
            "--report" => parsed.obs.report = Some(value("--report", args.next()).into()),
            "--trace-out" => parsed.obs.trace_out = Some(value("--trace-out", args.next()).into()),
            "--event-log" => parsed.obs.event_log = Some(value("--event-log", args.next()).into()),
            "--profile" => parsed.obs.profile = Some(value("--profile", args.next()).into()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return None;
            }
            other => match parsed.findings.parse_flag(other, &mut args) {
                Ok(true) => {}
                Ok(false) => usage(&format!("unknown argument `{other}`")),
                Err(e) => usage(&e),
            },
        }
    }
    Some(parsed)
}

/// Train a fresh detector, or reconstruct one from `--load-detector`.
fn build_detector(args: &Args) -> AnomalyDetector {
    if let Some(path) = &args.load_detector {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read detector `{path}`: {e}")));
        let snapshot = DetectorSnapshot::parse(&text)
            .unwrap_or_else(|e| fail(&format!("bad detector `{path}`: {e}")));
        return AnomalyDetector::from_snapshot(snapshot);
    }
    let pop = Population::training(args.app, &PopulationOptions::new(args.train, args.seed));
    let training = TrainingSet::assemble(args.app, pop.images())
        .unwrap_or_else(|e| fail(&format!("training corpus does not assemble: {e}")));
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

fn main() {
    let Some(mut args) = parse_args() else {
        return;
    };
    if args.load_detector.is_some() && args.save_detector.is_some() {
        usage("--load-detector and --save-detector are mutually exclusive");
    }
    args.findings.start().unwrap_or_else(|e| fail(&e));
    args.obs.start().unwrap_or_else(|e| fail(&e));

    let detector = build_detector(&args);
    eprintln!(
        "encore-detect: {} rules, {} known entries, trained on {} systems",
        detector.rules().len(),
        detector.training_stats().known_entries().len(),
        detector.training_systems(),
    );
    if let Some(path) = &args.save_detector {
        write_atomically(path, detector.snapshot().render())
            .unwrap_or_else(|e| fail(&format!("cannot write detector to `{path}`: {e}")));
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
    let quiet = args.findings.quiet;
    for (image, result) in fleet.images().iter().zip(&results) {
        if !quiet {
            println!("== system {}", image.id());
        }
        match result {
            Ok(report) => {
                if !report.is_empty() {
                    with_warnings += 1;
                }
                for w in report.warnings() {
                    let f = Finding::from_warning(image.id(), w);
                    if args.findings.filter.admits(&f) {
                        findings.push(f);
                    }
                }
                if !quiet {
                    print!("{}", report.render());
                }
            }
            Err(e) if quiet => eprintln!("encore-detect: system {}: {e}", image.id()),
            Err(e) => println!("error: {e}"),
        }
    }
    if !quiet {
        println!(
            "== summary: {} systems checked, {} with warnings",
            results.len(),
            with_warnings
        );
    }

    args.obs.finish().unwrap_or_else(|e| fail(&e));

    // Detection findings are at most warnings, so the gate denies them.  A
    // run without --quiet or --baseline keeps the historical exit 0, which
    // the snapshot round-trip diff in CI and every existing consumer rely on.
    let code = args
        .findings
        .finish("encore-detect", &findings, true)
        .unwrap_or_else(|e| fail(&e));
    if quiet || args.findings.baseline.is_some() {
        std::process::exit(code);
    }
}
