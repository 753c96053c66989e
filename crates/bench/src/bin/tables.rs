//! Regenerate the paper's evaluation tables.
//!
//! ```text
//! tables                       # every table, full paper-scale corpora
//! tables 8 9                   # only Tables 8 and 9
//! tables --scale 0.25          # shrink populations (faster)
//! tables 13 --report out.json  # also write a pipeline report (JSON)
//! ENCORE_TRACE=1 tables 13     # print the pipeline report to stderr
//! ```
//!
//! Setting `ENCORE_TRACE` (or passing `--report`) enables the observability
//! sink for the run; the per-phase [`encore::obs::pipeline_report`] is
//! printed to stderr under `ENCORE_TRACE` and written as JSON to the
//! `--report` path when given.  `--trace-out FILE` additionally records
//! every timer span and writes a Chrome trace-viewer / Perfetto-compatible
//! JSON trace (with a per-phase summary lane) on exit.

use encore_bench::experiments::{self, ExperimentConfig};

const USAGE: &str = "usage: tables [TABLE_NUMBER ...] [--scale F] [--report FILE] \
[--trace-out FILE] [--event-log FILE] [--profile FILE]";

/// Print a diagnostic plus the usage line to stderr and exit 2.  All
/// argument-handling failures funnel through here so the binary has exactly
/// one error shape.
fn usage(problem: &str) -> ! {
    eprintln!("tables: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    tables: Vec<u32>,
    scale: f64,
    report: Option<String>,
    trace_out: Option<String>,
    event_log: Option<String>,
    profile: Option<String>,
}

fn parse_args() -> Option<Args> {
    let mut parsed = Args {
        tables: Vec::new(),
        scale: 1.0,
        report: None,
        trace_out: None,
        event_log: None,
        profile: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref().map(str::parse) {
                Some(Ok(scale)) => parsed.scale = scale,
                Some(Err(_)) => usage("--scale requires a number"),
                None => usage("--scale requires a number"),
            },
            "--report" => match args.next() {
                Some(path) => parsed.report = Some(path),
                None => usage("--report requires a file path"),
            },
            "--trace-out" => match args.next() {
                Some(path) => parsed.trace_out = Some(path),
                None => usage("--trace-out requires a file path"),
            },
            "--event-log" => match args.next() {
                Some(path) => parsed.event_log = Some(path),
                None => usage("--event-log requires a file path"),
            },
            "--profile" => match args.next() {
                Some(path) => parsed.profile = Some(path),
                None => usage("--profile requires a file path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return None;
            }
            n => match n.parse::<u32>() {
                Ok(t) => parsed.tables.push(t),
                Err(_) => usage(&format!("unknown argument `{n}`")),
            },
        }
    }
    if parsed.tables.is_empty() {
        parsed.tables = experiments::ALL_TABLES.to_vec();
    }
    Some(parsed)
}

fn main() {
    let args = match parse_args() {
        Some(args) => args,
        None => return,
    };
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
        encore::obs::trace::start_recording(0);
    }
    match &args.event_log {
        Some(path) => {
            if let Err(e) = encore::obs::event::install(std::path::Path::new(path)) {
                eprintln!("tables: cannot open event log `{path}`: {e}");
                std::process::exit(2);
            }
        }
        None => {
            let _ = encore::obs::event::install_from_env();
        }
    }
    if args.profile.is_some() {
        encore::obs::profile::enable();
    }
    let config = if (args.scale - 1.0).abs() < f64::EPSILON {
        ExperimentConfig::default()
    } else {
        ExperimentConfig::scaled(args.scale)
    };
    for t in &args.tables {
        match experiments::run_table(*t, &config) {
            Some(output) => {
                println!("=== {}", output.title);
                println!("{}", output.text);
            }
            None => eprintln!(
                "no experiment for table {t} (valid: {:?})",
                experiments::ALL_TABLES
            ),
        }
    }
    let report = encore::obs::pipeline_report();
    if trace {
        eprint!("{}", report.render_text());
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            eprintln!("tables: cannot write report to `{path}`: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.trace_out {
        let json = encore::obs::trace::render_chrome_json(Some(&report));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("tables: cannot write trace to `{path}`: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.profile {
        if let Err(e) = std::fs::write(path, encore::obs::render_profile_json()) {
            eprintln!("tables: cannot write profile to `{path}`: {e}");
            std::process::exit(2);
        }
        eprint!("{}", encore::obs::render_profile_text(10));
    }
    // Drain queued event lines before the process exits.
    encore::obs::event::shutdown();
}
