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
//! Observability goes through one [`encore::obs::ObsConfig`]: the
//! per-phase [`encore::obs::pipeline_report`] is printed to stderr under
//! `ENCORE_TRACE` and written as JSON to the `--report` path,
//! `--trace-out FILE` writes every timer span as a Chrome trace-viewer /
//! Perfetto-compatible JSON trace (with a per-phase summary lane),
//! `--event-log FILE` appends the JSONL event log, and `--profile FILE`
//! writes the per-template cost tables.

use encore::obs::ObsConfig;
use encore_bench::experiments::{self, ExperimentConfig};
use std::path::PathBuf;

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
    obs: ObsConfig,
}

/// The file path following `flag`, or a usage error.
fn path_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> PathBuf {
    match args.next() {
        Some(path) => PathBuf::from(path),
        None => usage(&format!("{flag} requires a file path")),
    }
}

fn parse_args() -> Option<Args> {
    let mut parsed = Args {
        tables: Vec::new(),
        scale: 1.0,
        obs: ObsConfig::from_env(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref().map(str::parse) {
                Some(Ok(scale)) => parsed.scale = scale,
                Some(Err(_)) => usage("--scale requires a number"),
                None => usage("--scale requires a number"),
            },
            "--report" => parsed.obs.report = Some(path_arg(&mut args, &arg)),
            "--trace-out" => parsed.obs.trace_out = Some(path_arg(&mut args, &arg)),
            "--event-log" => parsed.obs.event_log = Some(path_arg(&mut args, &arg)),
            "--profile" => parsed.obs.profile = Some(path_arg(&mut args, &arg)),
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
    if let Err(e) = args.obs.start() {
        eprintln!("tables: {e}");
        std::process::exit(2);
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
    if let Err(e) = args.obs.finish() {
        eprintln!("tables: {e}");
        std::process::exit(2);
    }
}
