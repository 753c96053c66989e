//! `encore-bench`: the EnCore benchmark.
//!
//! ```text
//! encore-bench run   [--seed N] [--seconds S] [--smoke]   every workload, one child process each
//! encore-bench trace [--seed N] [--seconds S] [--smoke]   the same, traced: per-layer metrics
//! encore-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! A single-workload run prints one `workload metric value unit` line per
//! metric, then, as its last line, a JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.  It exits nonzero when an output
//! check fails.  See `README.md` for the workloads and metrics.

mod audit;
mod measure;
mod pipeline;
mod serve;
mod trace;
mod train;

use measure::{peak_rss_mb, Config, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = ["train-wide", "train-tall", "audit", "serve"];
/// The timed window, as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 18.0;
const SMOKE_SECONDS: f64 = 0.4;
const USAGE: &str = "usage: encore-bench (run | trace | --workload NAME) [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke]";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    /// `run` or `trace` given: every workload, each in a child process.
    all: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let value = |flag: &str, argv: &mut dyn Iterator<Item = String>| {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "run" => args.all = true,
            "trace" => (args.all, args.trace) = (true, Some(true)),
            "--smoke" => args.smoke = true,
            "--workload" => {
                let name = value("--workload", &mut argv)?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                let seed = value("--seed", &mut argv)?;
                args.seed = Some(seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?);
            }
            "--seconds" => {
                let s = value("--seconds", &mut argv)?;
                match s.parse::<f64>() {
                    Ok(v) if v > 0.0 && v.is_finite() => args.seconds = Some(v),
                    _ => return Err(format!("bad --seconds `{s}`")),
                }
            }
            "--trace" => match value("--trace", &mut argv)?.as_str() {
                "0" => args.trace = Some(false),
                "1" => args.trace = Some(true),
                other => return Err(format!("bad --trace `{other}`: 0 or 1")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give either `run`/`trace` or `--workload NAME`".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("encore-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed.unwrap_or(1),
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        smoke: args.smoke,
        trace: args.trace.unwrap_or(false),
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    match &args.workload {
        Some(name) => run_one(&cfg, name),
        None => run_all(&cfg),
    }
}

fn run_workload(cfg: &Config, name: &str) -> Result<Outcome, String> {
    use encore_model::AppKind;
    match name {
        "train-wide" => train::run(cfg, name, AppKind::Apache, cfg.size(127, 30)),
        "train-tall" => train::run(cfg, name, AppKind::Mysql, cfg.size(1000, 80)),
        "audit" => audit::run(cfg),
        "serve" => serve::run(cfg),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Write the spans of a traced run to `out/trace-<workload>.json`.
pub fn write_trace(cfg: &Config, workload: &str, t: &trace::Tracer) -> Result<(), String> {
    let path = cfg.out.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&cfg.out)
        .and_then(|()| t.write_chrome(&path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(cfg: &Config, name: &str) -> ExitCode {
    let mut out = match run_workload(cfg, name) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !cfg.trace {
        match peak_rss_mb() {
            Ok(mb) => out.metric("peak_rss_mb", mb, "MB"),
            Err(e) => out.failures.push(format!("peak_rss_mb: {e}")),
        }
    }
    for m in out.metrics.iter_mut() {
        if !m.value.is_finite() {
            out.failures
                .push(format!("metric {} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    for m in out.metrics.iter().chain(&out.info) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for (key, text) in &out.notes {
        println!("{name} {key} {text}");
    }
    for failure in &out.failures {
        eprintln!("{name}: output check failed: {failure}");
    }
    println!("{}", result_json(&out));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Run every workload in its own child process, so that each child's peak
/// RSS is its workload's, and collect the results in one JSON file.
fn run_all(cfg: &Config) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("encore-bench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if cfg.smoke {
            child.arg("--smoke");
        }
        let output = match child.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{workload}: cannot start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = match lines.last() {
            Some(last) if last.starts_with('{') => lines.pop().unwrap_or("null"),
            _ => "null",
        };
        for line in lines {
            println!("{line}");
        }
        ok &= output.status.success();
        results.push(format!("\"{workload}\": {result}"));
    }
    let mode = if cfg.trace { "trace" } else { "run" };
    let path: PathBuf = cfg.out.join(format!("{mode}-seed{}.json", cfg.seed));
    let json = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"trace\": {}, \"workloads\": {{{}}}}}\n",
        cfg.seed,
        cfg.seconds,
        cfg.smoke,
        cfg.trace,
        results.join(", ")
    );
    if let Err(e) = std::fs::create_dir_all(&cfg.out).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results written to {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
