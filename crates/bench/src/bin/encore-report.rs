//! Compare and render pipeline reports.
//!
//! ```text
//! encore-report diff base.json current.json
//! encore-report diff base.json current.json --json --out delta.json
//! encore-report show heartbeat.jsonl                   # render (JSONL ok)
//! ```
//!
//! `diff` structurally compares two reports ([`encore::obs::ReportDelta`])
//! and gates the work counts: every differing counter or histogram fails,
//! while gauges and timers are rendered but never fail
//! ([`encore::obs::ReportDelta::violations`]).  Exit codes: 0 — no counter
//! or histogram differs (the delta itself may be nonempty); 1 — at least
//! one does, each printed with the metric name and its gate; 2 — usage or
//! I/O errors.
//!
//! `show` renders report files as text; a file with several JSON lines
//! (an `encore-serve --heartbeat` file) renders each line in order.

use encore::obs::{PipelineReport, ReportDelta};

const USAGE: &str = "usage: encore-report diff BASE CURRENT [--json] [--out FILE]
       encore-report show FILE";

/// Print a diagnostic plus the usage line to stderr and exit 2.  All
/// argument-handling failures funnel through here so the binary has
/// exactly one error shape.
fn usage(problem: &str) -> ! {
    eprintln!("encore-report: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Read and parse one report file, dying with exit 2 on failure.
fn read_report(path: &str) -> PipelineReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read `{path}`: {e}")));
    PipelineReport::parse_json(text.trim())
        .unwrap_or_else(|e| usage(&format!("bad report `{path}`: {e}")))
}

fn cmd_diff(args: &[String]) -> i32 {
    let mut positional: Vec<&String> = Vec::new();
    let mut out_path: Option<&String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out_path = Some(path),
                None => usage("--out requires a file path"),
            },
            "--json" => json = true,
            other if other.starts_with('-') => usage(&format!("unknown argument `{other}`")),
            _ => positional.push(arg),
        }
    }
    let [base_path, current_path] = positional[..] else {
        usage("diff takes exactly BASE and CURRENT report files");
    };
    let base = read_report(base_path);
    let current = read_report(current_path);
    let delta = ReportDelta::diff(&base, &current);
    let rendered = if json {
        let mut s = delta.render_json();
        s.push('\n');
        s
    } else {
        delta.render_text()
    };
    print!("{rendered}");
    if let Some(path) = out_path {
        if let Err(e) = encore::write_atomically(path, &rendered) {
            usage(&format!("cannot write `{path}`: {e}"));
        }
    }

    let violations = delta.violations();
    if violations.is_empty() {
        return 0;
    }
    for violation in &violations {
        eprintln!("encore-report: gated {violation}");
    }
    eprintln!(
        "encore-report: {} gated metric(s) exceed the delta policy",
        violations.len()
    );
    1
}

fn cmd_show(args: &[String]) -> i32 {
    let [path] = args else {
        usage("show takes exactly one report file");
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read `{path}`: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        usage(&format!("`{path}` holds no report"));
    }
    for (i, line) in lines.iter().enumerate() {
        let report = PipelineReport::parse_json(line)
            .unwrap_or_else(|e| usage(&format!("bad report `{path}` line {}: {e}", i + 1)));
        if lines.len() > 1 {
            println!("-- report {} of {} --", i + 1, lines.len());
        }
        print!("{}", report.render_text());
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((cmd, rest)) if cmd == "diff" => cmd_diff(rest),
        Some((cmd, rest)) if cmd == "show" => cmd_show(rest),
        Some((cmd, _)) if cmd == "--help" || cmd == "-h" => {
            println!("{USAGE}");
            0
        }
        Some((cmd, _)) => usage(&format!("unknown command `{cmd}`")),
        None => usage("missing command"),
    };
    std::process::exit(code);
}
