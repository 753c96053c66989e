//! End-to-end tests for the `encore-report` binary: exit statuses for
//! clean and gated diffs, usage errors, and JSONL rendering.

use encore::obs::{PhaseReport, PipelineReport, TimerSnapshot};
use std::path::PathBuf;
use std::process::{Command, Output};

fn encore_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_encore-report"))
        .args(args)
        .output()
        .expect("failed to spawn encore-report")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A small hand-built perf-record-shaped report.
fn sample_report() -> PipelineReport {
    PipelineReport {
        phases: vec![PhaseReport {
            name: "bench".to_string(),
            counters: vec![
                ("bench.images.collected".to_string(), 30),
                ("bench.pairs.evaluated".to_string(), 5_996),
            ],
            gauges: vec![("bench.workers".to_string(), 2)],
            timers: vec![(
                "infer.time".to_string(),
                TimerSnapshot {
                    nanos: 40_000_000,
                    spans: 1,
                },
            )],
            histograms: Vec::new(),
        }],
    }
}

/// Write a fixture file under the temp dir, named per test.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("encore-report-test-{name}"));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

#[test]
fn self_diff_exits_zero_and_reports_no_differences() {
    let path = fixture("self.json", &sample_report().render_json());
    let path = path.to_str().unwrap();
    let out = encore_report(&["diff", path, path]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));
    assert!(
        stdout(&out).contains("no differences"),
        "stdout:\n{}",
        stdout(&out)
    );
}

#[test]
fn perturbed_counter_exits_one_naming_metric_and_gate() {
    let base = sample_report();
    let mut current = base.clone();
    current.phases[0].counters[1].1 += 7;
    let base_path = fixture("gate-base.json", &base.render_json());
    let current_path = fixture("gate-current.json", &current.render_json());
    let out = encore_report(&[
        "diff",
        base_path.to_str().unwrap(),
        current_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("bench.pairs.evaluated"), "stderr:\n{err}");
    assert!(err.contains("exact"), "stderr:\n{err}");
    assert!(
        stdout(&out).contains("bench.pairs.evaluated"),
        "the delta itself renders to stdout:\n{}",
        stdout(&out)
    );
}

#[test]
fn json_output_parses_and_out_file_matches_stdout() {
    let path = fixture("json.json", &sample_report().render_json());
    let out_file = std::env::temp_dir().join("encore-report-test-delta-out.json");
    let out = encore_report(&[
        "diff",
        path.to_str().unwrap(),
        path.to_str().unwrap(),
        "--json",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));
    let text = stdout(&out);
    encore::obs::json::parse(text.trim()).expect("delta JSON parses");
    assert_eq!(std::fs::read_to_string(&out_file).unwrap(), text);
}

#[test]
fn show_renders_each_jsonl_line() {
    let report = sample_report().render_json();
    let path = fixture("trace.jsonl", &format!("{report}\n{report}\n"));
    let out = encore_report(&["show", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("-- report 1 of 2 --"), "stdout:\n{text}");
    assert!(text.contains("-- report 2 of 2 --"), "stdout:\n{text}");
    assert!(text.contains("bench.pairs.evaluated"), "stdout:\n{text}");
}

#[test]
fn usage_errors_exit_two() {
    // Readable reports and a well-formed policy file, so only the removed
    // `--policy` option itself can make that input fail.
    let report = fixture("usage.json", &sample_report().render_json());
    let policy = fixture("usage-policy.txt", "counters exact\n");
    let (report, policy) = (report.to_str().unwrap(), policy.to_str().unwrap());
    for args in [
        &["diff", "only-one.json"] as &[&str],
        &["frobnicate"],
        &[],
        &["diff", "/nonexistent/a.json", "/nonexistent/b.json"],
        &["diff", report, report, "--policy", policy],
    ] {
        let out = encore_report(args);
        assert_eq!(out.status.code(), Some(2), "args={args:?}");
    }
}
