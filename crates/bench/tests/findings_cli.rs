//! End-to-end tests for the `encore-detect` findings surface: SARIF
//! emission, fingerprint stability across worker counts, baseline gating,
//! the quiet/severity filters, and the one-line failures of a
//! well-formed command.
//!
//! All runs share the small seeded fleet (`--train 12 --targets 6`), which
//! produces a nonempty but fast finding set.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn encore_detect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_encore-detect"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("failed to spawn encore-detect")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("encore-detect-findings-{name}"))
}

const FLEET: [&str; 4] = ["--train", "12", "--targets", "6"];

#[test]
fn sarif_is_byte_identical_across_worker_counts() {
    let mut logs = Vec::new();
    for workers in ["1", "2", "4"] {
        let path = tmp(&format!("sarif-w{workers}.sarif"));
        let mut args = FLEET.to_vec();
        args.extend(["--workers", workers, "--sarif", path.to_str().unwrap()]);
        let out = encore_detect(&args);
        assert!(out.status.success(), "stderr:\n{}", stderr(&out));
        logs.push(std::fs::read_to_string(&path).expect("SARIF written"));
    }
    assert_eq!(logs[0], logs[1], "workers must not affect fingerprints");
    assert_eq!(logs[0], logs[2], "workers must not affect fingerprints");
    let log = &logs[0];
    assert!(log.contains("\"version\":\"2.1.0\""), "log:\n{log}");
    assert!(log.contains("\"name\":\"encore-detect\""), "log:\n{log}");
    // The registry advertises both lint and detection codes; the results
    // carry detection codes with fingerprints and confidences.
    assert!(log.contains("\"id\":\"EW002\""), "log:\n{log}");
    assert!(log.contains("\"ruleId\":\"EW"), "log:\n{log}");
    assert!(log.contains("\"encoreFinding/v1\":\""), "log:\n{log}");
    assert!(log.contains("\"confidence\":"), "log:\n{log}");
}

#[test]
fn baseline_round_trip_gates_only_fresh_findings() {
    let baseline = tmp("baseline.txt");
    // Record the seeded fleet's findings.
    let mut write = FLEET.to_vec();
    write.extend(["--write-baseline", baseline.to_str().unwrap()]);
    let out = encore_detect(&write);
    assert!(out.status.success(), "stderr:\n{}", stderr(&out));
    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.starts_with("# encore findings baseline v1"), "{text}");

    // Immediate re-run against the baseline: everything suppressed, exit 0.
    let mut gated = FLEET.to_vec();
    gated.extend(["--baseline", baseline.to_str().unwrap()]);
    let out = encore_detect(&gated);
    assert!(out.status.success(), "stderr:\n{}", stderr(&out));
    assert!(
        stderr(&out).contains("0 fresh"),
        "stderr:\n{}",
        stderr(&out)
    );

    // A different target fleet produces findings the baseline has not
    // accepted (fresh → exit 1) and no longer produces some accepted ones
    // (reported as stale on stderr).
    let mut drifted = FLEET.to_vec();
    drifted.extend([
        "--target-seed",
        "99",
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    let out = encore_detect(&drifted);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{}", stderr(&out));
    assert!(
        stderr(&out).contains("stale baseline entry"),
        "stderr:\n{}",
        stderr(&out)
    );

    // --baseline and --write-baseline together is a usage error.
    let mut both = FLEET.to_vec();
    both.extend([
        "--baseline",
        baseline.to_str().unwrap(),
        "--write-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(encore_detect(&both).status.code(), Some(2));
}

#[test]
fn quiet_mode_is_exit_code_only() {
    // The seeded fleet has warnings, so --quiet exits 1 with empty stdout.
    let mut quiet = FLEET.to_vec();
    quiet.push("--quiet");
    let out = encore_detect(&quiet);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "stdout:\n{}", stdout(&out));

    // Detection findings are at most warning severity, so an errors-only
    // filter admits nothing: exit 0.
    let mut filtered = quiet.clone();
    filtered.extend(["--severity", "error"]);
    let out = encore_detect(&filtered);
    assert!(out.status.success(), "stderr:\n{}", stderr(&out));

    // Without --quiet the same fleet still exits 0 (historical behavior).
    let out = encore_detect(&FLEET);
    assert!(out.status.success(), "stderr:\n{}", stderr(&out));
    assert!(stdout(&out).contains("== summary:"), "missing summary");
}

#[test]
fn severity_filter_narrows_the_sarif_log() {
    // Info-level findings (EW004 suspicious values) are present by default
    // and dropped by --severity warning.
    let all_path = tmp("sev-all.sarif");
    let mut all = FLEET.to_vec();
    all.extend(["--sarif", all_path.to_str().unwrap()]);
    let out = encore_detect(&all);
    assert!(out.status.success(), "stderr:\n{}", stderr(&out));
    let full = std::fs::read_to_string(&all_path).expect("SARIF written");

    let warn_path = tmp("sev-warn.sarif");
    let mut warn = FLEET.to_vec();
    warn.extend([
        "--severity",
        "warning",
        "--sarif",
        warn_path.to_str().unwrap(),
    ]);
    let out = encore_detect(&warn);
    assert!(out.status.success(), "stderr:\n{}", stderr(&out));
    let narrowed = std::fs::read_to_string(&warn_path).expect("SARIF written");

    assert!(full.contains("\"ruleId\":\"EW004\""), "log:\n{full}");
    assert!(
        !narrowed.contains("\"ruleId\":\"EW004\""),
        "log:\n{narrowed}"
    );
    assert!(narrowed.len() < full.len());
}

#[test]
fn malformed_baseline_fails_before_any_work() {
    // The baseline is read before training: exit 2 with nothing on stdout,
    // no training line on stderr, and neither the SARIF log nor the report
    // written.
    let baseline = tmp("malformed-baseline.txt");
    std::fs::write(&baseline, "not a baseline\n").expect("write fixture");
    let sarif = tmp("malformed.sarif");
    let report = tmp("malformed-report.json");
    let _ = std::fs::remove_file(&sarif);
    let _ = std::fs::remove_file(&report);
    let mut args = FLEET.to_vec();
    args.extend([
        "--sarif",
        sarif.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    let out = encore_detect(&args);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "stdout:\n{}", stdout(&out));
    // One line, as `encore-lint` prints: the error, without the usage line.
    assert_eq!(stderr(&out).lines().count(), 1, "stderr:\n{}", stderr(&out));
    assert!(
        !stderr(&out).contains("rules,"),
        "stderr:\n{}",
        stderr(&out)
    );
    assert!(
        !sarif.exists(),
        "SARIF written before the baseline was read"
    );
    assert!(
        !report.exists(),
        "report written before the baseline was read"
    );
}

#[test]
fn unreadable_or_malformed_detector_fails_in_one_line() {
    // A well-formed command whose `--load-detector` file is missing or is
    // not a snapshot fails at run time: exit 2 and the error alone on
    // stderr, without the usage line a malformed command line earns.
    let malformed = tmp("malformed-detector.txt");
    std::fs::write(&malformed, "not a snapshot\n").expect("write fixture");
    let missing = tmp("missing-detector.txt");
    let _ = std::fs::remove_file(&missing);
    for (path, error) in [
        (&missing, "cannot read detector"),
        (&malformed, "bad detector"),
    ] {
        let out = encore_detect(&["--targets", "2", "--load-detector", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "stderr:\n{}", stderr(&out));
        let err = stderr(&out);
        assert_eq!(err.lines().count(), 1, "stderr:\n{err}");
        assert!(
            err.starts_with(&format!("encore-detect: {error} `")),
            "stderr:\n{err}"
        );
        assert!(stdout(&out).is_empty(), "stdout:\n{}", stdout(&out));
    }
}
