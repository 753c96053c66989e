//! End-to-end tests for the `encore-lint` binary: exit statuses, stable
//! diagnostic codes, both output formats, and the observability files.

use encore::prelude::*;
use encore_corpus::{Population, PopulationOptions};
use encore_model::{AppKind, AttrName};
use std::path::PathBuf;
use std::process::{Command, Output};

fn encore_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_encore-lint"))
        .args(args)
        .output()
        .expect("failed to spawn encore-lint")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Write a fixture file under the target temp dir, named per test.
fn fixture(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("encore-lint-test-{name}"));
    std::fs::write(&path, contents).expect("write fixture");
    path
}

#[test]
fn clean_defaults_exit_zero() {
    // Predefined templates + rules learned from the generated corpus must
    // produce zero error-severity diagnostics (dead templates on a small
    // corpus are warnings, which do not fail the run).
    let out = encore_lint(&["--app", "mysql", "--images", "12", "--seed", "7"]);
    let text = stdout(&out);
    assert!(out.status.success(), "stdout:\n{text}");
    assert!(text.contains("0 error(s)"), "stdout:\n{text}");
}

#[test]
fn template_defects_fail_with_stable_codes() {
    // `=>` resolves to Owns regardless of slot types, so the first line is
    // syntactically fine but ill-typed; the second is unparseable.
    let templates = fixture(
        "bad-templates",
        "[A:Size] => [B:GroupName]\nnot a template\n",
    );
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--templates",
        templates.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{text}");
    assert!(text.contains("error[EC002]"), "stdout:\n{text}");
    assert!(text.contains("error[EC001]"), "stdout:\n{text}");
}

#[test]
fn dead_template_is_a_warning_denied_by_flag() {
    // Url-typed entries don't exist in the MySQL corpus, so the (well-typed)
    // template is dead: warning by default, error under --deny-warnings.
    let templates = fixture("dead-template", "[A:Url] == [B:Url]\n");
    let base = [
        "--app",
        "mysql",
        "--images",
        "8",
        "--templates",
        templates.to_str().unwrap(),
    ];
    let out = encore_lint(&base);
    let text = stdout(&out);
    assert!(out.status.success(), "stdout:\n{text}");
    assert!(text.contains("warning[EC010]"), "stdout:\n{text}");

    let mut denied = base.to_vec();
    denied.push("--deny-warnings");
    let out = encore_lint(&denied);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{}", stdout(&out));
}

#[test]
fn detector_snapshot_rule_defects_fail_with_stable_codes() {
    // A detector snapshot carrying a contradictory ordering pair and an
    // orphan: the lint must surface EC020 and EC040 from the snapshot's
    // embedded rule set.
    let detector = fixture(
        "bad-detector",
        "encore-detector-snapshot v1\n\
         [meta]\n\
         systems=8\n\
         [rules]\n\
         O:max_connections\tLessNum\tO:table_open_cache\t10\t1.0\n\
         O:table_open_cache\tLessNum\tO:max_connections\t10\t1.0\n\
         O:no_such_attr\tEqual\tO:also_missing\t10\t1.0\n\
         [types]\n\
         [entries]\n\
         max_connections\n\
         table_open_cache\n\
         [values]\n",
    );
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--detector",
        detector.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{text}");
    assert!(text.contains("error[EC020]"), "stdout:\n{text}");
    assert!(text.contains("error[EC040]"), "stdout:\n{text}");
}

#[test]
fn dotted_php_entries_in_a_snapshot_are_not_orphans() {
    // PHP's dotted originals (`session.use_cookies`) display exactly like
    // augmented properties; read back from the snapshot's tagged form they
    // still name the corpus attributes they were learned from.
    let population = Population::training(AppKind::Php, &PopulationOptions::new(12, 3));
    let training = TrainingSet::assemble(AppKind::Php, population.images()).expect("assembles");
    let engine = EnCore::learn(&training, &LearnOptions::default());
    let dotted = |attr: &AttrName| attr.is_original() && attr.base().contains('.');
    assert!(
        engine
            .rules()
            .rules()
            .iter()
            .any(|r| dotted(&r.a) || dotted(&r.b)),
        "no rule names a dotted original:\n{}",
        engine.rules().render()
    );
    let detector = fixture("php-dotted-detector", &engine.snapshot().render());
    let out = encore_lint(&[
        "--app",
        "php",
        "--images",
        "12",
        "--seed",
        "3",
        "--detector",
        detector.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "stdout:\n{text}");
    assert!(!text.contains("EC040"), "stdout:\n{text}");
}

#[test]
fn json_output_is_machine_readable() {
    let out = encore_lint(&["--app", "mysql", "--images", "8", "--json"]);
    let text = stdout(&out);
    assert!(out.status.success(), "stdout:\n{text}");
    assert!(text.starts_with("{\"diagnostics\":["), "stdout:\n{text}");
    assert!(text.contains("\"errors\":0"), "stdout:\n{text}");
}

#[test]
fn invalid_thresholds_get_ec050() {
    let out = encore_lint(&["--app", "mysql", "--images", "8", "--min-confidence", "1.5"]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{text}");
    assert!(text.contains("error[EC050]"), "stdout:\n{text}");
}

#[test]
fn app_names_parse_as_in_the_other_binaries() {
    // `httpd` names Apache here as it does for `encore-detect` and
    // `encore-serve`; a name no binary knows is a usage error.
    let apache = encore_lint(&["--app", "apache", "--images", "8"]);
    let httpd = encore_lint(&["--app", "httpd", "--images", "8"]);
    let stderr = String::from_utf8_lossy(&httpd.stderr);
    assert_ne!(httpd.status.code(), Some(2), "stderr:\n{stderr}");
    assert_eq!(httpd.status.code(), apache.status.code());
    assert_eq!(stdout(&httpd), stdout(&apache));
    let unknown = encore_lint(&["--app", "nginx"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("nginx"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for args in [&["--bogus"][..], &["--rules", "rules.txt"]] {
        let out = encore_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn newer_snapshot_version_is_ec070_not_a_usage_error() {
    let detector = fixture(
        "future-detector",
        "# produced by a future encore\nencore-detector-snapshot v999\n[meta]\nsystems=4\n",
    );
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--detector",
        detector.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{text}");
    assert!(text.contains("error[EC070]"), "stdout:\n{text}");
    assert!(text.contains("v999"), "stdout:\n{text}");
    // A truly malformed snapshot (no header at all) stays a usage error.
    let garbage = fixture("garbage-detector", "not a snapshot\n");
    let out = encore_lint(&["--detector", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
}

/// A snapshot whose type map carries an attribute that no rule references
/// and that the training statistics never observed — EC071 cross-retrain
/// drift, a warning.
const DRIFTED_SNAPSHOT: &str = "encore-detector-snapshot v1\n\
     [meta]\n\
     systems=8\n\
     [rules]\n\
     O:max_connections\tLessNum\tO:table_open_cache\t10\t1.0\n\
     [types]\n\
     O:max_connections\tNumber\n\
     O:table_open_cache\tNumber\n\
     O:ghost_entry\tNumber\n\
     [entries]\n\
     max_connections\n\
     table_open_cache\n\
     [values]\n";

#[test]
fn drifted_snapshot_types_get_ec071() {
    let detector = fixture("drifted-detector", DRIFTED_SNAPSHOT);
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--detector",
        detector.to_str().unwrap(),
    ]);
    let text = stdout(&out);
    // EC071 is warning severity: reported, but exit 0 without --deny-warnings.
    assert!(out.status.success(), "stdout:\n{text}");
    assert!(text.contains("warning[EC071]"), "stdout:\n{text}");
    assert!(text.contains("ghost_entry"), "stdout:\n{text}");
}

#[test]
fn severity_filter_applies_before_output_and_exit_code() {
    let detector = fixture("filter-detector", DRIFTED_SNAPSHOT);
    let base = [
        "--app",
        "mysql",
        "--images",
        "8",
        "--detector",
        detector.to_str().unwrap(),
    ];
    // Unfiltered, --deny-warnings trips on EC071 (and small-corpus EC01x).
    let mut denied = base.to_vec();
    denied.push("--deny-warnings");
    let out = encore_lint(&denied);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{}", stdout(&out));
    // --severity error drops every warning: nothing to deny, nothing printed.
    let mut errors_only = denied.clone();
    errors_only.extend(["--severity", "error"]);
    let out = encore_lint(&errors_only);
    let text = stdout(&out);
    assert!(out.status.success(), "stdout:\n{text}");
    assert!(!text.contains("warning["), "stdout:\n{text}");
    // --quiet suppresses stdout entirely but keeps the exit code.
    let mut quiet = denied.clone();
    quiet.push("--quiet");
    let out = encore_lint(&quiet);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).is_empty(), "stdout:\n{}", stdout(&out));
}

#[test]
fn sarif_log_carries_rules_results_and_fingerprints() {
    let detector = fixture("sarif-detector", DRIFTED_SNAPSHOT);
    let sarif = std::env::temp_dir().join("encore-lint-test-out.sarif");
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--detector",
        detector.to_str().unwrap(),
        "--sarif",
        sarif.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stdout:\n{}", stdout(&out));
    let log = std::fs::read_to_string(&sarif).expect("SARIF written");
    assert!(log.contains("\"version\":\"2.1.0\""), "log:\n{log}");
    assert!(log.contains("\"name\":\"encore-lint\""), "log:\n{log}");
    assert!(log.contains("\"id\":\"EC071\""), "log:\n{log}");
    assert!(log.contains("\"ruleId\":\"EC071\""), "log:\n{log}");
    assert!(log.contains("\"encoreFinding/v1\":\""), "log:\n{log}");
}

#[test]
fn baseline_round_trip_gates_only_fresh_findings() {
    let detector = fixture("baseline-detector", DRIFTED_SNAPSHOT);
    let baseline = std::env::temp_dir().join("encore-lint-test-baseline.txt");
    let base = [
        "--app",
        "mysql",
        "--images",
        "8",
        "--detector",
        detector.to_str().unwrap(),
        "--deny-warnings",
    ];
    // Record the current findings (EC071 + small-corpus dead templates).
    let mut write = base.to_vec();
    write.extend(["--write-baseline", baseline.to_str().unwrap()]);
    let out = encore_lint(&write);
    assert!(out.status.success(), "stdout:\n{}", stdout(&out));
    let text = std::fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.starts_with("# encore findings baseline v1"), "{text}");
    assert!(text.contains("EC071"), "{text}");
    // Immediate re-run against the baseline: everything suppressed, exit 0
    // even under --deny-warnings.
    let mut gated = base.to_vec();
    gated.extend(["--baseline", baseline.to_str().unwrap()]);
    let out = encore_lint(&gated);
    assert!(out.status.success(), "stdout:\n{}", stdout(&out));
    // A baseline missing the EC071 fingerprint leaves it fresh: exit 1, and
    // the now-unmatched entries would be reported as stale.
    let pruned: String = text
        .lines()
        .filter(|l| !l.contains("EC071"))
        .map(|l| format!("{l}\n"))
        .collect();
    let partial = fixture("partial-baseline.txt", &pruned);
    let mut gated = base.to_vec();
    gated.extend(["--baseline", partial.to_str().unwrap()]);
    let out = encore_lint(&gated);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{}", stdout(&out));
    // --baseline and --write-baseline together is a usage error.
    let out = encore_lint(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--write-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn report_and_trace_out_write_parseable_files() {
    let report = std::env::temp_dir().join("encore-lint-test-report.json");
    let trace = std::env::temp_dir().join("encore-lint-test-trace.json");
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&trace);
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--report",
        report.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stdout:\n{}", stdout(&out));

    let text = std::fs::read_to_string(&report).expect("report written");
    let parsed = encore::obs::PipelineReport::parse_json(&text).expect("report parses");
    let phases: Vec<&str> = parsed.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        phases,
        ["collect", "assemble", "infer", "stats", "filter", "detect"]
    );
    assert_eq!(
        parsed
            .phase("collect")
            .unwrap()
            .counter_value("collect.images.built"),
        Some(8)
    );
    assert!(parsed.counters()["infer.pairs.evaluated"] > 0);

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let parsed = encore::obs::json::parse(&text).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(encore::obs::json::Json::as_arr)
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(encore::obs::json::Json::as_str))
        .collect();
    for phase in ["collect", "assemble", "infer", "stats", "filter", "detect"] {
        assert!(
            names.contains(&format!("phase:{phase}").as_str()),
            "missing phase lane for {phase}"
        );
    }
    assert!(
        names.iter().any(|n| !n.starts_with("phase:")),
        "recorded spans ride along with the summary lane"
    );
    let _ = std::fs::remove_file(&report);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn malformed_baseline_fails_before_any_work() {
    // The baseline is read before the corpus is built: exit 2 with nothing
    // on stdout and neither the SARIF log nor the report written.
    let baseline = fixture("malformed-baseline.txt", "not a baseline\n");
    let sarif = std::env::temp_dir().join("encore-lint-test-malformed.sarif");
    let report = std::env::temp_dir().join("encore-lint-test-malformed-report.json");
    let _ = std::fs::remove_file(&sarif);
    let _ = std::fs::remove_file(&report);
    let out = encore_lint(&[
        "--app",
        "mysql",
        "--images",
        "8",
        "--sarif",
        sarif.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stdout:\n{}", stdout(&out));
    assert!(stdout(&out).is_empty(), "stdout:\n{}", stdout(&out));
    assert!(
        !sarif.exists(),
        "SARIF written before the baseline was read"
    );
    assert!(
        !report.exists(),
        "report written before the baseline was read"
    );
}
