//! `run --smoke` and `trace --smoke` end to end: every metric named in
//! BENCHMARK.json is printed with its unit and lands in the results file,
//! and the output fingerprints follow the seed.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["train-wide", "train-tall", "audit", "serve"];
const SPEC: &str = include_str!("../../BENCHMARK.json");

fn bench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_encore-bench"))
        .args(args)
        .output()
        .expect("encore-bench starts");
    assert!(
        output.status.success(),
        "encore-bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// The string value of `"key": "..."` in one JSON object's text.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\": \"");
    let at = object.find(&pattern).expect("key present") + pattern.len();
    object[at..].split('"').next().expect("closing quote")
}

/// (name, unit) of each metric listed under `section` in BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split('{')
        .skip(1)
        .map(|object| {
            (
                field(object, "name").to_string(),
                field(object, "unit").to_string(),
            )
        })
        .collect()
}

/// Assert that every workload printed every metric of `section` as
/// `workload name value unit`, and that the results file the run names on
/// its last line holds it with the same unit.
fn assert_metrics(stdout: &str, section: &str) {
    let path = stdout
        .lines()
        .last()
        .and_then(|line| line.strip_prefix("results written to "))
        .expect("last line names the results file");
    let results = std::fs::read_to_string(path).expect("results file readable");
    for (name, unit) in listed(section) {
        for workload in WORKLOADS {
            let printed = stdout.lines().any(|line| {
                let words: Vec<&str> = line.split_whitespace().collect();
                words.len() == 4
                    && words[0] == workload
                    && words[1] == name
                    && words[2].parse::<f64>().is_ok()
                    && words[3] == unit
            });
            assert!(printed, "{workload} does not print {name} in {unit}");
        }
        let entry = format!("\"{name}\": {{\"value\": ");
        let units: Vec<&str> = results
            .match_indices(&entry)
            .map(|(at, _)| field(&results[at..], "unit"))
            .collect();
        assert_eq!(
            units,
            vec![unit.as_str(); WORKLOADS.len()],
            "{name} in {path}"
        );
    }
}

/// Every `... fingerprint` line, keyed by workload and name.
fn fingerprints(stdout: &str) -> BTreeMap<(String, String), String> {
    stdout
        .lines()
        .filter_map(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words[..] {
                [workload, name, value] if name.ends_with("fingerprint") => {
                    Some(((workload.to_string(), name.to_string()), value.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

#[test]
fn smoke_runs_report_every_metric_and_follow_the_seed() {
    let run = bench(&["run", "--smoke", "--seed", "1"]);
    assert_metrics(&run, "end_to_end");
    let traced = bench(&["trace", "--smoke", "--seed", "1"]);
    assert_metrics(&traced, "per_layer");

    let first = fingerprints(&run);
    assert_eq!(first.len(), WORKLOADS.len(), "one fingerprint per workload");
    assert_eq!(
        first,
        fingerprints(&traced),
        "same seed, same outputs, traced or not"
    );
    let other = fingerprints(&bench(&["run", "--smoke", "--seed", "2"]));
    for (key, value) in &first {
        assert_ne!(Some(value), other.get(key), "{key:?} ignores the seed");
    }
}
