//! Argument handling of the `tables` binary; no table runs here.

use std::process::Command;

#[test]
fn a_table_with_no_experiment_is_a_usage_error_before_any_table_runs() {
    // Table 1 comes first, so a check made while running would print it.
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["1", "99", "--scale", "0.25"])
        .output()
        .expect("spawn tables");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no experiment for table 99 (valid: [1, 2, 3, 8, 9, 10, 11, 12, 13])"),
        "{stderr}"
    );
}
