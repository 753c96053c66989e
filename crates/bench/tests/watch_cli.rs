//! End-to-end tests for the watched-directory source of `encore-serve`
//! (`--watch NAME=DIR`) fed by a snapshot from `encore-detect
//! --save-detector`: per-tick reports and heartbeat lines, the live
//! telemetry surface, bounded stdin-EOF shutdown, and the atomic snapshot
//! write the hot-reload poller depends on.  Also covers `encore-detect
//! --trace-out`.

use encore::obs::PipelineReport;
use encore::DetectorSnapshot;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("failed to spawn")
}

fn encore_detect(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_encore-detect"), args)
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// A unique, pre-cleaned temp directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-watch-test-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Train a small MySQL detector with `encore-detect` and save its
/// snapshot as `dir/mysql.snap`.
fn save_snapshot(dir: &Path) -> PathBuf {
    let path = dir.join("mysql.snap");
    let out = encore_detect(&[
        "--train",
        "10",
        "--targets",
        "0",
        "--save-detector",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "save-detector failed");
    path
}

/// `dir/targets` holding two MySQL config files.
fn targets_dir(dir: &Path) -> PathBuf {
    let targets = dir.join("targets");
    std::fs::create_dir_all(&targets).unwrap();
    std::fs::write(targets.join("a.cnf"), "[mysqld]\nport = 3306\n").unwrap();
    std::fs::write(targets.join("b.cnf"), "[mysqld]\nport = 3307\n").unwrap();
    targets
}

/// A running `encore-serve` with stdin held open (closing it is the stop
/// signal), its stdout reader, and its stderr reader.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    _stderr: BufReader<ChildStderr>,
    metrics: Option<String>,
}

/// Start `encore-serve` serving `mysql` from `snapshot` and watching
/// `targets`, plus `extra` flags; waits for the `serving on` announcement.
fn spawn_daemon(dir: &Path, snapshot: &Path, targets: &Path, extra: &[&str]) -> Daemon {
    let socket = dir.join("serve.sock");
    let app = format!("mysql=mysql={}", snapshot.display());
    let watch = format!("mysql={}", targets.display());
    let mut child = Command::new(env!("CARGO_BIN_EXE_encore-serve"))
        .args(["--socket", socket.to_str().unwrap(), "--app", &app])
        .args(["--watch", &watch, "--workers", "1"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn encore-serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut metrics = None;
    loop {
        let mut line = String::new();
        assert_ne!(
            stderr.read_line(&mut line).expect("read stderr"),
            0,
            "server exited before announcing its socket"
        );
        if let Some((_, addr)) = line.trim_end().split_once("metrics listening on ") {
            metrics = Some(addr.to_string());
        }
        if line.contains("serving on ") {
            break;
        }
    }
    // The metrics address is announced right after the socket.
    if extra.contains(&"--metrics-addr") && metrics.is_none() {
        let mut line = String::new();
        stderr.read_line(&mut line).expect("read stderr");
        metrics = line
            .trim_end()
            .split_once("metrics listening on ")
            .map(|(_, addr)| addr.to_string());
    }
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    Daemon {
        child,
        stdout,
        _stderr: stderr,
        metrics,
    }
}

impl Daemon {
    /// Read stdout until a `== <name>` report header for each of `names`.
    fn await_reports(&mut self, names: &[&str]) {
        let mut missing: Vec<String> = names.iter().map(|n| format!("== {n}")).collect();
        while !missing.is_empty() {
            let mut line = String::new();
            assert_ne!(
                self.stdout.read_line(&mut line).expect("read stdout"),
                0,
                "stdout closed before reports for {missing:?}"
            );
            missing.retain(|header| header != line.trim_end());
        }
    }

    /// Close stdin and wait for a clean exit; returns how long it took.
    fn stop(mut self) -> Duration {
        let started = Instant::now();
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for encore-serve");
        assert_eq!(status.code(), Some(0));
        started.elapsed()
    }
}

/// Wait until `path` holds at least `n` lines; returns the first `n`.
fn await_lines(path: &Path, n: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        // Only complete lines: the last one may still be being appended.
        let lines: Vec<String> = text
            .split_inclusive('\n')
            .filter(|l| l.ends_with('\n'))
            .map(|l| l.trim_end().to_string())
            .collect();
        if lines.len() >= n {
            return lines[..n].to_vec();
        }
        assert!(
            Instant::now() < deadline,
            "only {} lines in {path:?}",
            lines.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn parse_lines(lines: &[String]) -> Vec<PipelineReport> {
    lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            PipelineReport::parse_json(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1))
        })
        .collect()
}

#[test]
fn watched_directory_prints_reports_and_one_heartbeat_per_tick() {
    let dir = scratch_dir("ticks");
    let snapshot = save_snapshot(&dir);
    let targets = targets_dir(&dir);
    let heartbeat = dir.join("heartbeat.jsonl");
    let mut daemon = spawn_daemon(
        &dir,
        &snapshot,
        &targets,
        &[
            "--poll-interval-ms",
            "50",
            "--heartbeat",
            heartbeat.to_str().unwrap(),
        ],
    );
    daemon.await_reports(&["a.cnf", "b.cnf"]);
    let reports = parse_lines(&await_lines(&heartbeat, 3));
    daemon.stop();

    let first = reports[0].counters();
    assert_eq!(first["serve.watch.scans"], 1, "one scan per tick");
    assert_eq!(first["serve.watch.targets_added"], 2);
    assert_eq!(first["serve.watch.targets_rechecked"], 2);
    for report in &reports[1..] {
        let counters = report.counters();
        assert_eq!(counters["serve.watch.scans"], 1);
        assert_eq!(counters["serve.watch.targets_rechecked"], 0, "quiet tick");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdin_eof_interrupts_the_interval_sleep_promptly() {
    let dir = scratch_dir("eof");
    let snapshot = save_snapshot(&dir);
    let targets = targets_dir(&dir);
    // A deliberately huge interval: shutdown latency must be bounded by
    // the stop signal, not by sleeping out the interval.
    let mut daemon = spawn_daemon(&dir, &snapshot, &targets, &["--poll-interval-ms", "600000"]);
    // The first scan runs at once; after it the poll thread is provably
    // inside the 600 s wait when stdin closes.
    daemon.await_reports(&["a.cnf", "b.cnf"]);
    let took = daemon.stop();
    assert!(
        took < Duration::from_secs(10),
        "stdin EOF must interrupt the 600s wait, took {took:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw HTTP/1.0 GET against the daemon's metrics server: returns
/// (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The value of an unlabelled exposition sample in a scrape body.
fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(|v| v.parse().expect("sample value parses"))
    })
}

#[test]
fn metrics_endpoint_serves_live_monotone_scrapes_during_watch() {
    let dir = scratch_dir("metrics");
    let snapshot = save_snapshot(&dir);
    let targets = targets_dir(&dir);
    let mut daemon = spawn_daemon(
        &dir,
        &snapshot,
        &targets,
        &["--poll-interval-ms", "200", "--metrics-addr", "127.0.0.1:0"],
    );
    let addr = daemon.metrics.clone().expect("metrics announced");

    let (status, body) = http_get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // After the first scan the watched app is ready and the scrape
    // carries the cumulative watch counters.
    daemon.await_reports(&["a.cnf", "b.cnf"]);
    let (status, body) = http_get(&addr, "/readyz");
    assert!(status.contains("200"), "ready after a scan: {status}");
    assert_eq!(body, "mysql ready\n");
    let (_, first) = http_get(&addr, "/metrics");
    assert!(first.starts_with("# HELP"), "exposition starts with HELP");
    assert_eq!(
        sample_value(&first, "encore_serve_watch_targets_rechecked_total"),
        Some(2.0)
    );
    assert!(first.contains("# TYPE encore_serve_watch_targets_tracked gauge"));

    // A later scrape of the running daemon only ever counts up.
    std::thread::sleep(Duration::from_millis(500));
    let (_, second) = http_get(&addr, "/metrics");
    let before = sample_value(&first, "encore_serve_watch_scans_total").unwrap();
    let after = sample_value(&second, "encore_serve_watch_scans_total").unwrap();
    assert!(
        before >= 1.0 && after > before,
        "scans went {before} -> {after}"
    );

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first three heartbeat lines of a watch run, with or without a
/// metrics endpoint attached.
fn heartbeat_lines(tag: &str, metrics: bool) -> Vec<PipelineReport> {
    let dir = scratch_dir(tag);
    let snapshot = save_snapshot(&dir);
    let targets = targets_dir(&dir);
    let heartbeat = dir.join("heartbeat.jsonl");
    let mut args = vec![
        "--poll-interval-ms",
        "50",
        "--heartbeat",
        heartbeat.to_str().unwrap(),
    ];
    if metrics {
        args.extend(["--metrics-addr", "127.0.0.1:0"]);
    }
    let daemon = spawn_daemon(&dir, &snapshot, &targets, &args);
    let lines = await_lines(&heartbeat, 3);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    parse_lines(&lines)
}

/// Histogram sections without the wall-clock latency histograms (`_us`),
/// which are timer-style and differ between any two runs.
fn work_histograms(report: &PipelineReport) -> BTreeMap<String, Vec<u64>> {
    let mut histograms = report.histograms();
    histograms.retain(|name, _| !name.ends_with("_us"));
    histograms
}

#[test]
fn attaching_a_metrics_endpoint_never_changes_the_jsonl_reports() {
    let plain = heartbeat_lines("jsonl-plain", false);
    let with_metrics = heartbeat_lines("jsonl-metrics", true);
    for (tick, (p, m)) in plain.iter().zip(&with_metrics).enumerate() {
        // Counters and work histograms are deterministic per tick; timers,
        // gauges and latency histograms are wall-clock/scheduling noise
        // even between two plain runs.
        assert_eq!(
            p.counters(),
            m.counters(),
            "tick {}: --metrics-addr changed the counter section",
            tick + 1
        );
        assert_eq!(
            work_histograms(p),
            work_histograms(m),
            "tick {}: --metrics-addr changed the histogram section",
            tick + 1
        );
    }
}

#[test]
fn watch_flags_are_checked_before_serving() {
    let dir = scratch_dir("usage");
    let snapshot = save_snapshot(&dir);
    let socket = dir.join("s.sock");
    let app = format!("mysql=mysql={}", snapshot.display());
    let serve = |watch: &str| {
        run(
            env!("CARGO_BIN_EXE_encore-serve"),
            &[
                "--socket",
                socket.to_str().unwrap(),
                "--app",
                &app,
                "--watch",
                watch,
            ],
        )
    };
    // An app no --app registers, a missing directory, a malformed spec.
    let unknown = format!("web={}", dir.display());
    assert_eq!(serve(&unknown).status.code(), Some(2));
    let missing = format!("mysql={}", dir.join("missing").display());
    assert_eq!(serve(&missing).status.code(), Some(2));
    assert_eq!(serve("mysql").status.code(), Some(2));
    // Watch mode now lives in encore-serve alone.
    let out = encore_detect(&["--watch", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_detector_replaces_the_snapshot_atomically() {
    use std::os::unix::fs::MetadataExt;
    let dir = scratch_dir("atomic-save");
    let path = dir.join("mysql.snap");
    std::fs::write(&path, "an older snapshot\n").unwrap();
    let before = std::fs::metadata(&path).unwrap().ino();

    save_snapshot(&dir);
    // A new inode means the file was renamed into place, not truncated
    // and rewritten under a reader's feet.
    assert_ne!(std::fs::metadata(&path).unwrap().ino(), before);
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, vec!["mysql.snap"], "no temp file left behind");
    let text = std::fs::read_to_string(&path).unwrap();
    DetectorSnapshot::parse(&text).expect("the saved snapshot parses");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_out_writes_a_loadable_chrome_trace() {
    let path = std::env::temp_dir().join("encore-detect-test-trace.json");
    let _ = std::fs::remove_file(&path);
    let out = encore_detect(&[
        "--train",
        "10",
        "--targets",
        "4",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{}", stdout(&out));
    let text = std::fs::read_to_string(&path).expect("trace written");
    let parsed = encore::obs::json::parse(&text).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(encore::obs::json::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(encore::obs::json::Json::as_str))
        .collect();
    for phase in ["collect", "assemble", "infer", "stats", "filter", "detect"] {
        assert!(
            names.contains(&format!("phase:{phase}").as_str()),
            "missing phase lane for {phase} in {names:?}"
        );
    }
    for event in events {
        assert_eq!(
            event.get("ph").and_then(encore::obs::json::Json::as_str),
            Some("X")
        );
        assert!(event.get("ts").is_some() && event.get("dur").is_some());
    }
    let _ = std::fs::remove_file(&path);
}
