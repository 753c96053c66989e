//! End-to-end tests for the `encore-serve` binary: server lifecycle over
//! a unix socket, client verbs, the telemetry surface, and bounded
//! stdin-EOF shutdown.

use encore::prelude::*;
use encore::{AnomalyDetector, DetectorSnapshot, FleetOptions};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn encore_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_encore-serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("failed to spawn encore-serve")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// A unique, pre-cleaned temp directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-serve-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Train a small detector and persist its snapshot; returns the path.
fn train_snapshot(dir: &Path, name: &str, app: AppKind, seed: u64) -> PathBuf {
    let pop = Population::training(app, &PopulationOptions::new(8, seed));
    let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
    let detector = EnCore::learn(&training, &LearnOptions::default()).into_detector();
    let path = dir.join(name);
    std::fs::write(&path, detector.snapshot().render()).expect("write snapshot");
    path
}

/// Spawn the server with stdin held open; returns the child, the
/// announced metrics address, and the still-open stderr reader (keep it
/// alive so late server output has somewhere to go).
fn spawn_server(
    args: &[&str],
    want_metrics: bool,
) -> (Child, Option<String>, BufReader<std::process::ChildStderr>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_encore-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn encore-serve server");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut metrics = None;
    let mut serving = false;
    while !(serving && (!want_metrics || metrics.is_some())) {
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
            serving = true;
        }
    }
    (child, metrics, stderr)
}

/// One raw HTTP/1.0 GET: returns (status line, body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn server_answers_all_client_verbs_and_scrapes() {
    let dir = scratch_dir("verbs");
    let mysql_snap = train_snapshot(&dir, "mysql.snap", AppKind::Mysql, 41);
    let web_snap = train_snapshot(&dir, "web.snap", AppKind::Apache, 42);
    let config = dir.join("target.cnf");
    std::fs::write(&config, "[mysqld]\nport = 3306\nstray_knob = 7\n").unwrap();
    let socket = dir.join("serve.sock");
    let socket_str = socket.to_str().unwrap().to_string();
    let mysql_app = format!("mysql={}={}", "mysql", mysql_snap.display());
    let web_app = format!("web={}={}", "apache", web_snap.display());

    let (mut child, metrics, _stderr) = spawn_server(
        &[
            "--socket",
            &socket_str,
            "--app",
            &mysql_app,
            "--app",
            &web_app,
            "--metrics-addr",
            "127.0.0.1:0",
        ],
        true,
    );
    let metrics = metrics.expect("metrics announced");

    // `apps` sees both tenants ready.
    let out = encore_serve(&["--socket", &socket_str, "--apps"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert_eq!(
        stdout(&out),
        "mysql mysql ready reloads=0\nweb apache ready reloads=0\n"
    );

    // `check` through the CLI is byte-identical to a direct
    // `check_fleet` call over the same snapshot.
    let out = encore_serve(&[
        "--socket",
        &socket_str,
        "--check",
        "mysql",
        config.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = std::fs::read_to_string(&mysql_snap).unwrap();
    let detector =
        AnomalyDetector::from_snapshot(DetectorSnapshot::parse(&text).expect("snapshot parses"));
    let image = encore_serve::target_image(
        AppKind::Mysql,
        "target.cnf",
        &std::fs::read_to_string(&config).unwrap(),
    );
    let expected = detector.check_fleet(AppKind::Mysql, &[image], &FleetOptions::default())[0]
        .as_ref()
        .expect("assembles")
        .render();
    assert_eq!(stdout(&out), format!("== target.cnf\n{expected}"));

    // A file name the protocol cannot carry is refused by the client,
    // before anything reaches the server (`stats` below reads `errors 0`).
    let spaced = dir.join("my file.cnf");
    std::fs::write(&spaced, "[mysqld]\nport = 3306\n").unwrap();
    let out = encore_serve(&[
        "--socket",
        &socket_str,
        "--check",
        "mysql",
        spaced.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad target name `my file.cnf`"), "{stderr}");

    // `reload` and `stats` answer over the same socket.
    let out = encore_serve(&["--socket", &socket_str, "--reload", "web"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), "reloaded web\n");
    let out = encore_serve(&["--socket", &socket_str, "--stats"]);
    assert_eq!(out.status.code(), Some(0));
    let stats = stdout(&out);
    for line in [
        "checks 1",
        "errors 0",
        "queue_depth 0",
        "queue_capacity 16",
        "apps_ready 2",
    ] {
        assert!(
            stats.lines().any(|l| l == line),
            "`{line}` missing: {stats}"
        );
    }

    // The scrape surface carries the serve phase; readiness is per-app.
    let (status, body) = http_get(&metrics, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("# TYPE encore_serve_requests_total counter"));
    // No check is waiting now, and the gauge says so.
    assert!(body.contains("\nencore_serve_queue_depth 0\n"), "{body}");
    let (status, body) = http_get(&metrics, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "mysql ready\nweb ready\n");
    let (status, body) = http_get(&metrics, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // `shutdown` stops the server; it exits 0 and unlinks the socket.
    let out = encore_serve(&["--socket", &socket_str, "--shutdown"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), "stopping\n");
    let status = child.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));
    assert!(!socket.exists(), "socket unlinked after shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_log_grammar_holds_over_a_live_run() {
    use encore::obs::json::{self, Json};

    let dir = scratch_dir("events");
    let snap = train_snapshot(&dir, "mysql.snap", AppKind::Mysql, 44);
    let config = dir.join("target.cnf");
    // Carry attributes the learned rules key on (`user`, `datadir`,
    // `general_log` all appear in A-slots of the seed-44 rule set) so the
    // checks evaluate real correlation candidates and the rule-bucket
    // profiler has cost to attribute.
    std::fs::write(
        &config,
        "[mysqld]\nport = 3306\nuser = mysql\ndatadir = /var/lib/mysql\ngeneral_log = 1\n",
    )
    .unwrap();
    let socket = dir.join("serve.sock");
    let socket_str = socket.to_str().unwrap().to_string();
    let events = dir.join("events.jsonl");
    let profile = dir.join("profile.json");
    let app = format!("mysql=mysql={}", snap.display());

    let (mut child, _, _stderr) = spawn_server(
        &[
            "--socket",
            &socket_str,
            "--app",
            &app,
            "--event-log",
            events.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
        ],
        false,
    );

    // Five well-formed requests over separate connections...
    let out = encore_serve(&["--socket", &socket_str, "--apps"]);
    assert_eq!(out.status.code(), Some(0));
    for _ in 0..2 {
        let out = encore_serve(&[
            "--socket",
            &socket_str,
            "--check",
            "mysql",
            config.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    }
    let out = encore_serve(&["--socket", &socket_str, "--stats"]);
    assert_eq!(out.status.code(), Some(0));
    let stats = stdout(&out);
    assert!(stats.contains("events_written "), "{stats}");
    assert!(stats.contains("events_dropped 0\n"), "{stats}");
    assert!(stats.contains("events_queue_depth "), "{stats}");

    // ...plus one malformed request on a raw socket (ids count it too).
    {
        use std::os::unix::net::UnixStream;
        let mut stream = UnixStream::connect(&socket).expect("connect raw");
        stream.write_all(b"verbless nonsense\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("error "), "{response}");
    }

    let out = encore_serve(&["--socket", &socket_str, "--shutdown"]);
    assert_eq!(out.status.code(), Some(0));
    let status = child.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));

    // Every line parses; request.done records are one-per-request with
    // strictly dense ids 1..=max, and each total is exactly the sum of
    // its parse, queue, check and respond stages.
    let text = std::fs::read_to_string(&events).expect("event log written");
    let mut done_ids = Vec::new();
    let mut done_checks = 0usize;
    for line in text.lines() {
        let value = json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        if value.get("event").and_then(Json::as_str) != Some("request.done") {
            continue;
        }
        let req = value.get("req").and_then(Json::as_u64);
        done_ids.push(req.expect("request.done carries req"));
        let fields = value.get("fields").expect("fields");
        if fields.get("verb").and_then(Json::as_str) == Some("check") {
            done_checks += 1;
        }
        let us = |key: &str| {
            fields
                .get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("`{key}` missing from {line}"))
        };
        let stages = us("parse_us") + us("queue_us") + us("check_us") + us("respond_us");
        assert_eq!(us("total_us"), stages, "total is the stage sum: {line}");
    }
    // 6 requests total: apps, check, check, stats, malformed, shutdown.
    done_ids.sort_unstable();
    let expected: Vec<u64> = (1..=6).collect();
    assert_eq!(done_ids, expected, "ids dense, one done per request");
    assert_eq!(done_checks, 2, "one request.done per accepted check");

    // The profile file is valid JSON with the expected table layout.
    let profile_text = std::fs::read_to_string(&profile).expect("profile written");
    let value = json::parse(&profile_text).expect("profile json parses");
    let tables = value.get("tables").and_then(Json::as_arr).expect("tables");
    let names: Vec<&str> = tables
        .iter()
        .filter_map(|t| t.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, vec!["infer.templates", "detect.buckets"]);
    let buckets = &tables[1];
    assert!(
        buckets
            .get("rows")
            .and_then(Json::as_arr)
            .is_some_and(|rows| !rows.is_empty()),
        "checks attributed rule-bucket cost: {profile_text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdin_eof_stops_the_server_within_a_bounded_latency() {
    let dir = scratch_dir("eof");
    let snap = train_snapshot(&dir, "mysql.snap", AppKind::Mysql, 43);
    let socket = dir.join("serve.sock");
    let app = format!("mysql=mysql={}", snap.display());
    // A deliberately huge poll interval: shutdown latency must be bounded
    // by the stop signal, not by sleeping out the interval.
    let (mut child, _, _stderr) = spawn_server(
        &[
            "--socket",
            socket.to_str().unwrap(),
            "--app",
            &app,
            "--poll-interval-ms",
            "600000",
        ],
        false,
    );
    let started = Instant::now();
    drop(child.stdin.take());
    let status = child.wait().expect("server exit");
    assert_eq!(status.code(), Some(0));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "stdin EOF must interrupt the 600s poll wait, took {:?}",
        started.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let dir = scratch_dir("usage");
    // No --socket.
    let out = encore_serve(&["--apps"]);
    assert_eq!(out.status.code(), Some(2));
    // Server mode without any --app.
    let out = encore_serve(&["--socket", dir.join("s.sock").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    // Client verb mixed with a server flag.
    let out = encore_serve(&[
        "--socket",
        dir.join("s.sock").to_str().unwrap(),
        "--app",
        "mysql=mysql=x.snap",
        "--apps",
    ]);
    assert_eq!(out.status.code(), Some(2));
    // The same --app name twice: the second would replace the first.
    let out = encore_serve(&[
        "--socket",
        dir.join("s.sock").to_str().unwrap(),
        "--app",
        "mysql=mysql=a.snap",
        "--app",
        "mysql=apache=b.snap",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--app registers `mysql` twice"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Malformed --app spec.
    let out = encore_serve(&[
        "--socket",
        dir.join("s.sock").to_str().unwrap(),
        "--app",
        "just-a-name",
    ]);
    assert_eq!(out.status.code(), Some(2));
    // Unknown flag.
    let out = encore_serve(&["--socket", "s.sock", "--no-such-flag", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown argument `--no-such-flag`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = encore_serve(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout(&out).starts_with("usage: encore-serve "), "{flag}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn server_refuses_a_missing_snapshot_strictly() {
    let dir = scratch_dir("strict");
    let out = encore_serve(&[
        "--socket",
        dir.join("s.sock").to_str().unwrap(),
        "--app",
        "mysql=mysql=/does/not/exist.snap",
    ]);
    assert_eq!(out.status.code(), Some(1), "strict load failure exits 1");
    let _ = std::fs::remove_dir_all(&dir);
}
