//! In-process integration tests for the multi-tenant detection service:
//! byte-identity of served reports against a direct `check_fleet` call,
//! and per-app readiness containment of failed hot-reloads.  The `busy`
//! backpressure contract is a unit test in `src/server.rs`.

use encore::prelude::*;
use encore::{AnomalyDetector, DetectorSnapshot, FleetOptions};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_serve::{CheckReply, Client, ServeOptions, Server, SnapshotRegistry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A unique, pre-cleaned temp directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encore-serve-test-{tag}"));
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

fn load_detector(path: &Path) -> AnomalyDetector {
    let text = std::fs::read_to_string(path).expect("read snapshot");
    AnomalyDetector::from_snapshot(DetectorSnapshot::parse(&text).expect("snapshot parses"))
}

fn mysql_targets() -> Vec<(String, String)> {
    vec![
        (
            "clean.cnf".to_string(),
            "[mysqld]\nport = 3306\n".to_string(),
        ),
        (
            "odd.cnf".to_string(),
            "[mysqld]\nport = 99999\nmystery_knob = wat\n".to_string(),
        ),
    ]
}

fn apache_targets() -> Vec<(String, String)> {
    vec![(
        "httpd.conf".to_string(),
        "Listen 80\nServerName example.test\n".to_string(),
    )]
}

/// The reports a direct `check_fleet` call renders for these payloads —
/// the byte-identity oracle for the served responses.
fn direct_reports(
    detector: &AnomalyDetector,
    app: AppKind,
    targets: &[(String, String)],
    workers: Option<usize>,
) -> Vec<(String, String)> {
    let images: Vec<_> = targets
        .iter()
        .map(|(name, payload)| encore_serve::target_image(app, name, payload))
        .collect();
    let results = detector.check_fleet(app, &images, &FleetOptions { workers });
    targets
        .iter()
        .zip(results)
        .map(|((name, _), result)| (name.clone(), result.expect("assembles").render()))
        .collect()
}

#[test]
fn concurrent_clients_get_reports_byte_identical_to_check_fleet() {
    let dir = scratch_dir("identity");
    let mysql_snap = train_snapshot(&dir, "mysql.snap", AppKind::Mysql, 11);
    let web_snap = train_snapshot(&dir, "web.snap", AppKind::Apache, 22);

    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &mysql_snap)
        .expect("load mysql");
    registry
        .load("web", AppKind::Apache, &web_snap)
        .expect("load web");

    let workers = Some(2);
    let mut options = ServeOptions::new(dir.join("serve.sock"));
    options.workers = workers;
    let server = Server::start(registry, options).expect("server starts");
    let socket = server.socket().to_path_buf();

    let expected_mysql = direct_reports(
        &load_detector(&mysql_snap),
        AppKind::Mysql,
        &mysql_targets(),
        workers,
    );
    let expected_web = direct_reports(
        &load_detector(&web_snap),
        AppKind::Apache,
        &apache_targets(),
        workers,
    );

    // Four concurrent clients, two per app, several requests each: every
    // response must be byte-identical to the direct call.
    let mut handles = Vec::new();
    for i in 0..4 {
        let socket = socket.clone();
        let (app, targets, expected) = if i % 2 == 0 {
            ("mysql", mysql_targets(), expected_mysql.clone())
        } else {
            ("web", apache_targets(), expected_web.clone())
        };
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            for _ in 0..3 {
                match client.check(app, &targets).expect("check") {
                    CheckReply::Reports(got) => assert_eq!(got, expected),
                    CheckReply::Busy => panic!("queue of 16 never fills here"),
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Admin surface over the same socket.
    let mut admin = Client::connect(&socket).expect("connect admin");
    let apps = admin.apps().expect("apps verb");
    assert_eq!(
        apps,
        vec![
            "mysql mysql ready reloads=0".to_string(),
            "web apache ready reloads=0".to_string(),
        ]
    );
    let stats = admin.stats().expect("stats verb");
    assert!(
        stats.contains(&"checks 12".to_string()),
        "12 accepted checks: {stats:?}"
    );
    assert!(
        stats.contains(&"targets_checked 18".to_string()),
        "2 mysql clients x 3 x 2 targets + 2 web clients x 3 x 1: {stats:?}"
    );
    assert!(stats.contains(&"rejected_busy 0".to_string()), "{stats:?}");

    // The shutdown verb stops the service; join returns and the socket
    // file is unlinked.
    admin.shutdown().expect("shutdown verb");
    server.join();
    assert!(!socket.exists(), "socket unlinked on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw HTTP/1.0 GET: returns (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
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
fn failed_reload_flips_one_app_while_the_other_keeps_serving() {
    let dir = scratch_dir("readiness");
    let mysql_snap = train_snapshot(&dir, "mysql.snap", AppKind::Mysql, 7);
    let web_snap = train_snapshot(&dir, "web.snap", AppKind::Apache, 8);
    let good_web = std::fs::read_to_string(&web_snap).expect("read web snapshot");

    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &mysql_snap)
        .expect("load mysql");
    registry
        .load("web", AppKind::Apache, &web_snap)
        .expect("load web");

    let mut options = ServeOptions::new(dir.join("serve.sock"));
    options.metrics_addr = Some("127.0.0.1:0".to_string());
    options.poll_interval = Duration::from_millis(40);
    options.heartbeat_path = Some(dir.join("heartbeat.jsonl"));
    let mut server = Server::start(registry, options).expect("server starts");
    let socket = server.socket().to_path_buf();
    let metrics = server.metrics_addr().expect("metrics enabled");

    // Healthy start: both apps ready, /readyz 200 with one line per app.
    let (status, body) = http_get(metrics, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "mysql ready\nweb ready\n");

    // Corrupt web's snapshot; a forced reload fails, keeps the old
    // detector serving, and flips only web's readiness.
    std::fs::write(&web_snap, "definitely not a snapshot").expect("corrupt");
    let mut admin = Client::connect(&socket).expect("connect");
    let err = admin.reload("web").expect_err("reload of a bad snapshot");
    assert!(err.to_string().contains("web.snap"), "{err}");

    let (status, body) = http_get(metrics, "/readyz");
    assert!(status.contains("503"), "{status}");
    assert_eq!(body, "mysql ready\nweb not-ready\n");
    let apps = admin.apps().expect("apps verb");
    assert!(
        apps.iter().any(|l| l.starts_with("web apache not-ready")),
        "{apps:?}"
    );

    // Both apps still answer checks: mysql is untouched, web serves the
    // retained pre-corruption detector.
    for (app, targets) in [("mysql", mysql_targets()), ("web", apache_targets())] {
        match admin.check(app, &targets).expect("check") {
            CheckReply::Reports(reports) => assert_eq!(reports.len(), targets.len()),
            CheckReply::Busy => panic!("idle service"),
        }
    }

    // Repairing the file recovers via the background poller alone — the
    // signature change is picked up without an explicit reload verb.
    std::fs::write(&web_snap, &good_web).expect("repair");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = http_get(metrics, "/readyz");
        if status.contains("200") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "poller never recovered readiness"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The scrape carries the serve phase, and the heartbeat wrote
    // parseable JSONL deltas.
    let (_, scrape) = http_get(metrics, "/metrics");
    assert!(
        scrape.contains("# TYPE encore_serve_requests_total counter"),
        "serve phase exposed"
    );
    server.stop();
    let heartbeat = std::fs::read_to_string(dir.join("heartbeat.jsonl")).expect("heartbeat");
    assert!(
        heartbeat.lines().count() > 0,
        "poller wrote heartbeat lines"
    );
    for (i, line) in heartbeat.lines().enumerate() {
        encore::obs::PipelineReport::parse_json(line)
            .unwrap_or_else(|e| panic!("heartbeat line {}: {e}", i + 1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_apps_and_malformed_requests_get_errors() {
    let dir = scratch_dir("errors");
    let snap = train_snapshot(&dir, "mysql.snap", AppKind::Mysql, 3);
    let registry = SnapshotRegistry::new();
    registry
        .load("mysql", AppKind::Mysql, &snap)
        .expect("load mysql");
    let mut server =
        Server::start(registry, ServeOptions::new(dir.join("serve.sock"))).expect("starts");
    let socket = server.socket().to_path_buf();

    // Unknown app: a protocol-level error on a connection that stays
    // usable for the next request.
    let mut client = Client::connect(&socket).expect("connect");
    let err = client
        .check("postgres", &mysql_targets())
        .expect_err("unregistered app");
    assert!(err.to_string().contains("unknown app"), "{err}");
    assert!(client.apps().is_ok(), "connection survives an app error");

    // A malformed verb line: the server answers `error` and closes.
    use std::os::unix::net::UnixStream;
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    raw.write_all(b"gibberish request\n").expect("send");
    let mut response = String::new();
    raw.read_to_string(&mut response).expect("read to close");
    assert!(
        response.starts_with("error "),
        "malformed request answered: {response}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
