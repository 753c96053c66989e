//! Integration tests for the Prometheus exposition surface: a golden-file
//! check pinning the exact rendered text for a fixed report, the grammar
//! validator over a real post-run sink, and raw-socket coverage of the
//! [`MetricsServer`] routes.
//!
//! Regenerate the golden after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p encore-obs --test expose`.

use encore_obs::expose::{self, MetricsServer};
use encore_obs::{Counter, Histogram, Metric, Phase, PhaseReport, PipelineReport, Timer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/exposition.txt");

/// A fixed report exercising every instrument kind plus a sanitization
/// collision (`pairs-scored` vs `pairs_scored`).
fn fixture_report() -> PipelineReport {
    let infer = PhaseReport {
        name: "infer".to_string(),
        counters: vec![
            ("infer.pairs.evaluated".to_string(), 4_555),
            ("infer.pairs-scored".to_string(), 7),
            ("infer.pairs_scored".to_string(), 9),
        ],
        gauges: vec![("infer.pool.workers".to_string(), 4)],
        timers: vec![
            (
                "infer.time".to_string(),
                encore_obs::TimerSnapshot {
                    nanos: 1_500_000_000,
                    spans: 3,
                },
            ),
            // Beyond f64's 53-bit mantissa: pins the integer-exact seconds
            // rendering (an `as f64 / 1e9` render would end ...992).
            (
                "infer.lifetime".to_string(),
                encore_obs::TimerSnapshot {
                    nanos: 9_007_199_254_740_993,
                    spans: 41,
                },
            ),
        ],
        histograms: Vec::new(),
    };
    let detect = PhaseReport {
        name: "detect".to_string(),
        histograms: vec![(
            "detect.checks_per_target".to_string(),
            encore_obs::HistogramSnapshot::from_counts(&[1, 2, 4], vec![1, 0, 2, 1], 19),
        )],
        ..PhaseReport::default()
    };
    PipelineReport {
        phases: vec![infer, detect],
    }
}

fn fixture_bounds(name: &str) -> Option<&'static [u64]> {
    match name {
        "detect.checks_per_target" => Some(&[1, 2, 4]),
        _ => None,
    }
}

#[test]
fn rendered_exposition_matches_the_golden_file() {
    let rendered = expose::render(&fixture_report(), &fixture_bounds);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exposition.txt");
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "exposition format drifted; run with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn golden_file_itself_passes_the_grammar_validator() {
    expose::validate(GOLDEN).expect("golden exposition is grammatical");
}

static LIVE_EVENTS: Counter = Counter::new("expose_probe.events");
static LIVE_DEPTH: Histogram = Histogram::new("expose_probe.depth", &encore_obs::INDEX_BOUNDS);
static LIVE_TIME: Timer = Timer::new("expose_probe.time");
static PROBE: Phase = Phase {
    name: "probe",
    metrics: &[
        Metric::Counter(&LIVE_EVENTS),
        Metric::Timer(&LIVE_TIME),
        Metric::Histogram(&LIVE_DEPTH),
    ],
};

#[test]
fn exposition_over_a_live_sink_validates_and_names_are_namespaced() {
    encore_obs::enable();
    LIVE_EVENTS.add(12);
    LIVE_DEPTH.observe(3);
    {
        let _span = LIVE_TIME.span();
    }
    // Snapshot the live instruments through their phase, then render the
    // report as a scrape would.
    let report = PipelineReport {
        phases: vec![PROBE.report()],
    };
    let text = expose::render(&report, &|_| None);
    expose::validate(&text).expect("live exposition is grammatical");
    assert!(text.contains("encore_expose_probe_events_total 12"));
    assert!(text.contains("encore_expose_probe_time_seconds_total"));
    assert!(text.contains("encore_expose_probe_time_spans_total 1"));
    assert!(text.contains("encore_expose_probe_depth_count 1"));
    assert!(
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .all(|l| l.starts_with("encore_")),
        "every sample lives in the encore_ namespace"
    );
}

/// One raw HTTP/1.0 round-trip: returns (status line, body).
fn http_request(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    http_request(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"))
}

#[test]
fn metrics_server_routes_and_readiness_flip() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let readiness = Arc::new(AtomicBool::new(false));
    let probe = Arc::clone(&readiness);
    let server = MetricsServer::start(
        "127.0.0.1:0",
        move || {
            let ready = probe.load(Ordering::Relaxed);
            (
                ready,
                if ready { "ready\n" } else { "not ready\n" }.to_string(),
            )
        },
        || expose::render(&fixture_report(), &fixture_bounds),
    )
    .expect("bind port 0");
    let addr = server.addr();

    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    expose::validate(&body).expect("served exposition is grammatical");
    assert_eq!(body, expose::render(&fixture_report(), &fixture_bounds));

    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // Not ready until the daemon says so; flips live without a restart.
    let (status, body) = get(addr, "/readyz");
    assert!(status.contains("503"), "{status}");
    assert_eq!(body, "not ready\n");
    readiness.store(true, Ordering::Relaxed);
    let (status, body) = get(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ready\n");
    readiness.store(false, Ordering::Relaxed);
    let (status, _) = get(addr, "/readyz");
    assert!(status.contains("503"), "{status}");

    let (status, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_request(addr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert!(status.contains("405"), "{status}");
}

#[test]
fn status_closure_drives_readyz_with_a_per_component_body() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let healthy = Arc::new(AtomicBool::new(false));
    let probe = Arc::clone(&healthy);
    let server = MetricsServer::start(
        "127.0.0.1:0",
        move || {
            let ok = probe.load(Ordering::Relaxed);
            let body = format!(
                "mysql ready\nweb {}\n",
                if ok { "ready" } else { "not-ready" }
            );
            (ok, body)
        },
        String::new,
    )
    .expect("bind port 0");
    let addr = server.addr();

    // Not ready: 503, and the body names the sick component.
    let (status, body) = get(addr, "/readyz");
    assert!(status.contains("503"), "{status}");
    assert_eq!(body, "mysql ready\nweb not-ready\n");
    healthy.store(true, Ordering::Relaxed);
    let (status, body) = get(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "mysql ready\nweb ready\n");
}

#[test]
fn metrics_server_stop_is_idempotent_and_frees_the_port() {
    let ready = || (true, String::new());
    let mut server = MetricsServer::start("127.0.0.1:0", ready, String::new).expect("bind");
    let addr = server.addr();
    server.stop();
    server.stop();
    drop(server);
    // The port is free again: a second server can bind it.
    let again = MetricsServer::start(&addr.to_string(), ready, String::new);
    assert!(again.is_ok(), "rebinding the freed port: {:?}", again.err());
}
