//! Serve-phase instruments and the service's scrape surface.
//!
//! The service appends one `serve` phase section to the core crate's
//! scrape roll-up, following the determinism discipline of DESIGN.md §9:
//! counters and histograms count protocol work (requests, targets,
//! rejections — identical for a given request stream), while anything
//! scheduling-dependent (checks waiting at scrape time, wall-clock request
//! latency) is a gauge or timer-style histogram over microseconds.
//!
//! The `serve.watch.*` instruments count the watched-directory source
//! ([`crate::watch`]).  Like every instrument here they are cumulative,
//! so a scraper sees them only count up; the heartbeat line carries their
//! per-tick change.
//!
//! Every instrument is registered once, in the `serve` [`Phase`].
//!
//! These instruments are process-global and feed `/metrics` and the
//! JSONL heartbeat only.  The `stats` protocol verb is served from each
//! server's own [`ServeStats`](crate::server::ServeStats) counters
//! instead: several servers may run in one process (the service tests do)
//! and each must report exactly its own requests, and the verb must
//! answer truthfully even while the obs sink is off.

use encore_obs::{Counter, Gauge, Histogram, Metric, Phase, PipelineReport};

/// Requests read off client connections (any verb, well-formed or not).
pub static REQUESTS: Counter = Counter::new("serve.requests");
/// `check` requests admitted to wait for the check slot.
pub static CHECKS: Counter = Counter::new("serve.checks");
/// Target payloads checked (sum of per-request target counts).
pub static TARGETS_CHECKED: Counter = Counter::new("serve.targets_checked");
/// Requests rejected with `busy`: too many checks were waiting for the
/// check slot, or the service was shutting down; and connections refused
/// `busy` past the connection bound.
pub static REJECTED_BUSY: Counter = Counter::new("serve.rejected_busy");
/// Requests answered with `error` (malformed, unknown app, failed admin).
pub static ERRORS: Counter = Counter::new("serve.errors");
/// Successful snapshot reloads across all registered apps.
pub static SNAPSHOT_RELOADS: Counter = Counter::new("serve.snapshot_reloads");
/// Failed snapshot reloads (the old detector kept serving).
pub static RELOAD_FAILURES: Counter = Counter::new("serve.reload_failures");
/// Checks waiting for the check slot (point-in-time; set each time the
/// count changes).
pub static QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");
/// Most checks that may wait for the check slot (`queue_capacity`).
pub static QUEUE_CAPACITY: Gauge = Gauge::new("serve.queue.capacity");
/// Registered apps.
pub static APPS: Gauge = Gauge::new("serve.apps");
/// Registered apps currently ready.
pub static APPS_READY: Gauge = Gauge::new("serve.apps_ready");
/// Event-log lines written since install (point-in-time view of the
/// writer thread, synced from [`encore_obs::event::health`] at scrape).
pub static EVENTS_WRITTEN: Gauge = Gauge::new("serve.events.written");
/// Event-log lines dropped (full queue or failed write) since install.
pub static EVENTS_DROPPED: Gauge = Gauge::new("serve.events.dropped");
/// Rendered event lines currently awaiting the writer thread.
pub static EVENTS_QUEUE_DEPTH: Gauge = Gauge::new("serve.events.queue_depth");

/// Watched-directory scans (one per watched app per poll tick).
pub static WATCH_SCANS: Counter = Counter::new("serve.watch.scans");
/// Watched targets that appeared.
pub static WATCH_TARGETS_ADDED: Counter = Counter::new("serve.watch.targets_added");
/// Watched targets whose file signature changed.
pub static WATCH_TARGETS_CHANGED: Counter = Counter::new("serve.watch.targets_changed");
/// Watched targets that disappeared.
pub static WATCH_TARGETS_REMOVED: Counter = Counter::new("serve.watch.targets_removed");
/// Watched targets re-checked (added or changed, or all tracked after a
/// hot reload of their app): the watch source's work metric.
pub static WATCH_TARGETS_RECHECKED: Counter = Counter::new("serve.watch.targets_rechecked");
/// Targets tracked across every watched directory (point-in-time).
pub static WATCH_TARGETS_TRACKED: Gauge = Gauge::new("serve.watch.targets_tracked");

/// Latency bounds, microseconds: wire-speed admin verbs (tens of µs) up
/// to sub-minute fleet checks.  Millisecond buckets quantized every
/// admin verb into the first bucket; µs end to end restores resolution.
static LATENCY_BOUNDS_US: [u64; 15] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000, 30_000_000,
];
/// Time a check runs once it holds the check slot, microseconds.
pub static REQUEST_DURATION: Histogram =
    Histogram::new("serve.request_duration_us", &LATENCY_BOUNDS_US);
/// Time a check waited for the check slot, microseconds.
pub static QUEUE_WAIT: Histogram = Histogram::new("serve.queue_wait_us", &LATENCY_BOUNDS_US);

/// Sync the app-count gauges from the registry's statuses.
pub(crate) fn sync_app_gauges(registry: &crate::registry::SnapshotRegistry) {
    let statuses = registry.statuses();
    APPS.set(statuses.len() as u64);
    APPS_READY.set(statuses.iter().filter(|s| s.ready).count() as u64);
}

/// Sync the event-log health gauges from the writer thread's counters;
/// called before every scrape/heartbeat snapshot so the exposition and
/// the JSONL delta both carry current log health.
pub fn sync_event_gauges() {
    let health = encore_obs::event::health();
    EVENTS_WRITTEN.set(health.written);
    EVENTS_DROPPED.set(health.dropped);
    EVENTS_QUEUE_DEPTH.set(health.queue_depth);
}

/// The `serve` phase.
pub(crate) static SERVE: Phase = Phase {
    name: "serve",
    metrics: &[
        Metric::Counter(&REQUESTS),
        Metric::Counter(&CHECKS),
        Metric::Counter(&TARGETS_CHECKED),
        Metric::Counter(&REJECTED_BUSY),
        Metric::Counter(&ERRORS),
        Metric::Counter(&SNAPSHOT_RELOADS),
        Metric::Counter(&RELOAD_FAILURES),
        Metric::Counter(&WATCH_SCANS),
        Metric::Counter(&WATCH_TARGETS_ADDED),
        Metric::Counter(&WATCH_TARGETS_CHANGED),
        Metric::Counter(&WATCH_TARGETS_REMOVED),
        Metric::Counter(&WATCH_TARGETS_RECHECKED),
        Metric::Gauge(&QUEUE_DEPTH),
        Metric::Gauge(&QUEUE_CAPACITY),
        Metric::Gauge(&APPS),
        Metric::Gauge(&APPS_READY),
        Metric::Gauge(&EVENTS_WRITTEN),
        Metric::Gauge(&EVENTS_DROPPED),
        Metric::Gauge(&EVENTS_QUEUE_DEPTH),
        Metric::Gauge(&WATCH_TARGETS_TRACKED),
        Metric::Histogram(&REQUEST_DURATION),
        Metric::Histogram(&QUEUE_WAIT),
    ],
};

/// The service's scrape view: the six core pipeline phases with the
/// `serve` section appended.
pub fn scrape_report() -> PipelineReport {
    sync_event_gauges();
    let mut report = encore::obs::pipeline_report();
    report.phases.push(SERVE.report());
    report
}

/// Render the service scrape view in the Prometheus exposition format.
pub fn render_prometheus() -> String {
    encore_obs::expose::render(&scrape_report())
}

/// Reset every serve-phase instrument (tests only; a live service never
/// resets).
pub fn reset() {
    SERVE.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_report_appends_the_serve_phase() {
        let names: Vec<String> = scrape_report()
            .phases
            .iter()
            .map(|p| p.name.clone())
            .collect();
        assert_eq!(names.last().map(String::as_str), Some("serve"));
        assert!(
            names.iter().any(|n| n == "detect"),
            "core phases are retained: {names:?}"
        );
    }

    #[test]
    fn prometheus_rendering_validates_and_includes_serve_samples() {
        let text = render_prometheus();
        encore_obs::expose::validate(&text).expect("exposition validates");
        assert!(text.contains("# TYPE encore_serve_requests_total counter\n"));
        assert!(text.contains("encore_serve_request_duration_us_bucket{le=\"30000000\"}"));
        assert!(text.contains("encore_serve_events_written"));
        assert!(text.contains("# TYPE encore_serve_watch_scans_total counter\n"));
        assert!(text.contains("# TYPE encore_serve_watch_targets_tracked gauge\n"));
    }
}
