//! Span/event tracing: a bounded ring buffer of completed [`Span`]s,
//! exported as Chrome trace-viewer / Perfetto-compatible JSON.
//!
//! Every [`Timer`] span that closes while recording is on lands here as
//! one *complete* event (`ph: "X"`) with a begin timestamp, a duration,
//! and the recording thread — exactly the shape `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load natively.  The buffer is a
//! fixed-capacity ring: when it fills, the oldest events are overwritten
//! and the drop count is reported in the export, so a long-running daemon
//! can leave recording on without unbounded memory growth.
//!
//! Recording is a second gate on top of the metrics sink: spans reach
//! the recorder only while the sink is enabled (a disabled span holds
//! no start time at all), and `record_span` itself is one relaxed load +
//! early-out until [`start_recording`] turns tracing on.  The existing
//! determinism suite therefore keeps proving the disabled path
//! non-perturbing.
//!
//! [`Span`]: crate::Span
//! [`Timer`]: crate::Timer

use crate::json::Json;
use crate::PipelineReport;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default ring capacity (events kept before the oldest are overwritten).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One completed span: a Chrome-trace *complete* event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The originating timer's metric name (`phase.subsystem.metric`).
    pub name: &'static str,
    /// Microseconds from the trace origin to the span's begin.
    pub ts_micros: u64,
    /// Span duration in microseconds.
    pub dur_micros: u64,
    /// Dense per-process thread id (assigned in first-span order, from 1;
    /// `std::thread::ThreadId` has no stable integer form).
    pub tid: u64,
}

impl TraceEvent {
    /// The pipeline phase this event belongs to: the metric name's leading
    /// dot-segment (`infer.pool.worker_busy` → `infer`).
    pub fn category(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Whether spans are currently being captured into the ring.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// The instant all `ts` values are measured from, pinned by the first
/// [`start_recording`].  Spans that began before the origin clamp to 0.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Dense thread ids, assigned lazily per thread.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Ring {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index the next event is written at once `events` is full.
    head: usize,
    /// Total events ever recorded (≥ `events.len()`).
    recorded: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    events: Vec::new(),
    capacity: DEFAULT_CAPACITY,
    head: 0,
    recorded: 0,
});

fn ring() -> std::sync::MutexGuard<'static, Ring> {
    RING.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Whether span recording is on.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Clear the ring and start capturing spans, keeping at most `capacity`
/// events (0 falls back to [`DEFAULT_CAPACITY`]).  Also pins the trace
/// origin if this is the first recording of the process.
pub fn start_recording(capacity: usize) {
    let _ = ORIGIN.get_or_init(Instant::now);
    let mut ring = ring();
    ring.events.clear();
    ring.capacity = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    ring.head = 0;
    ring.recorded = 0;
    drop(ring);
    RECORDING.store(true, Ordering::Relaxed);
}

/// Stop capturing spans.  Already-recorded events are kept for export.
pub fn stop_recording() {
    RECORDING.store(false, Ordering::Relaxed);
}

/// Record one completed span.  Called by [`Span`](crate::Span) on drop;
/// one relaxed load + early-out while recording is off.
#[inline]
pub(crate) fn record_span(name: &'static str, started: Instant, elapsed: Duration) {
    if !recording() {
        return;
    }
    let origin = *ORIGIN.get_or_init(Instant::now);
    // Spans opened before the origin was pinned clamp to ts 0.
    let ts = started
        .checked_duration_since(origin)
        .unwrap_or(Duration::ZERO);
    let event = TraceEvent {
        name,
        ts_micros: u64::try_from(ts.as_micros()).unwrap_or(u64::MAX),
        dur_micros: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        tid: TID.with(|t| *t),
    };
    let mut ring = ring();
    ring.recorded += 1;
    if ring.events.len() < ring.capacity {
        ring.events.push(event);
    } else {
        let head = ring.head;
        ring.events[head] = event;
        ring.head = (head + 1) % ring.capacity;
    }
}

/// The captured events oldest-first, plus how many older events the ring
/// overwrote.
pub fn snapshot() -> (Vec<TraceEvent>, u64) {
    let ring = ring();
    let mut events = Vec::with_capacity(ring.events.len());
    events.extend_from_slice(&ring.events[ring.head..]);
    events.extend_from_slice(&ring.events[..ring.head]);
    let dropped = ring.recorded - ring.events.len() as u64;
    (events, dropped)
}

/// Render the captured spans as Chrome trace-viewer JSON (the *JSON
/// object* trace format: `{"traceEvents": [...]}`), loadable by
/// `chrome://tracing` and Perfetto.
///
/// When `report` is given, a per-phase summary lane rides along on `tid`
/// 0: one `phase:<name>` complete event per pipeline phase whose duration
/// is the phase's total recorded timer time, laid end to end.  The lane
/// guarantees every pipeline phase appears in the trace even when a
/// phase's individual spans were overwritten (or the phase recorded none),
/// and reads as a compact phase-cost overview next to the raw spans.
pub fn render_chrome_json(report: Option<&PipelineReport>) -> String {
    let (events, dropped) = snapshot();
    let mut items: Vec<Json> = Vec::with_capacity(events.len() + 8);
    let event_json = |name: &str, cat: &str, ts: u64, dur: u64, tid: u64| {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(name.to_string())),
            ("cat".to_string(), Json::Str(cat.to_string())),
            ("ph".to_string(), Json::Str("X".to_string())),
            ("ts".to_string(), Json::Num(ts)),
            ("dur".to_string(), Json::Num(dur)),
            ("pid".to_string(), Json::Num(1)),
            ("tid".to_string(), Json::Num(tid)),
        ])
    };
    if let Some(report) = report {
        let mut offset = 0u64;
        for phase in &report.phases {
            let nanos: u64 = phase.timers.iter().map(|(_, snap)| snap.nanos).sum();
            let micros = nanos / 1_000;
            items.push(event_json(
                &format!("phase:{}", phase.name),
                &phase.name,
                offset,
                micros,
                0,
            ));
            offset += micros;
        }
    }
    for event in &events {
        items.push(event_json(
            event.name,
            event.category(),
            event.ts_micros,
            event.dur_micros,
            event.tid,
        ));
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(items)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ("encoreDroppedEvents".to_string(), Json::Num(dropped)),
    ])
    .render()
}
