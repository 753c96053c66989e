//! Leveled structured event log: request-scoped JSONL with a bounded
//! writer queue and drop accounting.
//!
//! Aggregate instruments (counters, histograms, the trace ring) say *how
//! much* work happened; the event log says *which request* paid for it.
//! Each event is one JSON line:
//!
//! ```text
//! {"ts":1234,"level":"info","event":"request.done","req":7,"fields":{...}}
//! ```
//!
//! * `ts` — microseconds since the log was installed, from the monotonic
//!   clock (never wall time, so lines sort correctly across NTP steps).
//! * `level` — `debug` / `info` / `warn` / `error`; lines below the
//!   configured minimum are not emitted.
//! * `event` — a stable dotted name (`request.done`, `detect.fleet`).
//! * `req` — the dense request id of the enclosing [`with_request`]
//!   scope; omitted outside any request.
//! * `fields` — event-specific key/value payload.
//!
//! # Design constraints
//!
//! * **Disabled means free.**  [`enabled`] is one relaxed load; call
//!   sites guard field construction with it so the disabled path neither
//!   allocates nor formats.
//! * **Emitters never block on I/O.**  [`emit`] pushes the rendered line
//!   onto a bounded in-memory queue; a dedicated writer thread drains it
//!   to the file.  A full queue *drops* the line and counts the drop —
//!   visible via [`health`], surfaced by `encore-serve`'s `stats` verb —
//!   rather than stalling the pipeline.
//! * **Observation must not perturb.**  Events only read pipeline state;
//!   the workspace determinism suite proves reports byte-identical with
//!   the log on and off.

use crate::json::Json;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Most rendered lines held in memory awaiting the writer thread; pushes
/// beyond this are dropped (and counted) instead of blocking.
pub const QUEUE_CAPACITY: usize = 4_096;

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume diagnostics (per-batch, per-cycle detail).
    Debug,
    /// Normal request/cycle lifecycle events.
    Info,
    /// Unusual but handled conditions (slow requests, malformed input).
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// The lowercase name rendered into the `level` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn rank(self) -> u8 {
        match self {
            Level::Debug => 0,
            Level::Info => 1,
            Level::Warn => 2,
            Level::Error => 3,
        }
    }
}

/// Whether the log is installed and accepting events.
static EVENTS_ON: AtomicBool = AtomicBool::new(false);
/// Minimum level admitted (rank of [`Level`]; default `Debug`).
static MIN_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Lines the writer thread has written to the file.
static WRITTEN: AtomicU64 = AtomicU64::new(0);
/// Lines dropped because the queue was full.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// The instant `ts` values count from, pinned at the first [`install`].
static ORIGIN: OnceLock<Instant> = OnceLock::new();

struct QueueInner {
    lines: VecDeque<String>,
    /// False once [`shutdown`] starts; the writer drains and exits.
    open: bool,
}

struct Queue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

static QUEUE: Queue = Queue {
    inner: Mutex::new(QueueInner {
        lines: VecDeque::new(),
        open: false,
    }),
    ready: Condvar::new(),
};

/// The writer thread's handle, joined by [`shutdown`].
static WRITER: Mutex<Option<JoinHandle<()>>> = Mutex::new(None);

thread_local! {
    /// The enclosing request id (0 = outside any request).
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Whether the event log is installed; one relaxed load.  Guard field
/// construction with this to keep the disabled path allocation-free.
#[inline]
pub fn enabled() -> bool {
    EVENTS_ON.load(Ordering::Relaxed)
}

/// Raise the minimum admitted level (default: `Debug`, i.e. everything).
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level.rank(), Ordering::Relaxed);
}

/// Open `path` (append mode), start the writer thread, and start
/// accepting events.  Re-installing shuts the previous log down first;
/// the written/dropped accounting restarts per install.
///
/// # Errors
///
/// Propagates the file-open failure; the log stays uninstalled.
pub fn install(path: &Path) -> io::Result<()> {
    shutdown();
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let _ = ORIGIN.get_or_init(Instant::now);
    WRITTEN.store(0, Ordering::Relaxed);
    DROPPED.store(0, Ordering::Relaxed);
    {
        let mut inner = lock_queue();
        inner.lines.clear();
        inner.open = true;
    }
    let handle = std::thread::Builder::new()
        .name("encore-events".to_string())
        .spawn(move || writer_loop(file))?;
    *WRITER.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
    EVENTS_ON.store(true, Ordering::Relaxed);
    Ok(())
}

/// Stop accepting events, drain the queue to the file, and join the
/// writer thread.  Idempotent; a no-op when nothing is installed.
pub fn shutdown() {
    EVENTS_ON.store(false, Ordering::Relaxed);
    {
        let mut inner = lock_queue();
        inner.open = false;
    }
    QUEUE.ready.notify_all();
    let handle = WRITER.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(handle) = handle {
        let _ = handle.join();
    }
}

fn lock_queue() -> std::sync::MutexGuard<'static, QueueInner> {
    QUEUE.inner.lock().unwrap_or_else(|p| p.into_inner())
}

fn writer_loop(mut file: File) {
    loop {
        let line = {
            let mut inner = lock_queue();
            loop {
                if let Some(line) = inner.lines.pop_front() {
                    break Some(line);
                }
                if !inner.open {
                    break None;
                }
                inner = QUEUE.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
            }
        };
        match line {
            Some(line) => {
                // One write per line so `tail -f` (and the CI validator)
                // always sees whole lines; a failing disk drops the line
                // but keeps the service running.
                if writeln!(file, "{line}").is_ok() {
                    WRITTEN.fetch_add(1, Ordering::Relaxed);
                } else {
                    DROPPED.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => return,
        }
    }
}

/// Run `f` with `id` as the current request: every event emitted inside
/// (on this thread) carries `"req": id`.  Scopes nest and restore on
/// exit, including across panics.
pub fn with_request<R>(id: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            REQUEST.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(REQUEST.with(|c| c.replace(id)));
    f()
}

/// The enclosing [`with_request`] id, if any.
pub fn current_request() -> Option<u64> {
    let id = REQUEST.with(Cell::get);
    (id != 0).then_some(id)
}

/// Emit one event.  `fields` become the `fields` object verbatim; the
/// line inherits the thread's [`with_request`] id.  A no-op (no
/// allocation beyond the caller's `fields`) while the log is off or the
/// level is below the configured minimum; a full queue drops the line
/// and counts it.
pub fn emit(level: Level, event: &str, fields: Vec<(String, Json)>) {
    if !enabled() || level.rank() < MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    let origin = *ORIGIN.get_or_init(Instant::now);
    let ts = u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut obj = vec![
        ("ts".to_string(), Json::Num(ts)),
        ("level".to_string(), Json::Str(level.as_str().to_string())),
        ("event".to_string(), Json::Str(event.to_string())),
    ];
    if let Some(req) = current_request() {
        obj.push(("req".to_string(), Json::Num(req)));
    }
    obj.push(("fields".to_string(), Json::Obj(fields)));
    let line = Json::Obj(obj).render();
    let mut inner = lock_queue();
    if !inner.open || inner.lines.len() >= QUEUE_CAPACITY {
        drop(inner);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    inner.lines.push_back(line);
    drop(inner);
    QUEUE.ready.notify_one();
}

/// Point-in-time log health, readable whether or not the log is
/// installed (all zeros before the first install).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventHealth {
    /// Lines the writer thread has written since install.
    pub written: u64,
    /// Lines dropped (full queue or failed write) since install.
    pub dropped: u64,
    /// Rendered lines currently awaiting the writer thread.
    pub queue_depth: u64,
}

/// Snapshot the log's health counters.
pub fn health() -> EventHealth {
    EventHealth {
        written: WRITTEN.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        queue_depth: lock_queue().lines.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The log is process-global; tests that install it serialize here.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn temp_log(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("encore-event-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn emit_is_inert_until_installed() {
        let _gate = gate();
        shutdown();
        emit(Level::Info, "nobody.listens", vec![]);
        assert!(!enabled());
    }

    #[test]
    fn lines_reach_the_file_in_order_with_request_ids() {
        let _gate = gate();
        let path = temp_log("order");
        install(&path).expect("install");
        emit(Level::Info, "first", vec![("n".to_string(), Json::Num(1))]);
        with_request(7, || {
            assert_eq!(current_request(), Some(7));
            emit(Level::Warn, "second", vec![]);
        });
        assert_eq!(current_request(), None);
        shutdown();
        let text = std::fs::read_to_string(&path).expect("log file");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "log: {text}");
        let first = crate::json::parse(lines[0]).expect("line 0 parses");
        assert_eq!(first.get("event").and_then(Json::as_str), Some("first"));
        assert_eq!(first.get("level").and_then(Json::as_str), Some("info"));
        assert!(first.get("req").is_none());
        let second = crate::json::parse(lines[1]).expect("line 1 parses");
        assert_eq!(second.get("req").and_then(Json::as_u64), Some(7));
        assert_eq!(health().written, 2);
        assert_eq!(health().dropped, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn min_level_filters_and_restores() {
        let _gate = gate();
        let path = temp_log("level");
        install(&path).expect("install");
        set_min_level(Level::Warn);
        emit(Level::Debug, "dropped.by.level", vec![]);
        emit(Level::Error, "kept", vec![]);
        set_min_level(Level::Debug);
        shutdown();
        let text = std::fs::read_to_string(&path).expect("log file");
        assert_eq!(text.lines().count(), 1, "log: {text}");
        assert!(text.contains("\"kept\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn request_scopes_nest_and_unwind() {
        let _gate = gate();
        with_request(1, || {
            with_request(2, || assert_eq!(current_request(), Some(2)));
            assert_eq!(current_request(), Some(1));
            let caught = std::panic::catch_unwind(|| with_request(3, || panic!("boom")));
            assert!(caught.is_err());
            assert_eq!(current_request(), Some(1), "restored across the panic");
        });
        assert_eq!(current_request(), None);
    }
}
