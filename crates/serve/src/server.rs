//! The `encore-serve` service: accept loop, bounded dispatch, the poll
//! tick, and the telemetry surface.
//!
//! Shape (one box per thread):
//!
//! ```text
//!  clients ──► accept loop ──► connection threads ──► BoundedQueue ──► dispatcher
//!                                   │    ▲                 ▲             │
//!                                   │    └── reply channel (capacity 1) ─┘
//!                                   └─ admin verbs answered inline
//!  poll thread: Poller::tick (hot reloads, watched-directory scans) + JSONL
//!               heartbeat every interval; scans submit to the same queue
//!  metrics server: /metrics /healthz /readyz   (optional TCP port)
//! ```
//!
//! Admin verbs (`apps`, `reload`, `stats`, `shutdown`) are answered on
//! the connection thread — they must keep working while the queue is
//! saturated, or an operator could never diagnose a stuck service.
//! `check` goes through the bounded queue; a full queue answers `busy`
//! immediately (the backpressure contract — see DESIGN.md §15).
//! The single dispatcher keeps fleet checks serialized so concurrent
//! clients contend for the work-stealing pool in a deterministic order
//! and each response stays byte-identical to a direct
//! [`AnomalyDetector::check_fleet`] call.
//!
//! [`AnomalyDetector::check_fleet`]: encore::AnomalyDetector::check_fleet

use crate::protocol::{self, Request, Response};
use crate::queue::BoundedQueue;
use crate::registry::SnapshotRegistry;
use crate::watch::{Poller, Scan};
use encore_obs::expose::MetricsServer;
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Bounded work-queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Worker threads per fleet check; `None` uses all parallelism.
    pub workers: Option<usize>,
    /// Poll tick interval: snapshot hot reloads, watched-directory scans
    /// and the heartbeat.
    pub poll_interval: Duration,
    /// `host:port` for the Prometheus `/metrics`, `/healthz`, `/readyz`
    /// endpoints; `None` disables the HTTP surface.
    pub metrics_addr: Option<String>,
    /// Append one JSONL heartbeat line (the per-interval metric delta)
    /// here every poll tick; `None` disables the heartbeat.
    pub heartbeat_path: Option<PathBuf>,
    /// Watched directories, as (registered app, directory) pairs: each
    /// poll tick re-checks their added and changed files against the app
    /// and prints the reports on stdout (see [`crate::watch`]).
    pub watch: Vec<(String, PathBuf)>,
}

impl ServeOptions {
    /// Defaults: queue of 16, all-core checks, 1 s poll, no HTTP surface,
    /// no heartbeat, nothing watched.
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            socket: socket.into(),
            queue_capacity: 16,
            workers: None,
            poll_interval: Duration::from_secs(1),
            metrics_addr: None,
            heartbeat_path: None,
            watch: Vec::new(),
        }
    }
}

/// A shared, wakeable stop signal for the service's threads.
///
/// The service must stop *promptly* when asked (stdin hit end-of-file, a
/// `shutdown` verb arrived), but the poll thread spends almost all of its
/// time sleeping out the poll interval.  A plain `AtomicBool` checked
/// between ticks leaves a full interval of shutdown latency; this flag
/// pairs the boolean with a [`Condvar`] so [`StopFlag::stop`] wakes any
/// in-progress [`StopFlag::wait_timeout`] immediately.
#[derive(Debug, Default)]
pub struct StopFlag {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopFlag {
    /// A new, un-stopped flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Signal stop and wake every waiter.
    pub fn stop(&self) {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        *stopped = true;
        self.wake.notify_all();
    }

    /// Whether stop has been signalled.
    pub fn is_stopped(&self) -> bool {
        *self.stopped.lock().expect("stop flag poisoned")
    }

    /// Block until [`StopFlag::stop`] is called.
    pub fn wait(&self) {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        while !*stopped {
            stopped = self.wake.wait(stopped).expect("stop flag poisoned");
        }
    }

    /// Block for at most `timeout`, returning early, with `true`, the
    /// moment [`StopFlag::stop`] is called.  Returns whether the flag is
    /// stopped when the wait ends.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut stopped = self.stopped.lock().expect("stop flag poisoned");
        let deadline = Instant::now() + timeout;
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(stopped, deadline - now)
                .expect("stop flag poisoned");
            stopped = guard;
        }
        true
    }
}

/// Plain atomic service counters behind the `stats` verb, one set per
/// [`Server`].
///
/// Deliberately *not* the obs instruments: those are process-global, so
/// several servers in one process would share them, while `stats` must
/// report exactly this server's requests (the service tests run several
/// servers at once and assert exact per-server counts).  The instruments
/// also no-op while the sink is off, and `stats` must answer truthfully
/// regardless.  The obs instruments are updated alongside these for the
/// scrape surface.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests read off client connections (any verb).
    pub requests: AtomicU64,
    /// `check` requests accepted into the queue.
    pub checks: AtomicU64,
    /// Target payloads checked.
    pub targets_checked: AtomicU64,
    /// Requests rejected with `busy`.
    pub rejected_busy: AtomicU64,
    /// Requests answered with `error`.
    pub errors: AtomicU64,
}

impl ServeStats {
    fn lines(&self, queue: &BoundedQueue<Job>, registry: &SnapshotRegistry) -> Vec<String> {
        let statuses = registry.statuses();
        let ready = statuses.iter().filter(|s| s.ready).count();
        let events = encore_obs::event::health();
        vec![
            format!("requests {}", self.requests.load(Ordering::Relaxed)),
            format!("checks {}", self.checks.load(Ordering::Relaxed)),
            format!(
                "targets_checked {}",
                self.targets_checked.load(Ordering::Relaxed)
            ),
            format!(
                "rejected_busy {}",
                self.rejected_busy.load(Ordering::Relaxed)
            ),
            format!("errors {}", self.errors.load(Ordering::Relaxed)),
            format!("queue_depth {}", queue.depth()),
            format!("queue_capacity {}", queue.capacity()),
            format!("apps {}", statuses.len()),
            format!("apps_ready {ready}"),
            format!("events_written {}", events.written),
            format!("events_dropped {}", events.dropped),
            format!("events_queue_depth {}", events.queue_depth),
        ]
    }
}

/// Dense request ids, minted per request read (any verb, well-formed or
/// not) and carried through the queue so dispatcher-side events land in
/// the same request scope as connection-side ones.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Dispatcher-side timing of one queued job, returned to the connection
/// thread with the response so the per-request record carries the full
/// decomposition.  Zero for inline (admin) verbs' queue wait.
#[derive(Debug, Clone, Copy, Default)]
struct JobTimings {
    /// Enqueue to dequeue.
    queue_wait: Duration,
    /// Dequeue to response ready (the fleet check).
    check: Duration,
}

/// One check a connection thread (or the poll thread) hands the
/// dispatcher.
struct Job {
    id: u64,
    app: String,
    targets: Vec<(String, String)>,
    /// Capacity-1 rendezvous back to the submitting thread.
    reply: SyncSender<(Response, JobTimings)>,
    enqueued: Instant,
}

/// A running detection service; stops (and unlinks its socket) on drop.
pub struct Server {
    socket: PathBuf,
    stop: Arc<StopFlag>,
    queue: Arc<BoundedQueue<Job>>,
    stats: Arc<ServeStats>,
    registry: Arc<SnapshotRegistry>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    poller: Option<JoinHandle<()>>,
    metrics: Option<MetricsServer>,
}

/// Bind the unix socket, recovering a stale file left by a crashed
/// server: if nobody answers a probe connect, the file is an orphan and
/// is removed; if somebody answers, a live server owns the path.
fn bind_socket(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{}: another server is live on this socket", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

impl Server {
    /// Start serving `registry` according to `options`.
    ///
    /// # Errors
    ///
    /// Propagates socket-bind and metrics-bind failures, and rejects a
    /// watched app that is not registered.
    pub fn start(registry: SnapshotRegistry, options: ServeOptions) -> io::Result<Server> {
        let poller = Poller::new(&registry, &options.watch)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = bind_socket(&options.socket)?;
        let registry = Arc::new(registry);
        let stop = Arc::new(StopFlag::new());
        let queue = Arc::new(BoundedQueue::new(options.queue_capacity));
        let stats = Arc::new(ServeStats::default());
        crate::obs::QUEUE_CAPACITY.set(queue.capacity() as u64);
        crate::obs::sync_app_gauges(&registry);

        let metrics = match &options.metrics_addr {
            Some(addr) => {
                let status_registry = Arc::clone(&registry);
                Some(MetricsServer::start(
                    addr,
                    move || status_registry.ready(),
                    crate::obs::render_prometheus,
                )?)
            }
            None => None,
        };

        let dispatcher = {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let workers = options.workers;
            std::thread::spawn(move || dispatch_loop(&queue, &registry, workers))
        };

        let poller = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let interval = options.poll_interval;
            let heartbeat = options.heartbeat_path.clone();
            std::thread::spawn(move || {
                poll_loop(
                    poller,
                    &registry,
                    &stop,
                    &queue,
                    interval,
                    heartbeat.as_deref(),
                );
            })
        };

        let accept = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || accept_loop(&listener, &registry, &stop, &queue, &stats))
        };

        Ok(Server {
            socket: options.socket,
            stop,
            queue,
            stats,
            registry,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
            poller: Some(poller),
            metrics,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The service counters (shared with the `stats` verb).
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The bound metrics address, when the HTTP surface is enabled
    /// (`host:0` in the options resolves to a real port here).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// A shared handle that stops the service when signalled — e.g. from
    /// a stdin-EOF watcher thread; [`Server::join`] returns once it
    /// fires.
    pub fn stop_signal(&self) -> Arc<StopFlag> {
        Arc::clone(&self.stop)
    }

    /// The registry being served.
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.registry
    }

    /// Block until a `shutdown` request (or [`Server::stop`] from another
    /// thread) stops the service, then tear down.
    pub fn join(mut self) {
        self.stop.wait();
        self.shutdown();
    }

    /// Stop the service: reject new work, drain the queue, join every
    /// thread, unlink the socket.  Idempotent.
    pub fn stop(&mut self) {
        self.stop.stop();
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.stop();
        self.queue.close();
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = UnixStream::connect(&self.socket);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
        if let Some(mut metrics) = self.metrics.take() {
            metrics.stop();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Saturating microseconds of a duration (µs end to end; ms quantized
/// every wire-speed stage into one bucket).
fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// The single dispatcher: drains the queue until it is closed and empty.
fn dispatch_loop(queue: &BoundedQueue<Job>, registry: &SnapshotRegistry, workers: Option<usize>) {
    while let Some(job) = queue.pop() {
        let queue_wait = job.enqueued.elapsed();
        crate::obs::QUEUE_WAIT.observe(micros(queue_wait));
        let started = Instant::now();
        // Dispatcher-side events (detect.fleet, ...) join the request's
        // scope: the id rode along through the queue.
        let response = encore_obs::event::with_request(job.id, || {
            registry.check(&job.app, &job.targets, workers)
        });
        let check = started.elapsed();
        crate::obs::REQUEST_DURATION.observe(micros(check));
        // A send fails only when the client hung up while queued; the
        // work is already done either way.
        let _ = job.reply.send((response, JobTimings { queue_wait, check }));
    }
}

/// The poll thread: one [`Poller::tick`] per interval, its re-checks
/// submitted through the bounded queue like client `check` requests, then
/// the heartbeat line.
fn poll_loop(
    mut poller: Poller,
    registry: &SnapshotRegistry,
    stop: &StopFlag,
    queue: &BoundedQueue<Job>,
    interval: Duration,
    heartbeat: Option<&Path>,
) {
    // A watched directory is scanned at once, so its app does not sit
    // not-ready for a whole interval.
    let mut tick_now = poller.is_watching();
    loop {
        if !std::mem::take(&mut tick_now) && stop.wait_timeout(interval) {
            return;
        }
        let scans = poller.tick(registry, |app, targets| {
            // Id 0 and no stats: watched re-checks are not client requests.
            enqueue(queue, 0, app.to_string(), targets, None).0
        });
        print_scans(&scans);
        if let Some(path) = heartbeat {
            let line = poller.heartbeat().render_json();
            if let Ok(mut file) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(file, "{line}");
            }
        }
    }
}

/// Print re-checked reports on stdout in the `--check` form and scan
/// failures on stderr.  Best-effort: a supervisor that closed our pipes
/// must not be able to stop the service.
fn print_scans(scans: &[io::Result<Scan>]) {
    let mut out = io::stdout().lock();
    for scan in scans {
        match scan {
            Ok(scan) => {
                for (name, body) in &scan.reports {
                    let _ = write!(out, "== {name}\n{body}");
                }
            }
            Err(e) => {
                let _ = writeln!(io::stderr(), "encore-serve: watch scan failed: {e}");
            }
        }
    }
    let _ = out.flush();
}

/// Accept connections until the stop flag is raised; each connection gets
/// its own thread (clients are few — operators and fleet crawlers — and a
/// blocked read must not stall other clients).
fn accept_loop(
    listener: &UnixListener,
    registry: &Arc<SnapshotRegistry>,
    stop: &Arc<StopFlag>,
    queue: &Arc<BoundedQueue<Job>>,
    stats: &Arc<ServeStats>,
) {
    let mut connections: Vec<(UnixStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if stop.is_stopped() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(hangup) = stream.try_clone() else {
            continue;
        };
        let registry = Arc::clone(registry);
        let stop = Arc::clone(stop);
        let queue = Arc::clone(queue);
        let stats = Arc::clone(stats);
        let handle = std::thread::spawn(move || {
            let _ = serve_connection(stream, &registry, &stop, &queue, &stats);
        });
        connections.push((hangup, handle));
        connections.retain(|(_, handle)| !handle.is_finished());
    }
    // Idle clients sit blocked in a read between requests; hang up on
    // them so every connection thread observes EOF and can be joined.
    for (stream, _) in &connections {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for (_, handle) in connections {
        let _ = handle.join();
    }
}

/// Serve one client until EOF, a malformed request, or shutdown.
///
/// The accept loop keeps a hangup clone of the socket, so merely
/// dropping our file descriptors would NOT deliver EOF to the client;
/// an explicit `shutdown` acts on the socket itself and closes the
/// connection past every outstanding clone.
fn serve_connection(
    stream: UnixStream,
    registry: &SnapshotRegistry,
    stop: &StopFlag,
    queue: &BoundedQueue<Job>,
    stats: &ServeStats,
) -> io::Result<()> {
    let hangup = stream.try_clone()?;
    let result = serve_requests(stream, registry, stop, queue, stats);
    let _ = hangup.shutdown(std::net::Shutdown::Both);
    result
}

/// The event-record verb label of a request.
fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Check { .. } => "check",
        Request::Apps => "apps",
        Request::Reload { .. } => "reload",
        Request::Stats => "stats",
        Request::Shutdown => "shutdown",
    }
}

/// The event-record status label of a response.
fn status_of(response: &Response) -> &'static str {
    match response {
        Response::Busy => "busy",
        Response::Error(_) => "error",
        _ => "ok",
    }
}

/// Write `response`, returning how long rendering it onto the wire took.
fn respond_timed(writer: &mut impl Write, response: &Response) -> io::Result<Duration> {
    let started = Instant::now();
    protocol::write_response(writer, response)?;
    Ok(started.elapsed())
}

/// Close out request `id` with its `request.done` record: verb, status,
/// and the parse + queue-wait + check + respond breakdown, whose sum is
/// `total_us` (an operator finds slow requests by filtering on it).
fn record_done(
    id: u64,
    verb: &'static str,
    response: &Response,
    parse: Duration,
    timings: JobTimings,
    respond: Duration,
) {
    use encore_obs::json::Json;
    if !encore_obs::event::enabled() {
        return;
    }
    let (parse_us, queue_us) = (micros(parse), micros(timings.queue_wait));
    let (check_us, respond_us) = (micros(timings.check), micros(respond));
    let total_us = parse_us
        .saturating_add(queue_us)
        .saturating_add(check_us)
        .saturating_add(respond_us);
    let fields = vec![
        ("verb".to_string(), Json::Str(verb.to_string())),
        (
            "status".to_string(),
            Json::Str(status_of(response).to_string()),
        ),
        ("parse_us".to_string(), Json::Num(parse_us)),
        ("queue_us".to_string(), Json::Num(queue_us)),
        ("check_us".to_string(), Json::Num(check_us)),
        ("respond_us".to_string(), Json::Num(respond_us)),
        ("total_us".to_string(), Json::Num(total_us)),
    ];
    encore_obs::event::with_request(id, || {
        encore_obs::event::emit(encore_obs::event::Level::Info, "request.done", fields);
    });
}

/// The request loop behind [`serve_connection`].
fn serve_requests(
    stream: UnixStream,
    registry: &SnapshotRegistry,
    stop: &StopFlag,
    queue: &BoundedQueue<Job>,
    stats: &ServeStats,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let Some((parsed, parse)) = protocol::read_request_timed(&mut reader)? else {
            return Ok(());
        };
        let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        stats.requests.fetch_add(1, Ordering::Relaxed);
        crate::obs::REQUESTS.incr();
        let request = match parsed {
            Err(reason) => {
                // The stream cannot be resynchronized after a framing
                // error: answer and close.
                stats.errors.fetch_add(1, Ordering::Relaxed);
                crate::obs::ERRORS.incr();
                let response = Response::Error(reason);
                let respond = respond_timed(&mut writer, &response)?;
                record_done(
                    id,
                    "malformed",
                    &response,
                    parse,
                    JobTimings::default(),
                    respond,
                );
                return Ok(());
            }
            Ok(request) => request,
        };
        let verb = verb_of(&request);
        if matches!(request, Request::Shutdown) {
            let response = Response::Lines(vec!["stopping".into()]);
            let respond = respond_timed(&mut writer, &response)?;
            record_done(id, verb, &response, parse, JobTimings::default(), respond);
            stop.stop();
            queue.close();
            return Ok(());
        }
        let inline_started = Instant::now();
        let (response, timings) = match request {
            Request::Apps => {
                let lines = registry
                    .statuses()
                    .iter()
                    .map(|s| {
                        format!(
                            "{} {} {} reloads={}",
                            s.name,
                            s.kind.name(),
                            if s.ready { "ready" } else { "not-ready" },
                            s.reloads
                        )
                    })
                    .collect();
                (Response::Lines(lines), None)
            }
            Request::Reload { app } => {
                let response = match registry.reload(&app) {
                    Ok(()) => Response::Lines(vec![format!("reloaded {app}")]),
                    Err(e) => Response::Error(e),
                };
                crate::obs::sync_app_gauges(registry);
                (response, None)
            }
            Request::Stats => (Response::Lines(stats.lines(queue, registry)), None),
            Request::Shutdown => unreachable!("handled above"),
            Request::Check { app, targets } => {
                let (response, timings) = enqueue(queue, id, app, targets, Some(stats));
                (response, Some(timings))
            }
        };
        // Inline verbs have no queue wait; their work is the check stage.
        let timings = timings.unwrap_or(JobTimings {
            queue_wait: Duration::ZERO,
            check: inline_started.elapsed(),
        });
        match &response {
            Response::Busy => {
                stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                crate::obs::REJECTED_BUSY.incr();
            }
            Response::Error(_) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                crate::obs::ERRORS.incr();
            }
            _ => {}
        }
        let respond = respond_timed(&mut writer, &response)?;
        record_done(id, verb, &response, parse, timings, respond);
    }
}

/// Push a check through the bounded queue and wait for the dispatcher's
/// reply.  A full (or closing) queue yields `busy` without blocking.  A
/// client check counts in `stats` once accepted; watched re-checks pass
/// `None`.
fn enqueue(
    queue: &BoundedQueue<Job>,
    id: u64,
    app: String,
    targets: Vec<(String, String)>,
    stats: Option<&ServeStats>,
) -> (Response, JobTimings) {
    let count = targets.len() as u64;
    let (reply, receive) = std::sync::mpsc::sync_channel(1);
    let job = Job {
        id,
        app,
        targets,
        reply,
        enqueued: Instant::now(),
    };
    match queue.try_push(job) {
        Err(_) => (Response::Busy, JobTimings::default()),
        Ok(depth) => {
            crate::obs::QUEUE_DEPTH.set(depth as u64);
            if let Some(stats) = stats {
                stats.checks.fetch_add(1, Ordering::Relaxed);
                stats.targets_checked.fetch_add(count, Ordering::Relaxed);
                crate::obs::CHECKS.incr();
            }
            match receive.recv() {
                Ok((response, timings)) => (response, timings),
                // The dispatcher dropped the reply sender without
                // answering: the service is shutting down mid-request.
                Err(_) => (
                    Response::Error("service shutting down".to_string()),
                    JobTimings::default(),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn full_queue_answers_busy_and_stats_sees_it() {
        // One job parked in a capacity-1 queue that no dispatcher drains:
        // the queue stays full for the whole connection.
        let queue = BoundedQueue::new(1);
        let (reply, _receive) = std::sync::mpsc::sync_channel(1);
        let parked = Job {
            id: 0,
            app: "mysql".to_string(),
            targets: vec![("parked.cnf".to_string(), "[mysqld]\n".to_string())],
            reply,
            enqueued: Instant::now(),
        };
        assert!(queue.try_push(parked).is_ok(), "the first job fits");

        let (mut client, server) = UnixStream::pair().expect("socket pair");
        let request = Request::Check {
            app: "mysql".to_string(),
            targets: vec![("a.cnf".to_string(), "[mysqld]\nport = 3306\n".to_string())],
        };
        protocol::write_request(&mut client, &request).expect("send check");
        protocol::write_request(&mut client, &Request::Stats).expect("send stats");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("end of requests");

        let stats = ServeStats::default();
        let registry = SnapshotRegistry::new();
        serve_connection(server, &registry, &StopFlag::new(), &queue, &stats).expect("served");

        let mut wire = String::new();
        client.read_to_string(&mut wire).expect("read replies");
        let (busy, stats_reply) = wire.split_once('\n').expect("two replies");
        assert_eq!(busy, "busy");
        let lines: Vec<&str> = stats_reply.lines().collect();
        for line in [
            "rejected_busy 1",
            "queue_depth 1",
            "queue_capacity 1",
            "checks 0",
        ] {
            assert!(lines.contains(&line), "`{line}` missing from {lines:?}");
        }
        let job = queue.pop().expect("the parked job is still queued");
        assert_eq!(job.targets[0].0, "parked.cnf");
    }

    #[test]
    fn stop_flag_wait_reports_timeout_vs_stop() {
        let flag = StopFlag::new();
        assert!(!flag.wait_timeout(Duration::from_millis(1)), "timed out");
        assert!(!flag.is_stopped());
        flag.stop();
        assert!(flag.is_stopped());
        assert!(
            flag.wait_timeout(Duration::from_secs(600)),
            "already stopped"
        );
    }
}
