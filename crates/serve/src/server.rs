//! The `encore-serve` service: connection threads, the check slot, the
//! poll tick, and the telemetry surface.
//!
//! Shape (one box per thread):
//!
//! ```text
//!  clients ──► connection threads: each waits in `accept`, serves the
//!              connection it accepted (admin verbs, and each `check` run
//!              here once it holds the slot), then goes back to `accept`
//!  poll thread: Poller::tick (hot reloads, watched-directory scans whose
//!               re-checks run here through the same slot) + JSONL
//!               heartbeat every interval
//!  metrics server: /metrics /healthz /readyz   (optional TCP port)
//! ```
//!
//! A client's `connect` wakes the connection thread that will serve it:
//! no thread is spawned per connection.  A thread about to serve spawns
//! another only when none is left waiting in `accept`, and once its
//! connection ends it goes back there unless `IDLE_THREADS` already
//! wait.  At most `queue_capacity` + `EXTRA_CONNECTIONS` connections are
//! served at once; the thread that accepts one more answers it `busy` and
//! closes it unread.
//!
//! Every check runs on the thread that read it, once that thread holds
//! the service's one check slot.  At most `queue_capacity` checks wait for
//! the slot; a check that would make one more wait is answered `busy`
//! immediately, as is any check that arrives after shutdown (the
//! backpressure contract — see DESIGN.md §15).  Admin verbs (`apps`,
//! `reload`, `stats`, `shutdown`) never take the slot — they must keep
//! working while checks back up, or an operator could never diagnose a
//! stuck service.  The slot keeps fleet checks serialized, so concurrent
//! clients never oversubscribe the work-stealing pool, and each response
//! stays byte-identical to a direct [`AnomalyDetector::check_fleet`] call.
//!
//! [`AnomalyDetector::check_fleet`]: encore::AnomalyDetector::check_fleet

use crate::protocol::{self, Request, Response};
use crate::registry::SnapshotRegistry;
use crate::watch::{Poller, Scan};
use encore_obs::expose::MetricsServer;
use std::io::{self, BufReader, BufWriter, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Most checks that may wait for the check slot; one more is answered
    /// `busy`.
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
    /// Defaults: 16 waiting checks, all-core checks, 1 s poll, no HTTP
    /// surface, no heartbeat, nothing watched.
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
    /// `check` requests admitted to wait for the check slot.
    pub checks: AtomicU64,
    /// Target payloads checked.
    pub targets_checked: AtomicU64,
    /// Requests rejected with `busy`, and connections refused `busy` past
    /// the connection bound.
    pub rejected_busy: AtomicU64,
    /// Requests answered with `error`.
    pub errors: AtomicU64,
}

/// Dense request ids, minted per request read (any verb, well-formed or
/// not); a check's events join its request's scope.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Connection threads kept waiting in `accept` once their connection
/// ends.  A closed-loop client opens its next connection before the
/// thread that served the last one has read its EOF, so three threads
/// take part in steady traffic; with room for one more, a kept server
/// spawns a thread only when a burst outgrows them.
const IDLE_THREADS: usize = 4;

/// Connections served at once beyond the checks that may wait for the
/// slot: the running check's and one admin connection.
const EXTRA_CONNECTIONS: usize = 2;

/// How long one write to a client may block.  A client that reads nothing
/// for this long loses its connection instead of holding its thread, and
/// with it [`Server::stop`], which joins every thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The slot wait and run time of one check, for its `request.done`
/// record.  Zero for a `busy` check; admin verbs have no wait.
#[derive(Debug, Clone, Copy, Default)]
struct CheckTimings {
    /// Admission to holding the slot.
    queue_wait: Duration,
    /// Holding the slot to response ready (the fleet check).
    check: Duration,
}

/// What the connection and poll threads share.
struct Service {
    registry: SnapshotRegistry,
    /// Stops the threads; once stopped, no check is admitted.
    stop: Arc<StopFlag>,
    /// The one check slot, held by the check that is running.
    slot: Mutex<()>,
    /// Checks admitted and waiting for `slot`.
    waiting: Mutex<usize>,
    /// Most checks that may wait for `slot`; at least 1.
    capacity: usize,
    stats: ServeStats,
    workers: Option<usize>,
}

/// An admitted check's place among those waiting for the slot.  Dropping
/// it — once the check holds the slot, or when its thread unwinds —
/// gives the place back.
struct Place<'a> {
    service: &'a Service,
    admitted: Instant,
}

impl Service {
    fn new(registry: SnapshotRegistry, capacity: usize, workers: Option<usize>) -> Service {
        Service {
            registry,
            stop: Arc::new(StopFlag::new()),
            slot: Mutex::new(()),
            waiting: Mutex::new(0),
            capacity: capacity.max(1),
            stats: ServeStats::default(),
            workers,
        }
    }

    /// Take a place among the checks waiting for the slot, without
    /// blocking.  `None` — answer `busy` — when `capacity` checks already
    /// wait or the service is stopping.  The `serve.queue.depth` gauge
    /// follows the waiting count here and in [`Place`]'s drop.
    fn admit(&self) -> Option<Place<'_>> {
        if self.stop.is_stopped() {
            return None;
        }
        let mut waiting = self.waiting.lock().expect("waiting count poisoned");
        if *waiting >= self.capacity {
            return None;
        }
        *waiting += 1;
        crate::obs::QUEUE_DEPTH.set(*waiting as u64);
        Some(Place {
            service: self,
            admitted: Instant::now(),
        })
    }

    fn stats_lines(&self) -> Vec<String> {
        let stats = &self.stats;
        let statuses = self.registry.statuses();
        let ready = statuses.iter().filter(|s| s.ready).count();
        let events = encore_obs::event::health();
        let waiting = *self.waiting.lock().expect("waiting count poisoned");
        vec![
            format!("requests {}", stats.requests.load(Ordering::Relaxed)),
            format!("checks {}", stats.checks.load(Ordering::Relaxed)),
            format!(
                "targets_checked {}",
                stats.targets_checked.load(Ordering::Relaxed)
            ),
            format!(
                "rejected_busy {}",
                stats.rejected_busy.load(Ordering::Relaxed)
            ),
            format!("errors {}", stats.errors.load(Ordering::Relaxed)),
            format!("queue_depth {waiting}"),
            format!("queue_capacity {}", self.capacity),
            format!("apps {}", statuses.len()),
            format!("apps_ready {ready}"),
            format!("events_written {}", events.written),
            format!("events_dropped {}", events.dropped),
            format!("events_queue_depth {}", events.queue_depth),
        ]
    }
}

impl Place<'_> {
    /// Wait for the slot, give this place back, and run the check on the
    /// calling thread in request `id`'s event scope.
    fn run(self, id: u64, app: &str, targets: &[(String, String)]) -> (Response, CheckTimings) {
        let service = self.service;
        // `()` guards no data: a check that panicked holding the slot
        // leaves nothing to repair.
        let _slot = service.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let queue_wait = self.admitted.elapsed();
        drop(self);
        crate::obs::QUEUE_WAIT.observe(micros(queue_wait));
        let started = Instant::now();
        let response = encore_obs::event::with_request(id, || {
            service.registry.check(app, targets, service.workers)
        });
        let check = started.elapsed();
        crate::obs::REQUEST_DURATION.observe(micros(check));
        (response, CheckTimings { queue_wait, check })
    }
}

impl Drop for Place<'_> {
    fn drop(&mut self) {
        // Drop must not panic; each update leaves the count valid.
        let mut waiting = self
            .service
            .waiting
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *waiting -= 1;
        crate::obs::QUEUE_DEPTH.set(*waiting as u64);
    }
}

/// The connection threads.  Each waits in `accept` on the one listener
/// and serves the connection it accepts; whether a thread goes back to
/// `accept` or stops is decided under the lock [`Connections::close`]
/// takes.
struct Connections {
    listener: UnixListener,
    service: Arc<Service>,
    /// Most connections served at once: the service's `capacity` plus
    /// [`EXTRA_CONNECTIONS`].
    bound: usize,
    threads: Mutex<Threads>,
}

/// What the connection threads decide under their one lock.
#[derive(Default)]
struct Threads {
    /// Threads waiting in `accept`, or on their way there.
    accepting: usize,
    /// The connections being served, each a clone whose read half a stop
    /// shuts down, under a serial number.
    live: Vec<(u64, UnixStream)>,
    next_serial: u64,
    /// The threads started: each spawn joins the finished ones, which
    /// frees their stacks, and the stop joins the rest.
    handles: Vec<JoinHandle<()>>,
    /// Set by [`Connections::close`]: no thread goes back to `accept`.
    closed: bool,
}

impl Connections {
    fn lock(&self) -> MutexGuard<'_, Threads> {
        // Nothing panics while holding it; each update leaves it valid.
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Start one more thread that waits in `accept`.
    fn spawn(self: &Arc<Self>, threads: &mut Threads) -> io::Result<()> {
        for finished in threads
            .handles
            .extract_if(.., |handle| handle.is_finished())
        {
            let _ = finished.join();
        }
        let connections = Arc::clone(self);
        let handle = std::thread::Builder::new().spawn(move || connections.serve())?;
        threads.accepting += 1;
        threads.handles.push(handle);
        Ok(())
    }

    /// One connection thread: accept a connection, serve it, and go back
    /// to `accept` unless [`IDLE_THREADS`] already wait there or the
    /// server is stopping.
    fn serve(self: Arc<Self>) {
        loop {
            let accepted = self.listener.accept();
            let mut threads = self.lock();
            if threads.closed {
                return;
            }
            let stream = match accepted {
                Ok((stream, _)) if threads.live.len() < self.bound => stream,
                Ok((stream, _)) => {
                    drop(threads);
                    refuse(stream, &self.service.stats);
                    continue;
                }
                Err(_) => continue,
            };
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            threads.accepting -= 1;
            let serial = threads.next_serial;
            threads.next_serial += 1;
            threads.live.push((serial, clone));
            if threads.accepting == 0 {
                // Should no thread start, this one goes back to `accept`
                // when its connection ends.
                let _ = self.spawn(&mut threads);
            }
            drop(threads);
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            // A check that panics ends its connection, not this thread.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                serve_connection(stream, &self.service)
            }));
            let mut threads = self.lock();
            threads.live.retain(|(live, _)| *live != serial);
            if threads.closed || threads.accepting >= IDLE_THREADS {
                return;
            }
            threads.accepting += 1;
        }
    }

    /// Stop the threads.  None goes back to `accept`.  Every live
    /// connection's read half is shut down, so a thread blocked reading
    /// its next request sees EOF while a running check still writes its
    /// report, within [`WRITE_TIMEOUT`] per write.  Each thread waiting in
    /// `accept` gets one wake-up connection.  Returns every thread, to be
    /// joined.
    fn close(&self, socket: &Path) -> Vec<JoinHandle<()>> {
        let mut threads = self.lock();
        threads.closed = true;
        for (_, stream) in &threads.live {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        let waiting = threads.accepting;
        let handles = std::mem::take(&mut threads.handles);
        drop(threads);
        for _ in 0..waiting {
            let _ = UnixStream::connect(socket);
        }
        handles
    }
}

/// Answer a connection past the bound `busy` and close it unread: it is
/// counted in `rejected_busy` but mints no request id.
fn refuse(mut stream: UnixStream, stats: &ServeStats) {
    stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
    crate::obs::REJECTED_BUSY.incr();
    let _ = protocol::write_response(&mut stream, &Response::Busy);
}

/// A running detection service; stops (and unlinks its socket) on drop.
pub struct Server {
    socket: PathBuf,
    service: Arc<Service>,
    connections: Option<Arc<Connections>>,
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
    /// Propagates socket-bind and metrics-bind failures (the latter
    /// naming the address), and rejects a watched app that is not
    /// registered.  A failed start leaves no socket file behind.
    pub fn start(registry: SnapshotRegistry, options: ServeOptions) -> io::Result<Server> {
        let poller = Poller::new(&registry, &options.watch)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let service = Arc::new(Service::new(
            registry,
            options.queue_capacity,
            options.workers,
        ));
        crate::obs::QUEUE_CAPACITY.set(service.capacity as u64);
        crate::obs::sync_app_gauges(&service.registry);

        // Before the socket, so a metrics address in use leaves no socket
        // file behind; a socket bind failure drops (stops) the metrics
        // server instead.
        let metrics = match &options.metrics_addr {
            Some(addr) => {
                let service = Arc::clone(&service);
                let metrics = MetricsServer::start(
                    addr,
                    move || service.registry.ready(),
                    crate::obs::render_prometheus,
                )
                .map_err(|e| io::Error::new(e.kind(), format!("metrics address {addr}: {e}")))?;
                Some(metrics)
            }
            None => None,
        };
        let listener = bind_socket(&options.socket)?;

        let poller = {
            let service = Arc::clone(&service);
            let interval = options.poll_interval;
            let heartbeat = options.heartbeat_path;
            std::thread::spawn(move || poll_loop(poller, &service, interval, heartbeat.as_deref()))
        };

        let connections = Arc::new(Connections {
            listener,
            bound: service.capacity + EXTRA_CONNECTIONS,
            service: Arc::clone(&service),
            threads: Mutex::default(),
        });
        let mut server = Server {
            socket: options.socket,
            service,
            connections: None,
            poller: Some(poller),
            metrics,
        };
        // If no thread starts, dropping `server` stops the poll thread
        // and the metrics server and unlinks the socket.
        connections.spawn(&mut connections.lock())?;
        server.connections = Some(connections);
        Ok(server)
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The service counters (shared with the `stats` verb).
    pub fn stats(&self) -> &ServeStats {
        &self.service.stats
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
        Arc::clone(&self.service.stop)
    }

    /// The registry being served.
    pub fn registry(&self) -> &SnapshotRegistry {
        &self.service.registry
    }

    /// Block until a `shutdown` request (or [`Server::stop`] from another
    /// thread) stops the service, then tear down.
    pub fn join(mut self) {
        self.service.stop.wait();
        self.stop();
    }

    /// Stop the service: admit no more checks, let the admitted ones
    /// finish and write their reports, join every thread, unlink the
    /// socket.  Idempotent.
    pub fn stop(&mut self) {
        self.service.stop.stop();
        if let Some(connections) = self.connections.take() {
            for handle in connections.close(&self.socket) {
                let _ = handle.join();
            }
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
        self.stop();
    }
}

/// Saturating microseconds of a duration (µs end to end; ms quantized
/// every wire-speed stage into one bucket).
fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

/// The poll thread: one [`Poller::tick`] per interval, its re-checks run
/// through the check slot like client `check` requests, then the
/// heartbeat line.
fn poll_loop(mut poller: Poller, service: &Service, interval: Duration, heartbeat: Option<&Path>) {
    // A watched directory is scanned at once, so its app does not sit
    // not-ready for a whole interval.
    let mut tick_now = poller.is_watching();
    loop {
        if !std::mem::take(&mut tick_now) && service.stop.wait_timeout(interval) {
            return;
        }
        let scans = poller.tick(&service.registry, |app, targets| {
            // Id 0 and no stats: watched re-checks are not client requests.
            service
                .admit()
                .map_or(Response::Busy, |place| place.run(0, app, &targets).0)
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
    timings: CheckTimings,
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

/// Serve one client until EOF, a malformed request, or shutdown.  The
/// client sees EOF once the stream and its thread's stop clone are
/// dropped.
fn serve_connection(stream: UnixStream, service: &Service) -> io::Result<()> {
    let (registry, stats) = (&service.registry, &service.stats);
    let mut reader = BufReader::new(&stream);
    let mut writer = BufWriter::new(&stream);
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
                    CheckTimings::default(),
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
            record_done(id, verb, &response, parse, CheckTimings::default(), respond);
            service.stop.stop();
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
            Request::Stats => (Response::Lines(service.stats_lines()), None),
            Request::Shutdown => unreachable!("handled above"),
            Request::Check { app, targets } => match service.admit() {
                None => (Response::Busy, Some(CheckTimings::default())),
                Some(place) => {
                    stats.checks.fetch_add(1, Ordering::Relaxed);
                    let count = targets.len() as u64;
                    stats.targets_checked.fetch_add(count, Ordering::Relaxed);
                    crate::obs::CHECKS.incr();
                    let (response, timings) = place.run(id, &app, &targets);
                    (response, Some(timings))
                }
            },
        };
        // Admin verbs have no slot wait; their work is the check stage.
        let timings = timings.unwrap_or(CheckTimings {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A service with no apps: every admitted check runs and answers
    /// `unknown app`, so a `busy` answer can only come from admission.
    fn service(capacity: usize) -> Service {
        Service::new(SnapshotRegistry::new(), capacity, None)
    }

    fn ran() -> Response {
        Response::Error("unknown app `mysql`".to_string())
    }

    /// One check, admitted and run as a connection thread does.
    fn check(service: &Service) -> Response {
        let targets = [("a.cnf".to_string(), "[mysqld]\n".to_string())];
        service
            .admit()
            .map_or(Response::Busy, |place| place.run(1, "mysql", &targets).0)
    }

    fn waiting(service: &Service) -> usize {
        *service.waiting.lock().expect("waiting count")
    }

    #[test]
    fn a_check_past_capacity_is_busy_without_blocking() {
        let service = service(2);
        // This thread holds both places, so a check that waited for one
        // would never return.
        let first = service.admit().expect("first place");
        let _second = service.admit().expect("second place");
        assert_eq!(check(&service), Response::Busy);
        assert_eq!(waiting(&service), 2);
        drop(first);
        assert_eq!(check(&service), ran(), "a freed place admits again");
        assert_eq!(waiting(&service), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let service = service(0);
        assert_eq!(service.capacity, 1);
        let place = service.admit().expect("one place");
        assert!(service.admit().is_none(), "only one place");
        drop(place);
        assert!(service.admit().is_some(), "the place is free again");
    }

    #[test]
    fn after_close_new_checks_are_busy_but_a_waiting_check_still_runs() {
        let service = service(4);
        let slot = service.slot.lock().expect("slot");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| check(&service));
            while waiting(&service) == 0 {
                std::thread::yield_now();
            }
            service.stop.stop();
            // On its own thread, so an admission that ignored the close
            // would fail below rather than block on the held slot.
            let late = scope.spawn(|| check(&service));
            drop(slot);
            assert_eq!(late.join().expect("late"), Response::Busy, "closed");
            assert_eq!(waiter.join().expect("waiter"), ran(), "admitted check ran");
        });
        assert_eq!(waiting(&service), 0);
    }

    #[test]
    fn a_check_that_errors_gives_its_place_back() {
        let service = service(1);
        assert_eq!(check(&service), ran());
        assert_eq!(waiting(&service), 0);
        assert_eq!(check(&service), ran(), "the one place is free again");
    }

    #[test]
    fn full_queue_answers_busy_and_stats_sees_it() {
        // The test takes the one waiting place itself, so the check the
        // connection reads finds none free.
        let service = service(1);
        let _place = service.admit().expect("the first place is free");

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
        serve_connection(server, &service).expect("served");

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
    }

    #[test]
    fn a_metrics_address_in_use_is_named_and_leaves_no_socket() {
        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port");
        let addr = taken.local_addr().expect("local addr").to_string();
        let socket = std::env::temp_dir().join(format!(
            "encore-serve-metrics-in-use-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let mut options = ServeOptions::new(&socket);
        options.metrics_addr = Some(addr.clone());
        let err = Server::start(SnapshotRegistry::new(), options)
            .err()
            .expect("the metrics address is taken");
        assert!(
            err.to_string().contains(&addr),
            "`{err}` does not name {addr}"
        );
        assert!(!socket.exists(), "socket file left behind");
    }

    /// A server on a socket of its own, with no apps.
    fn start(tag: &str, capacity: usize) -> Server {
        start_with(tag, capacity, SnapshotRegistry::new())
    }

    fn start_with(tag: &str, capacity: usize, registry: SnapshotRegistry) -> Server {
        let socket =
            std::env::temp_dir().join(format!("encore-serve-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut options = ServeOptions::new(socket);
        options.queue_capacity = capacity;
        Server::start(registry, options).expect("server starts")
    }

    /// `n` clients, each answered, so `n` threads serve at once.
    fn served(server: &Server, n: usize) -> Vec<crate::Client> {
        (0..n)
            .map(|_| {
                let mut client = crate::Client::connect(server.socket()).expect("connect");
                client.stats().expect("served");
                client
            })
            .collect()
    }

    #[test]
    fn a_connection_past_the_bound_reads_busy_and_is_not_a_request() {
        let server = start("bound", 2);
        let mut clients = served(&server, 2 + EXTRA_CONNECTIONS);
        let mut refused = UnixStream::connect(server.socket()).expect("connect");
        let mut wire = String::new();
        refused.read_to_string(&mut wire).expect("read to close");
        assert_eq!(wire, "busy\n");
        let stats = clients[0].stats().expect("stats");
        // Every request read mints a request id; the refusal read none.
        let requests = format!("requests {}", 2 + EXTRA_CONNECTIONS + 1);
        for line in ["rejected_busy 1", requests.as_str(), "checks 0"] {
            assert!(
                stats.iter().any(|l| l == line),
                "`{line}` missing: {stats:?}"
            );
        }
    }

    #[test]
    fn a_stop_wakes_and_joins_every_thread_waiting_in_accept() {
        let mut server = start("idle-stop", 2);
        let connections = Arc::clone(server.connections.as_ref().expect("running"));
        // All but one of the idle threads serve, and one more waits in
        // `accept`; once the clients hang up, all of them wait there.
        drop(served(&server, IDLE_THREADS - 1));
        while connections.lock().accepting < IDLE_THREADS {
            std::thread::yield_now();
        }
        server.stop();
        assert_eq!(
            Arc::strong_count(&connections),
            1,
            "a connection thread outlived the stop"
        );
        server.stop();
    }

    #[test]
    fn an_admitted_check_gets_its_report_across_a_stop() {
        use encore::prelude::*;
        use encore_corpus::genimage::{Population, PopulationOptions};
        use encore_model::AppKind;

        let pop = Population::training(AppKind::Mysql, &PopulationOptions::new(8, 5));
        let training = TrainingSet::assemble(AppKind::Mysql, pop.images()).expect("assembles");
        let detector = EnCore::learn(&training, &LearnOptions::default()).into_detector();
        let snapshot = std::env::temp_dir().join(format!(
            "encore-serve-stop-report-{}.snap",
            std::process::id()
        ));
        std::fs::write(&snapshot, detector.snapshot().render()).expect("write snapshot");
        let registry = SnapshotRegistry::new();
        registry
            .load("mysql", AppKind::Mysql, &snapshot)
            .expect("load");

        let mut server = start_with("stop-report", 4, registry);
        let socket = server.socket().to_path_buf();
        let service = Arc::clone(&server.service);
        let connections = Arc::clone(server.connections.as_ref().expect("running"));
        let slot = service.slot.lock().expect("slot");
        std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                let targets = [("a.cnf".to_string(), "[mysqld]\nport = 3306\n".to_string())];
                crate::Client::connect(&socket)
                    .expect("connect")
                    .check("mysql", &targets)
            });
            while waiting(&service) == 0 {
                std::thread::yield_now();
            }
            let stopper = scope.spawn(|| server.stop());
            // The stop shuts the connections down under the lock it
            // closes them with, while the check still waits for the slot.
            while !connections.lock().closed {
                std::thread::yield_now();
            }
            drop(slot);
            match client.join().expect("client").expect("a response, not EOF") {
                crate::CheckReply::Reports(reports) => {
                    assert_eq!(reports.len(), 1);
                    assert_eq!(reports[0].0, "a.cnf");
                }
                crate::CheckReply::Busy => panic!("the check was admitted"),
            }
            stopper.join().expect("stop");
        });
        let _ = std::fs::remove_file(&snapshot);
    }

    #[test]
    fn a_client_that_never_reads_its_report_cannot_hold_the_stop() {
        // A detector with no training data warns on every entry, so one
        // target of 40,000 entries gets a report of several MB, far past
        // the socket buffer.
        let empty = encore::AnomalyDetector::from_parts(
            encore::RuleSet::default(),
            encore::TypeMap::default(),
            encore::TrainingStats::default(),
        );
        let snapshot =
            std::env::temp_dir().join(format!("encore-serve-unread-{}.snap", std::process::id()));
        std::fs::write(&snapshot, empty.snapshot().render()).expect("write snapshot");
        let registry = SnapshotRegistry::new();
        registry
            .load("mysql", encore_model::AppKind::Mysql, &snapshot)
            .expect("load");
        let mut server = start_with("unread", 4, registry);
        let service = Arc::clone(&server.service);

        let config: String = std::iter::once("[mysqld]\n".to_string())
            .chain((0..40_000).map(|i| format!("knob_{i} = {i}\n")))
            .collect();
        let mut client = UnixStream::connect(server.socket()).expect("connect");
        let request = Request::Check {
            app: "mysql".to_string(),
            targets: vec![("a.cnf".to_string(), config)],
        };
        protocol::write_request(&mut client, &request).expect("send check");
        // Once the check has left the waiting places, taking the slot
        // waits for it to finish: its thread is then writing the report.
        while service.stats.checks.load(Ordering::Relaxed) == 0 || waiting(&service) > 0 {
            std::thread::yield_now();
        }
        drop(service.slot.lock().expect("slot"));

        let bound = 2 * WRITE_TIMEOUT + Duration::from_secs(1);
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                server.stop();
                let _ = done.send(());
            });
            let stopped = stopped.recv_timeout(bound);
            // Reading the report lets a stop that still waits finish.
            let mut unread = Vec::new();
            let _ = client.read_to_end(&mut unread);
            assert!(
                stopped.is_ok(),
                "the stop waited past {bound:?} on a client that never reads \
                 a report of more than {} bytes",
                unread.len()
            );
        });
        let _ = std::fs::remove_file(&snapshot);
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
