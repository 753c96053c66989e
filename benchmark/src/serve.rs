//! `serve`: closed-loop `check` traffic against an in-process
//! `encore_serve::Server` while its MySQL snapshot is hot-reloaded.
//!
//! The traffic copies the one caller of `encore-serve` in the repository,
//! the CI smoke job: `encore-serve --check mysql FILE` connects, checks one
//! MySQL configuration, prints the report and exits, and the next command
//! waits for it.  So one client opens a connection per request and sends
//! one single-target `check mysql`, back to back, to a service that has a
//! `mysql` and an `apache` snapshot loaded, as that job's service does.
//! The payloads are drawn from a fixed pool.  Meanwhile the main thread
//! atomically replaces the MySQL snapshot file every reload interval,
//! alternating between two detectors learned from different seeds, so
//! snapshot reloads run beside the reads; that cadence is a stress
//! setting, not observed traffic.  Every served report must equal a direct
//! `check_fleet` render of its payload under one of the two detector
//! versions, computed before the service starts.
//!
//! The detectors, the payload pool and its oracle are inputs, built once.
//! The timed setup is the service's cold start: writing and loading its
//! snapshots, binding the socket and starting its threads.

use crate::measure::{
    check_pinned, fnv64, median, ms, ms_all, quantile, repeat_setup, Config, HostSpeed, Outcome,
    SplitMix,
};
use crate::pipeline::{check_both, layer_metrics, learn, load_ms, renders, ServeRatios, WORKERS};
use crate::trace::Tracer;
use encore::AnomalyDetector;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_serve::protocol::{self, CheckReply, Request, Response};
use encore_serve::{Client, ServeOptions, Server, SnapshotRegistry};
use encore_sysimage::SystemImage;
use std::io::{self, BufReader, Cursor};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const APP: AppKind = AppKind::Mysql;
/// Requests replayed directly and through the in-memory protocol in a
/// traced run.
const REPLAY: usize = 2000;
const RELOADS_TIMED: usize = 20;
/// Snapshot loads timed before the load starts, the pause after each, and
/// how many loads share one host-speed measurement.
const LOAD_REPS: usize = 200;
const LOAD_GAP: Duration = Duration::from_millis(5);
const LOADS_PER_CALIBRATION: usize = 10;
/// How often the client pauses between requests to measure host speed.
const CALIBRATE_EVERY: Duration = Duration::from_millis(250);

/// The MySQL payload pool and the report each payload must get from each
/// detector version the service may be running.
struct Pool {
    payloads: Vec<String>,
    /// `oracle[version][payload]`.
    oracle: [Vec<String>; 2],
}

impl Pool {
    fn name(index: usize) -> String {
        format!("{}-{index}", APP.name())
    }

    /// The request's target image, built as the service builds it.
    fn image(&self, index: usize) -> SystemImage {
        target_image(&Pool::name(index), &self.payloads[index])
    }

    /// The detector versions that render exactly `body` for `index`.
    fn versions_matching(&self, index: usize, body: &str) -> Vec<usize> {
        (0..self.oracle.len())
            .filter(|&v| self.oracle[v][index] == body)
            .collect()
    }
}

/// A configuration-only target image, the way `encore-serve` builds one
/// from a `check` payload.
fn target_image(name: &str, payload: &str) -> SystemImage {
    SystemImage::builder(name)
        .file(APP.config_path(), "root", "root", 0o644, payload)
        .build()
}

/// What the service is given and what it must answer.
struct Inputs {
    /// The MySQL snapshot texts, by version; version 0 is loaded first.
    snapshots: [String; 2],
    apache_snapshot: String,
    /// The version 0 detector, for the traced run's direct replay.
    detector: AnomalyDetector,
    pool: Pool,
}

/// A running service and the directory its snapshot files live in.
struct Service {
    server: Server,
    dir: PathBuf,
    socket: PathBuf,
}

impl Drop for Service {
    fn drop(&mut self) {
        self.server.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn payload_pool(
    cfg: &Config,
    detectors: [&AnomalyDetector; 2],
    t: &mut Tracer,
) -> Result<Pool, String> {
    let population = Population::ec2_fresh(APP, cfg.size(512, 32), cfg.seed + 76);
    let payloads: Vec<String> = population
        .images()
        .iter()
        .map(|image| image.read_file(APP.config_path()).unwrap_or("").to_string())
        .collect();
    let images: Vec<SystemImage> = payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| target_image(&Pool::name(i), payload))
        .collect();
    let mut checks = Outcome::default();
    let oracle =
        detectors.map(|detector| renders(&check_both(detector, APP, &images, t, &mut checks)));
    if checks.failures.is_empty() {
        Ok(Pool { payloads, oracle })
    } else {
        Err(checks.failures.join("; "))
    }
}

fn inputs(cfg: &Config, t: &mut Tracer) -> Result<Inputs, String> {
    let mut learn_from = |app, n, seed| {
        let population = Population::training(app, &PopulationOptions::new(n, seed));
        learn(app, population.images(), t)
    };
    let mysql_n = cfg.size(187, 40);
    let mysql_a = learn_from(APP, mysql_n, cfg.seed)?;
    let mysql_b = learn_from(APP, mysql_n, cfg.seed + 1)?;
    let apache = learn_from(AppKind::Apache, cfg.size(127, 30), cfg.seed)?;
    let pool = payload_pool(cfg, [&mysql_a.detector, &mysql_b.detector], t)?;
    Ok(Inputs {
        snapshots: [mysql_a.snapshot, mysql_b.snapshot],
        apache_snapshot: apache.snapshot,
        detector: mysql_a.detector,
        pool,
    })
}

/// Start the service cold: write its snapshot files, load them, bind the
/// socket and start its threads.
fn start(cfg: &Config, inputs: &Inputs) -> Result<Service, String> {
    let dir = cfg.out.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok::<PathBuf, String>(path)
    };
    let registry = SnapshotRegistry::new();
    registry.load("mysql", APP, &write("mysql.snap", &inputs.snapshots[0])?)?;
    registry.load(
        "apache",
        AppKind::Apache,
        &write("apache.snap", &inputs.apache_snapshot)?,
    )?;
    // Unix socket paths are limited to about 100 bytes, so the socket is
    // bound relative to the output directory, the working directory here.
    let socket = PathBuf::from(format!("serve-{}.sock", std::process::id()));
    let options = ServeOptions {
        queue_capacity: 16,
        workers: Some(WORKERS),
        poll_interval: Duration::from_millis(200),
        ..ServeOptions::new(&socket)
    };
    let server = Server::start(registry, options).map_err(|e| format!("server start: {e}"))?;
    Ok(Service {
        server,
        dir,
        socket,
    })
}

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    /// Round trips of requests sent and answered inside the timed window,
    /// in milliseconds at reference host speed, with whether each was
    /// traced.
    rtt_ms: Vec<(f64, bool)>,
    /// The same round trips as measured.
    raw_rtt_ms: Vec<f64>,
    calibrations_ms: Vec<f64>,
    /// Requests answered by each detector version, counting only answers
    /// that only one version could have given.
    versions_seen: [u64; 2],
    /// Replies that match no detector version, and the first few of them.
    mismatches: u64,
    examples: Vec<String>,
    /// The payload index of each timed request.
    timed: Vec<usize>,
}

impl ClientLog {
    fn bad(&mut self, why: String) {
        self.mismatches += 1;
        if self.examples.len() < 3 {
            self.examples.push(why);
        }
    }
}

/// One `encore-serve --check mysql FILE`: connect, check, hang up.
fn check_once(socket: &Path, target: &[(String, String)]) -> io::Result<CheckReply> {
    Client::connect(socket)?.check(APP.name(), target)
}

fn client_loop(
    socket: &Path,
    pool: &Pool,
    seed: u64,
    (start, end): (Instant, Instant),
    t: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = SplitMix(seed);
    let mut speed = HostSpeed::measure();
    let mut recalibrate_at = Instant::now() + CALIBRATE_EVERY;
    let mut n = 0u64;
    loop {
        let sent = Instant::now();
        if sent >= end {
            return log;
        }
        if sent >= recalibrate_at {
            speed = HostSpeed::measure();
            log.calibrations_ms.push(speed.calibration_ms);
            recalibrate_at = Instant::now() + CALIBRATE_EVERY;
            continue;
        }
        let index = rng.below(pool.payloads.len());
        let target = [(Pool::name(index), pool.payloads[index].clone())];
        let timed = sent >= start;
        let traced = timed && t.on() && n.is_multiple_of(2);
        t.set_id(n);
        n += 1;
        let reply = if traced {
            t.span("serve.round_trip", |_| check_once(socket, &target))
        } else {
            check_once(socket, &target)
        };
        let rtt = sent.elapsed();
        log.attempted += u64::from(timed);
        let reports = match reply {
            Ok(CheckReply::Reports(reports)) => reports,
            Ok(CheckReply::Busy) => {
                log.failed += u64::from(timed);
                continue;
            }
            Err(e) => {
                log.failed += 1;
                log.bad(format!("request {n}: {e}"));
                return log;
            }
        };
        if timed && sent + rtt <= end {
            log.rtt_ms.push((speed.adjust(ms(rtt)), traced));
            log.raw_rtt_ms.push(ms(rtt));
            log.timed.push(index);
        }
        let body = match &reports[..] {
            [(name, body)] if *name == target[0].0 => body,
            _ => {
                log.bad(format!("request {n}: not one report for the target"));
                continue;
            }
        };
        match pool.versions_matching(index, body)[..] {
            [] => log.bad(format!("payload {index}: matches no detector version")),
            [version] => log.versions_seen[version] += 1,
            _ => {}
        }
    }
}

/// The value on the `name value` line of a `stats` reply, or 0.
fn stat(lines: &[String], name: &str) -> u64 {
    lines
        .iter()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// Replace `path` atomically: write a temporary file beside it, then
/// rename it over the original.
fn replace_file(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    std::env::set_current_dir(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let mut traced = Tracer::new(cfg.trace);
    let inputs = inputs(cfg, &mut traced)?;
    let (service, setup_s) = repeat_setup(|| start(cfg, &inputs))?;
    let mut out = Outcome::default();
    // The host's slow spells last from a fraction of a second to minutes,
    // so the loads are spread out instead of timed back to back.
    let mut loads = Vec::with_capacity(LOAD_REPS);
    let mut speed = HostSpeed::measure();
    for i in 0..LOAD_REPS {
        if i > 0 && i % LOADS_PER_CALIBRATION == 0 {
            speed = HostSpeed::measure();
        }
        let load = load_ms(&inputs.snapshots[0], 1, &mut traced)?;
        loads.extend(load.into_iter().map(|ms| speed.adjust(ms)));
        std::thread::sleep(LOAD_GAP);
    }

    let warmup = Duration::from_secs_f64(if cfg.smoke { 0.2 } else { 2.0 });
    let reload_every = Duration::from_secs_f64(if cfg.smoke { 0.1 } else { 1.0 });
    let start = Instant::now() + warmup;
    let end = start + cfg.window();
    let mut writes = 0usize;
    let mysql_path = service.dir.join("mysql.snap");
    let (log, client_trace) = std::thread::scope(|scope| {
        let mut t = traced.for_thread(1);
        let (socket, pool) = (&service.socket, &inputs.pool);
        let client = scope.spawn(move || {
            let log = client_loop(socket, pool, cfg.seed, (start, end), &mut t);
            (log, t)
        });
        let mut next = Instant::now() + reload_every;
        let mut write_error = None;
        while next < end {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            writes += 1;
            if let Err(e) = replace_file(&mysql_path, &inputs.snapshots[writes % 2]) {
                write_error = Some(e);
                break;
            }
            next += reload_every;
        }
        let result = client.join().expect("client thread panicked");
        write_error.map_or(Ok(result), Err)
    })?;
    traced.absorb(client_trace);

    out.attempted = log.attempted;
    out.failed = log.failed;
    let rtt = &log.rtt_ms;
    out.check("serve.reports_match_oracle", log.mismatches == 0, || {
        format!(
            "{} bad replies: {}",
            log.mismatches,
            log.examples.join("; ")
        )
    });
    out.check("serve.requests_answered", !rtt.is_empty(), || {
        "no request completed inside the timed window".to_string()
    });
    if !cfg.smoke {
        let seen = log.versions_seen;
        out.check("serve.hot_reload", seen.iter().all(|&n| n > 0), || {
            format!("answers by detector version: {seen:?} after {writes} snapshot writes")
        });
    }
    let oracle = inputs.pool.oracle.iter().flatten().map(String::as_str);
    let fingerprint = format!("{:016x}", fnv64(oracle));
    check_pinned(cfg, &mut out, "serve", "oracle_fingerprint", &fingerprint);
    out.note("oracle_fingerprint", fingerprint);

    let mut admin = Client::connect(&service.socket).map_err(|e| format!("admin connect: {e}"))?;
    let stats = admin.stats().map_err(|e| format!("stats: {e}"))?;
    let apps = admin.apps().map_err(|e| format!("apps: {e}"))?;
    let reloads: u64 = apps
        .iter()
        .filter_map(|line| line.split("reloads=").nth(1)?.parse::<u64>().ok())
        .sum();
    out.check(
        "serve.apps_ready",
        apps.len() == 2 && apps.iter().all(|a| a.contains(" ready ")),
        || format!("apps: {apps:?}"),
    );

    let all_ms: Vec<f64> = rtt.iter().map(|&(ms, _)| ms).collect();
    if cfg.trace {
        for (name, value) in [
            ("serve.requests", stat(&stats, "requests")),
            ("serve.targets_checked", stat(&stats, "targets_checked")),
            ("serve.rejected_busy", stat(&stats, "rejected_busy")),
            ("serve.errors", stat(&stats, "errors")),
            ("serve.reloads", reloads),
        ] {
            traced.count(name, value);
        }
        let ratios = replay(&inputs, &log.timed, &mut traced, &mut admin, &mut out)?;
        let pick = |want: bool| -> Vec<f64> {
            rtt.iter()
                .filter(|&&(_, t)| t == want)
                .map(|&(ms, _)| ms)
                .collect()
        };
        let overhead = median(&pick(true)) / median(&pick(false)) - 1.0;
        out.info("serve.round_trip_ms", median(&log.raw_rtt_ms), "ms");
        layer_metrics(&traced, &mut out, overhead, ratios);
        crate::write_trace(cfg, "serve", &traced)?;
    } else {
        let window = cfg.window().as_secs_f64();
        out.metric("setup_s", setup_s, "s");
        out.metric("latency_ms", median(&all_ms), "ms");
        out.metric("snapshot_load_ms", median(&loads), "ms");
        out.info("latency_p90_ms", quantile(&all_ms, 0.9), "ms");
        out.info("latency_p99_ms", quantile(&all_ms, 0.99), "ms");
        out.info("latency_p99.9_ms", quantile(&all_ms, 0.999), "ms");
        out.info("latency_raw_ms", median(&log.raw_rtt_ms), "ms");
        out.info("items_per_s", all_ms.len() as f64 / window, "items/s");
        out.info("operations", all_ms.len() as f64, "count");
        out.info("calibration_ms", median(&log.calibrations_ms), "ms");
        out.info("snapshot_writes", writes as f64, "count");
        out.info("reloads", reloads as f64, "count");
    }
    Ok(out)
}

/// The traced run's serve decomposition: replay the timed requests
/// straight through `check_fleet`, time the protocol codec on in-memory
/// buffers, and time forced reloads.
fn replay(
    inputs: &Inputs,
    timed: &[usize],
    t: &mut Tracer,
    admin: &mut Client,
    out: &mut Outcome,
) -> Result<ServeRatios, String> {
    let pool = &inputs.pool;
    for (i, &index) in timed.iter().take(REPLAY).enumerate() {
        t.set_id(i as u64);
        let results = t.span("serve.direct", |_| {
            inputs.detector.check_fleet(
                APP,
                &[pool.image(index)],
                &encore::FleetOptions::with_workers(WORKERS),
            )
        });
        let target = (Pool::name(index), pool.payloads[index].clone());
        let request = Request::Check {
            app: APP.name().to_string(),
            targets: vec![target],
        };
        let reports: Vec<(String, String)> = renders(&results)
            .into_iter()
            .map(|body| (Pool::name(index), body))
            .collect();
        let response = Response::Reports(reports.clone());
        let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
        t.span("protocol.encode", |_| {
            protocol::write_request(&mut request_bytes, &request)
                .and_then(|()| protocol::write_response(&mut response_bytes, &response))
        })
        .map_err(|e| format!("encode: {e}"))?;
        let (request_back, reply_back) = t.span("protocol.decode", |_| {
            (
                protocol::read_request(&mut BufReader::new(Cursor::new(&request_bytes))),
                protocol::read_check_response(&mut BufReader::new(Cursor::new(&response_bytes))),
            )
        });
        let survived = matches!(request_back, Ok(Some(Ok(r))) if r == request)
            && matches!(reply_back, Ok(Ok(CheckReply::Reports(r))) if r == reports);
        out.check("protocol.round_trip", survived, || {
            format!("request {i} does not survive encode + decode")
        });
    }
    for _ in 0..RELOADS_TIMED {
        t.span("serve.reload", |_| admin.reload("mysql"))
            .map_err(|e| format!("reload: {e}"))?;
    }
    let median_ms = |name: &str| median(&ms_all(&t.durations(name)));
    let round_trip = median_ms("serve.round_trip");
    let direct = median_ms("serve.direct");
    let (encode, decode) = (median_ms("protocol.encode"), median_ms("protocol.decode"));
    out.info("serve.direct_check_ms", direct, "ms");
    out.info("protocol.encode_us", encode * 1e3, "us");
    out.info("protocol.decode_us", decode * 1e3, "us");
    out.info("serve.reload_ms", median_ms("serve.reload"), "ms");
    Ok(ServeRatios {
        overhead: (round_trip - direct) / round_trip,
        protocol: (encode + decode) / round_trip,
    })
}
