//! encore-serve — the EnCore detection daemon and its client.
//!
//! Server mode loads one detector snapshot per `--app` and serves the
//! line-delimited check protocol on a unix socket (DESIGN.md §15):
//!
//! ```text
//! encore-serve --socket /run/encore.sock \
//!     --app mysql=mysql=mysql.snap --app web=apache=web.snap \
//!     [--watch mysql=/etc/fleet/mysql] \
//!     [--queue-capacity N] [--workers N] [--poll-interval-ms N] \
//!     [--metrics-addr HOST:PORT] [--heartbeat FILE]
//! ```
//!
//! Each app hot-reloads independently when its snapshot file changes; a
//! failing reload keeps the old detector serving and flips only that
//! app's readiness (visible on `/readyz` and the `apps` verb).
//!
//! `--watch NAME=DIR` (repeatable) makes DIR a second source of targets
//! for the registered app NAME: every poll tick re-checks the files in DIR
//! that were added or changed (all of them after NAME hot-reloads) and
//! prints each report on stdout under a `== <file>` header.  A watched app
//! is not ready until its first scan.  `--heartbeat FILE` appends one JSON
//! line per tick: the change in every metric since the previous tick.
//!
//! The server runs until a `shutdown` verb arrives or stdin reaches
//! end-of-file, and announces `serving on <socket>` (and, when enabled,
//! `metrics listening on <addr>` — `HOST:0` picks a free port) on stderr.
//! The metrics sink is always on; `--event-log FILE` and `--profile FILE`
//! go through the same [`encore::obs::ObsConfig`] as the other binaries.
//! The event log holds one `request.done` line per request, with its
//! parse + queue + check + respond breakdown and their sum `total_us`.
//!
//! Client mode drives one verb against a running server:
//!
//! ```text
//! encore-serve --socket /run/encore.sock --check mysql my.cnf other.cnf
//! encore-serve --socket /run/encore.sock --apps | --stats
//! encore-serve --socket /run/encore.sock --reload mysql | --shutdown
//! ```
//!
//! `--check` prints each target's report under a `== <name>` header;
//! exit 0 on success, 1 on runtime failures, 2 on usage errors, 3 when
//! the server answered `busy` (the queue or the connections were full —
//! retry later).

use encore::obs::ObsConfig;
use encore_model::AppKind;
use encore_serve::{CheckReply, Client, ServeOptions, Server, SnapshotRegistry};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: encore-serve --socket PATH \
--app NAME=KIND=SNAPSHOT [--app ...] [--watch NAME=DIR ...] \
[--queue-capacity N] [--workers N] [--poll-interval-ms N] \
[--metrics-addr HOST:PORT] [--heartbeat FILE] [--event-log FILE] [--profile FILE]
       encore-serve --socket PATH --check APP FILE [FILE...]
       encore-serve --socket PATH --apps | --stats | --reload APP | --shutdown";

fn usage(message: &str) -> ! {
    eprintln!("encore-serve: {message}\n{USAGE}");
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("encore-serve: {message}");
    std::process::exit(1);
}

/// One registration from `--app NAME=KIND=SNAPSHOT`.
struct AppArg {
    name: String,
    kind: AppKind,
    snapshot: PathBuf,
}

enum Mode {
    Serve,
    Check { app: String, files: Vec<PathBuf> },
    Apps,
    Stats,
    Reload { app: String },
    Shutdown,
}

struct Args {
    socket: PathBuf,
    mode: Mode,
    apps: Vec<AppArg>,
    watch: Vec<(String, PathBuf)>,
    options_queue: usize,
    workers: Option<usize>,
    poll_interval_ms: u64,
    metrics_addr: Option<String>,
    heartbeat: Option<PathBuf>,
    obs: ObsConfig,
}

fn parse_app(spec: &str) -> AppArg {
    let mut parts = spec.splitn(3, '=');
    let (name, kind, snapshot) = (parts.next(), parts.next(), parts.next());
    let (Some(name), Some(kind), Some(snapshot)) = (name, kind, snapshot) else {
        usage(&format!("--app wants NAME=KIND=SNAPSHOT, got `{spec}`"));
    };
    if name.is_empty() || name.chars().any(|c| c.is_whitespace()) {
        usage(&format!("bad app name `{name}`"));
    }
    let kind: AppKind = kind
        .parse()
        .unwrap_or_else(|e| usage(&format!("bad app kind `{kind}`: {e}")));
    AppArg {
        name: name.to_string(),
        kind,
        snapshot: PathBuf::from(snapshot),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: PathBuf::new(),
        mode: Mode::Serve,
        apps: Vec::new(),
        watch: Vec::new(),
        options_queue: 16,
        workers: None,
        poll_interval_ms: 1_000,
        metrics_addr: None,
        heartbeat: None,
        obs: ObsConfig::default(),
    };
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        argv.next()
            .unwrap_or_else(|| usage(&format!("{flag} wants a value")))
    };
    let mut client_verbs = 0usize;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--socket" => args.socket = PathBuf::from(value(&mut argv, "--socket")),
            "--app" => args.apps.push(parse_app(&value(&mut argv, "--app"))),
            "--watch" => {
                let spec = value(&mut argv, "--watch");
                let Some((name, dir)) = spec.split_once('=') else {
                    usage(&format!("--watch wants NAME=DIR, got `{spec}`"));
                };
                args.watch.push((name.to_string(), PathBuf::from(dir)));
            }
            "--queue-capacity" => {
                args.options_queue = value(&mut argv, "--queue-capacity")
                    .parse()
                    .unwrap_or_else(|_| usage("--queue-capacity wants a number"));
            }
            "--workers" => {
                args.workers = Some(
                    value(&mut argv, "--workers")
                        .parse()
                        .unwrap_or_else(|_| usage("--workers wants a number")),
                );
            }
            "--poll-interval-ms" => {
                args.poll_interval_ms = value(&mut argv, "--poll-interval-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--poll-interval-ms wants a number"));
            }
            "--metrics-addr" => args.metrics_addr = Some(value(&mut argv, "--metrics-addr")),
            "--heartbeat" => {
                args.heartbeat = Some(PathBuf::from(value(&mut argv, "--heartbeat")));
            }
            "--event-log" => {
                args.obs.event_log = Some(PathBuf::from(value(&mut argv, "--event-log")));
            }
            "--profile" => {
                args.obs.profile = Some(PathBuf::from(value(&mut argv, "--profile")));
            }
            "--check" => {
                let app = value(&mut argv, "--check");
                let files: Vec<PathBuf> = argv.by_ref().map(PathBuf::from).collect();
                if files.is_empty() {
                    usage("--check APP wants at least one config file");
                }
                args.mode = Mode::Check { app, files };
                client_verbs += 1;
            }
            "--apps" => {
                args.mode = Mode::Apps;
                client_verbs += 1;
            }
            "--stats" => {
                args.mode = Mode::Stats;
                client_verbs += 1;
            }
            "--reload" => {
                args.mode = Mode::Reload {
                    app: value(&mut argv, "--reload"),
                };
                client_verbs += 1;
            }
            "--shutdown" => {
                args.mode = Mode::Shutdown;
                client_verbs += 1;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.socket.as_os_str().is_empty() {
        usage("--socket is required");
    }
    if client_verbs > 1 {
        usage("client verbs are mutually exclusive");
    }
    let server_flags = !args.apps.is_empty() || !args.watch.is_empty();
    match args.mode {
        Mode::Serve if args.apps.is_empty() => usage("server mode wants at least one --app"),
        Mode::Serve => {}
        _ if server_flags => usage("--app and --watch are server flags; client verbs take none"),
        _ => {}
    }
    for (i, app) in args.apps.iter().enumerate() {
        if args.apps[..i]
            .iter()
            .any(|earlier| earlier.name == app.name)
        {
            usage(&format!("--app registers `{}` twice", app.name));
        }
    }
    for (name, dir) in &args.watch {
        if !args.apps.iter().any(|app| app.name == *name) {
            usage(&format!("--watch names `{name}`, which no --app registers"));
        }
        if !dir.is_dir() {
            usage(&format!(
                "--watch {name}: `{}` is not a directory",
                dir.display()
            ));
        }
    }
    args
}

fn run_server(args: &Args) -> ! {
    encore::obs::enable();
    args.obs.start().unwrap_or_else(|e| fail(&e));
    let registry = SnapshotRegistry::new();
    for app in &args.apps {
        registry
            .load(&app.name, app.kind, &app.snapshot)
            .unwrap_or_else(|e| fail(&format!("loading app `{}`: {e}", app.name)));
    }
    let mut options = ServeOptions::new(&args.socket);
    options.queue_capacity = args.options_queue;
    options.workers = args.workers;
    options.poll_interval = Duration::from_millis(args.poll_interval_ms.max(1));
    options.metrics_addr = args.metrics_addr.clone();
    options.heartbeat_path = args.heartbeat.clone();
    options.watch = args.watch.clone();
    let server =
        Server::start(registry, options).unwrap_or_else(|e| fail(&format!("starting server: {e}")));
    // Announcements are best-effort: a supervisor that stopped reading
    // our stderr must not be able to crash the daemon with EPIPE.
    let _ = writeln!(
        std::io::stderr(),
        "serving on {}",
        server.socket().display()
    );
    if let Some(addr) = server.metrics_addr() {
        let _ = writeln!(std::io::stderr(), "metrics listening on {addr}");
    }

    // Closing stdin stops the service, so a supervising test (or
    // `echo | encore-serve ...`) gets a bounded shutdown without needing
    // the protocol.
    let stop = server.stop_signal();
    std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        let mut stdin = std::io::stdin().lock();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        stop.stop();
    });

    server.join();
    args.obs.finish().unwrap_or_else(|e| fail(&e));
    let _ = writeln!(std::io::stderr(), "stopped");
    std::process::exit(0);
}

fn connect(args: &Args) -> Client {
    Client::connect(&args.socket)
        .unwrap_or_else(|e| fail(&format!("connecting to {}: {e}", args.socket.display())))
}

fn print_lines(result: std::io::Result<Vec<String>>) -> ! {
    let lines = result.unwrap_or_else(|e| fail(&e.to_string()));
    for line in lines {
        println!("{line}");
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    match &args.mode {
        Mode::Serve => run_server(&args),
        Mode::Apps => print_lines(connect(&args).apps()),
        Mode::Stats => print_lines(connect(&args).stats()),
        Mode::Reload { app } => print_lines(connect(&args).reload(app)),
        Mode::Shutdown => print_lines(connect(&args).shutdown()),
        Mode::Check { app, files } => {
            let targets: Vec<(String, String)> = files
                .iter()
                .map(|path| {
                    let name = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or_else(|| fail(&format!("bad file name `{}`", path.display())));
                    let payload = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| fail(&format!("reading {}: {e}", path.display())));
                    (name.to_string(), payload)
                })
                .collect();
            match connect(&args).check(app, &targets) {
                Err(e) => fail(&e.to_string()),
                Ok(CheckReply::Busy) => {
                    eprintln!("busy: the server is full, retry later");
                    std::process::exit(3);
                }
                Ok(CheckReply::Reports(reports)) => {
                    for (name, body) in reports {
                        println!("== {name}");
                        print!("{body}");
                    }
                    std::process::exit(0);
                }
            }
        }
    }
}
