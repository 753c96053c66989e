//! The threads a server keeps, counted in `/proc/self/task`, and the
//! request ids its event log records across a burst and a refusal.
//!
//! A single test in its own binary: cargo runs a binary's tests on
//! parallel threads, which would be counted too, and the event log and
//! request ids are process-wide.

use encore_obs::json::{self, Json};
use encore_serve::{CheckReply, Client, ServeOptions, Server, SnapshotRegistry};
use std::time::{Duration, Instant};

/// Connection threads a server keeps waiting in `accept` once their
/// connections end (`IDLE_THREADS` in `src/server.rs`).
const IDLE: usize = 4;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .count()
}

/// Yield until at most `want` threads run; an exited thread leaves the
/// task list just after it is joined or decides to stop.
fn settle(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let now = threads();
        if now <= want || Instant::now() > deadline {
            return now;
        }
        std::thread::yield_now();
    }
}

#[test]
fn after_a_burst_at_most_the_idle_threads_stay_and_request_ids_stay_dense() {
    let dir = std::env::temp_dir().join(format!("encore-serve-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let events = dir.join("events.jsonl");
    encore_obs::event::install(&events).expect("install the event log");

    let before = threads();
    let mut options = ServeOptions::new(dir.join("serve.sock"));
    options.queue_capacity = 4;
    let server = Server::start(SnapshotRegistry::new(), options).expect("server starts");
    let socket = server.socket().to_path_buf();
    // The poll thread, and one connection thread waiting in `accept`.
    assert_eq!(threads(), before + 2);

    // Six clients answered at once fill the bound of 4 + 2: six threads
    // serve them and a seventh waits in `accept`.
    let mut burst: Vec<Client> = (0..6)
        .map(|_| {
            let mut client = Client::connect(&socket).expect("connect");
            client.stats().expect("served");
            client
        })
        .collect();
    assert_eq!(threads(), before + 1 + 7);

    // One more is answered `busy` unread, and no thread starts for it.
    let targets = [("a.cnf".to_string(), "[mysqld]\n".to_string())];
    let reply = Client::connect(&socket)
        .expect("connect")
        .check("mysql", &targets)
        .expect("answered");
    assert_eq!(reply, CheckReply::Busy);
    assert_eq!(threads(), before + 1 + 7);
    let stats = burst[0].stats().expect("stats");
    for line in ["rejected_busy 1", "requests 7"] {
        assert!(
            stats.iter().any(|l| l == line),
            "`{line}` missing: {stats:?}"
        );
    }

    // Once the burst hangs up, the surplus threads stop.
    drop(burst);
    assert_eq!(settle(before + 1 + IDLE), before + 1 + IDLE);

    drop(server);
    assert_eq!(settle(before), before, "the stop joined every thread");
    encore_obs::event::shutdown();

    // Six `stats` from the burst and one after the refusal: ids 1..=7.
    let text = std::fs::read_to_string(&events).expect("event log");
    let mut ids: Vec<u64> = text
        .lines()
        .map(|line| json::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}")))
        .filter(|event| event.get("event").and_then(Json::as_str) == Some("request.done"))
        .map(|event| event.get("req").and_then(Json::as_u64).expect("req"))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=7).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}
