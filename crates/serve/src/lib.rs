//! `encore-serve`: the long-running, multi-tenant detection daemon.
//!
//! The batch pipeline answers "is this fleet misconfigured *right now*";
//! this crate keeps the answer warm.  A [`SnapshotRegistry`] holds named
//! detectors — mysql, apache, php — loaded side by side from persisted
//! [`DetectorSnapshot`](encore::DetectorSnapshot) files, each hot-reloaded
//! independently when its file changes; a failing reload
//! keeps the old detector serving and flips only that app's readiness.
//!
//! Targets arrive from two sources.  Clients speak a line-delimited
//! protocol over a unix socket ([`protocol`]): `check <app>` with
//! length-prefixed config payloads, answered with report bodies
//! byte-identical to a direct
//! [`check_fleet`](encore::AnomalyDetector::check_fleet) call, plus the
//! admin verbs `apps`, `reload`, `stats`, and `shutdown`.  A watched
//! directory ([`watch`], `--watch NAME=DIR`) feeds one registered app: each
//! poll tick re-checks its added and changed files and prints their
//! reports.
//!
//! A check from either source runs on the thread that read it, once it
//! holds the service's one check slot, so fleet checks run one at a time
//! on the work-stealing detection pool.  A client's connection is served
//! by the thread its `connect` woke, which then waits for the next one.
//! Backpressure is explicit: a check that would make more than
//! `queue_capacity` checks wait for the slot is answered `busy` instead of
//! stacking latency, and so is a connection past the few more the server
//! serves at once ([`server`]).
//! One telemetry surface covers the daemon: `/metrics`, `/healthz`, and a
//! per-app `/readyz` over TCP, a JSONL heartbeat per poll tick, and a
//! `serve` phase section of instruments ([`obs`]).
//!
//! See DESIGN.md §15 for the protocol grammar, registry lifecycle, watched
//! directories, and backpressure contract.

pub mod client;
pub mod obs;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod watch;

pub use client::Client;
pub use protocol::{CheckReply, Request, Response, MAX_PAYLOAD, MAX_TARGETS};
pub use registry::{AppStatus, SnapshotRegistry};
pub use server::{ServeOptions, ServeStats, Server, StopFlag};
pub use watch::{target_image, Poller, Scan};
