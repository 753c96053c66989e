//! Assembly-phase metrics: rows assembled, how each entry's type was
//! resolved (custom, semantically verified, purely syntactic, or one of
//! the trivial `Str`/`Number`), and how many augmented attributes the
//! environment integration added.  The [`ASSEMBLE`] phase registers the parser's
//! four instruments (`encore_parser::obs`) ahead of the assembler's own,
//! since both crates feed the one `assemble` report section.
//!
//! All counters here are pure work counts — assembly is single-threaded
//! per system, so the totals are deterministic for a given corpus.  A
//! training set assembles its images on the worker pool (`encore::pool`),
//! which reports into the `assemble.pool.*` set below; like the `infer`
//! and `detect` pool sets, only `units_run` counts work, the rest is
//! scheduling-dependent.

use encore_obs::{Counter, Gauge, Metric, Phase, Timer};
use encore_parser::obs::{PARSE_CALLS, PARSE_ENTRIES, PARSE_ERRORS, PARSE_TIME};

/// Systems assembled into dataset rows.
pub static ROWS_ASSEMBLED: Counter = Counter::new("assemble.rows.assembled");
/// Configuration entries that received a type and a cell.
pub static ENTRIES_TYPED: Counter = Counter::new("assemble.entries.typed");
/// Entries typed by a user-registered custom type (§5.3).
pub static TYPES_CUSTOM: Counter = Counter::new("assemble.types.custom");
/// Entries whose winning type needed semantic verification against the
/// environment (§4.2 step two).
pub static TYPES_SEMANTIC: Counter = Counter::new("assemble.types.semantic");
/// Entries resolved to a nontrivial type by syntactic matching alone (no
/// environment lookup).
pub static TYPES_SYNTACTIC: Counter = Counter::new("assemble.types.syntactic");
/// Entries typed as one of the two trivial types, `Str` or `Number`: the
/// split of Table 11's "nontrivial" column.
pub static TYPES_TRIVIAL: Counter = Counter::new("assemble.types.trivial");
/// Augmented attributes added by environment integration (§4.3): each
/// cell sink counts, once per finished system, the distinct environment
/// attributes the system holds.
pub static AUGMENTED_ATTRS: Counter = Counter::new("assemble.augment.attrs");
/// Attribute columns pivoted into the columnar store.
pub static COLUMNS_BUILT: Counter = Counter::new("assemble.columns.built");
/// Distinct values interned while building the columnar store.
pub static VALUES_INTERNED: Counter = Counter::new("assemble.values.interned");
/// Time assembling rows (parsing excluded — see `assemble.parse.time`),
/// summed over every thread that assembles: on the worker pool it exceeds
/// the wall time.
pub static ASSEMBLE_TIME: Timer = Timer::new("assemble.rows.time");
/// Wall time merging a training set's encoded rows into the columnar
/// store.  Encoding each row runs on the assembly pool, so it counts
/// toward `assemble.pool.worker_busy` instead.
pub static COLUMNS_TIME: Timer = Timer::new("assemble.columns.time");

/// Training images handed to the assembly pool.
pub static POOL_UNITS_RUN: Counter = Counter::new("assemble.pool.units_run");
/// Worker threads of the last training-set assembly (gauge).
pub static POOL_WORKERS: Gauge = Gauge::new("assemble.pool.workers");
/// Images assembled by the busiest worker of the last run.
pub static POOL_BUSIEST_WORKER_UNITS: Gauge = Gauge::new("assemble.pool.busiest_worker_units");
/// Images assembled by the idlest worker of the last run.
pub static POOL_IDLEST_WORKER_UNITS: Gauge = Gauge::new("assemble.pool.idlest_worker_units");
/// Images that landed on workers other than worker 0 in the last run.
pub static POOL_STOLEN_UNITS: Gauge = Gauge::new("assemble.pool.stolen_units");
/// Per-worker busy time inside training-set assembly.
pub static POOL_WORKER_BUSY: Timer = Timer::new("assemble.pool.worker_busy");

/// The assembly phase: the parser's instruments first, then the
/// assembler's, then the assembly pool's, in report order.
pub static ASSEMBLE: Phase = Phase {
    name: "assemble",
    metrics: &[
        Metric::Counter(&PARSE_CALLS),
        Metric::Counter(&PARSE_ENTRIES),
        Metric::Counter(&PARSE_ERRORS),
        Metric::Timer(&PARSE_TIME),
        Metric::Counter(&ROWS_ASSEMBLED),
        Metric::Counter(&ENTRIES_TYPED),
        Metric::Counter(&TYPES_CUSTOM),
        Metric::Counter(&TYPES_SEMANTIC),
        Metric::Counter(&TYPES_SYNTACTIC),
        Metric::Counter(&TYPES_TRIVIAL),
        Metric::Counter(&AUGMENTED_ATTRS),
        Metric::Counter(&COLUMNS_BUILT),
        Metric::Counter(&VALUES_INTERNED),
        Metric::Timer(&ASSEMBLE_TIME),
        Metric::Timer(&COLUMNS_TIME),
        Metric::Counter(&POOL_UNITS_RUN),
        Metric::Gauge(&POOL_WORKERS),
        Metric::Gauge(&POOL_BUSIEST_WORKER_UNITS),
        Metric::Gauge(&POOL_IDLEST_WORKER_UNITS),
        Metric::Gauge(&POOL_STOLEN_UNITS),
        Metric::Timer(&POOL_WORKER_BUSY),
    ],
};
