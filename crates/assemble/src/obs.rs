//! Assembly-phase metrics: rows assembled, how each entry's type was
//! resolved (custom, semantically verified, purely syntactic, or trivial
//! fallback), and how many augmented attributes the environment
//! integration added.  The [`ASSEMBLE`] phase registers the parser's
//! four instruments (`encore_parser::obs`) ahead of the assembler's own,
//! since both crates feed the one `assemble` report section.
//!
//! All counters here are pure work counts — assembly is single-threaded
//! per system, so the totals are deterministic for a given corpus.

use encore_obs::{Counter, Metric, Phase, Timer};
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
/// Entries resolved by syntactic matching alone (no environment lookup).
pub static TYPES_SYNTACTIC: Counter = Counter::new("assemble.types.syntactic");
/// Entries that fell through every candidate to the trivial `Str` type.
pub static TYPES_TRIVIAL: Counter = Counter::new("assemble.types.trivial");
/// Augmented attributes added by environment integration (§4.3).
pub static AUGMENTED_ATTRS: Counter = Counter::new("assemble.augment.attrs");
/// Attribute columns pivoted into the columnar store.
pub static COLUMNS_BUILT: Counter = Counter::new("assemble.columns.built");
/// Distinct values interned while building the columnar store.
pub static VALUES_INTERNED: Counter = Counter::new("assemble.values.interned");
/// Wall time assembling rows (parsing excluded — see
/// `assemble.parse.time`).
pub static ASSEMBLE_TIME: Timer = Timer::new("assemble.rows.time");
/// Wall time pivoting the dataset into the columnar store.
pub static COLUMNS_TIME: Timer = Timer::new("assemble.columns.time");

/// The assembly phase: the parser's instruments first, then the
/// assembler's, in report order.
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
    ],
};
