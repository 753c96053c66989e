//! Parsing metrics for the assembly phase: files parsed, key–value entries
//! produced, and parse failures, measured at the [`LensRegistry`] dispatch
//! point, `LensRegistry::parse_into` (direct `Lens` calls bypass the
//! registry and are not counted).  `encore-assemble` registers them, first, in its `assemble`
//! phase.
//!
//! [`LensRegistry`]: crate::LensRegistry

use encore_obs::{Counter, Timer};

/// Configuration files handed to a registered lens.
pub static PARSE_CALLS: Counter = Counter::new("assemble.parse.files");
/// Key–value entries the lenses produced.
pub static PARSE_ENTRIES: Counter = Counter::new("assemble.parse.entries");
/// Parse failures (missing lens or lens error).
pub static PARSE_ERRORS: Counter = Counter::new("assemble.parse.errors");
/// Wall time inside lens parsing.
pub static PARSE_TIME: Timer = Timer::new("assemble.parse.time");
