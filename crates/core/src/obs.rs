//! Pipeline observability: the core crate's instruments, the
//! whole-pipeline roll-up, and the one observability config every binary
//! starts and finishes.
//!
//! Metric statics for the four phases this crate owns — `infer`, `stats`,
//! `filter`, `detect` — live here, each listed once in its [`Phase`];
//! `PIPELINE` orders them after the upstream crates' phases (`collect`
//! from `encore-sysimage`, `assemble` from `encore-assemble`, which also
//! registers the parser's instruments).  [`pipeline_report`], [`reset`]
//! and [`histogram_bounds`] walk that list.  The report always carries all
//! six phase sections, zero-valued when a phase did not run, so consumers
//! can key on phase names unconditionally.
//!
//! Determinism discipline (see DESIGN.md §9): [`Counter`]s and
//! [`Histogram`]s count *work*, which is identical across worker counts;
//! anything scheduling-dependent — worker counts, per-worker load, wall
//! time — is a [`Gauge`] or [`Timer`].  `tests/determinism.rs` enforces
//! the split.

pub use encore_obs::delta::{DeltaPolicy, Gate, ReportDelta, Violation};
pub use encore_obs::profile::ProfileTable;
pub use encore_obs::{
    delta, disable, enable, enabled, event, expose, json, profile, trace, Counter, Gauge,
    Histogram, HistogramSnapshot, Metric, Phase, PhaseReport, PipelineReport, Timer, TimerSnapshot,
};

use encore_assemble::obs::ASSEMBLE;
use encore_obs::INDEX_BOUNDS;
use encore_sysimage::obs::COLLECT;
use std::io::Write;
use std::path::PathBuf;

// ---- infer: template instantiation over the work-stealing pool ----

/// Templates handed to an inference run.
pub static INFER_TEMPLATES: Counter = Counter::new("infer.templates.instantiated");
/// `(template, a-chunk)` work units before pruning.
pub static INFER_UNITS_TOTAL: Counter = Counter::new("infer.units.total");
/// Units dropped by the eligibility-bitset liveness check.
pub static INFER_UNITS_PRUNED: Counter = Counter::new("infer.units.pruned");
/// Slot pairs passing the structural `pair_considered` filters.
pub static INFER_PAIRS_EVALUATED: Counter = Counter::new("infer.pairs.evaluated");
/// Candidate rules emitted by instantiation (before dedup).
pub static INFER_CANDIDATES: Counter = Counter::new("infer.candidates.emitted");
/// Duplicate candidates dropped by first-seen dedup.
pub static INFER_CANDIDATES_DEDUPED: Counter = Counter::new("infer.candidates.deduped");
/// Candidates per template index (templates beyond 15 land in overflow).
pub static INFER_CANDIDATES_BY_TEMPLATE: Histogram =
    Histogram::new("infer.candidates.by_template", &INDEX_BOUNDS);
/// Units the pool actually ran (total across workers).
pub static POOL_UNITS_RUN: Counter = Counter::new("infer.pool.units_run");
/// Worker threads of the last pool run (scheduling-dependent: gauge).
pub static POOL_WORKERS: Gauge = Gauge::new("infer.pool.workers");
/// Units run by the busiest worker of the last run.
pub static POOL_BUSIEST_WORKER_UNITS: Gauge = Gauge::new("infer.pool.busiest_worker_units");
/// Units run by the idlest worker of the last run.
pub static POOL_IDLEST_WORKER_UNITS: Gauge = Gauge::new("infer.pool.idlest_worker_units");
/// Units that landed on workers other than worker 0 in the last run — how
/// much work the stealing actually spread.
pub static POOL_STOLEN_UNITS: Gauge = Gauge::new("infer.pool.stolen_units");
/// Per-worker busy time inside the pool loop.
pub static POOL_WORKER_BUSY: Timer = Timer::new("infer.pool.worker_busy");
/// Wall time of whole inference passes (candidate generation).
pub static INFER_TIME: Timer = Timer::new("infer.time");
/// Per-template cost attribution: self-time, pairs evaluated, and
/// candidates emitted per template (keys are the template display form).
/// Populated only while [`profile::enabled`]; the rows must account for
/// ≥95% of `infer.time` (DESIGN.md §16).
pub static INFER_TEMPLATE_PROFILE: ProfileTable = ProfileTable::new("infer.templates");

/// The pool instrument bundle for the `infer` phase (the pool's historical
/// default caller).
pub static INFER_POOL_METRICS: crate::pool::PoolMetrics = crate::pool::PoolMetrics {
    units_run: &POOL_UNITS_RUN,
    workers: &POOL_WORKERS,
    busiest_worker_units: &POOL_BUSIEST_WORKER_UNITS,
    idlest_worker_units: &POOL_IDLEST_WORKER_UNITS,
    stolen_units: &POOL_STOLEN_UNITS,
    worker_busy: &POOL_WORKER_BUSY,
};

// ---- stats: the sharded entropy memo ----

/// Attributes resolved into a stats cache.
pub static STATS_ATTRIBUTES: Counter = Counter::new("stats.cache.attributes");
/// Entropy-memo hits, bucketed by shard index.
pub static STATS_ENTROPY_HITS: Histogram = Histogram::new("stats.entropy.memo_hits", &INDEX_BOUNDS);
/// Entropy-memo misses (fresh computations), bucketed by shard index.
pub static STATS_ENTROPY_MISSES: Histogram =
    Histogram::new("stats.entropy.memo_misses", &INDEX_BOUNDS);
/// Wall time building stats caches.
pub static STATS_BUILD_TIME: Timer = Timer::new("stats.cache.build");

// ---- filter: §5.2 rule admission ----

/// Candidates accepted into the rule set.
pub static FILTER_ACCEPTED: Counter = Counter::new("filter.accepted");
/// Candidates rejected for low support.
pub static FILTER_REJECTED_SUPPORT: Counter = Counter::new("filter.rejected.support");
/// Candidates rejected for low confidence.
pub static FILTER_REJECTED_CONFIDENCE: Counter = Counter::new("filter.rejected.confidence");
/// Candidates rejected for low entropy.
pub static FILTER_REJECTED_ENTROPY: Counter = Counter::new("filter.rejected.entropy");
/// Wall time judging candidate lists.
pub static FILTER_TIME: Timer = Timer::new("filter.time");

// ---- detect: the four warning classes of §6 ----

/// Systems checked by the anomaly detector.
pub static DETECT_SYSTEMS_CHECKED: Counter = Counter::new("detect.systems.checked");
/// Unknown-entry warnings emitted.
pub static DETECT_UNKNOWN_ENTRY: Counter = Counter::new("detect.warnings.unknown_entry");
/// Correlation-violation warnings emitted.
pub static DETECT_CORRELATION: Counter = Counter::new("detect.warnings.correlation");
/// Type-violation warnings emitted.
pub static DETECT_TYPE: Counter = Counter::new("detect.warnings.type");
/// Suspicious-value warnings emitted.
pub static DETECT_SUSPICIOUS: Counter = Counter::new("detect.warnings.suspicious_value");
/// Wall time inside detector checks.  Systems/sec for a batch is
/// `detect.systems.checked / detect.time` in the rolled-up report.
pub static DETECT_TIME: Timer = Timer::new("detect.time");
/// Correlation rules actually evaluated after the attribute-presence index
/// pruned the candidate list.
pub static DETECT_INDEX_RULES_EVALUATED: Counter = Counter::new("detect.index.rules_evaluated");
/// Correlation rules the index skipped (some slot attribute absent from the
/// target row — a full scan would have evaluated them to `NotApplicable`).
pub static DETECT_INDEX_RULES_SKIPPED: Counter = Counter::new("detect.index.rules_skipped");
/// Warnings per checked system (counts work: scheduling-independent).
pub static DETECT_WARNINGS_PER_SYSTEM: Histogram =
    Histogram::new("detect.warnings.per_system", &INDEX_BOUNDS);
/// Target systems handed to `check_fleet` batches.
pub static DETECT_FLEET_SYSTEMS: Counter = Counter::new("detect.fleet.systems");
/// `check_fleet` batches run.
pub static DETECT_FLEET_BATCHES: Counter = Counter::new("detect.fleet.batches");
/// Fleet-batch units handed to the detect pool.
pub static DETECT_POOL_UNITS_RUN: Counter = Counter::new("detect.pool.units_run");
/// Worker threads of the last fleet batch (scheduling-dependent: gauge).
pub static DETECT_POOL_WORKERS: Gauge = Gauge::new("detect.pool.workers");
/// Systems checked by the busiest worker of the last fleet batch.
pub static DETECT_POOL_BUSIEST_WORKER_UNITS: Gauge = Gauge::new("detect.pool.busiest_worker_units");
/// Systems checked by the idlest worker of the last fleet batch.
pub static DETECT_POOL_IDLEST_WORKER_UNITS: Gauge = Gauge::new("detect.pool.idlest_worker_units");
/// Systems that landed on workers other than worker 0 in the last batch.
pub static DETECT_POOL_STOLEN_UNITS: Gauge = Gauge::new("detect.pool.stolen_units");
/// Per-worker busy time inside fleet batches.
pub static DETECT_POOL_WORKER_BUSY: Timer = Timer::new("detect.pool.worker_busy");
/// Per-A-slot-bucket cost attribution in the [`DetectorIndex`]: rule
/// evaluation self-time, rules checked, and violations per bucket (keys
/// are the A-slot attribute display form).  Populated only while
/// [`profile::enabled`].
///
/// [`DetectorIndex`]: crate::detect::AnomalyDetector
pub static DETECT_BUCKET_PROFILE: ProfileTable = ProfileTable::new("detect.buckets");

/// The pool instrument bundle for `detect`-phase fleet batches.
pub static DETECT_POOL_METRICS: crate::pool::PoolMetrics = crate::pool::PoolMetrics {
    units_run: &DETECT_POOL_UNITS_RUN,
    workers: &DETECT_POOL_WORKERS,
    busiest_worker_units: &DETECT_POOL_BUSIEST_WORKER_UNITS,
    idlest_worker_units: &DETECT_POOL_IDLEST_WORKER_UNITS,
    stolen_units: &DETECT_POOL_STOLEN_UNITS,
    worker_busy: &DETECT_POOL_WORKER_BUSY,
};

/// The `infer` phase.
pub(crate) static INFER: Phase = Phase {
    name: "infer",
    metrics: &[
        Metric::Counter(&INFER_TEMPLATES),
        Metric::Counter(&INFER_UNITS_TOTAL),
        Metric::Counter(&INFER_UNITS_PRUNED),
        Metric::Counter(&INFER_PAIRS_EVALUATED),
        Metric::Counter(&INFER_CANDIDATES),
        Metric::Counter(&INFER_CANDIDATES_DEDUPED),
        Metric::Counter(&POOL_UNITS_RUN),
        Metric::Gauge(&POOL_WORKERS),
        Metric::Gauge(&POOL_BUSIEST_WORKER_UNITS),
        Metric::Gauge(&POOL_IDLEST_WORKER_UNITS),
        Metric::Gauge(&POOL_STOLEN_UNITS),
        Metric::Timer(&POOL_WORKER_BUSY),
        Metric::Timer(&INFER_TIME),
        Metric::Histogram(&INFER_CANDIDATES_BY_TEMPLATE),
        Metric::Profile(&INFER_TEMPLATE_PROFILE),
    ],
};

/// The `stats` phase.
pub(crate) static STATS: Phase = Phase {
    name: "stats",
    metrics: &[
        Metric::Counter(&STATS_ATTRIBUTES),
        Metric::Timer(&STATS_BUILD_TIME),
        Metric::Histogram(&STATS_ENTROPY_HITS),
        Metric::Histogram(&STATS_ENTROPY_MISSES),
    ],
};

/// The `filter` phase.
pub(crate) static FILTER: Phase = Phase {
    name: "filter",
    metrics: &[
        Metric::Counter(&FILTER_ACCEPTED),
        Metric::Counter(&FILTER_REJECTED_SUPPORT),
        Metric::Counter(&FILTER_REJECTED_CONFIDENCE),
        Metric::Counter(&FILTER_REJECTED_ENTROPY),
        Metric::Timer(&FILTER_TIME),
    ],
};

/// The `detect` phase.
pub(crate) static DETECT: Phase = Phase {
    name: "detect",
    metrics: &[
        Metric::Counter(&DETECT_SYSTEMS_CHECKED),
        Metric::Counter(&DETECT_UNKNOWN_ENTRY),
        Metric::Counter(&DETECT_CORRELATION),
        Metric::Counter(&DETECT_TYPE),
        Metric::Counter(&DETECT_SUSPICIOUS),
        Metric::Counter(&DETECT_INDEX_RULES_EVALUATED),
        Metric::Counter(&DETECT_INDEX_RULES_SKIPPED),
        Metric::Counter(&DETECT_FLEET_SYSTEMS),
        Metric::Counter(&DETECT_FLEET_BATCHES),
        Metric::Counter(&DETECT_POOL_UNITS_RUN),
        Metric::Gauge(&DETECT_POOL_WORKERS),
        Metric::Gauge(&DETECT_POOL_BUSIEST_WORKER_UNITS),
        Metric::Gauge(&DETECT_POOL_IDLEST_WORKER_UNITS),
        Metric::Gauge(&DETECT_POOL_STOLEN_UNITS),
        Metric::Timer(&DETECT_POOL_WORKER_BUSY),
        Metric::Timer(&DETECT_TIME),
        Metric::Histogram(&DETECT_WARNINGS_PER_SYSTEM),
        Metric::Profile(&DETECT_BUCKET_PROFILE),
    ],
};

/// Every pipeline phase, in pipeline order.
pub(crate) static PIPELINE: [&Phase; 6] = [&COLLECT, &ASSEMBLE, &INFER, &STATS, &FILTER, &DETECT];

/// Roll up the whole pipeline: all six phase sections, in pipeline order,
/// present even when zero-valued.
pub fn pipeline_report() -> PipelineReport {
    PipelineReport {
        phases: PIPELINE.iter().map(|phase| phase.report()).collect(),
    }
}

/// Bucket bounds for every pipeline histogram, by sink metric name.
/// Reports carry counts but not bounds; exposition and cycle deltas need
/// them back (see [`PipelineReport::delta_since`] and [`expose::render`]).
pub fn histogram_bounds(name: &str) -> Option<&'static [u64]> {
    PIPELINE.iter().find_map(|phase| phase.bounds(name))
}

/// Reset every pipeline instrument across all crates, profile tables
/// included (the gates are left as-is).
pub fn reset() {
    PIPELINE.iter().for_each(|phase| phase.reset());
}

/// The profiler's report sections: the per-template table referenced
/// against the `infer.time` wall timer (the ≥95% coverage invariant),
/// plus the detector-index bucket table.
fn profile_sections() -> [profile::Section<'static>; 2] {
    [
        profile::Section {
            table: &INFER_TEMPLATE_PROFILE,
            reference: Some(("infer.time", INFER_TIME.total_nanos())),
        },
        profile::Section {
            table: &DETECT_BUCKET_PROFILE,
            reference: None,
        },
    ]
}

/// Where a binary's observability outputs go, parsed once from its flags
/// and the environment.  [`ObsConfig::start`] runs before any pipeline
/// work and [`ObsConfig::finish`] before exit; together they are the only
/// production code that flips the four runtime gates (sink, trace ring,
/// event log, profiler), each of which guards a different cost.
#[derive(Debug, Default)]
pub struct ObsConfig {
    /// `--report FILE`: the pipeline report as JSON.
    pub report: Option<PathBuf>,
    /// `--trace-out FILE`: every recorded timer span as a Chrome
    /// trace-viewer / Perfetto JSON trace, with a per-phase summary lane.
    pub trace_out: Option<PathBuf>,
    /// `--event-log FILE`: the request-scoped JSONL event log (appended).
    pub event_log: Option<PathBuf>,
    /// `--profile FILE`: the cost tables as JSON, plus the top-10 rows as
    /// text on stderr.
    pub profile: Option<PathBuf>,
    /// `ENCORE_TRACE`: print the pipeline report as text on stderr.
    pub print_report: bool,
}

impl ObsConfig {
    /// No output files; `print_report` is set when the `ENCORE_TRACE`
    /// environment variable is truthy (`1`, `true`, `on`, `yes`;
    /// case-insensitive).
    pub fn from_env() -> ObsConfig {
        let truthy =
            |v: String| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes");
        ObsConfig {
            print_report: std::env::var("ENCORE_TRACE").is_ok_and(truthy),
            ..ObsConfig::default()
        }
    }

    /// Turn on what the outputs need: the sink for any report, trace or
    /// profile (the profiler's coverage reference is the `infer.time`
    /// timer), then the trace ring, the event log and the profiler, so
    /// that training already lands in all of them.
    ///
    /// # Errors
    ///
    /// The event log cannot be opened.
    pub fn start(&self) -> Result<(), String> {
        if self.print_report
            || self.report.is_some()
            || self.trace_out.is_some()
            || self.profile.is_some()
        {
            enable();
        }
        if self.trace_out.is_some() {
            trace::start_recording(0);
        }
        if let Some(path) = &self.event_log {
            event::install(path)
                .map_err(|e| format!("cannot open event log `{}`: {e}", path.display()))?;
        }
        if self.profile.is_some() {
            profile::enable();
        }
        Ok(())
    }

    /// Print or write the pipeline report, the Chrome trace and the
    /// profile (each file replaced atomically), then drain the event log,
    /// whose writer thread `process::exit` would otherwise cut off.
    ///
    /// # Errors
    ///
    /// An output file cannot be written; the event log is drained anyway.
    pub fn finish(&self) -> Result<(), String> {
        let report = pipeline_report();
        // Best-effort: a reader that closed stderr must not turn a
        // finished run into a panic.
        let mut stderr = std::io::stderr();
        if self.print_report {
            let _ = write!(stderr, "{}", report.render_text());
        }
        let sections = profile_sections();
        let written = write_output("report", &self.report, || report.render_json())
            .and_then(|()| {
                write_output("trace", &self.trace_out, || {
                    trace::render_chrome_json(Some(&report))
                })
            })
            .and_then(|()| {
                write_output("profile", &self.profile, || profile::render_json(&sections))
            });
        if written.is_ok() && self.profile.is_some() {
            let _ = write!(stderr, "{}", profile::render_text(&sections, 10));
        }
        event::shutdown();
        written
    }
}

/// Replace `path`, when set, with `render()`'s output.
fn write_output(
    what: &str,
    path: &Option<PathBuf>,
    render: impl FnOnce() -> String,
) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    crate::write_atomically(path, render())
        .map_err(|e| format!("cannot write {what} to `{}`: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_always_carries_all_six_phases() {
        let report = pipeline_report();
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["collect", "assemble", "infer", "stats", "filter", "detect"]
        );
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = pipeline_report();
        let parsed = PipelineReport::parse_json(&report.render_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_env_recognizes_truthy_values() {
        // Sequential within one test: env mutation is process-global.
        for (value, expected) in [
            (None, false),
            (Some("0"), false),
            (Some("1"), true),
            (Some("on"), true),
            (Some("TRUE"), true),
        ] {
            match value {
                Some(v) => std::env::set_var("ENCORE_TRACE", v),
                None => std::env::remove_var("ENCORE_TRACE"),
            }
            assert_eq!(ObsConfig::from_env().print_report, expected, "{value:?}");
        }
        std::env::remove_var("ENCORE_TRACE");
    }

    #[test]
    fn histogram_bounds_covers_every_exposed_histogram() {
        for phase in &pipeline_report().phases {
            for (name, snap) in &phase.histograms {
                let bounds = histogram_bounds(name)
                    .unwrap_or_else(|| panic!("no bounds registered for histogram `{name}`"));
                assert_eq!(
                    bounds.len() + 1,
                    snap.counts.len(),
                    "bounds mismatch for `{name}`"
                );
            }
        }
    }
}
