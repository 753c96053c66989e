//! Pipeline observability: the core crate's instruments plus the
//! whole-pipeline roll-up.
//!
//! Metric statics for the four phases this crate owns — `infer`, `stats`,
//! `filter`, `detect` — live here, referenced from the corresponding
//! modules; [`pipeline_report`] stitches them together with the upstream
//! crates' snapshots (`collect` from `encore-sysimage`, `assemble` from
//! `encore-parser` + `encore-assemble`) into one [`PipelineReport`].  The
//! report always carries all six phase sections, zero-valued when a phase
//! did not run, so consumers can key on phase names unconditionally.
//!
//! Determinism discipline (see DESIGN.md §9): [`Counter`]s and
//! [`Histogram`]s count *work*, which is identical across worker counts;
//! anything scheduling-dependent — worker counts, per-worker load, wall
//! time — is a [`Gauge`] or [`Timer`].  `tests/determinism.rs` enforces
//! the split.

pub use encore_obs::delta::{DeltaPolicy, Gate, ReportDelta, Violation};
pub use encore_obs::profile::ProfileTable;
pub use encore_obs::{
    delta, disable, enable, enable_from_env, enabled, event, expose, json, profile, trace, Counter,
    Gauge, Histogram, HistogramSnapshot, PhaseReport, PipelineReport, Timer, TimerSnapshot,
};

use encore_obs::INDEX_BOUNDS;

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

/// Snapshot of the `infer` phase.
fn infer_phase() -> PhaseReport {
    PhaseReport::new("infer")
        .counter(&INFER_TEMPLATES)
        .counter(&INFER_UNITS_TOTAL)
        .counter(&INFER_UNITS_PRUNED)
        .counter(&INFER_PAIRS_EVALUATED)
        .counter(&INFER_CANDIDATES)
        .counter(&INFER_CANDIDATES_DEDUPED)
        .counter(&POOL_UNITS_RUN)
        .gauge(&POOL_WORKERS)
        .gauge(&POOL_BUSIEST_WORKER_UNITS)
        .gauge(&POOL_IDLEST_WORKER_UNITS)
        .gauge(&POOL_STOLEN_UNITS)
        .timer(&POOL_WORKER_BUSY)
        .timer(&INFER_TIME)
        .histogram(&INFER_CANDIDATES_BY_TEMPLATE)
}

/// Snapshot of the `stats` phase.
fn stats_phase() -> PhaseReport {
    PhaseReport::new("stats")
        .counter(&STATS_ATTRIBUTES)
        .timer(&STATS_BUILD_TIME)
        .histogram(&STATS_ENTROPY_HITS)
        .histogram(&STATS_ENTROPY_MISSES)
}

/// Snapshot of the `filter` phase.
fn filter_phase() -> PhaseReport {
    PhaseReport::new("filter")
        .counter(&FILTER_ACCEPTED)
        .counter(&FILTER_REJECTED_SUPPORT)
        .counter(&FILTER_REJECTED_CONFIDENCE)
        .counter(&FILTER_REJECTED_ENTROPY)
        .timer(&FILTER_TIME)
}

/// Snapshot of the `detect` phase.
fn detect_phase() -> PhaseReport {
    PhaseReport::new("detect")
        .counter(&DETECT_SYSTEMS_CHECKED)
        .counter(&DETECT_UNKNOWN_ENTRY)
        .counter(&DETECT_CORRELATION)
        .counter(&DETECT_TYPE)
        .counter(&DETECT_SUSPICIOUS)
        .counter(&DETECT_INDEX_RULES_EVALUATED)
        .counter(&DETECT_INDEX_RULES_SKIPPED)
        .counter(&DETECT_FLEET_SYSTEMS)
        .counter(&DETECT_FLEET_BATCHES)
        .counter(&DETECT_POOL_UNITS_RUN)
        .gauge(&DETECT_POOL_WORKERS)
        .gauge(&DETECT_POOL_BUSIEST_WORKER_UNITS)
        .gauge(&DETECT_POOL_IDLEST_WORKER_UNITS)
        .gauge(&DETECT_POOL_STOLEN_UNITS)
        .timer(&DETECT_POOL_WORKER_BUSY)
        .timer(&DETECT_TIME)
        .histogram(&DETECT_WARNINGS_PER_SYSTEM)
}

/// Roll up the whole pipeline: all six phase sections, in pipeline order,
/// present even when zero-valued.
pub fn pipeline_report() -> PipelineReport {
    PipelineReport {
        phases: vec![
            encore_sysimage::obs::phase_report(),
            encore_parser::obs::phase_report().merge(encore_assemble::obs::phase_report()),
            infer_phase(),
            stats_phase(),
            filter_phase(),
            detect_phase(),
        ],
    }
}

/// Bucket bounds for every histogram this crate family exposes, by sink
/// metric name.  Reports carry counts but not bounds; exposition and
/// cycle deltas need them back (see
/// [`PipelineReport::delta_since`] and [`expose::render`]).
pub fn histogram_bounds(name: &str) -> Option<&'static [u64]> {
    match name {
        "infer.candidates.by_template" => Some(INFER_CANDIDATES_BY_TEMPLATE.bounds()),
        "stats.entropy.memo_hits" => Some(STATS_ENTROPY_HITS.bounds()),
        "stats.entropy.memo_misses" => Some(STATS_ENTROPY_MISSES.bounds()),
        "detect.warnings.per_system" => Some(DETECT_WARNINGS_PER_SYSTEM.bounds()),
        _ => None,
    }
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

/// Render the top-`k` cost table as human-readable text.
pub fn render_profile_text(k: usize) -> String {
    profile::render_text(&profile_sections(), k)
}

/// Render the full cost tables (every row, coverage included) as JSON.
pub fn render_profile_json() -> String {
    profile::render_json(&profile_sections())
}

/// Reset every pipeline instrument across all crates (the sink flag is
/// left as-is).
pub fn reset() {
    encore_sysimage::obs::reset();
    encore_parser::obs::reset();
    encore_assemble::obs::reset();
    for counter in [
        &INFER_TEMPLATES,
        &INFER_UNITS_TOTAL,
        &INFER_UNITS_PRUNED,
        &INFER_PAIRS_EVALUATED,
        &INFER_CANDIDATES,
        &INFER_CANDIDATES_DEDUPED,
        &POOL_UNITS_RUN,
        &STATS_ATTRIBUTES,
        &FILTER_ACCEPTED,
        &FILTER_REJECTED_SUPPORT,
        &FILTER_REJECTED_CONFIDENCE,
        &FILTER_REJECTED_ENTROPY,
        &DETECT_SYSTEMS_CHECKED,
        &DETECT_UNKNOWN_ENTRY,
        &DETECT_CORRELATION,
        &DETECT_TYPE,
        &DETECT_SUSPICIOUS,
        &DETECT_INDEX_RULES_EVALUATED,
        &DETECT_INDEX_RULES_SKIPPED,
        &DETECT_FLEET_SYSTEMS,
        &DETECT_FLEET_BATCHES,
        &DETECT_POOL_UNITS_RUN,
    ] {
        counter.reset();
    }
    for gauge in [
        &POOL_WORKERS,
        &POOL_BUSIEST_WORKER_UNITS,
        &POOL_IDLEST_WORKER_UNITS,
        &POOL_STOLEN_UNITS,
        &DETECT_POOL_WORKERS,
        &DETECT_POOL_BUSIEST_WORKER_UNITS,
        &DETECT_POOL_IDLEST_WORKER_UNITS,
        &DETECT_POOL_STOLEN_UNITS,
    ] {
        gauge.reset();
    }
    for timer in [
        &POOL_WORKER_BUSY,
        &INFER_TIME,
        &STATS_BUILD_TIME,
        &FILTER_TIME,
        &DETECT_TIME,
        &DETECT_POOL_WORKER_BUSY,
    ] {
        timer.reset();
    }
    INFER_CANDIDATES_BY_TEMPLATE.reset();
    STATS_ENTROPY_HITS.reset();
    STATS_ENTROPY_MISSES.reset();
    DETECT_WARNINGS_PER_SYSTEM.reset();
    INFER_TEMPLATE_PROFILE.reset();
    DETECT_BUCKET_PROFILE.reset();
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
