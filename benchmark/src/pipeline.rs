//! The calls into EnCore's public API that every workload shares, with a
//! span around each layer call, and the per-layer metrics derived from
//! those spans.

use crate::measure::{median, ms, ms_all, Outcome};
use crate::trace::Tracer;
use encore::prelude::*;
use encore::{AnomalyDetector, DetectorSnapshot, FleetOptions, InferOptions, RuleInference};
use encore_assemble::{AssembleError, Assembler};
use encore_model::AppKind;
use encore_sysimage::SystemImage;

/// Every parallel call uses two workers: the benchmark host has two cores.
pub const WORKERS: usize = 2;

/// A learned detector and its rendered snapshot.
pub struct Learned {
    pub detector: AnomalyDetector,
    pub snapshot: String,
}

impl Learned {
    /// FNV-64 of the rendered rule set.
    pub fn fingerprint(&self) -> u64 {
        crate::measure::fnv64([self.detector.rules().render().as_str()])
    }
}

/// Assemble `images`, learn rules, and render the snapshot.
///
/// Untraced this is `TrainingSet::assemble`, `EnCore::try_learn` and
/// `snapshot().render()`.  Traced, `try_learn` is rebuilt from its public
/// parts so each layer gets its own span; the statistics cache is built
/// once more on its own (and discarded) to time that layer, since
/// `try_infer_with` builds its own inside.
pub fn learn(app: AppKind, images: &[SystemImage], t: &mut Tracer) -> Result<Learned, String> {
    if !t.on() {
        let training = TrainingSet::assemble(app, images).map_err(|e| e.to_string())?;
        let options = LearnOptions {
            workers: Some(WORKERS),
            ..LearnOptions::default()
        };
        let engine = EnCore::try_learn(&training, &options).map_err(|e| e.to_string())?;
        let snapshot = engine.snapshot().render();
        return Ok(Learned {
            detector: engine.into_detector(),
            snapshot,
        });
    }
    t.span("learn", |t| {
        let training = t
            .span("assemble", |_| TrainingSet::assemble(app, images))
            .map_err(|e| e.to_string())?;
        t.count("learns", 1);
        t.count("assemble.images", images.len() as u64);
        t.count("assemble.errors", (images.len() - training.len()) as u64);
        let attributes = t.span("stats", |_| training.stats_cache().attributes().len());
        t.count("stats.attributes", attributes as u64);
        let (rules, stats) = t
            .span("infer", |_| {
                RuleInference::new(Template::predefined()).try_infer_with(
                    &training,
                    &FilterThresholds::default(),
                    &InferOptions::with_workers(WORKERS),
                )
            })
            .map_err(|e| e.to_string())?;
        t.count("infer.candidates", stats.candidates as u64);
        t.count("filter.kept", stats.kept as u64);
        t.count("filter.dropped_support", stats.dropped_by_support as u64);
        t.count(
            "filter.dropped_confidence",
            stats.dropped_by_confidence as u64,
        );
        t.count("filter.dropped_entropy", stats.dropped_by_entropy as u64);
        let detector = t.span("detector.build", |_| AnomalyDetector::new(&training, rules));
        let snapshot = t.span("snapshot.render", |_| detector.snapshot().render());
        t.count("snapshot.bytes", snapshot.len() as u64);
        // Freeing the assembled rows and image copies is part of every
        // learn; on 1000 images it is several percent of one.
        t.span("training.drop", |_| drop(training));
        Ok(Learned { detector, snapshot })
    })
}

/// Milliseconds of each of `reps` cold loads of `snapshot`:
/// `DetectorSnapshot::parse` then `AnomalyDetector::from_snapshot`, the
/// work of a service start or a hot reload.
pub fn load_ms(snapshot: &str, reps: usize, t: &mut Tracer) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = std::time::Instant::now();
        let parsed = t.span("snapshot.parse", |_| DetectorSnapshot::parse(snapshot))?;
        let detector = t.span("snapshot.from_snapshot", |_| {
            AnomalyDetector::from_snapshot(parsed)
        });
        times.push(ms(started.elapsed()));
        drop(std::hint::black_box(detector));
    }
    Ok(times)
}

pub type Checked = Vec<Result<Report, AssembleError>>;

/// One `check_fleet` batch over `images`.
pub fn check_fleet(
    detector: &AnomalyDetector,
    app: AppKind,
    images: &[SystemImage],
    t: &mut Tracer,
) -> Checked {
    let results = t.span("fleet", |_| {
        detector.check_fleet(app, images, &FleetOptions::with_workers(WORKERS))
    });
    if t.on() {
        t.count("fleet.targets", images.len() as u64);
        let [unknown, correlation, types, suspicious] = warning_counts(&results);
        t.count("warnings.unknown_entry", unknown);
        t.count("warnings.correlation", correlation);
        t.count("warnings.type", types);
        t.count("warnings.suspicious_value", suspicious);
    }
    results
}

/// The same checks as [`check_fleet`], one target at a time, with the
/// assembly and detection layers in separate spans.
pub fn check_sequential(
    detector: &AnomalyDetector,
    app: AppKind,
    images: &[SystemImage],
    t: &mut Tracer,
) -> Checked {
    let assembler = Assembler::new();
    t.span("check.sequential", |t| {
        images
            .iter()
            .map(|image| {
                let row = t.span("assemble.target", |_| assembler.assemble_image(app, image))?;
                Ok(t.span("detect.check", |_| detector.check(&row, Some(image))))
            })
            .collect::<Checked>()
    })
    .into_iter()
    .inspect(|result| {
        t.count("assemble.images", 1);
        t.count("assemble.errors", u64::from(result.is_err()));
        t.count("detect.targets", u64::from(result.is_ok()));
    })
    .collect()
}

/// Each result as the body `encore-serve` would send for it.
pub fn renders(results: &Checked) -> Vec<String> {
    results
        .iter()
        .map(|result| match result {
            Ok(report) => report.render(),
            Err(e) => format!("assemble error: {e}\n"),
        })
        .collect()
}

/// Warnings by kind, in `WarningKind::ALL` order.
pub fn warning_counts(results: &Checked) -> [u64; 4] {
    let mut counts = [0u64; 4];
    for report in results.iter().flatten() {
        for warning in report.warnings() {
            let kind = WarningKind::ALL
                .iter()
                .position(|&k| k == warning.kind())
                .expect("ALL lists every kind");
            counts[kind] += 1;
        }
    }
    counts
}

/// Check `images` with `check_fleet` and sequentially, and fail the run
/// unless both give byte-identical reports.  Returns the fleet results.
pub fn check_both(
    detector: &AnomalyDetector,
    app: AppKind,
    images: &[SystemImage],
    t: &mut Tracer,
    out: &mut Outcome,
) -> Checked {
    let sequential = renders(&check_sequential(detector, app, images, t));
    let fleet = check_fleet(detector, app, images, t);
    let fleet_renders = renders(&fleet);
    out.check(
        "fleet.matches_sequential",
        fleet_renders == sequential,
        || {
            let first = fleet_renders
                .iter()
                .zip(&sequential)
                .position(|(a, b)| a != b)
                .unwrap_or(fleet_renders.len().min(sequential.len()));
            format!("check_fleet and the sequential path first differ at target {first}")
        },
    );
    fleet
}

/// Serve-only ratios, zero on the other workloads.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeRatios {
    /// Share of the median round trip not spent in the direct check.
    pub overhead: f64,
    /// In-memory protocol encode + decode time over the median round trip.
    pub protocol: f64,
}

/// The per-layer metrics, computed the same way on every workload from the
/// spans and counts in `t`.  A layer a workload never reaches reads zero in
/// its counts and ratios; every time metric is measured on every workload.
///
/// The layer spans are leaves, so their self time is their duration.  The
/// exception is `infer`, which builds its own statistics cache inside; its
/// self time is estimated by subtracting the separately timed `stats`.
pub fn layer_metrics(t: &Tracer, out: &mut Outcome, overhead_ratio: f64, serve: ServeRatios) {
    let total_s = |name: &str| t.total(name).0.as_secs_f64();
    let median_ms = |name: &str| median(&ms_all(&t.durations(name)));
    let per = |value: f64, count: u64| value / count.max(1) as f64;
    let learns = t.counted("learns");
    let per_learn = |name: &str| per(t.counted(name) as f64, learns);
    let fleets = t.total("fleet").1 as u64;

    let images = t.counted("assemble.images");
    let assemble_s = total_s("assemble") + total_s("assemble.target");
    out.metric("assemble.us_per_image", per(assemble_s * 1e6, images), "us");
    out.metric("assemble.images", images as f64, "count");
    out.metric(
        "assemble.errors",
        t.counted("assemble.errors") as f64,
        "count",
    );

    let (stats_s, infer_s) = (total_s("stats"), total_s("infer"));
    out.metric("stats.ms_per_learn", per(stats_s * 1e3, learns), "ms");
    out.metric("stats.attributes", per_learn("stats.attributes"), "count");
    out.metric("infer.ms_per_learn", per(infer_s * 1e3, learns), "ms");
    let infer_self_ms = per((infer_s - stats_s) * 1e3, learns);
    out.metric("infer.self_ms_per_learn", infer_self_ms, "ms");
    let (candidates, kept) = (per_learn("infer.candidates"), per_learn("filter.kept"));
    out.metric("infer.candidates", candidates, "count");
    out.metric("filter.kept", kept, "count");
    for name in [
        "filter.dropped_support",
        "filter.dropped_confidence",
        "filter.dropped_entropy",
    ] {
        out.metric(name, per_learn(name), "count");
    }
    out.metric("filter.keep_ratio", kept / candidates.max(1.0), "ratio");
    let build_ms = per(total_s("detector.build") * 1e3, learns);
    out.metric("detector.build_ms", build_ms, "ms");
    let coverage = t
        .coverage("learn")
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    out.metric("learn.coverage", coverage, "ratio");

    out.metric("snapshot.render_ms", median_ms("snapshot.render"), "ms");
    out.metric("snapshot.parse_ms", median_ms("snapshot.parse"), "ms");
    out.metric(
        "snapshot.from_snapshot_ms",
        median_ms("snapshot.from_snapshot"),
        "ms",
    );
    let renders = t.total("snapshot.render").1 as u64;
    let bytes = per(t.counted("snapshot.bytes") as f64, renders);
    out.metric("snapshot.bytes", bytes, "bytes");

    let detect_us = per(total_s("detect.check") * 1e6, t.counted("detect.targets"));
    out.metric("detect.us_per_target", detect_us, "us");
    for kind in ["unknown_entry", "correlation", "type", "suspicious_value"] {
        let count = per(t.counted(&format!("warnings.{kind}")) as f64, fleets);
        out.metric(&format!("detect.warnings.{kind}"), count, "count");
    }
    let fleet_s = total_s("fleet");
    let fleet_us = per(fleet_s * 1e6, t.counted("fleet.targets"));
    out.metric("fleet.us_per_target", fleet_us, "us");
    let efficiency = total_s("check.sequential") / (WORKERS as f64 * fleet_s).max(1e-12);
    out.metric("fleet.parallel_efficiency", efficiency, "ratio");

    out.metric("serve.overhead_ratio", serve.overhead, "ratio");
    out.metric("serve.protocol_share", serve.protocol, "ratio");
    for name in [
        "serve.requests",
        "serve.targets_checked",
        "serve.reloads",
        "serve.rejected_busy",
        "serve.errors",
    ] {
        out.metric(name, t.counted(name) as f64, "count");
    }
    out.metric("trace.overhead_ratio", overhead_ratio, "ratio");
}
