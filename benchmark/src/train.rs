//! `train-wide` and `train-tall`: repeated learns from one training
//! population.  One iteration is `TrainingSet::assemble`, then
//! `EnCore::try_learn`, then `snapshot().render()`.

use crate::measure::{
    batch_metrics, check_pinned, median, repeat_setup, run_window, Config, Outcome,
};
use crate::pipeline::{check_both, layer_metrics, learn, load_ms, Learned, ServeRatios};
use crate::trace::Tracer;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use std::collections::BTreeSet;
use std::time::Instant;

/// Snapshot loads timed after each learn.
const LOAD_REPS: usize = 10;

pub fn run(cfg: &Config, workload: &str, app: AppKind, images: usize) -> Result<Outcome, String> {
    let (population, setup_s) = repeat_setup(|| {
        Ok(Population::training(
            app,
            &PopulationOptions::new(images, cfg.seed),
        ))
    })?;
    let images = population.images();
    let mut out = Outcome::default();
    let mut traced = Tracer::new(cfg.trace);
    let mut untraced = Tracer::new(false);
    learn(app, images, &mut untraced)?;

    let (mut plain_s, mut traced_s, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let mut calibrations = Vec::new();
    let mut fingerprints = BTreeSet::new();
    let mut last: Option<Learned> = None;
    let mut errors = Vec::new();
    run_window(cfg, |i, trace_this, speed| {
        let (t, times) = match trace_this {
            true => (&mut traced, &mut traced_s),
            false => (&mut untraced, &mut plain_s),
        };
        t.set_id(i);
        out.attempted += 1;
        calibrations.push(speed.calibration_ms);
        let started = Instant::now();
        let learned = match learn(app, images, t) {
            Ok(learned) => learned,
            Err(e) => {
                out.failed += 1;
                errors.push(e);
                return;
            }
        };
        times.push(speed.adjust(started.elapsed().as_secs_f64()));
        fingerprints.insert(learned.fingerprint());
        match load_ms(&learned.snapshot, LOAD_REPS, t) {
            Ok(times) => loads.extend(times.into_iter().map(|ms| speed.adjust(ms))),
            Err(e) => errors.push(format!("snapshot does not parse: {e}")),
        }
        last = Some(learned);
    });

    out.check("learn.errors", errors.is_empty(), || errors.join("; "));
    out.check("rules.fingerprint_stable", fingerprints.len() == 1, || {
        format!("{} distinct rule fingerprints", fingerprints.len())
    });
    let last = last.ok_or("no iteration learned a detector")?;
    let rules = last.detector.rules().len().to_string();
    let fingerprint = format!("{:016x}", last.fingerprint());
    check_pinned(cfg, &mut out, workload, "rules", &rules);
    check_pinned(cfg, &mut out, workload, "fingerprint", &fingerprint);
    out.note("rules", rules);
    out.note("fingerprint", fingerprint);

    // Detection with the learned rules on a fresh fleet: a check that the
    // rules work, and the detect layer's share of this workload's trace.
    let fleet = Population::ec2_fresh(app, cfg.size(200, 40), cfg.seed + 76);
    let t = if cfg.trace {
        &mut traced
    } else {
        &mut untraced
    };
    check_both(&last.detector, app, fleet.images(), t, &mut out);

    if cfg.trace {
        let overhead = median(&traced_s) / median(&plain_s) - 1.0;
        layer_metrics(&traced, &mut out, overhead, ServeRatios::default());
        crate::write_trace(cfg, workload, &traced)?;
    } else {
        batch_metrics(
            &mut out,
            setup_s,
            images.len(),
            &plain_s,
            &loads,
            &calibrations,
        );
    }
    Ok(out)
}
