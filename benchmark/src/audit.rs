//! `audit`: a MySQL detector learned in setup checks a fleet of full
//! target images (configuration plus environment), one `check_fleet` per
//! iteration.

use crate::measure::{
    batch_metrics, check_pinned, fnv64, median, repeat_setup, run_window, Config, Outcome,
};
use crate::pipeline::{
    check_both, check_fleet, layer_metrics, learn, load_ms, renders, warning_counts, Checked,
    ServeRatios,
};
use crate::trace::Tracer;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use std::collections::BTreeSet;
use std::time::Instant;

const APP: AppKind = AppKind::Mysql;
/// Snapshot loads timed after each iteration.
const LOAD_REPS: usize = 10;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut traced = Tracer::new(cfg.trace);
    let ((learned, fleet), setup_s) = repeat_setup(|| {
        let training =
            Population::training(APP, &PopulationOptions::new(cfg.size(187, 40), cfg.seed));
        let learned = learn(APP, training.images(), &mut traced)?;
        let fleet = Population::ec2_fresh(APP, cfg.size(2000, 100), cfg.seed + 76);
        Ok((learned, fleet))
    })?;
    let (detector, images) = (&learned.detector, fleet.images());
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false);
    check_fleet(detector, APP, images, &mut untraced);

    let (mut plain_s, mut traced_s, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut calibrations, mut outputs, mut load_error) = (Vec::new(), BTreeSet::new(), None);
    run_window(cfg, |i, trace_this, speed| {
        let t = if trace_this {
            &mut traced
        } else {
            &mut untraced
        };
        t.set_id(i);
        calibrations.push(speed.calibration_ms);
        let results: Checked = if trace_this {
            let results = check_both(detector, APP, images, t, &mut out);
            let fleet = t.last("fleet").unwrap_or_default();
            traced_s.push(speed.adjust(fleet.as_secs_f64()));
            results
        } else {
            let started = Instant::now();
            let results = check_fleet(detector, APP, images, t);
            plain_s.push(speed.adjust(started.elapsed().as_secs_f64()));
            results
        };
        match load_ms(&learned.snapshot, LOAD_REPS, t) {
            Ok(times) => loads.extend(times.into_iter().map(|ms| speed.adjust(ms))),
            Err(e) => load_error = Some(e),
        }
        out.attempted += images.len() as u64;
        out.failed += results.iter().filter(|r| r.is_err()).count() as u64;
        let bodies = renders(&results);
        outputs.insert((
            warning_counts(&results),
            fnv64(bodies.iter().map(String::as_str)),
        ));
    });

    out.check("audit.output_stable", outputs.len() == 1, || {
        format!(
            "{} distinct (warning counts, report fingerprint) pairs",
            outputs.len()
        )
    });
    let (counts, fingerprint) = outputs.first().copied().ok_or("no iteration ran")?;
    let counts = counts.map(|c| c.to_string()).join("/");
    let fingerprint = format!("{fingerprint:016x}");
    check_pinned(cfg, &mut out, "audit", "warnings", &counts);
    check_pinned(cfg, &mut out, "audit", "fingerprint", &fingerprint);
    out.note("warnings", counts);
    out.note("fingerprint", fingerprint);

    if let Some(e) = load_error {
        return Err(format!("snapshot does not parse: {e}"));
    }
    if cfg.trace {
        let overhead = median(&traced_s) / median(&plain_s) - 1.0;
        layer_metrics(&traced, &mut out, overhead, ServeRatios::default());
        crate::write_trace(cfg, "audit", &traced)?;
    } else {
        check_both(detector, APP, images, &mut untraced, &mut out);
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
