//! A small work-stealing worker pool for embarrassingly parallel units.
//!
//! The paper notes of template instantiation that the instance computations
//! "share no state — this process is highly parallelizable" (§5.1).  The
//! pool runs a slice of work units on `workers` scoped threads which pull
//! the next unprocessed unit from a shared atomic cursor, so a handful of
//! expensive units (one quadratic generic-equality template, say) cannot
//! strand the other workers idle the way one-thread-per-template
//! parallelism did.
//!
//! Results are returned **in unit order** regardless of which worker ran
//! which unit, so callers get output byte-identical to a sequential pass.
//! A panicking unit is caught and surfaced as a [`PoolError`] instead of
//! poisoning the process.
//!
//! A worker may carry state of its own (`run_units_with`): worker `w`
//! starts from `init(w)`, each unit it runs gets `&mut` access to that
//! state, and the states come back in worker order.  Training-set assembly
//! keeps one row encoder per worker this way, and fleet checking one pair
//! buffer; [`run_units`] is the same worker loop with no state.

use crate::obs::{Counter, Gauge, Timer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The instruments a pool run reports into.
///
/// The pool is shared by the `assemble` phase (training-set assembly), the
/// `infer` phase (template instantiation) and the `detect` phase (fleet
/// checking); each caller hands the pool its own phase's statics so the
/// three workloads stay separate in the [`crate::obs::pipeline_report`]
/// roll-up.
#[derive(Debug, Clone, Copy)]
pub struct PoolMetrics {
    /// Units handed to the pool (counter: scheduling-independent work).
    pub units_run: &'static Counter,
    /// Worker threads of the last run (gauge: scheduling-dependent).
    pub workers: &'static Gauge,
    /// Units run by the busiest worker of the last run.
    pub busiest_worker_units: &'static Gauge,
    /// Units run by the idlest worker of the last run.
    pub idlest_worker_units: &'static Gauge,
    /// Units that landed on workers other than worker 0 in the last run.
    pub stolen_units: &'static Gauge,
    /// Per-worker busy time inside the pool loop.
    pub worker_busy: &'static Timer,
}

/// A worker panicked while processing a unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the failing unit.
    pub unit: usize,
    /// The panic payload, rendered.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked on unit {}: {}", self.unit, self.message)
    }
}

impl std::error::Error for PoolError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's results, each tagged with the index of its unit.
type Tagged<O> = Vec<(usize, Result<O, String>)>;

/// The worker count a caller gets when it names none: the host's
/// available parallelism, which follows the process's CPU affinity.
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` over every unit on up to `workers` threads, returning the
/// results in unit order and reporting into the `infer` phase's pool
/// instruments.
///
/// # Errors
///
/// Returns the first (lowest-index) [`PoolError`] if any unit panics; the
/// remaining units still run to completion.
pub fn run_units<U, O, F>(units: &[U], workers: usize, f: F) -> Result<Vec<O>, PoolError>
where
    U: Sync,
    O: Send,
    F: Fn(&U) -> O + Sync,
{
    let metrics = &crate::obs::INFER_POOL_METRICS;
    run_units_with(units, workers, metrics, |_| (), |(), unit| f(unit)).map(|(out, _)| out)
}

/// Run `f` over every unit on up to `workers` threads, each worker with its
/// own state: worker `w` starts from `init(w)`, and every unit it runs gets
/// `&mut` access to that state.  Returns the results in unit order and the
/// states in worker order, one per worker that ran (the worker count
/// clamped to `1..=units.len()`).
///
/// # Errors
///
/// Returns the first (lowest-index) [`PoolError`] if any unit panics; the
/// remaining units still run to completion.
pub(crate) fn run_units_with<U, S, O, I, F>(
    units: &[U],
    workers: usize,
    metrics: &PoolMetrics,
    init: I,
    f: F,
) -> Result<(Vec<O>, Vec<S>), PoolError>
where
    U: Sync,
    S: Send,
    O: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &U) -> O + Sync,
{
    let workers = workers.clamp(1, units.len().max(1));
    metrics.units_run.add(units.len() as u64);
    metrics.workers.set(workers as u64);
    let cursor = AtomicUsize::new(0);
    // The one worker loop: pull the next unit off the shared cursor until
    // none is left, catching each unit's panic.
    let work = |w: usize| -> (S, Tagged<O>) {
        let mut state = init(w);
        let _busy = metrics.worker_busy.span();
        let mut local = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= units.len() {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut state, &units[index])))
                .map_err(panic_message);
            local.push((index, outcome));
        }
        (state, local)
    };

    let per_worker: Vec<Option<(S, Tagged<O>)>> = if workers <= 1 {
        vec![Some(work(0))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            // Unit panics are caught inside the loop; a worker thread can
            // only die through harness bugs, which we surface as a missing
            // contribution judged below by the completeness check.
            handles.into_iter().map(|h| h.join().ok()).collect()
        })
    };
    if crate::obs::enabled() {
        let loads: Vec<u64> = per_worker
            .iter()
            .map(|w| w.as_ref().map_or(0, |(_, local)| local.len() as u64))
            .collect();
        metrics
            .busiest_worker_units
            .set(loads.iter().copied().max().unwrap_or(0));
        metrics
            .idlest_worker_units
            .set(loads.iter().copied().min().unwrap_or(0));
        // Units that landed anywhere but worker 0 — what the stealing
        // actually spread.  Scheduling-dependent, hence a gauge.
        metrics.stolen_units.set(loads.iter().skip(1).sum::<u64>());
    }

    let mut states = Vec::with_capacity(workers);
    let mut tagged = Vec::with_capacity(units.len());
    for (state, local) in per_worker.into_iter().flatten() {
        states.push(state);
        tagged.extend(local);
    }
    tagged.sort_by_key(|(index, _)| *index);
    if states.len() != workers || tagged.len() != units.len() {
        return Err(PoolError {
            unit: tagged.len(),
            message: "worker thread died without reporting".to_string(),
        });
    }
    let mut out = Vec::with_capacity(units.len());
    for (index, result) in tagged {
        match result {
            Ok(v) => out.push(v),
            Err(message) => {
                return Err(PoolError {
                    unit: index,
                    message,
                })
            }
        }
    }
    Ok((out, states))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_unit_order_across_worker_counts() {
        let units: Vec<usize> = (0..103).collect();
        let reference: Vec<usize> = units.iter().map(|u| u * 3).collect();
        for workers in [1, 2, 4, 8, 16] {
            let got = run_units(&units, workers, |u| u * 3).expect("no panics");
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn empty_units_is_fine() {
        let got: Vec<usize> = run_units(&[] as &[usize], 4, |u| *u).expect("empty");
        assert!(got.is_empty());
    }

    #[test]
    fn panics_become_errors_with_unit_index() {
        let units: Vec<usize> = (0..20).collect();
        for workers in [1, 4] {
            let err = run_units(&units, workers, |&u| {
                if u == 7 {
                    panic!("unit seven is cursed");
                }
                u
            })
            .expect_err("must fail");
            assert_eq!(err.unit, 7, "workers={workers}");
            assert!(err.message.contains("cursed"), "{err}");
        }
    }

    #[test]
    fn first_failing_unit_wins() {
        let units: Vec<usize> = (0..50).collect();
        let err = run_units(&units, 8, |&u| {
            if u % 13 == 12 {
                panic!("boom {u}");
            }
            u
        })
        .expect_err("must fail");
        assert_eq!(err.unit, 12);
    }

    /// Per unit, the unit tripled and the worker that ran it; per worker,
    /// its index and the units it ran.
    type Counted = (Vec<(usize, usize)>, Vec<(usize, usize)>);

    /// `run_units_with` over `units`, each worker's state its index and
    /// the units it ran, panicking on every unit `u % 13 == 12`.
    fn run_counted(units: &[usize], workers: usize) -> Result<Counted, PoolError> {
        run_units_with(
            units,
            workers,
            &crate::obs::INFER_POOL_METRICS,
            |w| (w, 0),
            |(w, ran), &u| {
                *ran += 1;
                if u % 13 == 12 {
                    panic!("boom {u}");
                }
                (u * 3, *w)
            },
        )
    }

    #[test]
    fn every_unit_runs_against_exactly_one_worker_state() {
        for (len, workers) in [1, 2, 4, 8]
            .into_iter()
            .flat_map(|w| [(0, w), (3, w), (12, w)])
        {
            let units: Vec<usize> = (0..len).collect();
            let (results, states) = run_counted(&units, workers).expect("no panics");
            let ctx = format!("{len} units, {workers} workers");
            let tripled: Vec<usize> = results.iter().map(|&(v, _)| v).collect();
            assert_eq!(
                tripled,
                units.iter().map(|u| u * 3).collect::<Vec<_>>(),
                "{ctx}"
            );
            let started = workers.clamp(1, len.max(1));
            let ids: Vec<usize> = states.iter().map(|&(w, _)| w).collect();
            assert_eq!(ids, (0..started).collect::<Vec<_>>(), "{ctx}");
            assert_eq!(
                states.iter().map(|&(_, ran)| ran).sum::<usize>(),
                len,
                "{ctx}"
            );
            for &(w, ran) in &states {
                let by_w = results.iter().filter(|&&(_, by)| by == w).count();
                assert_eq!(by_w, ran, "{ctx}, worker {w}");
            }
        }
    }

    #[test]
    fn a_panicking_unit_with_state_is_the_lowest_index_error() {
        let units: Vec<usize> = (0..50).collect();
        for workers in [1, 2, 4, 8] {
            let err = run_counted(&units, workers).expect_err("must fail");
            assert_eq!(err.unit, 12, "workers={workers}");
            assert!(err.message.contains("boom 12"), "{err}");
        }
    }
}
