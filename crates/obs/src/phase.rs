//! Metric registration: one immutable list of instruments per pipeline
//! phase.
//!
//! Each crate declares its instruments as `static`s and names every one
//! of them exactly once, in a `static` [`Phase`].  The phase's report
//! (histograms with their bucket bounds) and its reset are both derived
//! from that list, so adding a metric is one static plus one list entry.
//! The lists are plain immutable statics resolved at compile time: there
//! is no runtime registry to populate, lock, or race on.

use crate::profile::ProfileTable;
use crate::report::{HistogramSnapshot, PhaseReport};
use crate::{Counter, Gauge, Histogram, Timer};

/// One registered instrument.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// A work counter.
    Counter(&'static Counter),
    /// A last-write-wins gauge.
    Gauge(&'static Gauge),
    /// A wall-time accumulator.
    Timer(&'static Timer),
    /// A fixed-bucket histogram.
    Histogram(&'static Histogram),
    /// A keyed cost table: reset with its phase, reported by the profiler
    /// rather than in the [`PhaseReport`].
    Profile(&'static ProfileTable),
}

/// A pipeline phase and every instrument it owns, in report order.
#[derive(Debug)]
pub struct Phase {
    /// Phase name (`collect`, `assemble`, `infer`, `stats`, `filter`,
    /// `detect`, `serve`).
    pub name: &'static str,
    /// The phase's instruments.
    pub metrics: &'static [Metric],
}

impl Phase {
    /// Snapshot every instrument into a [`PhaseReport`]: each kind keeps
    /// its list order, and each histogram carries its bounds.  Profile
    /// tables are not part of the report.
    pub fn report(&self) -> PhaseReport {
        let mut report = PhaseReport::new(self.name);
        for metric in self.metrics {
            match *metric {
                Metric::Counter(c) => report.counters.push((c.name().to_string(), c.get())),
                Metric::Gauge(g) => report.gauges.push((g.name().to_string(), g.get())),
                Metric::Timer(t) => report.timers.push((t.name().to_string(), t.snapshot())),
                Metric::Histogram(h) => report.histograms.push((
                    h.name().to_string(),
                    HistogramSnapshot {
                        bounds: h.bounds().to_vec(),
                        counts: h.counts(),
                        sum: h.sum(),
                    },
                )),
                Metric::Profile(_) => {}
            }
        }
        report
    }

    /// Reset every instrument of the phase (the sink flag is left as-is).
    pub fn reset(&self) {
        for metric in self.metrics {
            match *metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Timer(t) => t.reset(),
                Metric::Histogram(h) => h.reset(),
                Metric::Profile(p) => p.reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static COUNTER: Counter = Counter::new("fixture.counter");
    static GAUGE: Gauge = Gauge::new("fixture.gauge");
    static TIMER: Timer = Timer::new("fixture.timer");
    static HISTOGRAM: Histogram = Histogram::new("fixture.histogram", &[1, 10]);
    static PROFILE: ProfileTable = ProfileTable::new("fixture.profile");
    static SECOND_COUNTER: Counter = Counter::new("fixture.second");

    /// One instrument of each kind, with the kinds interleaved so report
    /// order has to come from the list, per kind.
    static FIXTURE: Phase = Phase {
        name: "fixture",
        metrics: &[
            Metric::Histogram(&HISTOGRAM),
            Metric::Counter(&COUNTER),
            Metric::Profile(&PROFILE),
            Metric::Timer(&TIMER),
            Metric::Gauge(&GAUGE),
            Metric::Counter(&SECOND_COUNTER),
        ],
    };

    #[test]
    fn report_reset_and_bounds_follow_the_list() {
        // Both gates are process-global; hold each module's test lock.
        let _sink = crate::tests::gate();
        let _profiling = crate::profile::tests::gate();
        crate::enable();
        crate::profile::enable();
        COUNTER.add(3);
        SECOND_COUNTER.incr();
        GAUGE.set(7);
        drop(TIMER.span());
        HISTOGRAM.observe(5);
        PROFILE.record("row", 10, &[]);
        crate::profile::disable();
        crate::disable();

        let report = FIXTURE.report();
        assert_eq!(report.name, "fixture");
        assert_eq!(
            report.counters,
            vec![
                ("fixture.counter".to_string(), 3),
                ("fixture.second".to_string(), 1)
            ]
        );
        assert_eq!(report.gauges, vec![("fixture.gauge".to_string(), 7)]);
        assert_eq!(report.timers.len(), 1);
        assert_eq!(report.timers[0].0, "fixture.timer");
        assert_eq!(report.timers[0].1.spans, 1);
        assert_eq!(report.histograms.len(), 1);
        assert_eq!(report.histograms[0].0, "fixture.histogram");
        assert_eq!(
            report.histograms[0].1,
            HistogramSnapshot {
                bounds: vec![1, 10],
                counts: vec![0, 1, 0],
                sum: 5,
            }
        );
        assert_eq!(PROFILE.total_nanos(), 10);

        FIXTURE.reset();
        let zero = FIXTURE.report();
        assert!(zero.counters.iter().all(|&(_, v)| v == 0));
        assert!(zero.gauges.iter().all(|&(_, v)| v == 0));
        assert_eq!(zero.timers[0].1, crate::TimerSnapshot::default());
        assert_eq!(zero.histograms[0].1.counts, vec![0, 0, 0]);
        assert_eq!(zero.histograms[0].1.bounds, vec![1, 10]);
        assert_eq!(PROFILE.total_nanos(), 0, "profile tables reset too");
    }
}
