//! Report deltas: structural comparison of two [`PipelineReport`]s with
//! one fixed work-count gate.
//!
//! A pipeline report is a snapshot; regressions only become visible when
//! two snapshots are *compared*.  [`ReportDelta::diff`] walks a base and a
//! current report in parallel and records every metric whose value (or
//! presence) differs — counters and gauges as scalar pairs, timers as
//! nanosecond pairs, histograms by their bounds and bucket-wise.  Diffing
//! a report against itself is empty by construction: an entry is recorded
//! only when the two sides are unequal.
//!
//! Which differences *fail* is fixed by the workspace determinism
//! discipline (DESIGN.md §9), and [`ReportDelta::violations`] lists them:
//! counters and histograms count *work* and must match exactly; gauges and
//! timers are scheduling-dependent, so they are rendered but never fail.

use crate::json::Json;
use crate::report::{entry, HistogramSnapshot, PipelineReport};

/// One differing scalar metric (counter or gauge).  A `None` side means
/// the metric is absent from that report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarDelta {
    /// Phase the metric was reported under.
    pub phase: String,
    /// Metric name.
    pub name: String,
    /// Value in the base report, if present.
    pub base: Option<u64>,
    /// Value in the current report, if present.
    pub current: Option<u64>,
}

impl ScalarDelta {
    /// Signed absolute change `current - base` (0 when a side is absent).
    pub fn abs_change(&self) -> i128 {
        match (self.base, self.current) {
            (Some(b), Some(c)) => i128::from(c) - i128::from(b),
            _ => 0,
        }
    }

    /// Relative change `(current - base) / base`; infinite when the base
    /// is zero and the current is not, `None` when a side is absent.
    pub fn rel_change(&self) -> Option<f64> {
        let (base, current) = (self.base?, self.current?);
        if base == 0 {
            return Some(if current == 0 { 0.0 } else { f64::INFINITY });
        }
        Some((current as f64 - base as f64) / base as f64)
    }
}

/// One differing timer, compared by total nanoseconds.  Timers are
/// scheduling-dependent: two runs of identical work record different wall
/// times, so timer deltas are informational and never fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerDelta {
    /// Phase the timer was reported under.
    pub phase: String,
    /// Metric name.
    pub name: String,
    /// Total nanoseconds in the base report, if present.
    pub base_nanos: Option<u64>,
    /// Total nanoseconds in the current report, if present.
    pub current_nanos: Option<u64>,
}

impl TimerDelta {
    /// `current / base` as a ratio; `None` when a side is absent or the
    /// base is zero.
    pub fn ratio(&self) -> Option<f64> {
        match (self.base_nanos?, self.current_nanos?) {
            (0, _) => None,
            (b, c) => Some(c as f64 / b as f64),
        }
    }
}

/// One differing histogram, compared on its bounds and bucket-wise on raw
/// counts (the derived percentiles are a function of the two, so they
/// never differ independently).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramDelta {
    /// Phase the histogram was reported under.
    pub phase: String,
    /// Metric name.
    pub name: String,
    /// The histogram in the base report, if present.
    pub base: Option<HistogramSnapshot>,
    /// The histogram in the current report, if present.
    pub current: Option<HistogramSnapshot>,
}

impl HistogramDelta {
    /// The differing buckets as `(index, base_count, current_count)`,
    /// treating missing buckets (length mismatch) as zero.  Empty when a
    /// whole side is absent.
    pub fn changed_buckets(&self) -> Vec<(usize, u64, u64)> {
        let (Some(base), Some(current)) = (&self.base, &self.current) else {
            return Vec::new();
        };
        let (base, current) = (&base.counts, &current.counts);
        (0..base.len().max(current.len()))
            .filter_map(|i| {
                let b = base.get(i).copied().unwrap_or(0);
                let c = current.get(i).copied().unwrap_or(0);
                (b != c).then_some((i, b, c))
            })
            .collect()
    }
}

/// The structural difference between two [`PipelineReport`]s: every metric
/// whose value or presence differs, grouped by instrument class.  Entry
/// order follows the base report's phase and declaration order, with
/// current-only additions after.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportDelta {
    /// Differing counters.
    pub counters: Vec<ScalarDelta>,
    /// Differing gauges.
    pub gauges: Vec<ScalarDelta>,
    /// Differing timers.
    pub timers: Vec<TimerDelta>,
    /// Differing histograms.
    pub histograms: Vec<HistogramDelta>,
}

/// Walk two name→value lists in base order plus current-only extras,
/// yielding `(name, base, current)` for every name on either side.
fn aligned<'a, T>(
    base: &'a [(String, T)],
    current: &'a [(String, T)],
) -> impl Iterator<Item = (&'a str, Option<&'a T>, Option<&'a T>)> {
    base.iter()
        .map(move |(name, value)| (name.as_str(), Some(value), entry(current, name)))
        .chain(current.iter().filter_map(move |(name, value)| {
            entry(base, name)
                .is_none()
                .then_some((name.as_str(), None, Some(value)))
        }))
}

impl ReportDelta {
    /// Structurally compare two reports, recording only metrics whose
    /// value or presence differs.  `diff(r, r)` is empty for every `r`.
    pub fn diff(base: &PipelineReport, current: &PipelineReport) -> ReportDelta {
        let mut delta = ReportDelta::default();
        let empty = crate::PhaseReport::default();
        let phase_names: Vec<&str> = base
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .chain(
                current
                    .phases
                    .iter()
                    .filter(|p| base.phase(&p.name).is_none())
                    .map(|p| p.name.as_str()),
            )
            .collect();
        for phase in phase_names {
            let b = base.phase(phase).unwrap_or(&empty);
            let c = current.phase(phase).unwrap_or(&empty);
            for (name, bv, cv) in aligned(&b.counters, &c.counters) {
                if bv != cv {
                    delta.counters.push(ScalarDelta {
                        phase: phase.to_string(),
                        name: name.to_string(),
                        base: bv.copied(),
                        current: cv.copied(),
                    });
                }
            }
            for (name, bv, cv) in aligned(&b.gauges, &c.gauges) {
                if bv != cv {
                    delta.gauges.push(ScalarDelta {
                        phase: phase.to_string(),
                        name: name.to_string(),
                        base: bv.copied(),
                        current: cv.copied(),
                    });
                }
            }
            for (name, bv, cv) in aligned(&b.timers, &c.timers) {
                if bv != cv {
                    delta.timers.push(TimerDelta {
                        phase: phase.to_string(),
                        name: name.to_string(),
                        base_nanos: bv.map(|s| s.nanos),
                        current_nanos: cv.map(|s| s.nanos),
                    });
                }
            }
            for (name, bv, cv) in aligned(&b.histograms, &c.histograms) {
                if bv.map(|s| (&s.bounds, &s.counts)) != cv.map(|s| (&s.bounds, &s.counts)) {
                    delta.histograms.push(HistogramDelta {
                        phase: phase.to_string(),
                        name: name.to_string(),
                        base: bv.cloned(),
                        current: cv.cloned(),
                    });
                }
            }
        }
        delta
    }

    /// Whether nothing differed.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
            && self.histograms.is_empty()
    }

    /// The differences that fail the comparison, one line each, counters
    /// first and then histograms: every differing counter, and every
    /// histogram present on one side only, with differing bounds or with a
    /// differing bucket.  A histogram whose bucket lists differ only by
    /// trailing zero buckets is recorded in the delta but does not fail.
    /// Gauges and timers never fail.
    pub fn violations(&self) -> Vec<String> {
        let counters = self.counters.iter().map(|d| {
            format!(
                "counter {}: {} -> {} exceeds gate `exact`",
                d.name,
                side(d.base),
                side(d.current)
            )
        });
        let histograms = self.histograms.iter().filter_map(|d| {
            let differ = match (&d.base, &d.current) {
                (Some(b), Some(c)) if b.bounds != c.bounds => "bounds",
                (Some(_), Some(_)) if d.changed_buckets().is_empty() => return None,
                _ => "counts",
            };
            Some(format!(
                "histogram {}: bucket {differ} differ, exceeding gate `exact`",
                d.name
            ))
        });
        counters.chain(histograms).collect()
    }

    /// Render as indented human-readable text.
    pub fn render_text(&self) -> String {
        if self.is_empty() {
            return "== report delta: no differences ==\n".to_string();
        }
        let mut out = String::from("== report delta ==\n");
        for d in &self.counters {
            let rel = match d.rel_change() {
                Some(r) if r.is_finite() => format!(", {:+.2}%", r * 100.0),
                Some(_) => ", from zero".to_string(),
                None => String::new(),
            };
            out.push_str(&format!(
                "  counter   {} = {} -> {} ({:+}{rel})\n",
                d.name,
                side(d.base),
                side(d.current),
                d.abs_change(),
            ));
        }
        for d in &self.gauges {
            out.push_str(&format!(
                "  gauge     {} = {} -> {} ({:+}) [scheduling-dependent]\n",
                d.name,
                side(d.base),
                side(d.current),
                d.abs_change(),
            ));
        }
        let nanos = |v: Option<u64>| v.map_or("absent".to_string(), |v| format!("{v}ns"));
        for d in &self.timers {
            let ratio = d.ratio().map_or(String::new(), |r| format!(" (x{r:.2})"));
            out.push_str(&format!(
                "  timer     {} = {} -> {}{ratio} [scheduling-dependent]\n",
                d.name,
                nanos(d.base_nanos),
                nanos(d.current_nanos),
            ));
        }
        for d in &self.histograms {
            let (Some(base), Some(current)) = (&d.base, &d.current) else {
                out.push_str(&format!(
                    "  histogram {} = {} -> {}\n",
                    d.name,
                    if d.base.is_some() {
                        "present"
                    } else {
                        "absent"
                    },
                    if d.current.is_some() {
                        "present"
                    } else {
                        "absent"
                    },
                ));
                continue;
            };
            if base.bounds != current.bounds {
                out.push_str(&format!(
                    "  histogram {} bounds = {:?} -> {:?}\n",
                    d.name, base.bounds, current.bounds
                ));
            }
            for (bucket, b, c) in d.changed_buckets() {
                out.push_str(&format!(
                    "  histogram {} bucket[{bucket}] = {b} -> {c}\n",
                    d.name
                ));
            }
        }
        out
    }

    /// Render as compact JSON over [`crate::json`].
    pub fn render_json(&self) -> String {
        let scalar = |d: &ScalarDelta| {
            Json::Obj(vec![
                ("phase".to_string(), Json::Str(d.phase.clone())),
                ("name".to_string(), Json::Str(d.name.clone())),
                ("base".to_string(), num_or_null(d.base)),
                ("current".to_string(), num_or_null(d.current)),
            ])
        };
        Json::Obj(vec![
            (
                "counters".to_string(),
                Json::Arr(self.counters.iter().map(scalar).collect()),
            ),
            (
                "gauges".to_string(),
                Json::Arr(self.gauges.iter().map(scalar).collect()),
            ),
            (
                "timers".to_string(),
                Json::Arr(
                    self.timers
                        .iter()
                        .map(|d| {
                            Json::Obj(vec![
                                ("phase".to_string(), Json::Str(d.phase.clone())),
                                ("name".to_string(), Json::Str(d.name.clone())),
                                ("base_nanos".to_string(), num_or_null(d.base_nanos)),
                                ("current_nanos".to_string(), num_or_null(d.current_nanos)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|d| {
                            let counts = |side: &Option<HistogramSnapshot>| match side {
                                Some(snap) => {
                                    Json::Arr(snap.counts.iter().map(|&c| Json::Num(c)).collect())
                                }
                                None => Json::Null,
                            };
                            Json::Obj(vec![
                                ("phase".to_string(), Json::Str(d.phase.clone())),
                                ("name".to_string(), Json::Str(d.name.clone())),
                                ("base".to_string(), counts(&d.base)),
                                ("current".to_string(), counts(&d.current)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// One side of a scalar difference as text.
fn side(v: Option<u64>) -> String {
    v.map_or("absent".to_string(), |v| v.to_string())
}

fn num_or_null(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{PhaseReport, TimerSnapshot};

    fn report(counter: u64, timer_nanos: u64, bucket0: u64) -> PipelineReport {
        PipelineReport {
            phases: vec![PhaseReport {
                name: "infer".to_string(),
                counters: vec![("infer.pairs.evaluated".to_string(), counter)],
                gauges: vec![("infer.pool.workers".to_string(), 2)],
                timers: vec![(
                    "infer.time".to_string(),
                    TimerSnapshot {
                        nanos: timer_nanos,
                        spans: 1,
                    },
                )],
                histograms: vec![(
                    "infer.candidates.by_template".to_string(),
                    HistogramSnapshot {
                        bounds: vec![0, 1],
                        counts: vec![bucket0, 2, 0],
                        sum: 2,
                    },
                )],
            }],
        }
    }

    #[test]
    fn self_diff_is_empty() {
        let r = report(100, 5_000, 3);
        let delta = ReportDelta::diff(&r, &r);
        assert!(delta.is_empty());
        assert!(delta.violations().is_empty());
        assert_eq!(delta.render_text(), "== report delta: no differences ==\n");
    }

    #[test]
    fn diff_records_each_changed_class() {
        let base = report(100, 5_000, 3);
        let current = report(101, 20_000, 4);
        let delta = ReportDelta::diff(&base, &current);
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counters[0].abs_change(), 1);
        assert_eq!(delta.counters[0].rel_change(), Some(0.01));
        assert!(delta.gauges.is_empty()); // equal on both sides
        assert_eq!(delta.timers.len(), 1);
        assert_eq!(delta.timers[0].ratio(), Some(4.0));
        assert_eq!(delta.histograms.len(), 1);
        assert_eq!(delta.histograms[0].changed_buckets(), vec![(0, 3, 4)]);
    }

    #[test]
    fn violations_gate_counters_and_histograms_only() {
        let delta = ReportDelta::diff(&report(100, 5_000, 3), &report(101, 20_000, 4));
        // The timer differs too, but timers never fail.
        assert_eq!(delta.timers.len(), 1);
        assert_eq!(
            delta.violations(),
            vec![
                "counter infer.pairs.evaluated: 100 -> 101 exceeds gate `exact`",
                "histogram infer.candidates.by_template: bucket counts differ, \
                 exceeding gate `exact`",
            ]
        );
    }

    #[test]
    fn histogram_gate_fires_on_absence_but_not_on_trailing_zero_buckets() {
        let base = report(100, 5_000, 3);
        let mut longer = base.clone();
        longer.phases[0].histograms[0].1.counts.push(0);
        let delta = ReportDelta::diff(&base, &longer);
        assert_eq!(delta.histograms.len(), 1, "recorded in the delta");
        assert!(delta.violations().is_empty(), "but not gated");

        let mut without = base.clone();
        without.phases[0].histograms.clear();
        let delta = ReportDelta::diff(&base, &without);
        assert_eq!(
            delta.violations(),
            vec![
                "histogram infer.candidates.by_template: bucket counts differ, \
                 exceeding gate `exact`"
            ]
        );
    }

    #[test]
    fn equal_counts_under_different_bounds_are_a_violation() {
        let base = report(100, 5_000, 3);
        let mut rebucketed = base.clone();
        rebucketed.phases[0].histograms[0].1.bounds = vec![0, 2];
        let delta = ReportDelta::diff(&base, &rebucketed);
        assert_eq!(delta.histograms.len(), 1);
        assert!(delta.histograms[0].changed_buckets().is_empty());
        assert_eq!(
            delta.violations(),
            vec![
                "histogram infer.candidates.by_template: bucket bounds differ, \
                 exceeding gate `exact`"
            ]
        );
        assert!(delta
            .render_text()
            .contains("histogram infer.candidates.by_template bounds = [0, 1] -> [0, 2]"));
    }

    #[test]
    fn missing_metrics_and_phases_are_structural_differences() {
        let base = report(100, 5_000, 3);
        let mut current = base.clone();
        current.phases[0].counters.clear();
        current.phases.push(PhaseReport::new("extra"));
        let delta = ReportDelta::diff(&base, &current);
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counters[0].base, Some(100));
        assert_eq!(delta.counters[0].current, None);
        assert_eq!(
            delta.violations(),
            vec!["counter infer.pairs.evaluated: 100 -> absent exceeds gate `exact`"]
        );
        // The extra phase is empty, so it contributes no entries; a
        // current-only *metric* does.
        let mut with_new = base.clone();
        with_new.phases[0]
            .counters
            .push(("infer.new.metric".to_string(), 7));
        let delta = ReportDelta::diff(&base, &with_new);
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counters[0].base, None);
        assert_eq!(delta.counters[0].current, Some(7));
    }

    #[test]
    fn json_rendering_is_valid_and_structured() {
        let delta = ReportDelta::diff(&report(100, 5_000, 3), &report(101, 20_000, 4));
        let json = crate::json::parse(&delta.render_json()).expect("valid JSON");
        let counters = json.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(
            counters[0].get("name").and_then(Json::as_str),
            Some("infer.pairs.evaluated")
        );
        assert_eq!(counters[0].get("base").and_then(Json::as_u64), Some(100));
        // Text rendering names every changed metric.
        let text = delta.render_text();
        assert!(text.contains("counter   infer.pairs.evaluated = 100 -> 101 (+1, +1.00%)"));
        assert!(text.contains("timer     infer.time"));
        assert!(text.contains("histogram infer.candidates.by_template bucket[0] = 3 -> 4"));
    }
}
