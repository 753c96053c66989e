//! Per-phase and whole-pipeline report types with text and JSON renderers.
//!
//! A [`PhaseReport`] is a point-in-time snapshot of one pipeline phase's
//! instruments; a [`PipelineReport`] is the ordered roll-up across all six
//! phases (`collect`, `assemble`, `infer`, `stats`, `filter`, `detect`).
//! JSON rendering is hand-rolled over [`crate::json`] and `parse_json`
//! inverts it exactly, so reports can be written by one process and
//! validated by another (the CI pipeline-report step does exactly that).

use crate::json::{self, Json, JsonError};
use crate::Histogram;
use std::collections::BTreeMap;

/// A timer's accumulated state: total nanoseconds over how many spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct TimerSnapshot {
    /// Total recorded wall time in nanoseconds.
    pub nanos: u64,
    /// Number of spans that contributed.
    pub spans: u64,
}

/// A histogram's accumulated state: bucket counts plus interpolated
/// percentile estimates (see [`Histogram::quantile_from`] — upper-bound
/// estimates, rounded to whole units).  The percentiles are derived from
/// the counts and the instrument's bounds at snapshot time; they ride
/// along because the bounds are not part of the report.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket counts, one per bound plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Exact running sum of observed values (wrapping, see
    /// [`Histogram::sum`]).
    pub sum: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Build a snapshot from raw bucket counts and the exact value sum
    /// over the given bounds, computing the percentile estimates.
    pub fn from_counts(bounds: &[u64], counts: Vec<u64>, sum: u64) -> HistogramSnapshot {
        let p = |q: f64| Histogram::quantile_from(bounds, &counts, q).round() as u64;
        HistogramSnapshot {
            p50: p(0.50),
            p95: p(0.95),
            p99: p(0.99),
            counts,
            sum,
        }
    }
}

/// Snapshot of one pipeline phase's instruments.  Entry order is the
/// declaration order chosen by the phase, and is preserved through JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PhaseReport {
    /// Phase name (`collect`, `assemble`, `infer`, `stats`, `filter`,
    /// `detect`).
    pub name: String,
    /// Counter name → total.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, u64)>,
    /// Timer name → snapshot.
    pub timers: Vec<(String, TimerSnapshot)>,
    /// Histogram name → snapshot (bucket counts + percentile estimates).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl PhaseReport {
    /// An empty report for the named phase.
    pub fn new(name: &str) -> PhaseReport {
        PhaseReport {
            name: name.to_string(),
            ..PhaseReport::default()
        }
    }

    /// Look up a counter total by metric name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn to_json(&self) -> Json {
        let pairs = |entries: &[(String, u64)]| {
            Json::Obj(
                entries
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::Num(*value)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("counters".to_string(), pairs(&self.counters)),
            ("gauges".to_string(), pairs(&self.gauges)),
            (
                "timers".to_string(),
                Json::Obj(
                    self.timers
                        .iter()
                        .map(|(name, snap)| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    ("nanos".to_string(), Json::Num(snap.nanos)),
                                    ("spans".to_string(), Json::Num(snap.spans)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(name, snap)| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    (
                                        "counts".to_string(),
                                        Json::Arr(
                                            snap.counts.iter().map(|&c| Json::Num(c)).collect(),
                                        ),
                                    ),
                                    ("sum".to_string(), Json::Num(snap.sum)),
                                    ("p50".to_string(), Json::Num(snap.p50)),
                                    ("p95".to_string(), Json::Num(snap.p95)),
                                    ("p99".to_string(), Json::Num(snap.p99)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<PhaseReport, String> {
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("phase is missing `name`")?
            .to_string();
        let pairs = |key: &str| -> Result<Vec<(String, u64)>, String> {
            value
                .get(key)
                .and_then(Json::as_obj)
                .ok_or(format!("phase `{name}` is missing `{key}`"))?
                .iter()
                .map(|(n, v)| {
                    v.as_u64()
                        .map(|v| (n.clone(), v))
                        .ok_or(format!("`{n}` is not a number"))
                })
                .collect()
        };
        let counters = pairs("counters")?;
        let gauges = pairs("gauges")?;
        let timers = value
            .get("timers")
            .and_then(Json::as_obj)
            .ok_or(format!("phase `{name}` is missing `timers`"))?
            .iter()
            .map(|(n, v)| {
                let field = |f: &str| {
                    v.get(f)
                        .and_then(Json::as_u64)
                        .ok_or(format!("timer `{n}` is missing `{f}`"))
                };
                Ok((
                    n.clone(),
                    TimerSnapshot {
                        nanos: field("nanos")?,
                        spans: field("spans")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = value
            .get("histograms")
            .and_then(Json::as_obj)
            .ok_or(format!("phase `{name}` is missing `histograms`"))?
            .iter()
            .map(|(n, v)| {
                let counts = v
                    .get("counts")
                    .and_then(Json::as_arr)
                    .ok_or(format!("histogram `{n}` is missing `counts`"))?
                    .iter()
                    .map(|c| {
                        c.as_u64()
                            .ok_or(format!("histogram `{n}` has a non-number"))
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                let field = |f: &str| {
                    v.get(f)
                        .and_then(Json::as_u64)
                        .ok_or(format!("histogram `{n}` is missing `{f}`"))
                };
                Ok((
                    n.clone(),
                    HistogramSnapshot {
                        counts,
                        // `sum` arrived with the exposition work; reports
                        // written before it (committed perf baselines)
                        // parse as sum 0 rather than erroring.
                        sum: v.get("sum").and_then(Json::as_u64).unwrap_or(0),
                        p50: field("p50")?,
                        p95: field("p95")?,
                        p99: field("p99")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PhaseReport {
            name,
            counters,
            gauges,
            timers,
            histograms,
        })
    }
}

/// The whole-pipeline roll-up: one [`PhaseReport`] per phase, in pipeline
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PipelineReport {
    /// Per-phase snapshots, in pipeline order.
    pub phases: Vec<PhaseReport>,
}

impl PipelineReport {
    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// All counters across phases, flattened to `name → total`.  Counter
    /// names are globally unique (they embed their phase), so this is
    /// lossless; it is what the determinism tests compare across worker
    /// counts.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.phases
            .iter()
            .flat_map(|p| p.counters.iter().cloned())
            .collect()
    }

    /// All histograms across phases, flattened to `name → bucket counts`.
    /// Histogram totals are deterministic for the same input, like
    /// counters (the derived percentiles are a pure function of the
    /// counts, so they need no separate determinism treatment).
    pub fn histograms(&self) -> BTreeMap<String, Vec<u64>> {
        self.phases
            .iter()
            .flat_map(|p| p.histograms.iter())
            .map(|(name, snap)| (name.clone(), snap.counts.clone()))
            .collect()
    }

    /// The change since `baseline`: counters, timers, and histogram
    /// counts/sums are subtracted by name within each phase (saturating,
    /// so a restarted baseline degrades to the cumulative view instead of
    /// wrapping); gauges are point-in-time values and pass through
    /// unchanged.  Histogram percentiles are recomputed from the delta
    /// counts via `bounds_of` (bounds are not carried in reports); a miss
    /// leaves the estimates at the index scale.  Entries absent from the
    /// baseline are kept whole.
    ///
    /// This is what lets the daemon keep the global sink cumulative
    /// (monotone for scrapers) while still emitting a per-tick JSONL
    /// heartbeat: each tick diffs the current roll-up against the previous
    /// tick's.
    #[must_use]
    pub fn delta_since(
        &self,
        baseline: &PipelineReport,
        bounds_of: &dyn Fn(&str) -> Option<&'static [u64]>,
    ) -> PipelineReport {
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                let base = baseline.phase(&phase.name);
                let base_counter =
                    |name: &str| base.and_then(|b| b.counter_value(name)).unwrap_or(0);
                PhaseReport {
                    name: phase.name.clone(),
                    counters: phase
                        .counters
                        .iter()
                        .map(|(name, v)| (name.clone(), v.saturating_sub(base_counter(name))))
                        .collect(),
                    gauges: phase.gauges.clone(),
                    timers: phase
                        .timers
                        .iter()
                        .map(|(name, snap)| {
                            let b = base
                                .and_then(|b| {
                                    b.timers.iter().find(|(n, _)| n == name).map(|&(_, s)| s)
                                })
                                .unwrap_or_default();
                            (
                                name.clone(),
                                TimerSnapshot {
                                    nanos: snap.nanos.saturating_sub(b.nanos),
                                    spans: snap.spans.saturating_sub(b.spans),
                                },
                            )
                        })
                        .collect(),
                    histograms: phase
                        .histograms
                        .iter()
                        .map(|(name, snap)| {
                            let counts = match base.and_then(|b| {
                                b.histograms.iter().find(|(n, _)| n == name).map(|(_, s)| s)
                            }) {
                                Some(b) if b.counts.len() == snap.counts.len() => snap
                                    .counts
                                    .iter()
                                    .zip(&b.counts)
                                    .map(|(c, bc)| c.saturating_sub(*bc))
                                    .collect(),
                                _ => snap.counts.clone(),
                            };
                            let base_sum = base
                                .and_then(|b| {
                                    b.histograms
                                        .iter()
                                        .find(|(n, _)| n == name)
                                        .map(|(_, s)| s.sum)
                                })
                                .unwrap_or(0);
                            let index_bounds: Vec<u64>;
                            let bounds = match bounds_of(name) {
                                Some(bounds) => bounds,
                                None => {
                                    index_bounds =
                                        (0..counts.len().saturating_sub(1) as u64).collect();
                                    &index_bounds
                                }
                            };
                            (
                                name.clone(),
                                HistogramSnapshot::from_counts(
                                    bounds,
                                    counts,
                                    snap.sum.wrapping_sub(base_sum),
                                ),
                            )
                        })
                        .collect(),
                }
            })
            .collect();
        PipelineReport { phases }
    }

    /// Render as indented human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::from("== pipeline report ==\n");
        for phase in &self.phases {
            out.push_str(&format!("phase {}\n", phase.name));
            for (name, value) in &phase.counters {
                out.push_str(&format!("  counter   {name} = {value}\n"));
            }
            for (name, value) in &phase.gauges {
                out.push_str(&format!("  gauge     {name} = {value}\n"));
            }
            for (name, snap) in &phase.timers {
                out.push_str(&format!(
                    "  timer     {name} = {} over {} span(s)\n",
                    render_duration(snap.nanos),
                    snap.spans
                ));
            }
            for (name, snap) in &phase.histograms {
                let rendered: Vec<String> = snap.counts.iter().map(u64::to_string).collect();
                out.push_str(&format!(
                    "  histogram {name} = [{}] p50~{} p95~{} p99~{}\n",
                    rendered.join(", "),
                    snap.p50,
                    snap.p95,
                    snap.p99
                ));
            }
        }
        out
    }

    /// Render as compact JSON: `{"phases":[...]}`.
    pub fn render_json(&self) -> String {
        Json::Obj(vec![(
            "phases".to_string(),
            Json::Arr(self.phases.iter().map(PhaseReport::to_json).collect()),
        )])
        .render()
    }

    /// Parse the output of [`PipelineReport::render_json`] back into a
    /// report.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`JsonError`] for malformed JSON; schema
    /// mismatches (missing keys, wrong types) are reported at offset 0.
    pub fn parse_json(text: &str) -> Result<PipelineReport, JsonError> {
        let value = json::parse(text)?;
        let schema = |message: String| JsonError { at: 0, message };
        let phases = value
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or_else(|| schema("report is missing `phases`".to_string()))?
            .iter()
            .map(PhaseReport::from_json)
            .collect::<Result<Vec<_>, String>>()
            .map_err(schema)?;
        Ok(PipelineReport { phases })
    }
}

/// Human-readable duration: picks the largest unit that keeps the value
/// above one.
fn render_duration(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        PipelineReport {
            phases: vec![
                PhaseReport {
                    name: "collect".to_string(),
                    counters: vec![("collect.images.built".to_string(), 12)],
                    gauges: vec![("collect.depth".to_string(), 3)],
                    timers: vec![(
                        "collect.build".to_string(),
                        TimerSnapshot {
                            nanos: 1_500_000,
                            spans: 12,
                        },
                    )],
                    histograms: vec![(
                        "collect.sizes".to_string(),
                        HistogramSnapshot::from_counts(&[1, 2, 4], vec![1, 0, 2], 9),
                    )],
                },
                PhaseReport::new("detect"),
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let json = report.render_json();
        let back = PipelineReport::parse_json(&json).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.render_json(), json);
    }

    #[test]
    fn text_rendering_shows_every_instrument() {
        let text = sample().render_text();
        assert!(text.contains("phase collect"));
        assert!(text.contains("counter   collect.images.built = 12"));
        assert!(text.contains("gauge     collect.depth = 3"));
        assert!(text.contains("timer     collect.build = 1.500ms over 12 span(s)"));
        // Counts [1, 0, 2] over bounds [1, 2, 4]: ranks 1.5 and beyond
        // fall in the (2, 4] bucket.
        assert!(text.contains("histogram collect.sizes = [1, 0, 2] p50~3 p95~4 p99~4"));
        assert!(text.contains("phase detect"));
    }

    #[test]
    fn lookups_and_flattening() {
        let report = sample();
        assert!(report.phase("collect").is_some());
        assert!(report.phase("missing").is_none());
        assert_eq!(
            report
                .phase("collect")
                .unwrap()
                .counter_value("collect.images.built"),
            Some(12)
        );
        assert_eq!(report.counters()["collect.images.built"], 12);
        assert_eq!(report.histograms()["collect.sizes"], vec![1, 0, 2]);
    }

    #[test]
    fn parse_rejects_schema_mismatches() {
        assert!(PipelineReport::parse_json("{}").is_err());
        assert!(PipelineReport::parse_json("{\"phases\":[{}]}").is_err());
        assert!(PipelineReport::parse_json("not json").is_err());
        let missing_timers = "{\"phases\":[{\"name\":\"x\",\"counters\":{},\"gauges\":{}}]}";
        assert!(PipelineReport::parse_json(missing_timers).is_err());
    }

    #[test]
    fn parse_accepts_reports_without_histogram_sum() {
        // Reports committed before `sum` existed (perf baselines) must
        // still parse; the missing field reads as 0.
        let legacy = "{\"phases\":[{\"name\":\"x\",\"counters\":{},\"gauges\":{},\"timers\":{},\
            \"histograms\":{\"x.h\":{\"counts\":[1,2],\"p50\":1,\"p95\":1,\"p99\":1}}}]}";
        let report = PipelineReport::parse_json(legacy).expect("legacy report parses");
        assert_eq!(report.phases[0].histograms[0].1.sum, 0);
        assert_eq!(report.phases[0].histograms[0].1.counts, vec![1, 2]);
    }

    #[test]
    fn delta_since_subtracts_cumulatives_and_passes_gauges_through() {
        let bounds: &[u64] = &[1, 2, 4];
        let at = |counters: u64, gauge: u64, nanos: u64, spans: u64, counts: Vec<u64>, sum: u64| {
            PipelineReport {
                phases: vec![PhaseReport {
                    name: "collect".to_string(),
                    counters: vec![("collect.images.built".to_string(), counters)],
                    gauges: vec![("collect.depth".to_string(), gauge)],
                    timers: vec![("collect.build".to_string(), TimerSnapshot { nanos, spans })],
                    histograms: vec![(
                        "collect.sizes".to_string(),
                        HistogramSnapshot::from_counts(bounds, counts, sum),
                    )],
                }],
            }
        };
        let baseline = at(10, 3, 1_000, 2, vec![1, 0, 2], 9);
        let current = at(15, 7, 4_000, 5, vec![2, 1, 2], 12);
        let lookup = |name: &str| -> Option<&'static [u64]> {
            (name == "collect.sizes").then_some(&[1, 2, 4][..])
        };
        let delta = current.delta_since(&baseline, &lookup);
        let phase = delta.phase("collect").unwrap();
        assert_eq!(phase.counter_value("collect.images.built"), Some(5));
        // Gauges are point-in-time: the current value passes through.
        assert_eq!(phase.gauges[0].1, 7);
        assert_eq!(
            phase.timers[0].1,
            TimerSnapshot {
                nanos: 3_000,
                spans: 3
            }
        );
        assert_eq!(phase.histograms[0].1.counts, vec![1, 1, 0]);
        assert_eq!(phase.histograms[0].1.sum, 3);
        // Percentiles are recomputed from the delta counts, matching a
        // snapshot built directly from them.
        assert_eq!(
            phase.histograms[0].1,
            HistogramSnapshot::from_counts(bounds, vec![1, 1, 0], 3)
        );

        // A phase or entry absent from the baseline is kept whole, and a
        // shrunk counter saturates at zero instead of wrapping.
        let fresh = at(15, 7, 4_000, 5, vec![2, 1, 2], 12);
        let empty = PipelineReport::default();
        let whole = fresh.delta_since(&empty, &lookup);
        assert_eq!(
            whole
                .phase("collect")
                .unwrap()
                .counter_value("collect.images.built"),
            Some(15)
        );
        let shrunk = baseline.delta_since(&current, &lookup);
        assert_eq!(
            shrunk
                .phase("collect")
                .unwrap()
                .counter_value("collect.images.built"),
            Some(0)
        );
    }

    #[test]
    fn durations_render_in_sensible_units() {
        assert_eq!(render_duration(12), "12ns");
        assert_eq!(render_duration(1_200), "1.200µs");
        assert_eq!(render_duration(2_500_000), "2.500ms");
        assert_eq!(render_duration(3_000_000_000), "3.000s");
    }
}
