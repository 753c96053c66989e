//! Per-phase and whole-pipeline report types with text and JSON renderers.
//!
//! A [`PhaseReport`] is a point-in-time snapshot of one pipeline phase's
//! instruments; a [`PipelineReport`] is the ordered roll-up across all six
//! phases (`collect`, `assemble`, `infer`, `stats`, `filter`, `detect`).
//! A [`HistogramSnapshot`] carries its bucket bounds, so a report reads on
//! its own: exposition, deltas and percentiles need nothing else.
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

/// A histogram's accumulated state: its bucket bounds, the counts in each
/// bucket and the exact sum of the observed values.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Bucket counts, one per bound plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Exact running sum of observed values (wrapping, see
    /// [`Histogram::sum`]).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The p50, p95 and p99 estimates, named as rendered: upper-bound
    /// estimates over the bounds, rounded to whole units (see
    /// [`Histogram::quantile_from`]).
    pub fn percentiles(&self) -> [(&'static str, u64); 3] {
        [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)].map(|(name, q)| {
            let estimate = Histogram::quantile_from(&self.bounds, &self.counts, q);
            (name, estimate.round() as u64)
        })
    }

    fn to_json(&self) -> Json {
        let numbers = |values: &[u64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        let mut fields = vec![
            ("bounds".to_string(), numbers(&self.bounds)),
            ("counts".to_string(), numbers(&self.counts)),
            ("sum".to_string(), Json::Num(self.sum)),
        ];
        fields.extend(
            self.percentiles()
                .map(|(name, value)| (name.to_string(), Json::Num(value))),
        );
        Json::Obj(fields)
    }

    /// Parse histogram `name`'s JSON, rejecting counts that are not one
    /// longer than the bounds, bounds that do not strictly increase, and
    /// a percentile that disagrees with the one the counts give.
    fn from_json(name: &str, value: &Json) -> Result<HistogramSnapshot, String> {
        let missing = |key: &str| format!("histogram `{name}` is missing `{key}`");
        let numbers = |key: &str| -> Result<Vec<u64>, String> {
            value
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| missing(key))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or(format!("histogram `{name}` has a non-number"))
                })
                .collect()
        };
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| missing(key))
        };
        let snapshot = HistogramSnapshot {
            bounds: numbers("bounds")?,
            counts: numbers("counts")?,
            sum: field("sum")?,
        };
        let (bounds, counts) = (snapshot.bounds.len(), snapshot.counts.len());
        if counts != bounds + 1 {
            return Err(format!(
                "histogram `{name}` has {counts} counts for {bounds} bounds"
            ));
        }
        if snapshot.bounds.windows(2).any(|pair| pair[0] >= pair[1]) {
            return Err(format!(
                "histogram `{name}` bounds do not strictly increase"
            ));
        }
        for (key, estimate) in snapshot.percentiles() {
            let stored = field(key)?;
            if stored != estimate {
                return Err(format!(
                    "histogram `{name}` `{key}` is {stored}, but its counts give {estimate}"
                ));
            }
        }
        Ok(snapshot)
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
    /// Histogram name → snapshot (bounds, counts and sum).
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
        entry(&self.counters, name).copied()
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
                        .map(|(name, snap)| (name.clone(), snap.to_json()))
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
            .map(|(n, v)| Ok((n.clone(), HistogramSnapshot::from_json(n, v)?)))
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
    /// bounds and counts, so they need no separate determinism treatment).
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
    /// unchanged.  Entries absent from the baseline, and histograms whose
    /// bounds differ from the baseline's, are kept whole.
    ///
    /// This is what lets the daemon keep the global sink cumulative
    /// (monotone for scrapers) while still emitting a per-tick JSONL
    /// heartbeat: each tick diffs the current roll-up against the previous
    /// tick's.
    #[must_use]
    pub fn delta_since(&self, baseline: &PipelineReport) -> PipelineReport {
        let empty = PhaseReport::default();
        let phases = self
            .phases
            .iter()
            .map(|phase| {
                let base = baseline.phase(&phase.name).unwrap_or(&empty);
                PhaseReport {
                    name: phase.name.clone(),
                    counters: phase
                        .counters
                        .iter()
                        .map(|(name, v)| {
                            let b = base.counter_value(name).unwrap_or(0);
                            (name.clone(), v.saturating_sub(b))
                        })
                        .collect(),
                    gauges: phase.gauges.clone(),
                    timers: phase
                        .timers
                        .iter()
                        .map(|(name, snap)| {
                            let b = entry(&base.timers, name).copied().unwrap_or_default();
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
                            let delta = match entry(&base.histograms, name) {
                                Some(b) if b.bounds == snap.bounds => HistogramSnapshot {
                                    bounds: snap.bounds.clone(),
                                    counts: snap
                                        .counts
                                        .iter()
                                        .zip(&b.counts)
                                        .map(|(c, bc)| c.saturating_sub(*bc))
                                        .collect(),
                                    sum: snap.sum.wrapping_sub(b.sum),
                                },
                                _ => snap.clone(),
                            };
                            (name.clone(), delta)
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
                let percentiles: Vec<String> = snap
                    .percentiles()
                    .iter()
                    .map(|(p, value)| format!("{p}~{value}"))
                    .collect();
                out.push_str(&format!(
                    "  histogram {name} = [{}] {}\n",
                    rendered.join(", "),
                    percentiles.join(" ")
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

/// The value listed under `name`, if any.
pub(crate) fn entry<'a, T>(list: &'a [(String, T)], name: &str) -> Option<&'a T> {
    list.iter().find(|(n, _)| n == name).map(|(_, v)| v)
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
                    histograms: vec![
                        (
                            "collect.sizes".to_string(),
                            HistogramSnapshot {
                                bounds: vec![1, 2, 4],
                                counts: vec![1, 0, 2, 0],
                                sum: 9,
                            },
                        ),
                        (
                            "collect.wait_us".to_string(),
                            HistogramSnapshot {
                                bounds: vec![50, 100, 250, 1_000],
                                counts: vec![0, 3, 1, 0, 0],
                                sum: 420,
                            },
                        ),
                    ],
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
        // The bounds travel with the counts, and the percentiles are
        // estimated over them rather than over bucket indices.
        assert!(json.contains(
            "\"collect.wait_us\":{\"bounds\":[50,100,250,1000],\"counts\":[0,3,1,0,0],\
             \"sum\":420,\"p50\":83,\"p95\":220,\"p99\":244}"
        ));
        assert_eq!(back.phases[0].histograms[1].1.bounds, [50, 100, 250, 1_000]);
    }

    #[test]
    fn text_rendering_shows_every_instrument() {
        let text = sample().render_text();
        assert!(text.contains("phase collect"));
        assert!(text.contains("counter   collect.images.built = 12"));
        assert!(text.contains("gauge     collect.depth = 3"));
        assert!(text.contains("timer     collect.build = 1.500ms over 12 span(s)"));
        // Counts [1, 0, 2, 0] over bounds [1, 2, 4]: ranks 1.5 and beyond
        // fall in the (2, 4] bucket.
        assert!(text.contains("histogram collect.sizes = [1, 0, 2, 0] p50~3 p95~4 p99~4"));
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
        assert_eq!(report.histograms()["collect.sizes"], vec![1, 0, 2, 0]);
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
    fn parse_rejects_inconsistent_histograms() {
        let report = |histogram: &str| {
            format!(
                "{{\"phases\":[{{\"name\":\"x\",\"counters\":{{}},\"gauges\":{{}},\
                 \"timers\":{{}},\"histograms\":{{\"x.h\":{{{histogram}}}}}}}]}}"
            )
        };
        let valid = "\"bounds\":[1],\"counts\":[1,2],\"sum\":3,\"p50\":1,\"p95\":1,\"p99\":1";
        assert!(PipelineReport::parse_json(&report(valid)).is_ok());
        // Counts whose total overflows u64 are estimated, not a panic.
        let huge = "\"bounds\":[1],\"counts\":[18446744073709551615,1],\"sum\":0,\
                    \"p50\":1,\"p95\":1,\"p99\":1";
        assert!(PipelineReport::parse_json(&report(huge)).is_ok());
        for (histogram, message) in [
            (
                "\"bounds\":[1],\"counts\":[1,2],\"p50\":1,\"p95\":1,\"p99\":1",
                "histogram `x.h` is missing `sum`",
            ),
            (
                "\"counts\":[1,2],\"sum\":3,\"p50\":1,\"p95\":1,\"p99\":1",
                "histogram `x.h` is missing `bounds`",
            ),
            (
                "\"bounds\":[1,2],\"counts\":[1,2],\"sum\":3,\"p50\":1,\"p95\":1,\"p99\":1",
                "histogram `x.h` has 2 counts for 2 bounds",
            ),
            (
                "\"bounds\":[2,2],\"counts\":[1,2,0],\"sum\":3,\"p50\":2,\"p95\":2,\"p99\":2",
                "histogram `x.h` bounds do not strictly increase",
            ),
            (
                "\"bounds\":[1],\"counts\":[1,2],\"sum\":3,\"p50\":1,\"p95\":2,\"p99\":1",
                "histogram `x.h` `p95` is 2, but its counts give 1",
            ),
        ] {
            let err = PipelineReport::parse_json(&report(histogram)).expect_err(message);
            assert_eq!(err.message, message);
        }
    }

    #[test]
    fn delta_since_subtracts_cumulatives_and_passes_gauges_through() {
        let at = |counters: u64, gauge: u64, nanos: u64, spans: u64, counts: Vec<u64>, sum: u64| {
            PipelineReport {
                phases: vec![PhaseReport {
                    name: "collect".to_string(),
                    counters: vec![("collect.images.built".to_string(), counters)],
                    gauges: vec![("collect.depth".to_string(), gauge)],
                    timers: vec![("collect.build".to_string(), TimerSnapshot { nanos, spans })],
                    histograms: vec![(
                        "collect.sizes".to_string(),
                        HistogramSnapshot {
                            bounds: vec![1, 2, 4],
                            counts,
                            sum,
                        },
                    )],
                }],
            }
        };
        let baseline = at(10, 3, 1_000, 2, vec![1, 0, 2, 0], 9);
        let current = at(15, 7, 4_000, 5, vec![2, 1, 2, 1], 17);
        let delta = current.delta_since(&baseline);
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
        assert_eq!(
            phase.histograms[0].1,
            HistogramSnapshot {
                bounds: vec![1, 2, 4],
                counts: vec![1, 1, 0, 1],
                sum: 8,
            }
        );

        // A phase or entry absent from the baseline is kept whole, and a
        // shrunk counter saturates at zero instead of wrapping.
        let empty = PipelineReport::default();
        let whole = current.delta_since(&empty);
        assert_eq!(whole, current);
        let shrunk = baseline.delta_since(&current);
        assert_eq!(
            shrunk
                .phase("collect")
                .unwrap()
                .counter_value("collect.images.built"),
            Some(0)
        );

        // Counts under other bounds are not comparable: kept whole too.
        let mut rebucketed = baseline.clone();
        rebucketed.phases[0].histograms[0].1.bounds = vec![1, 2, 8];
        let delta = current.delta_since(&rebucketed);
        assert_eq!(
            delta.phases[0].histograms[0].1,
            current.phases[0].histograms[0].1
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
