//! Keyed cost attribution: per-template / per-bucket self-time and work
//! counts, rolled into a top-K cost table.
//!
//! A [`ProfileTable`] maps a dynamic row key (a template's display form,
//! an index bucket's attribute name) to accumulated self-time nanoseconds
//! plus named work counts.  Tables are `static`s, like the other
//! instruments, and record nothing until [`enable`] turns profiling on —
//! a second gate on top of the metrics sink, so the byte-identity
//! determinism suite keeps proving the disabled path non-perturbing.
//!
//! [`render_text`] / [`render_json`] roll one or more tables into a cost
//! report.  Each table may carry a *reference* total (e.g. the
//! `infer.time` wall timer): the report states how much of the reference
//! the rows account for, which is the profiler's coverage invariant —
//! per-template rows must explain ≥95% of `infer.time` (DESIGN.md §16).
//! Attributed time is summed across workers, so on a multi-worker run
//! coverage can legitimately exceed 100% of the wall-clock reference.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The profiling gate, off by default.  [`ProfileTable::record`] is one
/// relaxed load + early-out until [`enable`] flips it.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Whether profiling is currently recording.
#[inline]
pub fn enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Turn profiling on.
pub fn enable() {
    PROFILING.store(true, Ordering::Relaxed);
}

/// Turn profiling off.  Recorded rows are kept until `reset`.
pub fn disable() {
    PROFILING.store(false, Ordering::Relaxed);
}

/// One row's accumulated attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row {
    /// Self-time attributed to this key, nanoseconds (summed across
    /// workers).
    pub nanos: u64,
    /// Named work counts (`pairs`, `candidates`, `checked`, ...).
    pub counts: BTreeMap<&'static str, u64>,
}

/// A named keyed cost table.  `const`-constructible, so tables live in
/// `static`s next to the other instruments.
#[derive(Debug)]
pub struct ProfileTable {
    name: &'static str,
    rows: Mutex<BTreeMap<String, Row>>,
}

impl ProfileTable {
    /// A new empty table.
    pub const fn new(name: &'static str) -> ProfileTable {
        ProfileTable {
            name,
            rows: Mutex::new(BTreeMap::new()),
        }
    }

    /// The table name (`infer.templates`, `detect.buckets`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Row>> {
        self.rows.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Fold `nanos` of self-time and the given work counts into `key`'s
    /// row.  A no-op while profiling is disabled — callers measure the
    /// time only when [`enabled`], so the disabled path costs one load.
    pub fn record(&self, key: &str, nanos: u64, counts: &[(&'static str, u64)]) {
        if !enabled() {
            return;
        }
        let mut rows = self.lock();
        let row = rows.entry(key.to_string()).or_default();
        row.nanos = row.nanos.saturating_add(nanos);
        for &(name, value) in counts {
            *row.counts.entry(name).or_insert(0) += value;
        }
    }

    /// The rows, costliest first (ties broken by key for determinism).
    pub fn snapshot(&self) -> Vec<(String, Row)> {
        let mut rows: Vec<(String, Row)> = self
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        rows.sort_by(|a, b| b.1.nanos.cmp(&a.1.nanos).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Total attributed nanoseconds across every row.
    pub fn total_nanos(&self) -> u64 {
        self.lock().values().map(|r| r.nanos).sum()
    }

    /// Drop every row.
    pub fn reset(&self) {
        self.lock().clear();
    }
}

/// One table plus its optional coverage reference for report rendering.
pub struct Section<'a> {
    /// The table to report.
    pub table: &'a ProfileTable,
    /// `(timer name, total nanos)` the rows are measured against.
    pub reference: Option<(&'static str, u64)>,
}

fn permille(part: u64, whole: u64) -> u64 {
    if whole == 0 {
        0
    } else {
        // u128 intermediate: nanos * 1000 can overflow u64 for long runs.
        ((part as u128 * 1_000) / whole as u128) as u64
    }
}

fn fmt_ms(nanos: u64) -> String {
    format!("{:.3}ms", nanos as f64 / 1e6)
}

/// Render the cost tables as human-readable text, keeping only the
/// `top_k` costliest rows per table (coverage totals still span every
/// row).
pub fn render_text(sections: &[Section<'_>], top_k: usize) -> String {
    let mut out = String::new();
    for section in sections {
        let rows = section.table.snapshot();
        let total: u64 = rows.iter().map(|(_, r)| r.nanos).sum();
        out.push_str(&format!("== profile: {} ==\n", section.table.name()));
        if let Some((name, reference)) = section.reference {
            out.push_str(&format!(
                "attributed {} of {name} {} ({}.{}%)\n",
                fmt_ms(total),
                fmt_ms(reference),
                permille(total, reference) / 10,
                permille(total, reference) % 10,
            ));
        }
        for (rank, (key, row)) in rows.iter().take(top_k).enumerate() {
            let counts: Vec<String> = row
                .counts
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            out.push_str(&format!(
                "  #{:<2} {:>12} {:>5}.{}% {key}  {}\n",
                rank + 1,
                fmt_ms(row.nanos),
                permille(row.nanos, total) / 10,
                permille(row.nanos, total) % 10,
                counts.join(" "),
            ));
        }
        if rows.len() > top_k {
            let rest: u64 = rows.iter().skip(top_k).map(|(_, r)| r.nanos).sum();
            out.push_str(&format!(
                "  ... {} more row(s), {}\n",
                rows.len() - top_k,
                fmt_ms(rest)
            ));
        }
    }
    out
}

/// Render the cost tables as JSON: every row (no top-K truncation), plus
/// per-table totals and the coverage reference, so downstream validators
/// can recheck the ≥95% invariant from the file alone.
pub fn render_json(sections: &[Section<'_>]) -> String {
    let tables: Vec<Json> = sections
        .iter()
        .map(|section| {
            let rows = section.table.snapshot();
            let total: u64 = rows.iter().map(|(_, r)| r.nanos).sum();
            let mut obj = vec![
                (
                    "name".to_string(),
                    Json::Str(section.table.name().to_string()),
                ),
                ("total_nanos".to_string(), Json::Num(total)),
            ];
            if let Some((name, reference)) = section.reference {
                obj.push((
                    "reference".to_string(),
                    Json::Obj(vec![
                        ("name".to_string(), Json::Str(name.to_string())),
                        ("nanos".to_string(), Json::Num(reference)),
                    ]),
                ));
                obj.push((
                    "coverage_permille".to_string(),
                    Json::Num(permille(total, reference)),
                ));
            }
            obj.push((
                "rows".to_string(),
                Json::Arr(
                    rows.iter()
                        .map(|(key, row)| {
                            Json::Obj(vec![
                                ("key".to_string(), Json::Str(key.clone())),
                                ("nanos".to_string(), Json::Num(row.nanos)),
                                (
                                    "counts".to_string(),
                                    Json::Obj(
                                        row.counts
                                            .iter()
                                            .map(|(n, v)| (n.to_string(), Json::Num(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
            Json::Obj(obj)
        })
        .collect();
    Json::Obj(vec![("tables".to_string(), Json::Arr(tables))]).render()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The profiling gate is process-global; serializing tests here.
    static GATE: Mutex<()> = Mutex::new(());

    pub(crate) fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn recording_is_inert_while_disabled() {
        let _gate = gate();
        disable();
        static T: ProfileTable = ProfileTable::new("test.profile.inert");
        T.record("key", 100, &[("pairs", 1)]);
        assert_eq!(T.snapshot(), vec![]);
        assert_eq!(T.total_nanos(), 0);
    }

    #[test]
    fn rows_accumulate_and_sort_by_cost() {
        let _gate = gate();
        static T: ProfileTable = ProfileTable::new("test.profile.rows");
        enable();
        T.record("cheap", 10, &[("pairs", 1)]);
        T.record("dear", 100, &[("pairs", 4), ("candidates", 2)]);
        T.record("cheap", 5, &[("pairs", 2)]);
        disable();
        let rows = T.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "dear");
        assert_eq!(rows[0].1.nanos, 100);
        assert_eq!(rows[0].1.counts["candidates"], 2);
        assert_eq!(rows[1].0, "cheap");
        assert_eq!(rows[1].1.nanos, 15);
        assert_eq!(rows[1].1.counts["pairs"], 3);
        assert_eq!(T.total_nanos(), 115);
        T.reset();
        assert_eq!(T.total_nanos(), 0);
    }

    #[test]
    fn reports_carry_coverage_and_every_row() {
        let _gate = gate();
        static T: ProfileTable = ProfileTable::new("test.profile.report");
        enable();
        T.record("a", 950, &[("pairs", 3)]);
        T.record("b", 30, &[]);
        disable();
        let sections = [Section {
            table: &T,
            reference: Some(("test.time", 1_000)),
        }];
        let text = render_text(&sections, 1);
        assert!(
            text.contains("== profile: test.profile.report =="),
            "{text}"
        );
        assert!(text.contains("98.0%"), "{text}");
        assert!(text.contains("1 more row(s)"), "{text}");
        let json = render_json(&sections);
        let value = crate::json::parse(&json).expect("profile json parses");
        let table = &value.get("tables").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(table.get("total_nanos").and_then(Json::as_u64), Some(980));
        assert_eq!(
            table.get("coverage_permille").and_then(Json::as_u64),
            Some(980)
        );
        assert_eq!(
            table.get("rows").and_then(Json::as_arr).map(|r| r.len()),
            Some(2),
            "JSON keeps every row"
        );
        T.reset();
    }

    #[test]
    fn permille_handles_zero_and_large_values() {
        assert_eq!(permille(1, 0), 0);
        assert_eq!(permille(0, 10), 0);
        assert_eq!(permille(u64::MAX, u64::MAX), 1_000);
    }
}
