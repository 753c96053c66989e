//! Rule filtering (§5.2): support, confidence, and the entropy filter.
//!
//! Three metrics prune false rules from the template search:
//!
//! * **support** — in how many systems the candidate was applicable,
//! * **confidence** — the fraction of applicable systems where it held,
//! * **entropy** — Shannon entropy of each involved attribute's value
//!   distribution; attributes that "seldomly change" carry no signal and
//!   rules over them are likely noise.
//!
//! The filter reports *why* each candidate was dropped so Table 13's
//! staged-filter analysis can be regenerated.

use crate::stats::StatsCache;
use encore_mining::metrics::{entropy, DEFAULT_ENTROPY_THRESHOLD};
use encore_model::AttrName;

/// Thresholds for rule admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterThresholds {
    /// Minimum fraction of training systems where the rule is applicable
    /// (the paper uses 10% of the image count, §7.3).
    pub min_support_fraction: f64,
    /// Minimum confidence (the paper uses 90%).
    pub min_confidence: f64,
    /// Entropy threshold `Ht` each involved attribute must exceed
    /// (the paper uses 0.325 — a 90/10 two-value split).
    pub entropy_threshold: f64,
    /// Whether the entropy filter is applied (disabled for the "Original"
    /// column of Table 13).
    pub use_entropy: bool,
}

impl Default for FilterThresholds {
    fn default() -> Self {
        FilterThresholds {
            min_support_fraction: 0.10,
            min_confidence: 0.90,
            entropy_threshold: DEFAULT_ENTROPY_THRESHOLD,
            use_entropy: true,
        }
    }
}

impl FilterThresholds {
    /// The paper's §7.3 thresholds.
    pub fn paper() -> FilterThresholds {
        FilterThresholds::default()
    }

    /// Same thresholds but with the entropy filter off (Table 13's
    /// "Original" rule counts).
    pub fn without_entropy(mut self) -> FilterThresholds {
        self.use_entropy = false;
        self
    }

    /// Sanity-check the thresholds — a support fraction or confidence
    /// outside `[0, 1]`, or a negative/non-finite entropy threshold, silently
    /// admits everything or nothing.  `encore-lint` surfaces violations as
    /// diagnostics before a run is wasted on them.
    ///
    /// # Errors
    ///
    /// Returns one message per out-of-range field.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        if !(0.0..=1.0).contains(&self.min_support_fraction) {
            problems.push(format!(
                "min_support_fraction {} outside [0, 1]",
                self.min_support_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.min_confidence) {
            problems.push(format!(
                "min_confidence {} outside [0, 1]",
                self.min_confidence
            ));
        }
        if !self.entropy_threshold.is_finite() || self.entropy_threshold < 0.0 {
            problems.push(format!(
                "entropy_threshold {} is not a finite non-negative value",
                self.entropy_threshold
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Why a candidate rule was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Applicable in too few systems.
    LowSupport,
    /// Held in too few of the applicable systems.
    LowConfidence,
    /// An involved attribute's value distribution is below `Ht`.
    LowEntropy,
}

/// Verdict for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep the rule.
    Accept,
    /// Drop it, for this reason.
    Reject(RejectReason),
}

/// Judge one candidate rule against the statistics of one training run.
///
/// `support` and `confidence` come from the inference pass;
/// `template_min_confidence` optionally overrides the global confidence
/// threshold (Figure 6's `-- 90%` syntax).  Entropies are read through the
/// [`StatsCache`] so candidates sharing an attribute don't recompute its
/// value histogram.
pub fn judge(
    thresholds: &FilterThresholds,
    stats: &StatsCache,
    a: &AttrName,
    b: &AttrName,
    support: usize,
    confidence: f64,
    template_min_confidence: Option<f64>,
) -> Verdict {
    Judge::new(thresholds, stats).verdict(
        stats.attr_index(a),
        stats.attr_index(b),
        support,
        confidence,
        template_min_confidence,
    )
}

/// The thresholds of one judging run over one training set, with the
/// minimum support resolved against its row count once: [`judge`] and rule
/// inference both judge through [`Judge::verdict`].
pub(crate) struct Judge<'s> {
    thresholds: FilterThresholds,
    stats: &'s StatsCache,
    /// `ceil(min_support_fraction × rows)`, at least 1.
    min_support: usize,
}

impl<'s> Judge<'s> {
    pub(crate) fn new(thresholds: &FilterThresholds, stats: &'s StatsCache) -> Judge<'s> {
        let min_support =
            (thresholds.min_support_fraction * stats.num_rows() as f64).ceil() as usize;
        Judge {
            thresholds: *thresholds,
            stats,
            min_support: min_support.max(1),
        }
    }

    /// Judge a candidate over the attributes at sorted indices `a` and
    /// `b`, `None` for an attribute outside the training set (an empty
    /// histogram).  An entropy is read only when the checks before it
    /// passed: `b`'s only when `a`'s does.
    pub(crate) fn verdict(
        &self,
        a: Option<usize>,
        b: Option<usize>,
        support: usize,
        confidence: f64,
        template_min_confidence: Option<f64>,
    ) -> Verdict {
        if support < self.min_support {
            crate::obs::FILTER_REJECTED_SUPPORT.incr();
            return Verdict::Reject(RejectReason::LowSupport);
        }
        let min_conf = template_min_confidence.unwrap_or(self.thresholds.min_confidence);
        if confidence < min_conf {
            crate::obs::FILTER_REJECTED_CONFIDENCE.incr();
            return Verdict::Reject(RejectReason::LowConfidence);
        }
        if self.thresholds.use_entropy {
            // "For a rule to be included, all the involved attributes need to
            // be included", i.e. each must have H > Ht (§5.2).
            for attr in [a, b] {
                let h = attr.map_or_else(|| entropy([]), |i| self.stats.entropy_at(i));
                if h <= self.thresholds.entropy_threshold {
                    crate::obs::FILTER_REJECTED_ENTROPY.incr();
                    return Verdict::Reject(RejectReason::LowEntropy);
                }
            }
        }
        crate::obs::FILTER_ACCEPTED.incr();
        Verdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeMap;
    use encore_model::{ConfigValue, Row};

    fn cache_of(rows: &[Row]) -> StatsCache {
        StatsCache::from_rows(&rows.iter().collect::<Vec<_>>(), &TypeMap::new())
    }

    /// Rows where `varied` takes many values and `fixed` only one.
    fn cache() -> StatsCache {
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                let mut r = Row::new(format!("s{i}"));
                r.set(AttrName::entry("varied"), ConfigValue::str(format!("v{i}")));
                r.set(AttrName::entry("fixed"), ConfigValue::str("10"));
                r.set(
                    AttrName::entry("half"),
                    ConfigValue::str(if i < 5 { "x" } else { "y" }),
                );
                r
            })
            .collect();
        cache_of(&rows)
    }

    #[test]
    fn entropy_filter_drops_stable_attributes() {
        let stats = cache();
        let t = FilterThresholds::default();
        let v = judge(
            &t,
            &stats,
            &AttrName::entry("fixed"),
            &AttrName::entry("varied"),
            10,
            1.0,
            None,
        );
        assert_eq!(v, Verdict::Reject(RejectReason::LowEntropy));
        let v = judge(
            &t,
            &stats,
            &AttrName::entry("half"),
            &AttrName::entry("varied"),
            10,
            1.0,
            None,
        );
        assert_eq!(v, Verdict::Accept);
    }

    #[test]
    fn disabling_entropy_admits_stable_attributes() {
        let stats = cache();
        let t = FilterThresholds::default().without_entropy();
        let v = judge(
            &t,
            &stats,
            &AttrName::entry("fixed"),
            &AttrName::entry("varied"),
            10,
            1.0,
            None,
        );
        assert_eq!(v, Verdict::Accept);
    }

    #[test]
    fn support_and_confidence_thresholds() {
        let stats = cache();
        let t = FilterThresholds::default().without_entropy();
        assert_eq!(
            judge(
                &t,
                &stats,
                &AttrName::entry("a"),
                &AttrName::entry("b"),
                0,
                1.0,
                None
            ),
            Verdict::Reject(RejectReason::LowSupport)
        );
        assert_eq!(
            judge(
                &t,
                &stats,
                &AttrName::entry("a"),
                &AttrName::entry("b"),
                10,
                0.5,
                None
            ),
            Verdict::Reject(RejectReason::LowConfidence)
        );
    }

    #[test]
    fn template_confidence_overrides_global() {
        let stats = cache();
        let t = FilterThresholds::default().without_entropy();
        // Global is 0.90; a lax template admits 0.75.
        assert_eq!(
            judge(
                &t,
                &stats,
                &AttrName::entry("a"),
                &AttrName::entry("b"),
                10,
                0.75,
                Some(0.7)
            ),
            Verdict::Accept
        );
    }

    #[test]
    fn threshold_validation_flags_out_of_range_fields() {
        assert!(FilterThresholds::default().validate().is_ok());
        let bad = FilterThresholds {
            min_support_fraction: 1.5,
            min_confidence: -0.1,
            entropy_threshold: f64::NAN,
            use_entropy: true,
        };
        let problems = bad.validate().unwrap_err();
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn paper_entropy_boundary() {
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                let mut r = Row::new(format!("s{i}"));
                // 92/8 split: entropy ≈ 0.279 < Ht = 0.325 → rejected.
                // (An exact 90/10 split sits marginally above Ht ≈ 0.32508
                // and would squeak through, per the paper's definition.)
                r.set(
                    AttrName::entry("split"),
                    ConfigValue::str(if i < 92 { "a" } else { "b" }),
                );
                r.set(AttrName::entry("varied"), ConfigValue::str(format!("v{i}")));
                r
            })
            .collect();
        let stats = cache_of(&rows);
        let t = FilterThresholds::default();
        let v = judge(
            &t,
            &stats,
            &AttrName::entry("split"),
            &AttrName::entry("varied"),
            100,
            1.0,
            None,
        );
        assert_eq!(v, Verdict::Reject(RejectReason::LowEntropy));
    }
}
