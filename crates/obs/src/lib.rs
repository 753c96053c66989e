//! encore-obs — zero-dependency pipeline observability: scoped spans,
//! atomic counters and gauges, fixed-bucket histograms, and per-phase
//! reports.
//!
//! The paper's evaluation is built from per-phase quantities — templates
//! instantiated, pairs pruned, rules surviving each filter, wall time per
//! stage (Tables 3 and 13 are exactly such numbers) — and tuning the
//! pipeline requires seeing them at runtime.  This crate provides the
//! instruments; each pipeline crate declares its own `static` metrics and
//! lists every one of them once in a `static` [`Phase`], from which the
//! phase's [`PhaseReport`] and its reset are derived.
//! `encore::obs::pipeline_report` walks the phases into a
//! [`PipelineReport`] with text and JSON renderers.
//!
//! # Design constraints
//!
//! * **Disabled means free.**  The sink is a single global [`AtomicBool`];
//!   every instrument checks it with one relaxed load and does nothing else
//!   when it is off.  No allocation happens on either path — a [`Span`] is
//!   a stack guard holding an `Option<Instant>`, and counters are plain
//!   `AtomicU64`s (`tests/noop_overhead.rs` pins this down with a counting
//!   allocator).
//! * **No runtime registry.**  A [`Phase`] is an immutable static list
//!   resolved at compile time, so there is no global table to populate,
//!   lock or race on.
//! * **Observation must not perturb.**  Instruments only ever *read*
//!   pipeline state; `RuleSet` output is byte-identical with the sink on
//!   and off, and counter/histogram totals are identical across worker
//!   counts (`tests/determinism.rs` at the workspace root proves both).
//!   Quantities that legitimately depend on scheduling — per-worker unit
//!   counts, busy time — are [`Gauge`]s and [`Timer`]s, never [`Counter`]s.
//! * **Names are stable.**  Metrics follow `phase.subsystem.metric`
//!   (DESIGN.md §9); reports key on those strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod event;
pub mod expose;
pub mod json;
mod phase;
pub mod profile;
mod report;
pub mod trace;

pub use phase::{Metric, Phase};
pub use report::{HistogramSnapshot, PhaseReport, PipelineReport, TimerSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The global sink switch.  Off by default; every instrument is a no-op
/// (one relaxed load) until something turns it on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the sink is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the sink on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the sink off.  Already-recorded values are kept until `reset`.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// A named monotonically increasing count of *work done* — entries parsed,
/// pairs evaluated, rules rejected.  Counters must be deterministic: the
/// same pipeline input yields the same totals regardless of worker count
/// or scheduling.  Scheduling-dependent quantities belong in a [`Gauge`].
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter at zero.  `const`, so counters live in `static`s.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name (`phase.subsystem.metric`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n`; a relaxed no-op while the sink is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A named last-write-wins value for quantities that are *descriptive*
/// rather than cumulative — worker count, busiest-worker load.  Gauges may
/// legitimately differ between runs with different scheduling, so the
/// determinism tests exclude them.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// A new gauge at zero.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Set the value; a no-op while the sink is disabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the value to at least `v`; a no-op while disabled.
    #[inline]
    pub fn set_max(&self, v: u64) {
        if enabled() {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A named accumulator of monotonic wall time, fed by [`Span`] guards.
/// Timers nest naturally — each span measures its own scope — and, like
/// gauges, their values are scheduling-dependent, so the determinism tests
/// exclude them.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    nanos: AtomicU64,
    spans: AtomicU64,
}

impl Timer {
    /// A new timer at zero.
    pub const fn new(name: &'static str) -> Timer {
        Timer {
            name,
            nanos: AtomicU64::new(0),
            spans: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Open a scoped span; its duration is recorded when the guard drops.
    /// While the sink is disabled the guard holds no start time and the
    /// drop is free.  Neither path allocates.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            timer: self,
            started: if enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Record an externally measured duration (always, independent of the
    /// sink — [`Span`] has already made the enablement decision at open).
    fn record(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.spans.fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Number of recorded spans.
    pub fn spans(&self) -> u64 {
        self.spans.load(Ordering::Relaxed)
    }

    /// Snapshot for reports.
    pub fn snapshot(&self) -> TimerSnapshot {
        TimerSnapshot {
            nanos: self.total_nanos(),
            spans: self.spans(),
        }
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
        self.spans.store(0, Ordering::Relaxed);
    }
}

/// A scoped-timing guard returned by [`Timer::span`].  Spans nest: each
/// guard measures its own lexical scope against monotonic time.
#[derive(Debug)]
pub struct Span<'a> {
    timer: &'a Timer,
    started: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let elapsed = started.elapsed();
            // u64 nanoseconds hold ~584 years; saturate rather than wrap.
            let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            self.timer.record(nanos);
            // Feed the Chrome-trace ring buffer when span recording is on
            // (one extra relaxed load; free when tracing is off, and never
            // reached at all while the sink itself is disabled).
            trace::record_span(self.timer.name, started, elapsed);
        }
    }
}

/// The largest number of finite bucket bounds a [`Histogram`] may carry.
pub const MAX_BUCKETS: usize = 16;

/// Upper bounds indexing small nonnegative integers one-per-bucket —
/// convenient for per-shard or per-template histograms where the observed
/// value is an index below [`MAX_BUCKETS`].
pub const INDEX_BOUNDS: [u64; MAX_BUCKETS] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// A fixed-bucket histogram: at most [`MAX_BUCKETS`] inclusive upper
/// bounds plus one overflow bucket.  Bounds must be strictly increasing —
/// [`Histogram::new`] is `const` and panics at compile time otherwise.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS + 1],
    /// Exact running sum of every observed value — kept so Prometheus
    /// `_sum` exposition is precise rather than bucket-midpoint-estimated.
    /// Wrapping on overflow (observations are small work counts and
    /// millisecond durations; u64 holds ~584 years of nanoseconds).
    sum: AtomicU64,
}

impl Histogram {
    /// A new histogram over `bounds` (inclusive upper limits, strictly
    /// increasing, at most [`MAX_BUCKETS`] of them).
    pub const fn new(name: &'static str, bounds: &'static [u64]) -> Histogram {
        assert!(bounds.len() <= MAX_BUCKETS, "too many histogram buckets");
        let mut i = 1;
        while i < bounds.len() {
            assert!(
                bounds[i - 1] < bounds[i],
                "histogram bounds must be strictly increasing"
            );
            i += 1;
        }
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            bounds,
            buckets: [ZERO; MAX_BUCKETS + 1],
            sum: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// The bucket index a value of `v` falls into for the given `bounds`:
    /// the first bound at least `v`, or the overflow index `bounds.len()`.
    /// Exposed for property tests — monotone in `v` by construction.
    pub fn bucket_index(bounds: &[u64], v: u64) -> usize {
        bounds
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(bounds.len())
    }

    /// Record one observation of `v`; a no-op while the sink is disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Record `n` observations of `v` at once: `n` is added to `v`'s
    /// bucket and `v * n` (wrapping, like the sum) to the sum, as `n`
    /// calls of [`Histogram::observe`] would.  A no-op while the sink is
    /// disabled.
    #[inline]
    pub fn observe_n(&self, v: u64, n: u64) {
        if enabled() {
            let index = Self::bucket_index(self.bounds, v);
            self.buckets[index].fetch_add(n, Ordering::Relaxed);
            self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        }
    }

    /// Exact sum of every observed value.  Reads `sum` and the buckets
    /// non-atomically with respect to each other, so a concurrent
    /// `observe` may be visible in one but not yet the other — snapshot
    /// after quiescing for exact pairing (reports do).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Bucket counts, one per bound plus the trailing overflow bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.buckets[..=self.bounds.len()]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// distribution.  See [`Histogram::quantile_from`] for the estimation
    /// semantics (linear interpolation within the fixed buckets, an
    /// upper-bound estimate).
    pub fn quantile(&self, q: f64) -> f64 {
        Self::quantile_from(self.bounds, &self.counts(), q)
    }

    /// Estimate a quantile from bucket `counts` over inclusive upper
    /// `bounds` (the [`Histogram::counts`] layout: one count per bound plus
    /// the trailing overflow bucket).
    ///
    /// The rank `q * total` is located in the cumulative counts and
    /// linearly interpolated between the containing bucket's edges, so the
    /// estimate is an **upper bound**: every observation in bucket `i` is
    /// at most `bounds[i]`, and the interpolation reaches that bound only
    /// when the rank is the bucket's last observation.  Ranks landing in
    /// the overflow bucket clamp to the largest finite bound (there the
    /// estimate is a *lower* bound, and is reported as such).  An empty
    /// distribution estimates 0.
    pub fn quantile_from(bounds: &[u64], counts: &[u64], q: f64) -> f64 {
        // Summed as f64, exact below 2^53 observations, so counts parsed
        // from a report cannot overflow the total.
        let total: f64 = counts.iter().map(|&c| c as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total;
        let mut below = 0.0;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Empty buckets neither contain ranks nor move `below`.
                continue;
            }
            let through = below + count as f64;
            if through >= rank {
                let Some(&hi) = bounds.get(i) else {
                    // Overflow bucket: no finite upper edge to interpolate
                    // toward; clamp to the largest finite bound.
                    return bounds.last().copied().unwrap_or(0) as f64;
                };
                let lo = if i == 0 { 0 } else { bounds[i - 1] };
                if rank <= below {
                    // The rank sits on this bucket's lower boundary — only
                    // reachable for `q = 0` (any earlier non-empty bucket
                    // would have claimed the rank): the estimate is the
                    // first non-empty bucket's lower edge, not a point
                    // inside it.
                    return lo as f64;
                }
                // A rank on the *upper* boundary (`rank == through`) is the
                // bucket's last observation: `frac` reaches exactly 1.0 and
                // the estimate is `hi` — the rank never skips into the next
                // bucket.
                let frac = ((rank - below) / count as f64).clamp(0.0, 1.0);
                return lo as f64 + (hi - lo) as f64 * frac;
            }
            below = through;
        }
        bounds.last().copied().unwrap_or(0) as f64
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Reset every bucket (and the running sum) to zero.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink flag is process-global and the test harness runs tests on
    // parallel threads, so every test that toggles it holds this gate.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counter_is_inert_when_disabled() {
        let _gate = gate();
        disable();
        static C: Counter = Counter::new("test.counter.inert");
        C.incr();
        C.add(41);
        assert_eq!(C.get(), 0);
        enable();
        C.incr();
        C.add(41);
        disable();
        C.incr(); // ignored again
        assert_eq!(C.get(), 42);
        C.reset();
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn gauge_set_and_max() {
        let _gate = gate();
        static G: Gauge = Gauge::new("test.gauge.basic");
        enable();
        G.set(7);
        G.set_max(3);
        assert_eq!(G.get(), 7);
        G.set_max(11);
        assert_eq!(G.get(), 11);
        disable();
        G.set(99);
        assert_eq!(G.get(), 11);
        G.reset();
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn spans_accumulate_only_when_enabled() {
        let _gate = gate();
        static T: Timer = Timer::new("test.timer.spans");
        disable();
        drop(T.span());
        assert_eq!(T.spans(), 0);
        assert_eq!(T.total_nanos(), 0);
        enable();
        {
            let _outer = T.span();
            let _inner = T.span(); // nesting: both record on drop
        }
        disable();
        assert_eq!(T.spans(), 2);
        let snap = T.snapshot();
        assert_eq!(snap.spans, 2);
        assert_eq!(snap.nanos, T.total_nanos());
        T.reset();
        assert_eq!(T.snapshot(), TimerSnapshot::default());
    }

    #[test]
    fn histogram_buckets_values_and_overflows() {
        let _gate = gate();
        static H: Histogram = Histogram::new("test.hist.buckets", &[1, 10, 100]);
        enable();
        for v in [0, 1, 2, 10, 11, 100, 101, u64::MAX] {
            H.observe(v);
        }
        disable();
        assert_eq!(H.counts(), vec![2, 2, 2, 2]);
        assert_eq!(H.total(), 8);
        // Exact sum, wrapping on overflow: 0+1+2+10+11+100+101 = 225, and
        // the final u64::MAX observation wraps the total down by one.
        assert_eq!(H.sum(), 224);
        H.observe(5); // disabled: ignored
        assert_eq!(H.total(), 8);
        assert_eq!(H.sum(), 224);
        H.reset();
        assert_eq!(H.counts(), vec![0, 0, 0, 0]);
        assert_eq!(H.sum(), 0);
    }

    #[test]
    fn observe_n_matches_n_single_observations() {
        let _gate = gate();
        static ONE_BY_ONE: Histogram = Histogram::new("test.hist.one_by_one", &[1, 10, 100]);
        static BATCHED: Histogram = Histogram::new("test.hist.batched", &[1, 10, 100]);
        enable();
        for (v, n) in [(0, 3), (7, 0), (10, 5), (64, 1), (u64::MAX, 2)] {
            for _ in 0..n {
                ONE_BY_ONE.observe(v);
            }
            BATCHED.observe_n(v, n);
        }
        disable();
        assert_eq!(BATCHED.counts(), ONE_BY_ONE.counts());
        assert_eq!(BATCHED.sum(), ONE_BY_ONE.sum());
        assert_eq!(BATCHED.counts(), vec![3, 5, 1, 2]);
        BATCHED.observe_n(5, 4); // disabled: ignored
        assert_eq!(BATCHED.total(), 11);
    }

    #[test]
    fn bucket_index_matches_inclusive_bounds() {
        let bounds = [0, 1, 2];
        assert_eq!(Histogram::bucket_index(&bounds, 0), 0);
        assert_eq!(Histogram::bucket_index(&bounds, 1), 1);
        assert_eq!(Histogram::bucket_index(&bounds, 2), 2);
        assert_eq!(Histogram::bucket_index(&bounds, 3), 3); // overflow
        assert_eq!(Histogram::bucket_index(&[], 0), 0); // all-overflow
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 20 observations: 10 in (0, 10], 10 in (20, 30].
        let bounds = [10, 20, 30];
        let counts = [10, 0, 10, 0];
        // Rank 10 is the last observation of the first bucket: its upper
        // bound exactly.
        assert_eq!(Histogram::quantile_from(&bounds, &counts, 0.5), 10.0);
        // Rank 15 is halfway through the third bucket (20..30].
        assert_eq!(Histogram::quantile_from(&bounds, &counts, 0.75), 25.0);
        // Rank 20 is that bucket's last observation.
        assert_eq!(Histogram::quantile_from(&bounds, &counts, 1.0), 30.0);
        // q=0 lands at the first nonempty bucket's lower edge.
        assert_eq!(Histogram::quantile_from(&bounds, &counts, 0.0), 0.0);
    }

    #[test]
    fn quantile_edge_cases_pin_the_bucket_boundaries() {
        // q=0 with *leading empty buckets*: the estimate is the first
        // non-empty bucket's lower edge (20, the previous bound) — not 0
        // and not a point inside the bucket.
        let bounds = [10, 20, 30];
        assert_eq!(Histogram::quantile_from(&bounds, &[0, 0, 8, 0], 0.0), 20.0);
        // A rank exactly on a bucket's upper boundary resolves inside that
        // bucket (frac = 1.0 → its bound), never skipping into the next
        // non-empty bucket: rank 10 of 16 is the first bucket's last
        // observation, so the estimate is 10, not a point in (20, 30].
        // (Total 16 keeps `q * total` exact in floating point.)
        let counts = [10, 0, 6, 0];
        assert_eq!(
            Histogram::quantile_from(&bounds, &counts, 10.0 / 16.0),
            10.0
        );
        // Just past the boundary the estimate moves into the next
        // non-empty bucket, continuously from its lower edge.
        let just_past = Histogram::quantile_from(&bounds, &counts, 10.5 / 16.0);
        assert!(
            (20.0..21.0).contains(&just_past),
            "expected lower reach of (20, 30], got {just_past}"
        );
        // A single-observation histogram: every q > 0 estimates the
        // observation's bucket bound; q = 0 its lower edge.
        assert_eq!(Histogram::quantile_from(&bounds, &[0, 1, 0, 0], 1.0), 20.0);
        assert_eq!(Histogram::quantile_from(&bounds, &[0, 1, 0, 0], 0.0), 10.0);
    }

    #[test]
    fn quantiles_clamp_in_the_overflow_bucket() {
        // 1 observation ≤ 10, 3 in the overflow bucket (> 10).
        let bounds = [10];
        let counts = [1, 3];
        assert_eq!(Histogram::quantile_from(&bounds, &counts, 0.99), 10.0);
        // Everything in overflow with no finite bound at all: estimate 0.
        assert_eq!(Histogram::quantile_from(&[], &[5], 0.5), 0.0);
        // Empty distribution.
        assert_eq!(Histogram::quantile_from(&bounds, &[0, 0], 0.5), 0.0);
    }

    #[test]
    fn quantile_reads_the_live_instrument() {
        let _gate = gate();
        static H: Histogram = Histogram::new("test.hist.quantile", &[1, 10, 100]);
        enable();
        for v in [0, 1, 5, 50] {
            H.observe(v);
        }
        disable();
        // Rank 2 of 4 closes the (0, 1] bucket.
        assert_eq!(H.quantile(0.5), 1.0);
        H.reset();
        assert_eq!(H.quantile(0.5), 0.0);
    }
}
