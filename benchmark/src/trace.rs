//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started, and the id of the iteration or request it belongs to.  Spans
//! stay in memory and are written once, at the end, as Chrome-trace JSON.
//! A disabled tracer runs the wrapped closures and records nothing, so the
//! untraced measurement pays no bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    id: u64,
    tid: u32,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder.  Threads each own one and the results are
/// merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            tid: 0,
            id: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn for_thread(&self, tid: u32) -> Tracer {
        Tracer {
            origin: self.origin,
            tid,
            ..Tracer::new(self.on)
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with an iteration or request id.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            id: self.id,
            tid: self.tid,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        result
    }

    /// Add `n` to the count `name`, recorded at the same boundary as a span.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Move another thread's spans and counts into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        for (name, n) in other.counts {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Duration of the most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<Duration> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(Span::duration)
    }

    /// Total duration and number of spans named `name`.
    pub fn total(&self, name: &str) -> (Duration, usize) {
        let durations = self.durations(name);
        (durations.iter().sum(), durations.len())
    }

    /// For each span named `root`, the share of its duration that its
    /// direct children cover.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == root)
            .map(|(s, c)| c.as_secs_f64() / s.duration().as_secs_f64().max(1e-12))
            .collect()
    }

    /// Write every span as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// complete event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.tid,
                span.start.as_secs_f64() * 1e6,
                span.duration().as_secs_f64() * 1e6,
                span.id,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_the_share_children_cover() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let (outer, inner) = (t.total("outer").0, t.total("inner").0);
        assert!(inner < outer);
        let coverage = t.coverage("outer");
        assert_eq!(coverage.len(), 1);
        assert!((coverage[0] - inner.as_secs_f64() / outer.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        t.count("c", 3);
        assert_eq!(t.total("x").1, 0);
        assert_eq!(t.counted("c"), 0);
    }
}
