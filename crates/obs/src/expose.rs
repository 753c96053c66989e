//! Prometheus text exposition (format 0.0.4) over a [`PipelineReport`],
//! plus the tiny HTTP responder that serves it to a scraper.
//!
//! The mapping from sink instruments to Prometheus families:
//!
//! | instrument | family                              | TYPE        |
//! |------------|-------------------------------------|-------------|
//! | counter    | `encore_<name>_total`               | `counter`   |
//! | gauge      | `encore_<name>`                     | `gauge`     |
//! | timer      | `encore_<name>_seconds_total` and `encore_<name>_spans_total` | `counter` ×2 |
//! | histogram  | `encore_<name>` with cumulative `_bucket{le=..}`, exact `_sum`, `_count` | `histogram` |
//!
//! `<name>` is the metric name sanitized into the Prometheus grammar:
//! ASCII alphanumerics lower-cased, everything else `_`
//! (`infer.pairs.evaluated` → `encore_infer_pairs_evaluated_total`).
//! Sanitization could merge distinct names (`a.b-c` and `a.b_c`); no two
//! registered metrics do, and [`validate`] rejects a family that appears
//! twice.
//!
//! Timer seconds are rendered digit-exactly from the integer second and
//! nanosecond parts (never through `f64`, whose 53-bit mantissa would
//! round totals beyond 2^53 ns); histogram `_sum` is the instrument's
//! exact running sum (see
//! [`Histogram::sum`](crate::Histogram::sum)), not a bucket-midpoint
//! estimate.  Histogram `le` bounds are the snapshot's own bounds.
//!
//! [`MetricsServer`] is a hand-rolled `std::net::TcpListener` HTTP/1.0
//! responder (zero dependencies, one named accept thread) exposing
//! `/metrics`, `/healthz` (process up) and `/readyz` (a caller-supplied
//! status closure; 503 while not ready).

use crate::report::PipelineReport;
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sanitize a sink metric name into the `encore_` Prometheus namespace:
/// ASCII alphanumerics are lower-cased, every other character becomes `_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("encore_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a HELP docstring per the exposition format: `\` and newline.
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Render a report in the Prometheus text exposition format 0.0.4.
///
/// Families appear in report order (phase order, then instrument
/// declaration order within the phase); each family is one `# HELP` line,
/// one `# TYPE` line, then its samples.
pub fn render(report: &PipelineReport) -> String {
    let mut out = String::new();
    for phase in &report.phases {
        let header = |out: &mut String, family: &str, kind: &str, noun: &str, orig: &str| {
            let help = escape_help(&format!("{noun} `{orig}` (phase {}).", phase.name));
            out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
        };
        for (name, value) in &phase.counters {
            let family = format!("{}_total", sanitize(name));
            header(&mut out, &family, "counter", "Counter", name);
            out.push_str(&format!("{family} {value}\n"));
        }
        for (name, value) in &phase.gauges {
            let family = sanitize(name);
            header(&mut out, &family, "gauge", "Gauge", name);
            out.push_str(&format!("{family} {value}\n"));
        }
        for (name, snap) in &phase.timers {
            let family = format!("{}_seconds_total", sanitize(name));
            header(
                &mut out,
                &family,
                "counter",
                "Timer total seconds for",
                name,
            );
            // Integer seconds + zero-padded fractional nanos, not
            // `nanos as f64 / 1e9`: above 2^53 nanoseconds (~104 days of
            // accumulated span time) the f64 mantissa runs out and the
            // rendered total silently loses nanoseconds.  Decimal
            // formatting from the two integer parts is exact for every u64.
            let (seconds, nanos) = (snap.nanos / 1_000_000_000, snap.nanos % 1_000_000_000);
            out.push_str(&format!("{family} {seconds}.{nanos:09}\n"));
            let family = format!("{}_spans_total", sanitize(name));
            header(&mut out, &family, "counter", "Timer span count for", name);
            out.push_str(&format!("{family} {}\n", snap.spans));
        }
        for (name, snap) in &phase.histograms {
            let family = sanitize(name);
            header(&mut out, &family, "histogram", "Histogram", name);
            let mut cumulative = 0u64;
            for (i, count) in snap.counts.iter().enumerate() {
                cumulative += count;
                let le = snap
                    .bounds
                    .get(i)
                    .map_or("+Inf".to_string(), u64::to_string);
                out.push_str(&format!("{family}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{family}_sum {}\n", snap.sum));
            out.push_str(&format!("{family}_count {cumulative}\n"));
        }
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// State carried while validating one family's block of lines.
struct FamilyCheck {
    name: String,
    kind: String,
    type_seen: bool,
    samples: usize,
    /// Histogram bookkeeping: `(le, cumulative)` in appearance order.
    buckets: Vec<(f64, f64)>,
    sum_seen: bool,
    count: Option<f64>,
}

impl FamilyCheck {
    /// End-of-family invariants: a TYPE line and at least one sample were
    /// seen; histograms have strictly increasing `le`, non-decreasing
    /// cumulative counts, a trailing `+Inf` bucket, a `_sum`, and a
    /// `_count` equal to the `+Inf` bucket.
    fn finish(&self) -> Result<(), String> {
        let name = &self.name;
        if !self.type_seen {
            return Err(format!("family `{name}` has HELP but no TYPE"));
        }
        if self.samples == 0 {
            return Err(format!("family `{name}` has no samples"));
        }
        if self.kind == "histogram" {
            if self.buckets.is_empty() {
                return Err(format!("histogram `{name}` has no buckets"));
            }
            for pair in self.buckets.windows(2) {
                if pair[1].0 <= pair[0].0 {
                    return Err(format!("histogram `{name}` has non-increasing le bounds"));
                }
                if pair[1].1 < pair[0].1 {
                    return Err(format!("histogram `{name}` buckets are not cumulative"));
                }
            }
            let last = self.buckets[self.buckets.len() - 1];
            if !last.0.is_infinite() {
                return Err(format!("histogram `{name}` is missing the +Inf bucket"));
            }
            if !self.sum_seen {
                return Err(format!("histogram `{name}` is missing _sum"));
            }
            match self.count {
                None => return Err(format!("histogram `{name}` is missing _count")),
                Some(count) if count != last.1 => {
                    return Err(format!(
                        "histogram `{name}` _count {count} != +Inf bucket {}",
                        last.1
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// A parsed sample line: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Split a sample line into `(metric name, labels, value)`, validating
/// label syntax and escaping (`\\`, `\"`, `\n` only inside quotes).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let err = |m: &str| format!("{m}: `{line}`");
    let (name_part, rest) = match line.find(['{', ' ']) {
        Some(i) => (&line[..i], &line[i..]),
        None => return Err(err("sample line has no value")),
    };
    if !valid_metric_name(name_part) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let value_part;
    if let Some(body) = rest.strip_prefix('{') {
        let close = body
            .find('}')
            .ok_or_else(|| err("unterminated label set"))?;
        let (label_body, after) = body.split_at(close);
        value_part = after[1..].trim();
        for item in label_body.split(',').filter(|s| !s.is_empty()) {
            let (key, raw) = item
                .split_once('=')
                .ok_or_else(|| err("label without `=`"))?;
            if !valid_metric_name(key) {
                return Err(err("invalid label name"));
            }
            let raw = raw
                .strip_prefix('"')
                .and_then(|r| r.strip_suffix('"'))
                .ok_or_else(|| err("label value is not quoted"))?;
            let mut chars = raw.chars();
            let mut value = String::new();
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        _ => return Err(err("bad escape in label value")),
                    },
                    '"' => return Err(err("unescaped quote in label value")),
                    c => value.push(c),
                }
            }
            labels.push((key.to_string(), value));
        }
    } else {
        value_part = rest.trim();
    }
    let value = if value_part == "+Inf" {
        f64::INFINITY
    } else {
        value_part
            .parse::<f64>()
            .map_err(|_| err("sample value is not a number"))?
    };
    Ok((name_part.to_string(), labels, value))
}

/// Line-grammar validator for the exposition format: every family is
/// `# HELP` then `# TYPE` then one or more samples whose names belong to
/// that family; families never repeat; histogram buckets are cumulative
/// with strictly increasing `le` ending at `+Inf`, and `_count` matches.
/// Returns the first violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut current: Option<FamilyCheck> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(help) = line.strip_prefix("# HELP ") {
            if let Some(family) = current.take() {
                family.finish()?;
            }
            let name = help
                .split_whitespace()
                .next()
                .ok_or("HELP line without a name")?;
            if !valid_metric_name(name) {
                return Err(format!("HELP for invalid name `{name}`"));
            }
            if !seen.insert(name.to_string()) {
                return Err(format!("family `{name}` appears twice"));
            }
            current = Some(FamilyCheck {
                name: name.to_string(),
                kind: String::new(),
                type_seen: false,
                samples: 0,
                buckets: Vec::new(),
                sum_seen: false,
                count: None,
            });
        } else if let Some(type_line) = line.strip_prefix("# TYPE ") {
            let mut parts = type_line.split_whitespace();
            let name = parts.next().ok_or("TYPE line without a name")?;
            let kind = parts
                .next()
                .ok_or(format!("TYPE `{name}` without a kind"))?;
            let family = current
                .as_mut()
                .ok_or(format!("TYPE `{name}` without a preceding HELP"))?;
            if family.name != name {
                return Err(format!(
                    "TYPE `{name}` does not match preceding HELP `{}`",
                    family.name
                ));
            }
            if family.type_seen {
                return Err(format!("family `{name}` has two TYPE lines"));
            }
            if family.samples > 0 {
                return Err(format!("family `{name}` has samples before TYPE"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("family `{name}` has unknown type `{kind}`"));
            }
            family.type_seen = true;
            family.kind = kind.to_string();
        } else if line.starts_with('#') {
            // Other comments are allowed anywhere.
        } else {
            let (name, labels, value) = parse_sample(line)?;
            let family = current
                .as_mut()
                .ok_or(format!("sample `{name}` outside any family"))?;
            if family.kind == "histogram" {
                let suffix = name
                    .strip_prefix(family.name.as_str())
                    .ok_or_else(|| format!("sample `{name}` outside family `{}`", family.name))?;
                match suffix {
                    "_bucket" => {
                        let le = labels
                            .iter()
                            .find(|(k, _)| k == "le")
                            .map(|(_, v)| v.as_str())
                            .ok_or(format!("bucket of `{name}` is missing le"))?;
                        let le = if le == "+Inf" {
                            f64::INFINITY
                        } else {
                            le.parse::<f64>()
                                .map_err(|_| format!("bucket of `{name}` has bad le `{le}`"))?
                        };
                        family.buckets.push((le, value));
                    }
                    "_sum" => family.sum_seen = true,
                    "_count" => family.count = Some(value),
                    _ => {
                        return Err(format!(
                            "sample `{name}` is not a series of histogram `{}`",
                            family.name
                        ))
                    }
                }
            } else if name != family.name {
                return Err(format!(
                    "sample `{name}` does not belong to family `{}`",
                    family.name
                ));
            }
            family.samples += 1;
        }
    }
    if let Some(family) = current.take() {
        family.finish()?;
    }
    Ok(())
}

/// A minimal HTTP/1.0 metrics endpoint on a background accept thread.
///
/// Routes: `GET /metrics` (renders via the supplied closure, content type
/// `text/plain; version=0.0.4`), `GET /healthz` (200 while the process is
/// up), `GET /readyz` (200/503 off a caller-supplied status closure with a
/// per-component body — see [`MetricsServer::start`]); anything else is
/// 404, non-GET is 405.  Every response closes the connection.  Dropping the server stops
/// the thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port — see
    /// [`MetricsServer::addr`]) and start serving, with `/readyz` driven by
    /// a status closure returning `(ready, body)`.  The daemon uses this to
    /// expose *per-component* readiness: one body line per app, status 503
    /// while any app is not ready — so a failing hot-reload of one snapshot
    /// flips the endpoint without hiding which tenant is sick.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unusable.
    pub fn start<S, F>(addr: &str, status: S, render: F) -> io::Result<MetricsServer>
    where
        S: Fn() -> (bool, String) + Send + 'static,
        F: Fn() -> String + Send + 'static,
    {
        let mut addrs = addr.to_socket_addrs()?;
        let addr = addrs
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("encore-metrics".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        serve_connection(stream, &status, &render);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept thread and wait for it to exit.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept call; any error just means the thread is
            // already gone.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    status: &dyn Fn() -> (bool, String),
    render: &dyn Fn() -> String,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    const TEXT: &str = "text/plain; charset=utf-8";
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            TEXT,
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render(),
            ),
            "/healthz" => ("200 OK", TEXT, "ok\n".to_string()),
            "/readyz" => {
                let (ready, body) = status();
                if ready {
                    ("200 OK", TEXT, body)
                } else {
                    ("503 Service Unavailable", TEXT, body)
                }
            }
            _ => ("404 Not Found", TEXT, "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{HistogramSnapshot, PhaseReport, TimerSnapshot};

    #[test]
    fn sanitize_maps_to_namespace() {
        assert_eq!(
            sanitize("infer.pairs.evaluated"),
            "encore_infer_pairs_evaluated"
        );
        assert_eq!(sanitize("A.B-c"), "encore_a_b_c");
        assert_eq!(
            sanitize("watch.cycle_duration_ms"),
            "encore_watch_cycle_duration_ms"
        );
    }

    #[test]
    fn renders_every_instrument_kind_and_validates() {
        let report = PipelineReport {
            phases: vec![PhaseReport {
                name: "infer".to_string(),
                counters: vec![("infer.pairs.evaluated".to_string(), 6202)],
                gauges: vec![("infer.pool.workers".to_string(), 4)],
                timers: vec![(
                    "infer.time".to_string(),
                    TimerSnapshot {
                        nanos: 1_500_000_000,
                        spans: 3,
                    },
                )],
                histograms: vec![(
                    "infer.candidates.by_template".to_string(),
                    HistogramSnapshot {
                        bounds: vec![1, 2, 4],
                        counts: vec![1, 0, 2, 1],
                        sum: 14,
                    },
                )],
            }],
        };
        let text = render(&report);
        assert!(text.contains("# TYPE encore_infer_pairs_evaluated_total counter\n"));
        assert!(text.contains("encore_infer_pairs_evaluated_total 6202\n"));
        assert!(text.contains("# TYPE encore_infer_pool_workers gauge\n"));
        assert!(text.contains("encore_infer_pool_workers 4\n"));
        assert!(text.contains("encore_infer_time_seconds_total 1.500000000\n"));
        assert!(text.contains("encore_infer_time_spans_total 3\n"));
        assert!(text.contains("# TYPE encore_infer_candidates_by_template histogram\n"));
        assert!(text.contains("encore_infer_candidates_by_template_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("encore_infer_candidates_by_template_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("encore_infer_candidates_by_template_bucket{le=\"4\"} 3\n"));
        assert!(text.contains("encore_infer_candidates_by_template_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("encore_infer_candidates_by_template_sum 14\n"));
        assert!(text.contains("encore_infer_candidates_by_template_count 4\n"));
        validate(&text).expect("rendered exposition passes the grammar validator");
    }

    #[test]
    fn timer_seconds_stay_exact_beyond_f64_mantissa_range() {
        // 2^53 + 1 nanoseconds: the first value an `as f64 / 1e9` render
        // rounds (to ...992), and far below u64's ceiling.
        let report = PipelineReport {
            phases: vec![PhaseReport {
                name: "daemon".to_string(),
                timers: vec![(
                    "uptime".to_string(),
                    TimerSnapshot {
                        nanos: 9_007_199_254_740_993,
                        spans: 1,
                    },
                )],
                ..PhaseReport::default()
            }],
        };
        let text = render(&report);
        assert!(
            text.contains("encore_uptime_seconds_total 9007199.254740993\n"),
            "large timer total lost nanosecond exactness:\n{text}"
        );
        // The u64 extremes render exactly too.
        let extremes = PipelineReport {
            phases: vec![PhaseReport {
                name: "daemon".to_string(),
                timers: vec![
                    ("zero".to_string(), TimerSnapshot { nanos: 0, spans: 0 }),
                    (
                        "max".to_string(),
                        TimerSnapshot {
                            nanos: u64::MAX,
                            spans: 1,
                        },
                    ),
                ],
                ..PhaseReport::default()
            }],
        };
        let text = render(&extremes);
        assert!(text.contains("encore_zero_seconds_total 0.000000000\n"));
        assert!(text.contains("encore_max_seconds_total 18446744073.709551615\n"));
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        // TYPE without HELP.
        assert!(validate("# TYPE foo counter\nfoo 1\n").is_err());
        // Sample outside any family.
        assert!(validate("foo 1\n").is_err());
        // Duplicate family.
        let dup =
            "# HELP foo x\n# TYPE foo counter\nfoo 1\n# HELP foo x\n# TYPE foo counter\nfoo 2\n";
        assert!(validate(dup).is_err());
        // Non-cumulative histogram buckets.
        let shrinking = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n";
        assert!(validate(shrinking).unwrap_err().contains("not cumulative"));
        // _count disagrees with the +Inf bucket.
        let badcount =
            "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 4\n";
        assert!(validate(badcount).unwrap_err().contains("_count"));
        // Missing +Inf bucket.
        let noinf = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_sum 9\nh_count 3\n";
        assert!(validate(noinf).unwrap_err().contains("+Inf"));
        // Unescaped quote inside a label value.
        let badlabel = "# HELP f x\n# TYPE f counter\nf{l=\"a\"b\"} 1\n";
        assert!(validate(badlabel).is_err());
        // A healthy document passes.
        let good = "# HELP f x\n# TYPE f counter\nf 1\n";
        assert!(validate(good).is_ok());
    }
}
