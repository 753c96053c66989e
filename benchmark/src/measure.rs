//! Run configuration, the per-workload outcome, and small statistics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Settings shared by every workload of one benchmark process.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Tiny input sizes for a quick end-to-end check of the benchmark.
    pub smoke: bool,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where trace files and the serve workload's socket and snapshots go.
    pub out: PathBuf,
}

impl Config {
    /// The input size: `full` normally, `smoke` under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// How fast the host ran just now, relative to the reference host.
///
/// The benchmark host is a virtual machine whose speed changes by up to a
/// factor of two within minutes as other tenants come and go, far more
/// than the regressions the benchmark must catch.  So every timed
/// operation follows a run of a fixed calibration loop, and its time is
/// reported scaled to a host on which that loop takes
/// [`HostSpeed::REFERENCE_MS`].  The loop is benchmark code, so a change
/// to the program cannot speed it up or slow it down, and it runs while
/// the program has no work in flight.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// Milliseconds the calibration loop took.
    pub calibration_ms: f64,
}

impl HostSpeed {
    /// The scale of every reported time: about what the calibration loop
    /// takes on the reference host, a 2-vCPU Intel Xeon VM.
    pub const REFERENCE_MS: f64 = 10.0;

    /// Run the calibration loop once and time it.
    pub fn measure() -> HostSpeed {
        let started = Instant::now();
        calibration_loop();
        HostSpeed {
            calibration_ms: ms(started.elapsed()),
        }
    }

    /// `value`, a time measured at this speed, at reference speed.
    pub fn adjust(self, value: f64) -> f64 {
        value * Self::REFERENCE_MS / self.calibration_ms
    }
}

/// The calibration work: string formatting and hashing, map inserts,
/// allocation and a sort over a few MiB, the kinds of work assembly,
/// inference and detection do.  About 10 ms on the reference host.
fn calibration_loop() {
    let mut rng = SplitMix(7);
    let mut map = std::collections::HashMap::new();
    for i in 0..40_000u64 {
        let key = format!("key.{}.{}", rng.next() % 5000, i % 97);
        *map.entry(key).or_insert(0u64) += 1;
    }
    let mut values: Vec<u64> = (0..200_000).map(|_| rng.next()).collect();
    values.sort_unstable();
    std::hint::black_box((map.len(), values[100]));
}

/// Setup is repeated this many times and its median reported, so that a
/// few slow setups do not decide `setup_s`.
pub const SETUP_REPEATS: usize = 9;

/// Run `setup` [`SETUP_REPEATS`] times, each right after a host-speed
/// measurement; keep the last result and return it with the median setup
/// time in seconds at reference speed.  Earlier results are dropped before
/// the next setup starts, so a setup that binds a socket can repeat.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let speed = HostSpeed::measure();
        let started = Instant::now();
        kept = Some(setup()?);
        times.push(speed.adjust(started.elapsed().as_secs_f64()));
    }
    Ok((kept.expect("SETUP_REPEATS > 0"), median(&times)))
}

/// Call `step(i, traced, speed)` for i = 0, 1, ... until the timed window
/// has passed, and at least twice, measuring the host speed before each
/// step.  In a traced run every other step is traced, so the untraced
/// steps in between measure the tracing overhead under the same
/// conditions.
pub fn run_window(cfg: &Config, mut step: impl FnMut(u64, bool, HostSpeed)) {
    let deadline = Instant::now() + cfg.window();
    let mut i = 0;
    while i < 2 || Instant::now() < deadline {
        step(i, cfg.trace && i % 2 == 0, HostSpeed::measure());
        i += 1;
    }
}

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, each as `name: detail`.
    pub failures: Vec<String>,
    /// The metrics of the result line: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Metric>,
    /// Printed for information, never gated.
    pub info: Vec<Metric>,
    /// Printed facts that are not numbers, such as fingerprints.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Record an output check; a failure makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, name: &str, text: String) {
        self.notes.push((name.to_string(), text));
    }
}

/// The end-to-end metrics of a batch workload, whose operations are
/// iterations of equal work: `items` per operation, `times` in seconds
/// and `loads` the snapshot load times in milliseconds, both at reference
/// speed, and `calibrations_ms` the host-speed measurements.  The p90 is
/// printed for information, and so is the throughput, which is the
/// reciprocal of `latency_ms` and so not a metric of its own.
pub fn batch_metrics(
    out: &mut Outcome,
    setup_s: f64,
    items: usize,
    times: &[f64],
    loads: &[f64],
    calibrations_ms: &[f64],
) {
    out.metric("setup_s", setup_s, "s");
    out.metric("latency_ms", median(times) * 1e3, "ms");
    out.metric("snapshot_load_ms", median(loads), "ms");
    out.info("latency_p90_ms", quantile(times, 0.9) * 1e3, "ms");
    out.info("items_per_s", items as f64 / median(times), "items/s");
    out.info("operations", times.len() as f64, "count");
    out.info("calibration_ms", median(calibrations_ms), "ms");
}

/// Fail the run if `actual` differs from the value pinned for
/// `workload`/`key` in `expected.txt`, which holds the outputs of
/// `--seed 1` at full size.  Other runs have no pins.
pub fn check_pinned(cfg: &Config, out: &mut Outcome, workload: &str, key: &str, actual: &str) {
    if cfg.seed != 1 || cfg.smoke {
        return;
    }
    let pinned = include_str!("../expected.txt").lines().find_map(|line| {
        let mut words = line.split_whitespace();
        (words.next() == Some(workload) && words.next() == Some(key))
            .then(|| words.next())
            .flatten()
    });
    if let Some(expected) = pinned {
        out.check(&format!("pinned.{key}"), actual == expected, || {
            format!("expected {expected}, got {actual}")
        });
    }
}

/// The `q` quantile of `values` by linear interpolation between order
/// statistics; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ms_all(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(|&d| ms(d)).collect()
}

/// 64-bit FNV-1a over a sequence of byte strings, each followed by a 0xff
/// separator so that `["ab", "c"]` and `["a", "bc"]` differ.
pub fn fnv64<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in part.as_bytes().iter().chain(&[0xff]) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// SplitMix64: a tiny deterministic generator for drawing requests.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fnv_separates_parts() {
        assert_ne!(fnv64(["ab", "c"]), fnv64(["a", "bc"]));
        assert_eq!(fnv64(["x"]), fnv64(["x"]));
    }
}
