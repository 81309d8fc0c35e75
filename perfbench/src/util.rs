//! Small helpers shared by the workloads: seeding, order statistics,
//! process memory, and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: derives independent seeds and sample decisions from one
/// `--seed`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A tiny seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Set-up runs at least this many times per run...
const SETUP_MIN_REPEATS: usize = 3;
/// ...and, while cheap enough, until this many seconds have passed.
const SETUP_SECONDS: f64 = 1.0;
/// Upper bound on set-up repetitions.
const SETUP_MAX_REPEATS: usize = 50;

/// Runs `setup` repeatedly (dropping each result before the next, so
/// memory peaks stay those of one set-up) and returns the last result
/// with every set-up time in seconds. `setup_s` is their median.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (since(start) < SETUP_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(since(t));
    }
    (last.expect("at least one set-up"), times)
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One field of `/proc/self/status`, in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current resident set).
pub fn proc_status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .ok_or_else(|| format!("/proc/self/status has no {field} line"))?;
    let kib: f64 = line[field.len() + 1..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unparsable {field} line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Iterations after which `peak_rss_mib` is read. The high-water mark
/// creeps up by a few per cent over later iterations, so a fixed
/// iteration count keeps it independent of how many iterations a run of
/// a given length fits on a given machine.
pub const RSS_ITERATIONS: usize = 3;

/// Records the peak resident set after each of the first
/// `RSS_ITERATIONS` iterations; call after every iteration.
#[derive(Default)]
pub struct PeakRss {
    mib: Option<f64>,
    iterations: usize,
}

impl PeakRss {
    pub fn note_iteration(&mut self) -> Result<(), String> {
        if self.iterations < RSS_ITERATIONS {
            self.mib = Some(proc_status_mib("VmHWM")?);
            self.iterations += 1;
        }
        Ok(())
    }

    /// Peak resident set in MiB over set-up and the first
    /// `RSS_ITERATIONS` iterations.
    pub fn mib(&self) -> Result<f64, String> {
        self.mib.map_or_else(|| proc_status_mib("VmHWM"), Ok)
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Outcome of the benchmark's output checks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of checked operations that passed (1 when all did).
    pub fn ok_ratio(&self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Renders the single-line JSON result object.
pub fn result_line(checks: Checks, metrics: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.put("run_s", 1.25, "s");
        let line = result_line(
            Checks {
                attempted: 3,
                failed: 0,
            },
            &m,
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
