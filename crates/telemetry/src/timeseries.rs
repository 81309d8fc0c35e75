//! Bounded, deterministically downsampled campaign time series.
//!
//! A [`TimeSeries`] is a fixed-capacity ring of [`TimePoint`]s. Points are
//! admitted at a power-of-two *stride* over their arrival index: the stride
//! starts at 1 (keep everything) and doubles whenever the buffer would
//! overflow, at which point every second retained point is dropped. The
//! surviving set is therefore a pure function of the arrival sequence — no
//! clocks, no randomness — which is what lets a campaign persist its series
//! as a byte-identical `timeseries.json` for any worker-thread count.
//!
//! The same container serves two producers:
//!
//! * the **deterministic builder** in the scanner walks the merged record
//!   stream after a campaign and samples cumulative virtual-clock state one
//!   point per probed domain (this is what gets persisted), and
//! * the **monitor thread** in `Scanner::with_progress` pushes one
//!   wall-clock point per progress tick for live trend display (never
//!   persisted — wall time is not reproducible).
//!
//! [`TimeSeriesDoc`] is the versioned serde envelope written next to
//! `metrics.json`; its `clock` field records which of the two producers
//! filled it.

use serde::{Deserialize, Serialize};

use crate::manifest::CounterSnapshot;

/// Version stamp for the time-series schema; bump on breaking field changes.
pub const TIMESERIES_SCHEMA_VERSION: u32 = 1;

/// Default point capacity used by campaign runs.
pub const DEFAULT_TIMESERIES_CAPACITY: usize = 512;

/// One sampled point of campaign state. All fields are integers so a
/// persisted series round-trips through JSON bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Arrival index of this sample (probe ordinal or monitor tick).
    pub seq: u64,
    /// Domains finished so far.
    pub probes: u64,
    /// Connection records produced so far (redirect hops included).
    pub records: u64,
    /// Probes that erred so far.
    pub errors: u64,
    /// Redirect hops followed so far.
    pub redirects: u64,
    /// Elapsed time at this sample, microseconds. Virtual-clock µs for the
    /// persisted builder series; wall-clock µs for the live monitor series.
    pub elapsed_us: u64,
    /// Deepest netsim queue observed so far.
    pub queue_high_water: u64,
    /// Handshake-stage median at this sample, microseconds.
    pub handshake_p50_us: u64,
    /// Handshake-stage 99th percentile at this sample, microseconds.
    pub handshake_p99_us: u64,
    /// Whole-probe median at this sample, microseconds.
    pub total_p50_us: u64,
    /// Whole-probe 99th percentile at this sample, microseconds.
    pub total_p99_us: u64,
    /// Classification mix so far, in stable declaration order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub mix: Vec<CounterSnapshot>,
}

impl TimePoint {
    /// Completed probes per second of elapsed time at this sample.
    pub fn probes_per_sec(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.probes as f64 / (self.elapsed_us as f64 / 1e6)
    }

    /// Fraction of completed probes that erred, in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.errors as f64 / self.probes as f64
    }

    /// Share of `name` within the classification mix, in `[0, 1]`.
    pub fn mix_share(&self, name: &str) -> f64 {
        let total: u64 = self.mix.iter().map(|c| c.value).sum();
        if total == 0 {
            return 0.0;
        }
        let hit = self
            .mix
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value);
        hit as f64 / total as f64
    }
}

/// Bounded ring of [`TimePoint`]s with deterministic stride downsampling.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    capacity: usize,
    stride: u64,
    seen: u64,
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series holding at most `capacity` points
    /// (clamped to a minimum of 2).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(2),
            stride: 1,
            seen: 0,
            points: Vec::new(),
        }
    }

    /// Offers one point. Its `seq` is overwritten with the arrival index;
    /// the point is retained only if that index lands on the current
    /// stride. Returns whether the point was kept.
    pub fn push(&mut self, point: TimePoint) -> bool {
        self.push_with(|| point)
    }

    /// Like [`push`](TimeSeries::push), but builds the point only when
    /// the arrival index survives the stride filter — the fast path for
    /// callers whose samples are expensive to materialize (quantile
    /// computation per offer, say). Admission depends only on the
    /// arrival index, so `push_with` and `push` retain identical series.
    pub fn push_with(&mut self, make: impl FnOnce() -> TimePoint) -> bool {
        let idx = self.seen;
        self.seen += 1;
        if !idx.is_multiple_of(self.stride) {
            return false;
        }
        if self.points.len() == self.capacity {
            self.decimate();
            if !idx.is_multiple_of(self.stride) {
                return false;
            }
        }
        let mut point = make();
        point.seq = idx;
        self.points.push(point);
        true
    }

    /// Offers one point that bypasses the stride filter — used for the
    /// final cumulative sample so the series always ends on complete state.
    pub fn push_final(&mut self, mut point: TimePoint) {
        let idx = self.seen;
        self.seen += 1;
        if self.points.len() == self.capacity {
            self.decimate();
        }
        point.seq = idx;
        self.points.push(point);
    }

    /// Drops every second retained point and doubles the stride.
    fn decimate(&mut self) {
        let next = self.stride * 2;
        self.points.retain(|p| p.seq % next == 0);
        self.stride = next;
    }

    /// Retained points, in arrival order.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Current admission stride (a power of two).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total points offered so far, retained or not.
    pub fn offered(&self) -> u64 {
        self.seen
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points have been retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Wraps the series into its versioned serde envelope.
    pub fn into_doc(self, campaign_id: impl Into<String>, clock: SeriesClock) -> TimeSeriesDoc {
        TimeSeriesDoc {
            schema_version: TIMESERIES_SCHEMA_VERSION,
            campaign_id: campaign_id.into(),
            clock: clock.name().to_string(),
            capacity: self.capacity as u32,
            stride: self.stride,
            offered: self.seen,
            points: self.points,
        }
    }
}

/// Which clock filled a series: the deterministic virtual clock or wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesClock {
    /// Simulated microseconds; reproducible for any thread count.
    Virtual,
    /// Wall-clock microseconds; live display only.
    Wall,
}

impl SeriesClock {
    /// Stable name stored in the `clock` field of a [`TimeSeriesDoc`].
    pub fn name(self) -> &'static str {
        match self {
            SeriesClock::Virtual => "virtual-us",
            SeriesClock::Wall => "wall-us",
        }
    }
}

/// The versioned, serializable envelope persisted as `timeseries.json`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeriesDoc {
    /// Schema version ([`TIMESERIES_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Campaign identity (week, IP version, seed — thread count excluded).
    pub campaign_id: String,
    /// Clock that filled the series (see [`SeriesClock::name`]).
    pub clock: String,
    /// Configured point capacity.
    pub capacity: u32,
    /// Final admission stride.
    pub stride: u64,
    /// Total points offered across the run.
    pub offered: u64,
    /// Retained points, in arrival order.
    pub points: Vec<TimePoint>,
}

impl TimeSeriesDoc {
    /// The last (most complete) sample, if any.
    pub fn last_point(&self) -> Option<&TimePoint> {
        self.points.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(n: u64) -> TimePoint {
        TimePoint {
            seq: 0,
            probes: n,
            records: n,
            errors: 0,
            redirects: 0,
            elapsed_us: n * 1_000,
            queue_high_water: 3,
            handshake_p50_us: 40_000,
            handshake_p99_us: 90_000,
            total_p50_us: 100_000,
            total_p99_us: 200_000,
            mix: Vec::new(),
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut ts = TimeSeries::new(16);
        for i in 0..10 {
            assert!(ts.push(point(i)));
        }
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.stride(), 1);
        let seqs: Vec<u64> = ts.points().iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stride_doubles_on_overflow_and_stays_bounded() {
        let mut ts = TimeSeries::new(8);
        for i in 0..1_000 {
            ts.push(point(i));
        }
        assert!(ts.len() <= 8, "len {} exceeds capacity", ts.len());
        assert_eq!(ts.offered(), 1_000);
        // Stride is a power of two and every retained seq lands on it.
        assert!(ts.stride().is_power_of_two());
        assert!(ts.stride() > 1);
        for p in ts.points() {
            assert_eq!(p.seq % ts.stride(), 0);
        }
        // Retained seqs ascend.
        let seqs: Vec<u64> = ts.points().iter().map(|p| p.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn downsampling_is_a_pure_function_of_arrival_count() {
        let runs: Vec<Vec<u64>> = [100usize, 100, 100]
            .iter()
            .map(|&n| {
                let mut ts = TimeSeries::new(8);
                for i in 0..n as u64 {
                    ts.push(point(i));
                }
                ts.points().iter().map(|p| p.seq).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn push_final_always_lands() {
        let mut ts = TimeSeries::new(4);
        for i in 0..99 {
            ts.push(point(i));
        }
        ts.push_final(point(99));
        let last = ts.points().last().unwrap();
        assert_eq!(last.seq, 99);
        assert!(ts.len() <= 4);
    }

    #[test]
    fn capacity_clamps_to_two() {
        let mut ts = TimeSeries::new(0);
        for i in 0..50 {
            ts.push(point(i));
        }
        assert!(ts.len() <= 2);
        assert!(!ts.is_empty());
    }

    #[test]
    fn doc_roundtrips_through_json() {
        let mut ts = TimeSeries::new(8);
        for i in 0..20 {
            ts.push(point(i));
        }
        let mut doc = ts.into_doc("week0-V1-seed0000000000000017", SeriesClock::Virtual);
        doc.points[0].mix = vec![CounterSnapshot {
            name: "spinning".into(),
            value: 7,
        }];
        let json = serde_json::to_string_pretty(&doc).unwrap();
        let back: TimeSeriesDoc = serde_json::from_str(&json).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.clock, "virtual-us");
        assert_eq!(back.schema_version, TIMESERIES_SCHEMA_VERSION);
    }

    #[test]
    fn point_rates_and_mix_share() {
        let mut p = point(10);
        p.errors = 2;
        p.elapsed_us = 2_000_000;
        assert!((p.probes_per_sec() - 5.0).abs() < 1e-9);
        assert!((p.error_rate() - 0.2).abs() < 1e-12);
        p.mix = vec![
            CounterSnapshot {
                name: "spinning".into(),
                value: 3,
            },
            CounterSnapshot {
                name: "all-zero".into(),
                value: 1,
            },
        ];
        assert!((p.mix_share("spinning") - 0.75).abs() < 1e-12);
        assert_eq!(p.mix_share("greased"), 0.0);

        let zero = point(0);
        assert_eq!(zero.probes_per_sec(), 0.0);
        assert_eq!(zero.error_rate(), 0.0);
        assert_eq!(zero.mix_share("spinning"), 0.0);
    }
}
