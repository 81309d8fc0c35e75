//! Fixed-size per-flow sample state: a windowed running median and
//! streaming sample statistics.
//!
//! Spin-edge heuristics compare each candidate period against the median
//! of the periods accepted before it. Keeping every accepted period
//! sorted makes per-flow state grow with flow length and, on a steady
//! square wave, turns every insert into a whole-vector move. An on-path
//! device cannot afford either: "Tracking the QUIC Spin Bit on Tofino"
//! runs the RFC 9312 heuristics from a handful of per-flow registers.
//! [`WindowedMedian`] keeps the median of the last [`MEDIAN_WINDOW`]
//! accepted periods in a fixed-size `Copy` value, and [`SampleStats`]
//! replaces a sample list by count, sum, min and max. While a flow has
//! at most [`MEDIAN_WINDOW`] accepted periods, the window holds all of
//! them and the median is exactly the all-history median.

/// Number of accepted periods a [`WindowedMedian`] remembers. Campaign
/// flows are short (a few dozen spin periods at most), so every one of
/// them fits the window and sees the exact all-history median.
pub const MEDIAN_WINDOW: usize = 32;

// Window length and write position are stored as `u8`.
const _: () = assert!(MEDIAN_WINDOW <= u8::MAX as usize);

/// Median of the last [`MEDIAN_WINDOW`] values pushed: a ring of the
/// values in arrival order plus a sorted copy of them. Push is O(W)
/// (one shift of the sorted copy), the median O(1), and no heap is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedMedian {
    /// The window in arrival order; `ring[head]` is the oldest value once
    /// the window is full.
    ring: [u64; MEDIAN_WINDOW],
    /// The first `len` entries: the window's values in ascending order.
    sorted: [u64; MEDIAN_WINDOW],
    len: u8,
    head: u8,
}

impl Default for WindowedMedian {
    fn default() -> Self {
        WindowedMedian::new()
    }
}

impl WindowedMedian {
    /// An empty window.
    pub const fn new() -> Self {
        WindowedMedian {
            ring: [0; MEDIAN_WINDOW],
            sorted: [0; MEDIAN_WINDOW],
            len: 0,
            head: 0,
        }
    }

    /// Number of values in the window (at most [`MEDIAN_WINDOW`]).
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no value was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `value`, evicting the oldest value once the window is full.
    pub fn push(&mut self, value: u64) {
        let mut len = self.len();
        let head = usize::from(self.head);
        if len == MEDIAN_WINDOW {
            // Duplicates are interchangeable, so removing any copy of the
            // evicted value leaves the right multiset.
            let old = self.ring[head];
            let at = self.sorted[..len].partition_point(|&v| v < old);
            self.sorted.copy_within(at + 1..len, at);
            len -= 1;
        } else {
            self.len += 1;
        }
        let at = self.sorted[..len].partition_point(|&v| v < value);
        self.sorted.copy_within(at..len, at + 1);
        self.sorted[at] = value;
        self.ring[head] = value;
        self.head = ((head + 1) % MEDIAN_WINDOW) as u8;
    }

    /// Median of the window: the middle value, or the mean of the two
    /// middle values for an even count. `None` when empty.
    pub fn median(&self) -> Option<f64> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 {
            self.sorted[n / 2] as f64
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) as f64 / 2.0
        })
    }
}

/// Streaming count, sum, minimum and maximum of a sample stream — what
/// a per-flow summary needs from the samples without keeping them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for SampleStats {
    fn default() -> Self {
        SampleStats::new()
    }
}

impl SampleStats {
    /// No samples yet.
    pub const fn new() -> Self {
        SampleStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: u64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean rounded down (`sum / count`), `None` without samples.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Mean as a float (`sum / count`), `None` without samples.
    pub fn mean_f64(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest sample, `None` without samples.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` without samples.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: sort the last `MEDIAN_WINDOW` values and take the
    /// middle.
    fn sorted_tail_median(values: &[u64]) -> Option<f64> {
        let mut tail = values[values.len().saturating_sub(MEDIAN_WINDOW)..].to_vec();
        tail.sort_unstable();
        let n = tail.len();
        if n == 0 {
            return None;
        }
        Some(if n % 2 == 1 {
            tail[n / 2] as f64
        } else {
            (tail[n / 2 - 1] + tail[n / 2]) as f64 / 2.0
        })
    }

    #[test]
    fn empty_window_has_no_median() {
        let w = WindowedMedian::new();
        assert!(w.is_empty());
        assert_eq!(w.median(), None);
    }

    #[test]
    fn odd_and_even_counts() {
        let mut w = WindowedMedian::new();
        w.push(10);
        assert_eq!(w.median(), Some(10.0));
        w.push(30);
        assert_eq!(w.median(), Some(20.0));
        w.push(20);
        assert_eq!(w.median(), Some(20.0));
        w.push(1);
        assert_eq!(w.median(), Some(15.0));
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn eviction_drops_the_oldest_value() {
        let mut w = WindowedMedian::new();
        for _ in 0..MEDIAN_WINDOW {
            w.push(1_000);
        }
        // A full window of 1000s: pushing a window's worth of 10s
        // replaces them one by one, oldest first.
        for k in 1..=MEDIAN_WINDOW {
            w.push(10);
            assert_eq!(w.len(), MEDIAN_WINDOW);
            let expected = sorted_tail_median(&[vec![1_000; MEDIAN_WINDOW], vec![10; k]].concat());
            assert_eq!(w.median(), expected, "after {k} evictions");
        }
        assert_eq!(w.median(), Some(10.0));
    }

    #[test]
    fn eviction_with_duplicate_values() {
        let mut w = WindowedMedian::new();
        let mut pushed = Vec::new();
        // Runs of equal values straddle the window edge, so evictions
        // remove one copy of a value that is still present elsewhere.
        for k in 0..4 * MEDIAN_WINDOW as u64 {
            let v = [5, 5, 7, 5, 7, 7, 9][(k % 7) as usize];
            w.push(v);
            pushed.push(v);
            assert_eq!(w.median(), sorted_tail_median(&pushed), "after {k}");
        }
        let mut tail = pushed[pushed.len() - MEDIAN_WINDOW..].to_vec();
        tail.sort_unstable();
        assert_eq!(&w.sorted[..], &tail[..]);
    }

    #[test]
    fn window_is_a_small_copy_value() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<WindowedMedian>();
        assert!(std::mem::size_of::<WindowedMedian>() <= 16 * MEDIAN_WINDOW + 8);
    }

    #[test]
    fn sample_stats_track_count_sum_min_max() {
        let mut s = SampleStats::new();
        assert_eq!(
            (s.mean(), s.min(), s.max(), s.mean_f64()),
            (None, None, None, None)
        );
        for v in [40, 10, 25] {
            s.push(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(25));
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(40));
        assert_eq!(s.mean_f64(), Some(25.0));
    }

    proptest::proptest! {
        #[test]
        fn prop_matches_sorting_the_last_w(
            values in proptest::collection::vec(0u64..64, 0..200),
        ) {
            let mut w = WindowedMedian::new();
            for (i, &v) in values.iter().enumerate() {
                w.push(v);
                proptest::prop_assert_eq!(w.median(), sorted_tail_median(&values[..=i]));
            }
        }

        #[test]
        fn prop_sample_stats_match_the_slice(
            values in proptest::collection::vec(0u64..1_000_000, 0..100),
        ) {
            let mut s = SampleStats::new();
            for &v in &values {
                s.push(v);
            }
            let n = values.len() as u64;
            proptest::prop_assert_eq!(s.count(), n);
            proptest::prop_assert_eq!(s.mean(), (n > 0).then(|| values.iter().sum::<u64>() / n));
            proptest::prop_assert_eq!(s.min(), values.iter().copied().min());
            proptest::prop_assert_eq!(s.max(), values.iter().copied().max());
        }
    }
}
