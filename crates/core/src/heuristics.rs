//! RFC 9312 §4.2-style robustness heuristics for spin RTT samples.
//!
//! RFC 9312 notes that spin-bit measurements "can be improved by
//! heuristics" that reject implausible samples, e.g. ultra-short spin
//! periods caused by reordering near a spin edge (the paper's Fig. 1b).
//! Kunze et al. (2021) evaluated such filters on P4 hardware; the paper
//! under reproduction calls for exactly this kind of filtering as future
//! work (§7). This module implements the three filters used throughout
//! the workspace's ablation benches.
//!
//! Filter state is fixed-size: only [`RttFilter::DynamicRange`] reads a
//! median, and it takes the median of the last
//! [`MEDIAN_WINDOW`](crate::median::MEDIAN_WINDOW) accepted samples
//! ([`WindowedMedian`]); the other filters keep counts only.

use crate::median::WindowedMedian;
use serde::{Deserialize, Serialize};

/// A filter deciding whether a candidate spin RTT sample is plausible.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum RttFilter {
    /// Accept every sample (the paper's baseline configuration).
    #[default]
    None,
    /// Reject samples below an absolute floor (µs). Catches the
    /// reordering-induced ultra-short spin cycles of Fig. 1b.
    StaticFloor {
        /// Minimum plausible RTT in microseconds.
        min_us: u64,
    },
    /// Reject samples outside `[lower × m, upper × m]` where `m` is the
    /// median of the last [`MEDIAN_WINDOW`](crate::median::MEDIAN_WINDOW)
    /// *accepted* samples. The first sample is always accepted to seed
    /// the estimate.
    DynamicRange {
        /// Lower bound factor (e.g. 0.1).
        lower: f64,
        /// Upper bound factor (e.g. 10.0).
        upper: f64,
    },
}

/// Stateful application of an [`RttFilter`] to a sample stream.
#[derive(Debug, Clone, Copy)]
pub struct FilterState {
    filter: RttFilter,
    /// Accepted samples; fed only under [`RttFilter::DynamicRange`], the
    /// one filter that reads the median.
    median: WindowedMedian,
    accepted: usize,
    rejected: usize,
}

impl FilterState {
    /// Creates filter state for the given filter.
    pub fn new(filter: RttFilter) -> Self {
        FilterState {
            filter,
            median: WindowedMedian::new(),
            accepted: 0,
            rejected: 0,
        }
    }

    /// Offers a sample; returns `true` (and records it) if accepted.
    pub fn offer(&mut self, sample_us: u64) -> bool {
        let ok = match self.filter {
            RttFilter::None => true,
            RttFilter::StaticFloor { min_us } => sample_us >= min_us,
            RttFilter::DynamicRange { lower, upper } => {
                let ok = self.median.median().is_none_or(|m| {
                    let s = sample_us as f64;
                    s >= lower * m && s <= upper * m
                });
                if ok {
                    self.median.push(sample_us);
                }
                ok
            }
        };
        if ok {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        ok
    }

    /// Median of the last [`MEDIAN_WINDOW`](crate::median::MEDIAN_WINDOW)
    /// accepted samples under [`RttFilter::DynamicRange`]; 0 before the
    /// first one and under the filters that never read it.
    pub fn running_median(&self) -> f64 {
        self.median.median().unwrap_or(0.0)
    }

    /// Number of samples rejected so far.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Number of samples accepted so far.
    pub fn accepted_count(&self) -> usize {
        self.accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_accepts_everything() {
        let mut f = FilterState::new(RttFilter::None);
        assert!(f.offer(0));
        assert!(f.offer(u64::MAX));
        assert_eq!(f.rejected(), 0);
        assert_eq!(f.accepted_count(), 2);
    }

    #[test]
    fn static_floor_rejects_short_samples() {
        let mut f = FilterState::new(RttFilter::StaticFloor { min_us: 1000 });
        assert!(!f.offer(999));
        assert!(f.offer(1000));
        assert!(f.offer(50_000));
        assert_eq!(f.rejected(), 1);
    }

    #[test]
    fn dynamic_range_seeds_with_first_sample() {
        let mut f = FilterState::new(RttFilter::DynamicRange {
            lower: 0.1,
            upper: 10.0,
        });
        assert!(f.offer(40_000), "first sample always accepted");
        // 100 µs is far below 0.1 × 40 ms → reject (a reordering artefact).
        assert!(!f.offer(100));
        // 45 ms is within range.
        assert!(f.offer(45_000));
        // 10 s is far above 10 × median → reject.
        assert!(!f.offer(10_000_000));
        assert_eq!(f.rejected(), 2);
    }

    /// A dynamic range wide enough to accept every sample below, so the
    /// median tests see every offer.
    const WIDE: RttFilter = RttFilter::DynamicRange {
        lower: 0.0,
        upper: 1e9,
    };

    #[test]
    fn running_median_odd_even() {
        let mut f = FilterState::new(WIDE);
        assert_eq!(f.running_median(), 0.0);
        f.offer(10);
        assert_eq!(f.running_median(), 10.0);
        f.offer(30);
        assert_eq!(f.running_median(), 20.0);
        f.offer(20);
        assert_eq!(f.running_median(), 20.0);
    }

    #[test]
    fn median_is_order_independent() {
        let mut a = FilterState::new(WIDE);
        let mut b = FilterState::new(WIDE);
        for v in [5u64, 1, 9, 3, 7] {
            a.offer(v);
        }
        for v in [9u64, 7, 5, 3, 1] {
            b.offer(v);
        }
        assert_eq!(a.running_median(), b.running_median());
        assert_eq!(a.running_median(), 5.0);
    }

    #[test]
    fn counting_filters_keep_no_median() {
        let mut f = FilterState::new(RttFilter::StaticFloor { min_us: 10 });
        for v in [20, 40, 5] {
            f.offer(v);
        }
        assert_eq!(f.accepted_count(), 2);
        assert_eq!(f.running_median(), 0.0, "StaticFloor never reads it");
    }

    #[test]
    fn dynamic_range_median_forgets_samples_beyond_the_window() {
        use crate::median::MEDIAN_WINDOW;
        let mut f = FilterState::new(WIDE);
        for _ in 0..MEDIAN_WINDOW {
            f.offer(1_000);
        }
        for _ in 0..MEDIAN_WINDOW {
            f.offer(3_000);
        }
        assert_eq!(f.running_median(), 3_000.0);
        assert_eq!(f.accepted_count(), 2 * MEDIAN_WINDOW);
    }

    #[test]
    fn default_filter_is_none() {
        assert_eq!(RttFilter::default(), RttFilter::None);
    }

    proptest::proptest! {
        #[test]
        fn prop_static_floor_partition(samples in proptest::collection::vec(0u64..100_000, 0..50)) {
            let mut f = FilterState::new(RttFilter::StaticFloor { min_us: 500 });
            for &s in &samples {
                let accepted = f.offer(s);
                proptest::prop_assert_eq!(accepted, s >= 500);
            }
            let expected_rejected = samples.iter().filter(|&&s| s < 500).count();
            proptest::prop_assert_eq!(f.rejected(), expected_rejected);
        }
    }
}
