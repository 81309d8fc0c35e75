//! Fig. 4: histogram of the mapped ratio of spin vs. stack RTT means.
//!
//! The ratio divides the larger mean by the smaller and is negated when
//! the spin bit underestimates, so `+1` is a perfect match, `+3` a 3×
//! overestimation, `-2` a 2× underestimation (§5.1).

use crate::histogram::Histogram;
use quicspin_core::FlowClassification;
use quicspin_scanner::ConnectionRecord;
use serde::{Deserialize, Serialize};

/// The paper's Fig. 4 bin edges (mapped ratio).
pub fn fig4_edges() -> Vec<f64> {
    vec![-3.0, -2.0, -1.25, 0.0, 1.25, 2.0, 3.0]
}

/// One series of Fig. 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioSeries {
    /// Histogram of mapped ratios.
    pub histogram: Histogram,
    /// Number of contributing connections.
    pub connections: u64,
    /// Share within ±25 % (ratio in (0, 1.25]) — the paper's accuracy bar.
    pub within_25pct_share: f64,
    /// Share within a factor of two (ratio in (0, 2]).
    pub within_factor2_share: f64,
    /// Share overestimating by more than 3× (ratio > 3).
    pub over_3x_share: f64,
    /// Share underestimating (ratio < 0).
    pub underestimate_share: f64,
    /// Share underestimating by at most a factor 2 (ratio in [-2, 0)),
    /// relevant for the paper's Grease discussion.
    pub under_within_factor2_share: f64,
}

impl RatioSeries {
    /// Builds a series from mapped ratios, in record order.
    pub fn from_ratios(ratios: &[f64]) -> Self {
        let mut histogram = Histogram::new(fig4_edges());
        let mut within25 = 0u64;
        let mut within2 = 0u64;
        let mut over3 = 0u64;
        let mut under = 0u64;
        let mut under2 = 0u64;
        for &r in ratios {
            histogram.add(r);
            if r > 0.0 && r <= 1.25 {
                within25 += 1;
            }
            if r > 0.0 && r <= 2.0 {
                within2 += 1;
            }
            if r > 3.0 {
                over3 += 1;
            }
            if r < 0.0 {
                under += 1;
                if r >= -2.0 {
                    under2 += 1;
                }
            }
        }
        let n = ratios.len().max(1) as f64;
        RatioSeries {
            histogram,
            connections: ratios.len() as u64,
            within_25pct_share: within25 as f64 / n,
            within_factor2_share: within2 as f64 / n,
            over_3x_share: over3 as f64 / n,
            underestimate_share: under as f64 / n,
            under_within_factor2_share: under2 as f64 / n,
        }
    }
}

/// Fig. 4: all four series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioAccuracyFigure {
    /// Spinning connections, received order.
    pub spin_received: RatioSeries,
    /// Spinning connections, sorted order.
    pub spin_sorted: RatioSeries,
    /// Greased connections, received order.
    pub grease_received: RatioSeries,
    /// Greased connections, sorted order.
    pub grease_sorted: RatioSeries,
}

/// Extracts `(received_ratio, sorted_ratio)` per qualifying record.
pub fn ratios_for<'a>(
    records: impl Iterator<Item = &'a ConnectionRecord>,
    class: FlowClassification,
) -> (Vec<f64>, Vec<f64>) {
    let mut received = Vec::new();
    let mut sorted = Vec::new();
    for r in records {
        let Some(report) = &r.report else { continue };
        if report.classification != class {
            continue;
        }
        if let Some(acc) = report.accuracy_received() {
            let ratio = acc.mapped_ratio();
            if ratio.is_finite() {
                received.push(ratio);
            }
        }
        if let Some(acc) = report.accuracy_sorted() {
            let ratio = acc.mapped_ratio();
            if ratio.is_finite() {
                sorted.push(ratio);
            }
        }
    }
    (received, sorted)
}

impl RatioAccuracyFigure {
    /// Computes Fig. 4 from established connection records.
    pub fn from_records<'a>(records: impl Iterator<Item = &'a ConnectionRecord> + Clone) -> Self {
        let (spin_r, spin_s) = ratios_for(records.clone(), FlowClassification::Spinning);
        let (grease_r, grease_s) = ratios_for(records, FlowClassification::Greased);
        RatioAccuracyFigure {
            spin_received: RatioSeries::from_ratios(&spin_r),
            spin_sorted: RatioSeries::from_ratios(&spin_s),
            grease_received: RatioSeries::from_ratios(&grease_r),
            grease_sorted: RatioSeries::from_ratios(&grease_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::ObserverReport;
    use quicspin_scanner::ScanOutcome;
    use quicspin_webpop::{IpVersion, ListKind, Org};

    fn record(class: FlowClassification, spin_us: u64, stack_us: u64) -> ConnectionRecord {
        let mut r = ConnectionRecord::failed(
            0,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            ScanOutcome::Ok,
        );
        r.report = Some(Box::new(ObserverReport {
            classification: class,
            packets: 10,
            spin_samples_received_us: vec![spin_us],
            spin_samples_sorted_us: vec![spin_us],
            stack_samples_us: vec![stack_us],
        }));
        r
    }

    #[test]
    fn shares_computed_from_ratios() {
        let records = [
            record(FlowClassification::Spinning, 44_000, 40_000), // 1.1 (within 25%)
            record(FlowClassification::Spinning, 70_000, 40_000), // 1.75 (within 2x)
            record(FlowClassification::Spinning, 200_000, 40_000), // 5.0 (>3x)
            record(FlowClassification::Spinning, 20_000, 40_000), // -2.0 (under)
        ];
        let fig = RatioAccuracyFigure::from_records(records.iter());
        let s = &fig.spin_received;
        assert_eq!(s.connections, 4);
        assert!((s.within_25pct_share - 0.25).abs() < 1e-12);
        assert!((s.within_factor2_share - 0.5).abs() < 1e-12);
        assert!((s.over_3x_share - 0.25).abs() < 1e-12);
        assert!((s.underestimate_share - 0.25).abs() < 1e-12);
        assert!((s.under_within_factor2_share - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ratio_magnitudes_never_fall_in_open_unit_gap() {
        // Mapped ratios have |r| >= 1, so the (0, 1.25] bin only collects
        // [1, 1.25] and the (-1.25, 0) bin only (-1.25, -1].
        let records = [
            record(FlowClassification::Spinning, 40_000, 40_000), // exactly 1.0
        ];
        let fig = RatioAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.within_25pct_share, 1.0);
    }

    #[test]
    fn grease_series_separate() {
        let records = [
            record(FlowClassification::Greased, 10_000, 40_000),
            record(FlowClassification::Spinning, 45_000, 40_000),
        ];
        let fig = RatioAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.grease_received.connections, 1);
        assert_eq!(fig.spin_received.connections, 1);
        assert!(fig.grease_received.underestimate_share > 0.99);
    }

    #[test]
    fn edges_are_symmetric_about_zero() {
        let edges = fig4_edges();
        assert!(edges.contains(&1.25) && edges.contains(&-1.25));
        assert!(edges.contains(&3.0) && edges.contains(&-3.0));
    }
}
