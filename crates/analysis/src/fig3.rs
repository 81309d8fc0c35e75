//! Fig. 3: histogram of the absolute difference between the per-connection
//! means of the spin-bit and QUIC-stack RTT estimates.

use crate::histogram::Histogram;
use quicspin_core::FlowClassification;
use quicspin_scanner::ConnectionRecord;
use serde::{Deserialize, Serialize};

/// The paper's Fig. 3 bin edges in milliseconds.
pub fn fig3_edges() -> Vec<f64> {
    vec![-200.0, -100.0, -50.0, -25.0, 0.0, 25.0, 50.0, 100.0, 200.0]
}

/// One series of Fig. 3 (e.g. Spin in received order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySeries {
    /// The histogram of mean differences (ms).
    pub histogram: Histogram,
    /// Number of connections contributing.
    pub connections: u64,
    /// Share of connections overestimating (diff > 0).
    pub overestimate_share: f64,
    /// Share with |diff| ≤ 25 ms.
    pub within_25ms_share: f64,
    /// Share overestimating by more than 200 ms.
    pub over_200ms_share: f64,
}

impl AccuracySeries {
    /// Builds a series from per-connection mean differences (ms). The
    /// diff order must match the record order for byte-identical results
    /// across serial and sharded builds.
    pub fn from_diffs(diffs: &[f64]) -> Self {
        let mut histogram = Histogram::new(fig3_edges());
        let mut over = 0u64;
        let mut within = 0u64;
        let mut big = 0u64;
        for &d in diffs {
            histogram.add(d);
            if d > 0.0 {
                over += 1;
            }
            if d.abs() <= 25.0 {
                within += 1;
            }
            if d > 200.0 {
                big += 1;
            }
        }
        let n = diffs.len().max(1) as f64;
        AccuracySeries {
            histogram,
            connections: diffs.len() as u64,
            overestimate_share: over as f64 / n,
            within_25ms_share: within as f64 / n,
            over_200ms_share: big as f64 / n,
        }
    }
}

/// Fig. 3: all four series (Spin/Grease × received/sorted order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbsoluteAccuracyFigure {
    /// Spinning connections, received order (R).
    pub spin_received: AccuracySeries,
    /// Spinning connections, sorted by packet number (S).
    pub spin_sorted: AccuracySeries,
    /// Grease-filtered connections, received order.
    pub grease_received: AccuracySeries,
    /// Grease-filtered connections, sorted order.
    pub grease_sorted: AccuracySeries,
}

/// Extracts `(received_diff_ms, sorted_diff_ms)` per qualifying record.
pub fn diffs_for<'a>(
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
            received.push(acc.abs_diff_ms());
        }
        if let Some(acc) = report.accuracy_sorted() {
            sorted.push(acc.abs_diff_ms());
        }
    }
    (received, sorted)
}

impl AbsoluteAccuracyFigure {
    /// Computes Fig. 3 from established connection records.
    pub fn from_records<'a>(records: impl Iterator<Item = &'a ConnectionRecord> + Clone) -> Self {
        let (spin_r, spin_s) = diffs_for(records.clone(), FlowClassification::Spinning);
        let (grease_r, grease_s) = diffs_for(records, FlowClassification::Greased);
        AbsoluteAccuracyFigure {
            spin_received: AccuracySeries::from_diffs(&spin_r),
            spin_sorted: AccuracySeries::from_diffs(&spin_s),
            grease_received: AccuracySeries::from_diffs(&grease_r),
            grease_sorted: AccuracySeries::from_diffs(&grease_s),
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
    fn spin_series_counts_diffs() {
        let records = [
            record(FlowClassification::Spinning, 50_000, 40_000), // +10 ms
            record(FlowClassification::Spinning, 300_000, 40_000), // +260 ms
            record(FlowClassification::Spinning, 30_000, 40_000), // -10 ms
            record(FlowClassification::Greased, 1_000, 40_000),   // grease
            record(FlowClassification::AllZero, 0, 40_000),       // excluded
        ];
        let fig = AbsoluteAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.connections, 3);
        assert_eq!(fig.grease_received.connections, 1);
        assert!((fig.spin_received.overestimate_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((fig.spin_received.within_25ms_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((fig.spin_received.over_200ms_share - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_records_do_not_contribute() {
        let records = [record(FlowClassification::AllZero, 0, 40_000)];
        let fig = AbsoluteAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.connections, 0);
        assert_eq!(fig.grease_received.connections, 0);
    }

    #[test]
    fn histogram_covers_all_contributions() {
        let records: Vec<_> = (0..20)
            .map(|i| record(FlowClassification::Spinning, 40_000 + i * 20_000, 40_000))
            .collect();
        let fig = AbsoluteAccuracyFigure::from_records(records.iter());
        assert_eq!(fig.spin_received.histogram.total(), 20);
        let shares: f64 = fig.spin_received.histogram.shares().iter().sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_match_paper_bins() {
        let edges = fig3_edges();
        assert!(edges.contains(&25.0) && edges.contains(&-25.0));
        assert!(edges.contains(&200.0));
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
    }
}
