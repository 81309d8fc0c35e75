//! The paper's full table/figure set from one in-order fold.
//!
//! [`DatasetFold`] is the only way a [`Dataset`] is built. It folds
//! connection records one domain group at a time, in ascending
//! domain-id order — the campaign engine's output order — so the same
//! fold serves three callers:
//!
//! - [`Dataset::build`] pushes a whole campaign's record vector;
//! - [`Dataset::build_parallel`] splits the records into shards on
//!   domain-group boundaries, folds each on a scoped thread and merges
//!   the folds **in shard order**;
//! - a bounded-memory campaign pushes each batch straight from
//!   [`Scanner::sweep`](quicspin_scanner::Scanner::sweep), with no
//!   materialized campaign: `|b: &mut Vec<ConnectionRecord>| fold.push(b)`.
//!
//! Tables merge by count addition (and a host-map OR); figure series keep
//! their per-record values so that every float is accumulated once, in
//! record order, in [`DatasetFold::finish`]. All three paths therefore
//! produce serde-byte-identical artefacts, for any shard or thread count.

use crate::dataset::CampaignSummary;
use crate::fig2::LongitudinalFigure;
use crate::fig3::{diffs_for, AbsoluteAccuracyFigure, AccuracySeries};
use crate::fig4::{ratios_for, RatioAccuracyFigure, RatioSeries};
use crate::orgs::OrgTable;
use crate::overview::OverviewTable;
use crate::reordering::ReorderingImpact;
use crate::spin_config::SpinConfigTable;
use crate::webserver::WebServerShares;
use quicspin_core::FlowClassification::{Greased, Spinning};
use quicspin_scanner::{Campaign, ConnectionRecord, LongitudinalResult};
use quicspin_webpop::ListKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// Every per-campaign artefact of the paper in one bundle: Tables 1–4
/// (Table 1/4 depending on the campaign's IP version), Figs. 3–4, the
/// §5.2 reordering statistics and the §4.2 web-server attribution.
/// Fig. 2 is longitudinal (it needs a multi-week scan, not a single
/// campaign) and is attached separately via
/// [`with_longitudinal`](Dataset::with_longitudinal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Table 1 (IPv4) / Table 4 (IPv6) deployment overview.
    pub overview: OverviewTable,
    /// Table 2 — AS-organization attribution (com/net/org selection).
    pub orgs: OrgTable,
    /// Table 3 — spin-bit configuration taxonomy.
    pub spin_config: SpinConfigTable,
    /// Fig. 2 — longitudinal compliance, if a longitudinal result was
    /// attached.
    pub fig2: Option<LongitudinalFigure>,
    /// Fig. 3 — absolute accuracy histogram.
    pub fig3: AbsoluteAccuracyFigure,
    /// Fig. 4 — mapped-ratio accuracy histogram.
    pub fig4: RatioAccuracyFigure,
    /// §5.2 reordering impact.
    pub reordering: ReorderingImpact,
    /// §4.2 web-server shares.
    pub webserver: WebServerShares,
}

impl Dataset {
    /// Builds every artefact with one fold over the campaign's records.
    pub fn build(campaign: &Campaign) -> Self {
        let mut fold = DatasetFold::default();
        fold.push(&campaign.records);
        fold.finish()
    }

    /// Builds every artefact by splitting the record stream into at most
    /// `shards` domain-aligned shards, folding each on a scoped thread
    /// and merging the folds in shard order. Produces exactly the
    /// artefacts of [`build`](Dataset::build) — byte-identical under
    /// serde — for any shard count.
    pub fn build_parallel(campaign: &Campaign, shards: usize) -> Self {
        let records = &campaign.records;
        let folds: Vec<DatasetFold> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_ranges(records, shards)
                .into_iter()
                .map(|range| {
                    scope.spawn(move || {
                        let mut fold = DatasetFold::default();
                        fold.push(&records[range]);
                        fold
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        folds
            .into_iter()
            .reduce(|mut merged, later| {
                merged.merge(later);
                merged
            })
            .unwrap_or_default()
            .finish()
    }

    /// Attaches the Fig. 2 longitudinal artefact.
    pub fn with_longitudinal(mut self, result: &LongitudinalResult) -> Self {
        self.fig2 = Some(LongitudinalFigure::from_result(result));
        self
    }
}

/// Splits `records` into at most `shards` contiguous ranges, never
/// cutting through a domain's record group: a shard boundary only lands
/// where the domain id changes between neighbouring records.
fn shard_ranges(records: &[ConnectionRecord], shards: usize) -> Vec<Range<usize>> {
    let n = records.len();
    if n == 0 {
        return Vec::new();
    }
    let target = n.div_ceil(shards.max(1));
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < n {
        let mut end = (start + target).min(n);
        while end < n && records[end].domain_id == records[end - 1].domain_id {
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// The in-order fold every [`Dataset`] is built from. Its state is
/// proportional to lists, distinct hosts and spinning or greased
/// connections (the figure series), not to domains or records.
#[derive(Debug, Default)]
pub struct DatasetFold {
    summary: CampaignSummary,
    org_totals: [u64; 9],
    org_spins: [u64; 9],
    fig3_spin: (Vec<f64>, Vec<f64>),
    fig3_grease: (Vec<f64>, Vec<f64>),
    fig4_spin: (Vec<f64>, Vec<f64>),
    fig4_grease: (Vec<f64>, Vec<f64>),
    reordering: ReorderingImpact,
    ws_all: BTreeMap<String, u64>,
    ws_spin: BTreeMap<String, u64>,
}

fn extend_pair(into: &mut (Vec<f64>, Vec<f64>), from: (Vec<f64>, Vec<f64>)) {
    into.0.extend(from.0);
    into.1.extend(from.1);
}

impl DatasetFold {
    /// Folds whole domain groups, in order: each domain's records must
    /// be contiguous and within this push, and domain ids must ascend
    /// across pushes.
    ///
    /// # Panics
    ///
    /// If a domain id is not above the previous group's id.
    pub fn push(&mut self, records: &[ConnectionRecord]) {
        self.summary.push(records);
        OrgTable::count_into(
            records,
            |l| l == ListKind::ZoneComNetOrg,
            &mut self.org_totals,
            &mut self.org_spins,
        );
        for (class, diffs, ratios) in [
            (Spinning, &mut self.fig3_spin, &mut self.fig4_spin),
            (Greased, &mut self.fig3_grease, &mut self.fig4_grease),
        ] {
            extend_pair(diffs, diffs_for(records.iter(), class));
            extend_pair(ratios, ratios_for(records.iter(), class));
        }
        self.reordering
            .merge(ReorderingImpact::from_records(records.iter()));
        WebServerShares::count_into(records, &mut self.ws_all, &mut self.ws_spin);
    }

    /// Appends a fold over a later stretch of the record stream.
    ///
    /// # Panics
    ///
    /// If `later` does not start above this fold's last domain id.
    pub fn merge(&mut self, later: DatasetFold) {
        self.summary.merge(later.summary);
        for i in 0..9 {
            self.org_totals[i] += later.org_totals[i];
            self.org_spins[i] += later.org_spins[i];
        }
        extend_pair(&mut self.fig3_spin, later.fig3_spin);
        extend_pair(&mut self.fig3_grease, later.fig3_grease);
        extend_pair(&mut self.fig4_spin, later.fig4_spin);
        extend_pair(&mut self.fig4_grease, later.fig4_grease);
        self.reordering.merge(later.reordering);
        for (name, n) in later.ws_all {
            *self.ws_all.entry(name).or_default() += n;
        }
        for (name, n) in later.ws_spin {
            *self.ws_spin.entry(name).or_default() += n;
        }
    }

    /// Assembles every artefact from the folded state.
    pub fn finish(self) -> Dataset {
        Dataset {
            overview: OverviewTable::from_summary(&self.summary),
            orgs: OrgTable::from_counts(self.org_totals, self.org_spins),
            spin_config: SpinConfigTable::from_summary(&self.summary),
            fig2: None,
            fig3: AbsoluteAccuracyFigure {
                spin_received: AccuracySeries::from_diffs(&self.fig3_spin.0),
                spin_sorted: AccuracySeries::from_diffs(&self.fig3_spin.1),
                grease_received: AccuracySeries::from_diffs(&self.fig3_grease.0),
                grease_sorted: AccuracySeries::from_diffs(&self.fig3_grease.1),
            },
            fig4: RatioAccuracyFigure {
                spin_received: RatioSeries::from_ratios(&self.fig4_spin.0),
                spin_sorted: RatioSeries::from_ratios(&self.fig4_spin.1),
                grease_received: RatioSeries::from_ratios(&self.fig4_grease.0),
                grease_sorted: RatioSeries::from_ratios(&self.fig4_grease.1),
            },
            reordering: self.reordering,
            webserver: WebServerShares {
                all: self.ws_all,
                spinning: self.ws_spin,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_scanner::{CampaignConfig, DomainWeeks, NetworkConditions, ScanOutcome, Scanner};
    use quicspin_webpop::{IpVersion, Org, Population, PopulationConfig};

    fn campaign(seed: u64, toplist: u32, zone: u32) -> Campaign {
        let pop = Population::generate(PopulationConfig {
            seed,
            toplist_domains: toplist,
            zone_domains: zone,
        });
        Scanner::new(&pop).run_campaign(&CampaignConfig {
            threads: 2,
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        })
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let c = campaign(11, 200, 4_000);
        let serial = Dataset::build(&c);
        let serial_json = serde_json::to_string_pretty(&serial).expect("serialize");
        for shards in [2, 3, 8] {
            let par = Dataset::build_parallel(&c, shards);
            assert_eq!(par, serial, "shards={shards}");
            let par_json = serde_json::to_string_pretty(&par).expect("serialize");
            assert_eq!(par_json, serial_json, "shards={shards}");
        }
    }

    #[test]
    fn parallel_components_match_canonical_builders() {
        let c = campaign(12, 100, 3_000);
        let par = Dataset::build_parallel(&c, 4);
        assert_eq!(par.overview, OverviewTable::from_campaign(&c));
        assert_eq!(par.orgs, OrgTable::from_campaign(&c));
        assert_eq!(par.spin_config, SpinConfigTable::from_campaign(&c));
        assert_eq!(par.webserver, WebServerShares::from_campaign(&c));
        assert_eq!(
            par.reordering,
            ReorderingImpact::from_records(c.records.iter())
        );
    }

    #[test]
    fn degenerate_shard_counts_match_build() {
        let c = campaign(13, 50, 500);
        assert_eq!(Dataset::build_parallel(&c, 0), Dataset::build(&c));
        assert_eq!(Dataset::build_parallel(&c, 1), Dataset::build(&c));
        let empty = Campaign {
            week: 0,
            version: IpVersion::V4,
            records: vec![],
        };
        assert_eq!(
            Dataset::build_parallel(&empty, 4),
            Dataset::build(&empty),
            "empty campaign builds all-zero artefacts on both paths"
        );
    }

    fn records(ids: &[u32]) -> Vec<ConnectionRecord> {
        ids.iter()
            .map(|&id| {
                ConnectionRecord::failed(
                    id,
                    ListKind::Toplist,
                    Org::Other,
                    0,
                    IpVersion::V4,
                    ScanOutcome::NoQuic,
                )
            })
            .collect()
    }

    fn split_group_campaign() -> Campaign {
        // Domain 0's records are split around domain 1's: counting the
        // two halves as two domains would report three domains, not two.
        Campaign {
            week: 0,
            version: IpVersion::V4,
            records: records(&[0, 1, 0]),
        }
    }

    #[test]
    #[should_panic(expected = "domain id 0 follows domain id 1")]
    fn split_domain_group_panics_in_one_shard() {
        Dataset::build_parallel(&split_group_campaign(), 1);
    }

    #[test]
    #[should_panic(expected = "starts at domain id 0, not after domain id 1")]
    fn split_domain_group_panics_across_shards() {
        Dataset::build_parallel(&split_group_campaign(), 3);
    }

    #[test]
    fn shard_ranges_respect_domain_groups() {
        // Domain 1 has a 5-record redirect chain straddling the naive
        // cut point; the boundary must slide past it.
        let records = records(&[0, 0, 1, 1, 1, 1, 1, 2, 3]);
        let ranges = shard_ranges(&records, 3);
        let mut covered = 0;
        for range in &ranges {
            assert_eq!(range.start, covered, "ranges are contiguous");
            covered = range.end;
            if range.end < records.len() {
                assert_ne!(
                    records[range.end - 1].domain_id,
                    records[range.end].domain_id,
                    "boundary must not split a domain group"
                );
            }
        }
        assert_eq!(covered, records.len());
        assert!(ranges.len() >= 2, "enough records for multiple shards");
    }

    #[test]
    fn with_longitudinal_attaches_fig2() {
        let c = campaign(14, 20, 200);
        let result = LongitudinalResult {
            n_weeks: 12,
            ever_spun: vec![DomainWeeks {
                domain_id: 0,
                reachable_weeks: 12,
                spin_weeks: 12,
            }],
        };
        let ds = Dataset::build(&c).with_longitudinal(&result);
        let fig2 = ds.fig2.expect("fig2 attached");
        assert_eq!(fig2.n_weeks, 12);
        assert_eq!(fig2.ever_spun, 1);
    }
}
