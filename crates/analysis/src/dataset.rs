//! Domain-level counters of campaign records, folded one domain group at
//! a time.

use quicspin_core::FlowClassification;
use quicspin_scanner::{Campaign, ConnectionRecord, ScanOutcome};
use quicspin_webpop::{HostAddr, ListKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Domain-level spin behaviour (Table 3 taxonomy at domain granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DomainClass {
    /// No QUIC connection established.
    NoQuic,
    /// All observed packets zero on every connection.
    AllZero,
    /// All observed packets one on some connection, none spinning.
    AllOne,
    /// At least one genuinely spinning connection.
    Spin,
    /// At least one connection caught by the grease filter (and none
    /// spinning).
    Grease,
}

/// Domain counters of one list, or summed over a list selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainCounts {
    /// Scanned domains.
    pub total: u64,
    /// Domains that resolved.
    pub resolved: u64,
    /// Domains per [`DomainClass`], indexed by `class as usize`.
    pub classes: [u64; 5],
}

impl DomainCounts {
    /// Domains of one class.
    pub fn class(&self, class: DomainClass) -> u64 {
        self.classes[class as usize]
    }

    /// Domains with at least one established QUIC connection.
    pub fn quic(&self) -> u64 {
        self.total - self.class(DomainClass::NoQuic)
    }

    fn add(&mut self, other: &DomainCounts) {
        self.total += other.total;
        self.resolved += other.resolved;
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes) {
            *mine += theirs;
        }
    }
}

/// Per-campaign summary: the material for Tables 1/3/4.
///
/// Records are folded one domain group (all of a domain's redirect hops)
/// at a time, so each domain is classified exactly once and the state is
/// proportional to lists and distinct hosts, not to domains. Groups must
/// arrive in ascending domain-id order — the campaign engine's output
/// order — and [`DatasetFold`](crate::DatasetFold) panics when they do
/// not, rather than count a split group twice.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    lists: BTreeMap<ListKind, DomainCounts>,
    /// (list, host) → did any of that list's QUIC domains on the host spin?
    hosts: BTreeMap<(ListKind, HostAddr), bool>,
    /// First and last domain id folded so far.
    ids: Option<(u32, u32)>,
}

fn classify_domain(records: &[ConnectionRecord]) -> DomainClass {
    let mut any_quic = false;
    let mut any_spin = false;
    let mut any_grease = false;
    let mut any_one = false;
    for r in records {
        if r.outcome != ScanOutcome::Ok {
            continue;
        }
        any_quic = true;
        if let Some(report) = &r.report {
            match report.classification {
                FlowClassification::Spinning => any_spin = true,
                FlowClassification::Greased => any_grease = true,
                FlowClassification::AllOne => any_one = true,
                FlowClassification::AllZero | FlowClassification::NoShortPackets => {}
            }
        }
    }
    if !any_quic {
        DomainClass::NoQuic
    } else if any_spin {
        DomainClass::Spin
    } else if any_grease {
        DomainClass::Grease
    } else if any_one {
        DomainClass::AllOne
    } else {
        DomainClass::AllZero
    }
}

impl CampaignSummary {
    /// Builds the summary from a campaign.
    pub fn build(campaign: &Campaign) -> Self {
        let mut summary = CampaignSummary::default();
        summary.push(&campaign.records);
        summary
    }

    /// Folds every domain group of `records`, in order. A group may not
    /// continue across two pushes.
    ///
    /// # Panics
    ///
    /// If a domain id is not above the previous group's id.
    pub(crate) fn push(&mut self, records: &[ConnectionRecord]) {
        for group in records.chunk_by(|a, b| a.domain_id == b.domain_id) {
            let id = group[0].domain_id;
            self.ids = match self.ids {
                None => Some((id, id)),
                Some((_, last)) if id <= last => {
                    panic!("domain id {id} follows domain id {last}: records must come in ascending domain-id order, one contiguous group per domain")
                }
                Some((first, _)) => Some((first, id)),
            };
            self.push_group(group);
        }
    }

    fn push_group(&mut self, group: &[ConnectionRecord]) {
        let first = &group[0];
        let class = classify_domain(group);
        let counts = self.lists.entry(first.list).or_default();
        counts.total += 1;
        if first.outcome != ScanOutcome::NotResolved {
            counts.resolved += 1;
        }
        counts.classes[class as usize] += 1;
        if class != DomainClass::NoQuic {
            if let Some(host) = group.iter().find_map(|r| r.host) {
                *self.hosts.entry((first.list, host)).or_insert(false) |=
                    class == DomainClass::Spin;
            }
        }
    }

    /// Merges a summary folded over a later stretch of the record
    /// stream.
    ///
    /// # Panics
    ///
    /// If `later` does not start above this summary's last domain id.
    pub(crate) fn merge(&mut self, later: CampaignSummary) {
        self.ids = match (self.ids, later.ids) {
            (Some((_, last)), Some((first, _))) if first <= last => {
                panic!("merged summary starts at domain id {first}, not after domain id {last}: merge shards in ascending domain-id order")
            }
            (Some((first, _)), Some((_, last))) => Some((first, last)),
            (mine, theirs) => mine.or(theirs),
        };
        for (list, counts) in later.lists {
            self.lists.entry(list).or_default().add(&counts);
        }
        for (key, spin) in later.hosts {
            *self.hosts.entry(key).or_insert(false) |= spin;
        }
    }

    /// Domain counters summed over a list selection.
    pub fn counts(&self, filter: impl Fn(ListKind) -> bool) -> DomainCounts {
        let mut out = DomainCounts::default();
        for (_, counts) in self.lists.iter().filter(|&(&list, _)| filter(list)) {
            out.add(counts);
        }
        out
    }

    /// Distinct hosts serving QUIC domains of a list selection, and how
    /// many of them serve a spinning one: `(quic_ips, spin_ips)`. A host
    /// serving domains of several selected lists counts once.
    pub fn host_counts(&self, filter: impl Fn(ListKind) -> bool) -> (u64, u64) {
        let mut hosts: BTreeMap<HostAddr, bool> = BTreeMap::new();
        for (&(list, host), &spin) in &self.hosts {
            if filter(list) {
                *hosts.entry(host).or_insert(false) |= spin;
            }
        }
        let spinning = hosts.values().filter(|&&spin| spin).count();
        (hosts.len() as u64, spinning as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::OverviewTable;
    use quicspin_core::ObserverReport;
    use quicspin_webpop::{IpVersion, Org};

    fn record(
        domain_id: u32,
        outcome: ScanOutcome,
        class: Option<FlowClassification>,
    ) -> ConnectionRecord {
        let mut r = ConnectionRecord::failed(
            domain_id,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            outcome,
        );
        if outcome == ScanOutcome::Ok {
            r.host = Some(HostAddr {
                version: IpVersion::V4,
                org: Org::Hostinger,
                host_index: u64::from(domain_id % 2),
            });
            r.report = class.map(|c| {
                Box::new(ObserverReport {
                    classification: c,
                    packets: 5,
                    spin_samples_received_us: vec![],
                    spin_samples_sorted_us: vec![],
                    stack_samples_us: vec![40_000],
                })
            });
        }
        r
    }

    fn campaign(records: Vec<ConnectionRecord>) -> Campaign {
        Campaign {
            week: 0,
            version: IpVersion::V4,
            records,
        }
    }

    #[test]
    fn domain_classification_priorities() {
        // Spin wins over grease; grease over all-one; all-one over all-zero.
        let c = campaign(vec![
            record(1, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
            record(1, ScanOutcome::Ok, Some(FlowClassification::Spinning)),
            record(2, ScanOutcome::Ok, Some(FlowClassification::Greased)),
            record(2, ScanOutcome::Ok, Some(FlowClassification::AllOne)),
            record(3, ScanOutcome::Ok, Some(FlowClassification::AllOne)),
            record(4, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
            record(5, ScanOutcome::NoQuic, None),
            record(6, ScanOutcome::NotResolved, None),
        ]);
        let counts = CampaignSummary::build(&c).counts(|_| true);
        // One domain per class, except the two without QUIC.
        assert_eq!(counts.classes, [2, 1, 1, 1, 1]);
        assert_eq!(counts.total, 6);
        assert_eq!(counts.quic(), 4);
        assert_eq!(counts.resolved, 5, "domain 6 did not resolve");
    }

    #[test]
    fn host_rollup_aggregates_spin_over_domains() {
        // Domains 1 (spin) and 3 (all-zero) share host 1; domain 2 on host 0.
        let c = campaign(vec![
            record(1, ScanOutcome::Ok, Some(FlowClassification::Spinning)),
            record(2, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
            record(3, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
        ]);
        let row = OverviewTable::from_campaign(&c).com_net_org;
        assert_eq!(row.quic_ips, 2);
        assert_eq!(row.spin_ips, 1, "host with domain 1 spins");
    }

    #[test]
    fn list_filters() {
        let mut r1 = record(1, ScanOutcome::Ok, Some(FlowClassification::AllZero));
        r1.list = ListKind::Toplist;
        let r2 = record(2, ScanOutcome::Ok, Some(FlowClassification::Spinning));
        let c = campaign(vec![r1, r2]);
        let s = CampaignSummary::build(&c);
        assert_eq!(s.counts(|l| l == ListKind::Toplist).total, 1);
        assert_eq!(s.counts(ListKind::is_czds).total, 1);
        assert_eq!(s.host_counts(ListKind::is_czds), (1, 1));
    }

    #[test]
    #[should_panic(expected = "domain id 2 follows domain id 2")]
    fn a_group_split_across_pushes_panics() {
        let records = [
            record(2, ScanOutcome::Ok, Some(FlowClassification::AllZero)),
            record(2, ScanOutcome::NoQuic, None),
        ];
        let mut s = CampaignSummary::default();
        s.push(&records[..1]);
        s.push(&records[1..]);
    }
}
