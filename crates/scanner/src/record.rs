//! Per-connection scan records — the dataset all tables and figures are
//! computed from.

use quicspin_core::ObserverReport;
use quicspin_qlog::TraceLog;
use quicspin_webpop::{HostAddr, IpVersion, ListKind, Org, WebServer};
use serde::{Deserialize, Serialize};

/// What happened when the scanner tried a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanOutcome {
    /// DNS did not resolve on the requested IP version.
    NotResolved,
    /// Resolved, but the host never answered QUIC.
    NoQuic,
    /// The host was down this week (no answer at all).
    Unreachable,
    /// QUIC was answered but the handshake did not complete.
    HandshakeFailed,
    /// Connection established and the exchange completed.
    Ok,
}

impl ScanOutcome {
    /// Whether the domain counts into the paper's "QUIC" column
    /// (a connection could be established).
    pub fn is_quic(self) -> bool {
        matches!(self, ScanOutcome::Ok)
    }
}

/// One scanned connection.
///
/// The layout keeps the fields every attempt has inline and boxes the
/// payloads only established connections carry (`report`, `observer`,
/// `qlog`), so a failed attempt costs the inline record alone. Most
/// targets of a zone-scale sweep never establish QUIC. Boxing is
/// transparent to serde: the JSON is that of the unboxed `Option`s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConnectionRecord {
    /// Target domain.
    pub domain_id: u32,
    /// Which list the domain came from.
    pub list: ListKind,
    /// Hosting organization (AS mapping).
    pub org: Org,
    /// Measurement week.
    pub week: u32,
    /// IP version used.
    pub version: IpVersion,
    /// Redirect depth of this connection (0 = initial request).
    pub redirect_depth: u32,
    /// Outcome of the attempt.
    pub outcome: ScanOutcome,
    /// The host contacted, if any.
    pub host: Option<HostAddr>,
    /// Web-server software from the `server:` response header, if an
    /// HTTP response was parsed.
    pub webserver: Option<WebServer>,
    /// The spin-bit assessment (present for established connections).
    pub report: Option<Box<ObserverReport>>,
    /// The on-path observer's view of this connection, present when the
    /// campaign ran with a tap attached (see
    /// [`crate::observe::ObserverView`]).
    #[serde(default)]
    pub observer: Option<Box<crate::observe::ObserverView>>,
    /// Simulated handshake time in microseconds, when the handshake
    /// completed. Virtual-clock time, so it is identical for any
    /// worker-thread count — the time-series layer samples it.
    #[serde(default)]
    pub virtual_handshake_us: Option<u64>,
    /// Simulated total connection lifetime in microseconds (0 for
    /// attempts that never produced traffic). Virtual-clock time.
    #[serde(default)]
    pub virtual_total_us: u64,
    /// Deepest simulated bottleneck queue this connection saw.
    #[serde(default)]
    pub queue_high_water: u64,
    /// The client-side qlog trace, retained only when the campaign runs
    /// with `keep_qlogs` (the paper's Appendix B artifact release keeps
    /// these for all toplist connections).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub qlog: Option<Box<TraceLog>>,
}

impl ConnectionRecord {
    /// A record for a failed attempt.
    pub fn failed(
        domain_id: u32,
        list: ListKind,
        org: Org,
        week: u32,
        version: IpVersion,
        outcome: ScanOutcome,
    ) -> Self {
        ConnectionRecord {
            domain_id,
            list,
            org,
            week,
            version,
            redirect_depth: 0,
            outcome,
            host: None,
            webserver: None,
            report: None,
            observer: None,
            virtual_handshake_us: None,
            virtual_total_us: 0,
            queue_high_water: 0,
            qlog: None,
        }
    }

    /// Heap bytes the record owns beyond its inline size: each boxed
    /// payload's block and what the payloads own in turn (the report's
    /// sample vectors, the trace's events and strings).
    pub fn heap_bytes(&self) -> usize {
        let report = self.report.as_deref().map_or(0, |r| {
            let samples = r.spin_samples_received_us.capacity()
                + r.spin_samples_sorted_us.capacity()
                + r.stack_samples_us.capacity();
            std::mem::size_of::<ObserverReport>() + samples * std::mem::size_of::<u64>()
        });
        let observer = self
            .observer
            .as_ref()
            .map_or(0, |_| std::mem::size_of::<crate::observe::ObserverView>());
        let qlog = self
            .qlog
            .as_deref()
            .map_or(0, |t| std::mem::size_of::<TraceLog>() + t.heap_bytes());
        report + observer + qlog
    }

    /// Whether this connection showed spin-bit activity (flips) —
    /// the paper's "Spin" candidate criterion before grease filtering.
    pub fn has_spin_activity(&self) -> bool {
        self.report
            .as_ref()
            .is_some_and(|r| r.classification.has_activity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::FlowClassification;

    #[test]
    fn outcome_quic_classification() {
        assert!(ScanOutcome::Ok.is_quic());
        assert!(!ScanOutcome::NotResolved.is_quic());
        assert!(!ScanOutcome::NoQuic.is_quic());
        assert!(!ScanOutcome::Unreachable.is_quic());
        assert!(!ScanOutcome::HandshakeFailed.is_quic());
    }

    /// The inline budget. 8-byte words: `host` 16 (`HostAddr` is a
    /// `u64` plus two one-byte enums; `None` sits in an enum niche),
    /// `virtual_handshake_us` 16, `virtual_total_us` 8,
    /// `queue_high_water` 8, and the three boxed payloads 8 each (`None`
    /// is the null pointer). Then `domain_id`, `week` and
    /// `redirect_depth` at 4 each, and `list`, `org`, `version`,
    /// `outcome` and `webserver` at 1 each: 17 bytes, padded to 24.
    /// 72 + 24 = 96.
    #[test]
    fn record_stays_within_its_inline_budget() {
        assert!(std::mem::size_of::<ConnectionRecord>() <= 96);
    }

    #[test]
    fn failed_record_has_no_report() {
        let r = ConnectionRecord::failed(
            1,
            ListKind::Toplist,
            Org::Other,
            0,
            IpVersion::V4,
            ScanOutcome::NotResolved,
        );
        assert!(r.report.is_none());
        assert!(!r.has_spin_activity());
        assert_eq!(r.outcome, ScanOutcome::NotResolved);
    }

    #[test]
    fn spin_activity_follows_classification() {
        let mut r = ConnectionRecord::failed(
            1,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            ScanOutcome::Ok,
        );
        r.report = Some(Box::new(ObserverReport {
            classification: FlowClassification::Spinning,
            packets: 10,
            spin_samples_received_us: vec![40_000],
            spin_samples_sorted_us: vec![40_000],
            stack_samples_us: vec![40_000],
        }));
        assert!(r.has_spin_activity());
        r.report.as_mut().unwrap().classification = FlowClassification::AllZero;
        assert!(!r.has_spin_activity());
    }
}
