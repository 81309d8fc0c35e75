//! Per-flow spin-edge state machines with observer-side validity
//! heuristics.
//!
//! A [`FlowObserver`] consumes [`ObservedPacket`]s of one connection and
//! reconstructs RTT samples the way an on-path device would: each
//! direction's spin square wave flips once per RTT, so the time between
//! consecutive edges *in the same direction* is one full RTT. Three
//! heuristics guard the samples:
//!
//! * **Reordering rejection (edge-direction check)** — a reordered
//!   packet carrying a stale spin value fakes an edge that a packet with
//!   the current value immediately reverts. An edge whose period is
//!   implausibly short (below [`ObserverPolicy::min_period_frac`] of the
//!   median period) is rejected *without* taking its value or advancing
//!   the edge clock, so the revert packet matches the kept state and the
//!   wave re-synchronizes by itself. Cross-direction consistency (a
//!   downstream edge must reflect the last upstream value, RFC 9312
//!   §4.2.1) is enforced by the embedded
//!   [`DualDirectionObserver`] for the component samples.
//! * **Loss-gap handling** — when an edge-carrying packet is lost before
//!   the tap, the next observed period is a multiple of the true RTT.
//!   Periods above [`ObserverPolicy::max_period_factor`] × median come
//!   from a real edge (the clock advances) but yield no sample.
//! * **Handshake warm-up suppression** — long-header packets never reach
//!   the observer at all (see [`ObservedPacket`]), and samples whose
//!   edge falls before [`ObserverPolicy::warmup_us`] are counted but
//!   suppressed, keeping slow-start transients out of the stream.
//!
//! The median both heuristics compare against is the median of the last
//! [`MEDIAN_WINDOW`] accepted periods of the direction
//! ([`WindowedMedian`]). Per-flow state is fixed-size: a
//! [`FlowObserver`] is a `Copy` value holding two windows, streaming
//! sample statistics ([`SampleStats`]) and counters, and never the
//! samples themselves, so per-packet cost and memory do not grow with
//! flow length. A flow whose directions each accept at most
//! [`MEDIAN_WINDOW`] periods sees exactly the all-history median, so its
//! [`FlowStats`] equal those of an observer that keeps every period.
//!
//! [`MEDIAN_WINDOW`]: quicspin_core::MEDIAN_WINDOW
//!
//! With the default policy and a clean path (no loss, no reordering, no
//! jitter) none of the heuristics fire and the downstream sample stream
//! ([`FlowObserver::observe`] returns each accepted sample) is exactly
//! the client's own spin RTT stream — the property the test suite pins
//! down.

use crate::packet::ObservedPacket;
use quicspin_core::{Direction, DualDirectionObserver, SampleStats, WindowedMedian};
use serde::{Deserialize, Serialize};

/// Validity-heuristic thresholds of a [`FlowObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObserverPolicy {
    /// Suppress samples whose edge time is below this (µs since
    /// connection start). 0 disables warm-up suppression.
    pub warmup_us: u64,
    /// Reject an edge as reordering when its period is below this
    /// fraction of the median period. 0 disables the check.
    pub min_period_frac: f64,
    /// Reject a sample as a loss gap when its period exceeds this
    /// multiple of the median period. 0 disables the check.
    pub max_period_factor: f64,
}

impl Default for ObserverPolicy {
    fn default() -> Self {
        ObserverPolicy {
            warmup_us: 0,
            min_period_frac: 0.25,
            max_period_factor: 4.0,
        }
    }
}

impl ObserverPolicy {
    /// A policy with every heuristic disabled (raw edge periods).
    pub fn permissive() -> Self {
        ObserverPolicy {
            warmup_us: 0,
            min_period_frac: 0.0,
            max_period_factor: 0.0,
        }
    }
}

/// Edge tracking state of one direction.
#[derive(Debug, Clone, Copy, Default)]
struct DirState {
    last_spin: Option<bool>,
    last_edge_us: Option<u64>,
    edges: u64,
    samples: SampleStats,
    /// Accepted periods (including warm-up-suppressed ones): the median
    /// the heuristics compare against.
    periods: WindowedMedian,
    rejected_reorder: u64,
    rejected_gap: u64,
    suppressed_warmup: u64,
}

impl DirState {
    /// Tracks one packet's spin value; returns the accepted RTT sample
    /// when the packet is an edge that completes one.
    fn note(&mut self, time_us: u64, spin: bool, policy: &ObserverPolicy) -> Option<u64> {
        let prev = match self.last_spin {
            None => {
                // First short-header packet of this direction defines the
                // baseline value; a wave needs a level before an edge.
                self.last_spin = Some(spin);
                return None;
            }
            Some(v) => v,
        };
        if prev == spin {
            return None;
        }
        self.edges += 1;
        let prev_edge = match self.last_edge_us {
            None => {
                // First edge starts the period clock, exactly like the
                // endpoint-side SpinObserver: no sample yet.
                self.last_spin = Some(spin);
                self.last_edge_us = Some(time_us);
                return None;
            }
            Some(t) => t,
        };
        let period = time_us.saturating_sub(prev_edge);
        let median = self.periods.median();
        if let Some(m) = median {
            if policy.min_period_frac > 0.0 && (period as f64) < policy.min_period_frac * m {
                // Reordering: keep the pre-edge state so the flip-back
                // packet re-synchronizes instead of faking a second edge.
                self.rejected_reorder += 1;
                return None;
            }
        }
        self.last_spin = Some(spin);
        self.last_edge_us = Some(time_us);
        if let Some(m) = median {
            if policy.max_period_factor > 0.0 && (period as f64) > policy.max_period_factor * m {
                // A lost edge inflated this period to a multiple of the
                // RTT; the edge is real but the sample is not.
                self.rejected_gap += 1;
                return None;
            }
        }
        self.periods.push(period);
        if time_us < policy.warmup_us {
            self.suppressed_warmup += 1;
            return None;
        }
        self.samples.push(period);
        Some(period)
    }
}

/// Serializable summary of one flow at the tap — everything the campaign
/// artifacts and the flight recorder need, and nothing that could not be
/// derived from observer-legal bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Short-header packets observed (both directions).
    pub packets: u64,
    /// Datagrams the observer could not parse as short headers
    /// (long-header handshake packets and garbage); counted, never read.
    pub unobservable: u64,
    /// Raw spin edges seen client→server.
    pub edges_upstream: u64,
    /// Raw spin edges seen server→client.
    pub edges_downstream: u64,
    /// Accepted downstream RTT samples (the canonical stream — the same
    /// wave the measuring client sees).
    pub samples: u64,
    /// Accepted upstream RTT samples.
    pub samples_upstream: u64,
    /// Mean of the accepted downstream samples (µs, rounded down).
    pub mean_us: Option<u64>,
    /// Minimum accepted downstream sample (µs).
    pub min_us: Option<u64>,
    /// Maximum accepted downstream sample (µs).
    pub max_us: Option<u64>,
    /// Mean tap→server→tap component (µs), RFC 9312 §4.2.1 split.
    pub server_side_mean_us: Option<u64>,
    /// Mean tap→client→tap component (µs).
    pub client_side_mean_us: Option<u64>,
    /// Edges rejected as reordering artifacts (both directions).
    pub rejected_reorder: u64,
    /// Samples rejected as loss gaps (both directions).
    pub rejected_gap: u64,
    /// Samples suppressed by handshake warm-up (both directions).
    pub suppressed_warmup: u64,
    /// Whether the flow yielded at least one accepted downstream sample.
    pub measurable: bool,
}

/// Streaming per-flow observer: both directions' edge state machines
/// plus the dual-direction component split. A fixed-size `Copy` value:
/// nothing in it grows with the flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowObserver {
    policy: ObserverPolicy,
    /// Index 0 = upstream, 1 = downstream (matches [`Direction`]).
    dirs: [DirState; 2],
    dual: DualDirectionObserver,
    packets: u64,
    unobservable: u64,
}

impl Default for FlowObserver {
    fn default() -> Self {
        FlowObserver::new(ObserverPolicy::default())
    }
}

impl FlowObserver {
    /// Creates an observer with the given validity policy.
    pub fn new(policy: ObserverPolicy) -> Self {
        FlowObserver {
            policy,
            dirs: [DirState::default(), DirState::default()],
            dual: DualDirectionObserver::new(),
            packets: 0,
            unobservable: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> ObserverPolicy {
        self.policy
    }

    /// Feeds one observed packet (must arrive in tap-crossing order).
    /// Returns the RTT sample (µs) of the packet's direction when the
    /// packet completed an accepted spin period.
    pub fn observe(&mut self, packet: &ObservedPacket) -> Option<u64> {
        self.packets += 1;
        self.dual
            .observe(packet.direction(), &packet.to_observation());
        let idx = match packet.direction() {
            Direction::Upstream => 0,
            Direction::Downstream => 1,
        };
        let policy = self.policy;
        self.dirs[idx].note(packet.time_us(), packet.spin(), &policy)
    }

    /// [`observe`](FlowObserver::observe) without the sample.
    pub fn ingest(&mut self, packet: &ObservedPacket) {
        self.observe(packet);
    }

    /// Notes a datagram the privacy boundary refused (long header or
    /// undecodable) — the observer may count it, nothing more.
    pub fn note_unobservable(&mut self) {
        self.unobservable += 1;
    }

    /// Folds a whole tap capture: every record is either narrowed through
    /// the [`ObservedPacket`] boundary or counted as unobservable.
    pub fn ingest_tap_records(&mut self, records: &[quicspin_netsim::TapRecord], cid_len: usize) {
        for record in records {
            match ObservedPacket::from_tap(record, cid_len) {
                Some(packet) => self.ingest(&packet),
                None => self.note_unobservable(),
            }
        }
    }

    /// The embedded RFC 9312 §4.2.1 component observer.
    pub fn dual(&self) -> &DualDirectionObserver {
        &self.dual
    }

    /// Mean downstream RTT in ms, when measurable.
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        Some(self.dirs[1].samples.mean_f64()? / 1000.0)
    }

    /// Snapshot of everything the campaign stores per flow.
    pub fn stats(&self) -> FlowStats {
        let down = &self.dirs[1];
        let up = &self.dirs[0];
        FlowStats {
            packets: self.packets,
            unobservable: self.unobservable,
            edges_upstream: up.edges,
            edges_downstream: down.edges,
            samples: down.samples.count(),
            samples_upstream: up.samples.count(),
            mean_us: down.samples.mean(),
            min_us: down.samples.min(),
            max_us: down.samples.max(),
            server_side_mean_us: self.dual.server_side_mean_us(),
            client_side_mean_us: self.dual.client_side_mean_us(),
            rejected_reorder: up.rejected_reorder + down.rejected_reorder,
            rejected_gap: up.rejected_gap + down.rejected_gap,
            suppressed_warmup: up.suppressed_warmup + down.suppressed_warmup,
            measurable: down.samples.count() > 0,
        }
    }
}

// Bounded state, checked at compile time: both observers are plain
// `Copy` values, so neither can own a heap buffer that grows per packet.
const _: fn() = || {
    fn assert_copy<T: Copy>() {}
    assert_copy::<FlowObserver>();
    assert_copy::<DualDirectionObserver>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::MEDIAN_WINDOW;

    fn packet(t_ms: u64, dir: Direction, spin: bool) -> ObservedPacket {
        let h = quicspin_wire::ShortHeader {
            spin,
            vec: 0,
            dcid: quicspin_wire::ConnectionId::new(&[1; 8]).unwrap(),
            packet_number: quicspin_wire::PacketNumber::new(0),
        };
        let mut w = quicspin_wire::Writer::new();
        h.encode(&mut w);
        ObservedPacket::from_datagram(t_ms * 1000, dir, &w.into_bytes(), 8).unwrap()
    }

    /// Feeds a downstream square wave; returns the accepted samples.
    fn feed_square_wave(obs: &mut FlowObserver, period_ms: u64, edges: u64) -> Vec<u64> {
        (0..edges)
            .filter_map(|k| obs.observe(&packet(k * period_ms, Direction::Downstream, k % 2 == 1)))
            .collect()
    }

    #[test]
    fn clean_wave_yields_one_sample_per_edge_after_the_first() {
        let mut obs = FlowObserver::default();
        assert_eq!(feed_square_wave(&mut obs, 40, 6), [40_000; 4]);
        let stats = obs.stats();
        assert_eq!(stats.edges_downstream, 5);
        assert_eq!(stats.samples, 4);
        assert_eq!(stats.mean_us, Some(40_000));
        assert_eq!(obs.mean_rtt_ms(), Some(40.0));
        assert!(stats.measurable);
        assert_eq!(stats.rejected_reorder + stats.rejected_gap, 0);
    }

    #[test]
    fn reordered_stale_value_is_rejected_and_state_recovers() {
        let mut obs = FlowObserver::default();
        // The last edge of the wave sets `true` at t=120.
        let mut samples = feed_square_wave(&mut obs, 40, 4);
        // A stale `false` overtakes at t=121 and fakes an edge; the stream
        // then continues with the genuine value.
        for (t, spin) in [(121, false), (122, true), (160, false)] {
            samples.extend(obs.observe(&packet(t, Direction::Downstream, spin)));
        }
        let stats = obs.stats();
        assert_eq!(stats.rejected_reorder, 1);
        // Periods stay clean: the genuine edge at t=160 measures from t=120.
        assert_eq!(samples, [40_000, 40_000, 40_000]);
    }

    #[test]
    fn loss_gap_advances_the_clock_without_a_sample() {
        let mut obs = FlowObserver::default();
        feed_square_wave(&mut obs, 40, 4);
        // The edges between t=120 and t=320 were lost: the next observed
        // flip measures a 200 ms period, above the 4x-median (160 ms)
        // loss-gap bound. A 2-RTT gap of 80 ms would stay under it.
        assert_eq!(
            obs.observe(&packet(320, Direction::Downstream, false)),
            None
        );
        let stats = obs.stats();
        assert_eq!(stats.rejected_gap, 1);
        // The post-gap edge measures a clean period again.
        let next = obs.observe(&packet(360, Direction::Downstream, true));
        assert_eq!(next, Some(40_000));
    }

    #[test]
    fn warmup_suppresses_early_samples() {
        let mut obs = FlowObserver::new(ObserverPolicy {
            warmup_us: 150_000,
            ..ObserverPolicy::default()
        });
        // The sample-yielding edges at 80 and 120 ms fall inside the
        // warm-up window; 160 and 200 ms are past it.
        assert_eq!(feed_square_wave(&mut obs, 40, 6), [40_000, 40_000]);
        let stats = obs.stats();
        assert_eq!(stats.suppressed_warmup, 2);
    }

    #[test]
    fn observer_state_is_fixed_size() {
        // Two windows of MEDIAN_WINDOW periods (ring plus sorted copy)
        // and a few dozen counters, independent of flow length.
        let bound = 2 * 2 * 8 * MEDIAN_WINDOW + 512;
        assert!(
            std::mem::size_of::<FlowObserver>() <= bound,
            "{} > {bound} bytes",
            std::mem::size_of::<FlowObserver>()
        );
    }

    #[test]
    fn permissive_policy_takes_raw_periods() {
        let mut obs = FlowObserver::new(ObserverPolicy::permissive());
        feed_square_wave(&mut obs, 40, 4);
        obs.ingest(&packet(121, Direction::Downstream, false));
        let stats = obs.stats();
        assert_eq!(stats.rejected_reorder, 0);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn both_directions_feed_the_component_split() {
        let mut obs = FlowObserver::default();
        obs.ingest(&packet(0, Direction::Upstream, false));
        obs.ingest(&packet(1, Direction::Downstream, false));
        for k in 0..4u64 {
            let base = 10 + 80 * k;
            let value = k % 2 == 0;
            obs.ingest(&packet(base, Direction::Upstream, value));
            obs.ingest(&packet(base + 60, Direction::Downstream, value));
        }
        let stats = obs.stats();
        assert_eq!(stats.server_side_mean_us, Some(60_000));
        assert_eq!(stats.client_side_mean_us, Some(20_000));
        assert_eq!(stats.edges_upstream, 4);
        assert_eq!(stats.samples_upstream, 3);
    }

    #[test]
    fn unmeasurable_flow_reports_counts_only() {
        let mut obs = FlowObserver::default();
        for t in 0..8 {
            obs.ingest(&packet(t * 10, Direction::Downstream, false));
        }
        obs.note_unobservable();
        let stats = obs.stats();
        assert!(!stats.measurable);
        assert_eq!(stats.packets, 8);
        assert_eq!(stats.unobservable, 1);
        assert_eq!(stats.mean_us, None);
    }

    #[test]
    fn stats_serde_roundtrip() {
        let mut obs = FlowObserver::default();
        feed_square_wave(&mut obs, 25, 5);
        let stats = obs.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: FlowStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
