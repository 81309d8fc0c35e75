//! Received-packet tracking and ACK generation (RFC 9000 §13.2).
//!
//! Received packet numbers are kept as merged ranges, updated in place per
//! packet; an ACK frame is written straight from them into the outgoing
//! datagram.

use quicspin_netsim::{SimDuration, SimTime};
use quicspin_wire::{encode_ack, AckRange, Writer};

/// Tracks received packet numbers in one packet-number space and decides
/// when to send ACKs.
#[derive(Debug, Clone)]
pub struct RecvTracker {
    /// Received pn ranges, ascending, disjoint, merged.
    ranges: Vec<(u64, u64)>,
    largest: Option<u64>,
    largest_recv_time: SimTime,
    /// Ack-eliciting packets received since the last ACK we sent.
    eliciting_since_ack: u32,
    /// Deadline for a delayed ACK, if armed.
    ack_timer: Option<SimTime>,
    /// An ACK should be sent as soon as possible.
    ack_now: bool,
}

impl Default for RecvTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RecvTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RecvTracker {
            ranges: Vec::new(),
            largest: None,
            largest_recv_time: SimTime::ZERO,
            eliciting_since_ack: 0,
            ack_timer: None,
            ack_now: false,
        }
    }

    /// Whether `pn` was already received (duplicate detection).
    pub fn contains(&self, pn: u64) -> bool {
        let pos = self.ranges.partition_point(|&(start, _)| start <= pn);
        pos > 0 && self.ranges[pos - 1].1 >= pn
    }

    /// The received ranges, descending by packet number (ACK frame order).
    pub fn ranges(&self) -> impl ExactSizeIterator<Item = AckRange> + '_ {
        self.ranges
            .iter()
            .rev()
            .map(|&(start, end)| AckRange::new(start, end))
    }

    /// Records a received packet. Returns `false` for duplicates.
    ///
    /// `immediate_ack_threshold` is the number of ack-eliciting packets
    /// after which an ACK goes out immediately (RFC 9000 recommends every
    /// second packet); `max_ack_delay` bounds how long a solitary
    /// ack-eliciting packet may wait. Handshake-space callers pass a zero
    /// threshold to ACK everything immediately.
    pub fn on_packet(
        &mut self,
        pn: u64,
        ack_eliciting: bool,
        now: SimTime,
        immediate_ack_threshold: u32,
        max_ack_delay: SimDuration,
    ) -> bool {
        if self.contains(pn) {
            return false;
        }
        let out_of_order = self.largest.is_some_and(|l| pn < l);
        self.insert(pn);
        if self.largest.is_none_or(|l| pn >= l) {
            self.largest = Some(pn);
            self.largest_recv_time = now;
        }
        if ack_eliciting {
            self.eliciting_since_ack += 1;
            // RFC 9000 §13.2.1: ACK immediately when the threshold is hit
            // or when the packet is out of order (reordering signal).
            if self.eliciting_since_ack >= immediate_ack_threshold.max(1) || out_of_order {
                self.ack_now = true;
                self.ack_timer = None;
            } else if self.ack_timer.is_none() {
                self.ack_timer = Some(now + max_ack_delay);
            }
        }
        true
    }

    /// Adds a packet number not yet received, merging it into its
    /// neighbours in place.
    fn insert(&mut self, pn: u64) {
        let pos = self.ranges.partition_point(|&(start, _)| start <= pn);
        let joins_left = pos > 0 && self.ranges[pos - 1].1 + 1 == pn;
        let joins_right = pos < self.ranges.len() && self.ranges[pos].0 == pn + 1;
        match (joins_left, joins_right) {
            (true, true) => {
                self.ranges[pos - 1].1 = self.ranges[pos].1;
                self.ranges.remove(pos);
            }
            (true, false) => self.ranges[pos - 1].1 = pn,
            (false, true) => self.ranges[pos].0 = pn,
            (false, false) => self.ranges.insert(pos, (pn, pn)),
        }
    }

    /// Fires the delayed-ACK timer if expired.
    pub fn on_timeout(&mut self, now: SimTime) {
        if let Some(deadline) = self.ack_timer {
            if now >= deadline {
                self.ack_now = true;
                self.ack_timer = None;
            }
        }
    }

    /// Earliest pending deadline for this tracker.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.ack_timer
    }

    /// Whether an ACK should be bundled into the next packet right now.
    pub fn wants_ack(&self) -> bool {
        self.ack_now
    }

    /// Whether anything was ever received (an ACK frame can be built).
    pub fn has_received(&self) -> bool {
        self.largest.is_some()
    }

    /// Largest received packet number.
    pub fn largest(&self) -> Option<u64> {
        self.largest
    }

    /// Writes an ACK frame covering everything received into `w`,
    /// resetting the delayed-ACK machinery. The reported delay is the
    /// hold time since the largest packet arrived plus `extra_delay_us`.
    /// Writes nothing and returns `false` if nothing was received.
    pub fn write_ack(&mut self, w: &mut Writer, now: SimTime, extra_delay_us: u64) -> bool {
        let Some(largest) = self.largest else {
            return false;
        };
        let delay = now.saturating_since(self.largest_recv_time);
        encode_ack(
            w,
            largest,
            delay.as_micros() + extra_delay_us,
            self.ranges(),
        );
        self.ack_now = false;
        self.ack_timer = None;
        self.eliciting_since_ack = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_wire::{Frame, Reader};

    impl RecvTracker {
        /// [`RecvTracker::write_ack`], decoded back into a frame.
        fn make_ack(&mut self, now: SimTime) -> Option<Frame> {
            let mut w = Writer::new();
            self.write_ack(&mut w, now, 0)
                .then(|| Frame::decode(&mut Reader::new(w.as_slice())).unwrap())
        }
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn duplicate_detection() {
        let mut t = RecvTracker::new();
        assert!(t.on_packet(5, true, at(0), 2, ms(25)));
        assert!(!t.on_packet(5, true, at(1), 2, ms(25)));
        assert!(t.contains(5));
        assert!(!t.contains(4));
    }

    #[test]
    fn single_eliciting_packet_arms_delayed_ack() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 2, ms(25));
        assert!(!t.wants_ack());
        assert_eq!(t.next_timeout(), Some(at(25)));
        t.on_timeout(at(25));
        assert!(t.wants_ack());
    }

    #[test]
    fn second_eliciting_packet_acks_immediately() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 2, ms(25));
        t.on_packet(1, true, at(1), 2, ms(25));
        assert!(t.wants_ack());
        assert_eq!(t.next_timeout(), None);
    }

    #[test]
    fn non_eliciting_packets_never_force_acks() {
        let mut t = RecvTracker::new();
        t.on_packet(0, false, at(0), 2, ms(25));
        t.on_packet(1, false, at(1), 2, ms(25));
        assert!(!t.wants_ack());
        assert_eq!(t.next_timeout(), None);
    }

    #[test]
    fn out_of_order_triggers_immediate_ack() {
        let mut t = RecvTracker::new();
        t.on_packet(3, true, at(0), 10, ms(25));
        assert!(!t.wants_ack());
        t.on_packet(1, true, at(1), 10, ms(25));
        assert!(t.wants_ack(), "reordered arrival must ACK immediately");
    }

    #[test]
    fn threshold_zero_acts_as_one() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 0, ms(25));
        assert!(t.wants_ack(), "handshake spaces ack everything at once");
    }

    #[test]
    fn ack_frame_covers_ranges_with_gaps() {
        let mut t = RecvTracker::new();
        for pn in [0u64, 1, 2, 5, 6, 9] {
            t.on_packet(pn, true, at(pn), 2, ms(25));
        }
        let ack = t.make_ack(at(10)).unwrap();
        match ack {
            Frame::Ack {
                largest, ranges, ..
            } => {
                assert_eq!(largest, 9);
                assert_eq!(
                    ranges,
                    vec![
                        AckRange::new(9, 9),
                        AckRange::new(5, 6),
                        AckRange::new(0, 2)
                    ]
                );
            }
            other => panic!("expected ACK, got {other:?}"),
        }
    }

    #[test]
    fn ack_delay_reports_hold_time() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(100), 2, ms(25));
        let ack = t.make_ack(at(120)).unwrap();
        match ack {
            Frame::Ack { delay_us, .. } => assert_eq!(delay_us, 20_000),
            _ => unreachable!(),
        }
    }

    #[test]
    fn make_ack_resets_state() {
        let mut t = RecvTracker::new();
        t.on_packet(0, true, at(0), 2, ms(25));
        t.on_packet(1, true, at(1), 2, ms(25));
        assert!(t.wants_ack());
        t.make_ack(at(2)).unwrap();
        assert!(!t.wants_ack());
        assert_eq!(t.next_timeout(), None);
    }

    #[test]
    fn make_ack_none_when_empty() {
        let mut t = RecvTracker::new();
        assert!(t.make_ack(at(0)).is_none());
        assert!(!t.has_received());
        assert_eq!(t.largest(), None);
    }

    #[test]
    fn adjacent_ranges_merge() {
        let mut t = RecvTracker::new();
        for pn in [2u64, 0, 1] {
            t.on_packet(pn, true, at(pn), 10, ms(25));
        }
        let ack = t.make_ack(at(5)).unwrap();
        match ack {
            Frame::Ack { ranges, .. } => assert_eq!(ranges, vec![AckRange::new(0, 2)]),
            _ => unreachable!(),
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_ranges_cover_exactly_received(pns in proptest::collection::btree_set(0u64..200, 1..60)) {
            let mut t = RecvTracker::new();
            for (i, &pn) in pns.iter().enumerate() {
                t.on_packet(pn, true, at(i as u64), 2, ms(25));
            }
            for pn in 0..200u64 {
                proptest::prop_assert_eq!(t.contains(pn), pns.contains(&pn));
            }
            let ack = t.make_ack(at(1000)).unwrap();
            if let Frame::Ack { largest, ranges, .. } = ack {
                proptest::prop_assert_eq!(largest, *pns.iter().max().unwrap());
                let covered: u64 = ranges.iter().map(AckRange::len).sum();
                proptest::prop_assert_eq!(covered, pns.len() as u64);
                // Ranges must be descending and disjoint.
                for w in ranges.windows(2) {
                    proptest::prop_assert!(w[1].end + 1 < w[0].start);
                }
            } else {
                unreachable!();
            }
        }
    }
}
