//! Sent-packet ledger, ACK processing, and loss detection (RFC 9002).
//!
//! The ledger is a window indexed by packet number: one slot per pn from
//! the oldest packet still tracked to the newest sent, emptied when a
//! packet is acknowledged or declared lost and trimmed from the front once
//! the oldest slots are empty. What a packet carried is kept as
//! [`SentFrame`]s — byte *ranges* of the connection's send buffers, not
//! the bytes — in a second pn-ordered queue. Neither queue allocates once
//! it has grown to the connection's largest flight.

use crate::streams::StreamRange;
use quicspin_netsim::{SimDuration, SimTime};
use quicspin_wire::AckRange;
use std::collections::VecDeque;

/// A retransmittable frame as the ledger remembers it. CRYPTO and STREAM
/// frames name the range of their send buffer; a retransmission re-reads
/// the bytes from there. ACK, PADDING and CONNECTION_CLOSE frames are
/// never retransmitted and so never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentFrame {
    /// PING.
    Ping,
    /// HANDSHAKE_DONE.
    HandshakeDone,
    /// CRYPTO bytes `offset..offset + len` of the space's crypto stream.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Number of bytes.
        len: usize,
    },
    /// A STREAM frame.
    Stream(StreamRange),
}

/// Book-keeping for one sent packet.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    time: SimTime,
    ack_eliciting: bool,
    /// Absolute index of the packet's first frame in the frame queue.
    first_frame: u64,
    /// Number of retransmittable frames the packet carried.
    frames: usize,
}

/// Result of processing one ACK frame, filled by [`SentLedger::on_ack`]
/// and extended by [`SentLedger::detect_time_lost`]. Reused across ACKs
/// so loss detection allocates nothing once its vectors have grown.
#[derive(Debug, Clone, Default)]
pub struct AckOutcome {
    /// Send time of the largest newly acked packet, when that packet is
    /// ack-eliciting: only it produces an RTT sample (RFC 9002 §5.1).
    pub rtt_sample_from: Option<SimTime>,
    /// Frames from packets declared lost, to be retransmitted, in
    /// ascending pn order of their packets.
    pub lost_frames: Vec<SentFrame>,
    /// Packet numbers declared lost (for qlog), ascending per detection.
    pub lost_pns: Vec<u64>,
    /// Number of packets newly acknowledged.
    pub newly_acked: u64,
}

/// Sent-packet ledger for one packet-number space.
#[derive(Debug, Clone, Default)]
pub struct SentLedger {
    /// Packet number of `window[0]`.
    base: u64,
    /// One slot per pn from `base`; `None` once acknowledged or lost. The
    /// front slot, when there is one, is always occupied.
    window: VecDeque<Option<SentPacket>>,
    /// Retransmittable frames of the packets in `window`, in pn order.
    frames: VecDeque<SentFrame>,
    /// Absolute index of `frames[0]`.
    frames_base: u64,
    /// Occupied slots.
    tracked: usize,
    largest_acked: Option<u64>,
    /// Ack-eliciting packets in flight, maintained incrementally so the
    /// per-poll congestion and PTO queries never scan the ledger.
    eliciting: u64,
}

impl SentLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        SentLedger::default()
    }

    /// Records a sent packet with its retransmittable frames. Packet
    /// numbers must increase from call to call.
    pub fn on_sent(&mut self, pn: u64, time: SimTime, ack_eliciting: bool, frames: &[SentFrame]) {
        if self.window.is_empty() {
            self.base = pn;
        }
        let slot = pn
            .checked_sub(self.base)
            .filter(|&i| i >= self.window.len() as u64)
            .expect("packet numbers are sent in increasing order");
        self.window.resize(slot as usize, None);
        self.window.push_back(Some(SentPacket {
            time,
            ack_eliciting,
            first_frame: self.frames_base + self.frames.len() as u64,
            frames: frames.len(),
        }));
        self.frames.extend(frames);
        self.tracked += 1;
        if ack_eliciting {
            self.eliciting += 1;
        }
    }

    /// Window slot of `pn`, if it is inside the window.
    fn slot(&self, pn: u64) -> Option<usize> {
        pn.checked_sub(self.base)
            .filter(|&i| i < self.window.len() as u64)
            .map(|i| i as usize)
    }

    /// Empties slot `i`, keeping the counters in sync. The window is
    /// trimmed separately, by [`SentLedger::trim`], once a whole
    /// operation is done: trimming here would shift the slots under a
    /// caller's scan.
    fn take(&mut self, i: usize) -> Option<SentPacket> {
        let sent = self.window[i].take()?;
        self.tracked -= 1;
        if sent.ack_eliciting {
            self.eliciting -= 1;
        }
        Some(sent)
    }

    /// Empties slot `i` as lost, recording its pn and frames.
    fn declare_lost(&mut self, i: usize, out: &mut AckOutcome) {
        if let Some(sent) = self.take(i) {
            out.lost_pns.push(self.base + i as u64);
            self.copy_frames(&sent, &mut out.lost_frames);
        }
    }

    fn copy_frames(&self, sent: &SentPacket, out: &mut Vec<SentFrame>) {
        let first = (sent.first_frame - self.frames_base) as usize;
        out.extend(self.frames.range(first..first + sent.frames));
    }

    /// Drops the empty slots at the front of the window and the frames of
    /// the packets they held.
    fn trim(&mut self) {
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
        let keep_from = match self.window.front() {
            Some(Some(front)) => front.first_frame,
            _ => self.frames_base + self.frames.len() as u64,
        };
        self.frames.drain(..(keep_from - self.frames_base) as usize);
        self.frames_base = keep_from;
    }

    /// Processes an ACK frame's ranges (descending) into `out`, which is
    /// cleared first; detects loss by packet threshold.
    pub fn on_ack(&mut self, ranges: &[AckRange], packet_threshold: u64, out: &mut AckOutcome) {
        out.rtt_sample_from = None;
        out.lost_frames.clear();
        out.lost_pns.clear();
        out.newly_acked = 0;
        let mut largest_newly: Option<(u64, SimTime, bool)> = None;

        for range in ranges {
            // The acked pns inside this range that we still track.
            let first = range.start.max(self.base);
            let last = range.end.min(self.base + self.window.len() as u64);
            for pn in first..=last {
                let Some(sent) = self.slot(pn).and_then(|i| self.take(i)) else {
                    continue;
                };
                if largest_newly.is_none_or(|(l, _, _)| pn > l) {
                    largest_newly = Some((pn, sent.time, sent.ack_eliciting));
                }
                out.newly_acked += 1;
            }
            if self.largest_acked.is_none_or(|l| range.end > l) {
                self.largest_acked = Some(range.end);
            }
        }

        if let Some((_, time, true)) = largest_newly {
            out.rtt_sample_from = Some(time);
        }

        // Packet-threshold loss detection (RFC 9002 §6.1.1): anything more
        // than `packet_threshold` below the largest acked is lost.
        if let Some(largest) = self.largest_acked {
            let cutoff = largest.saturating_sub(packet_threshold);
            let below = cutoff
                .saturating_sub(self.base)
                .min(self.window.len() as u64);
            for i in 0..below as usize {
                self.declare_lost(i, out);
            }
        }
        self.trim();
    }

    /// Time-threshold loss detection (RFC 9002 §6.1.2): packets sent
    /// before `now - loss_delay` with a packet number below the largest
    /// acknowledged are declared lost, appended to `out`.
    pub fn detect_time_lost(
        &mut self,
        now: SimTime,
        loss_delay: SimDuration,
        out: &mut AckOutcome,
    ) {
        let Some(largest) = self.largest_acked else {
            return;
        };
        let below = largest
            .saturating_sub(self.base)
            .min(self.window.len() as u64);
        for i in 0..below as usize {
            if self.window[i].is_some_and(|p| now.saturating_since(p.time) >= loss_delay) {
                self.declare_lost(i, out);
            }
        }
        self.trim();
    }

    /// Whether any ack-eliciting packet is still in flight.
    pub fn has_eliciting_in_flight(&self) -> bool {
        self.eliciting > 0
    }

    /// Number of ack-eliciting packets in flight (congestion accounting).
    pub fn eliciting_in_flight(&self) -> u64 {
        self.eliciting
    }

    /// Send time of the oldest ack-eliciting packet in flight. Packet
    /// numbers and send times grow together within a space, so the first
    /// eliciting entry in pn order is the oldest.
    pub fn oldest_eliciting_time(&self) -> Option<SimTime> {
        if self.eliciting == 0 {
            return None;
        }
        self.window
            .iter()
            .flatten()
            .find(|p| p.ack_eliciting)
            .map(|p| p.time)
    }

    /// PTO deadline given the estimator's interval.
    pub fn pto_deadline(&self, pto: SimDuration) -> Option<SimTime> {
        self.oldest_eliciting_time().map(|t| t + pto)
    }

    /// Appends the retransmittable frames of every in-flight
    /// ack-eliciting packet to `out`, in pn order, and stops tracking
    /// those packets (PTO recovery: retransmit everything outstanding).
    pub fn drain_for_retransmit(&mut self, out: &mut Vec<SentFrame>) {
        for i in 0..self.window.len() {
            if self.window[i].is_some_and(|p| p.ack_eliciting) {
                let sent = self.take(i).expect("slot checked above");
                self.copy_frames(&sent, out);
            }
        }
        self.trim();
    }

    /// Number of packets still unacknowledged.
    pub fn in_flight(&self) -> usize {
        self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn ping_at(ledger: &mut SentLedger, pn: u64, t: u64) {
        ledger.on_sent(pn, at(t), true, &[SentFrame::Ping]);
    }

    fn ack(ledger: &mut SentLedger, ranges: &[AckRange], threshold: u64) -> AckOutcome {
        let mut out = AckOutcome::default();
        ledger.on_ack(ranges, threshold, &mut out);
        out
    }

    fn time_lost(ledger: &mut SentLedger, now: SimTime, delay: SimDuration) -> AckOutcome {
        let mut out = AckOutcome::default();
        ledger.detect_time_lost(now, delay, &mut out);
        out
    }

    #[test]
    fn ack_produces_rtt_sample_from_largest_eliciting() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ping_at(&mut l, 1, 10);
        let out = ack(&mut l, &[AckRange::new(0, 1)], 3);
        assert_eq!(out.rtt_sample_from, Some(at(10)));
        assert_eq!(out.newly_acked, 2);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn non_eliciting_ack_gives_no_sample() {
        let mut l = SentLedger::new();
        l.on_sent(0, at(0), false, &[]);
        let out = ack(&mut l, &[AckRange::new(0, 0)], 3);
        assert_eq!(out.rtt_sample_from, None);
        assert_eq!(out.newly_acked, 1);
    }

    #[test]
    fn duplicate_ack_is_harmless() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ack(&mut l, &[AckRange::new(0, 0)], 3);
        let out = ack(&mut l, &[AckRange::new(0, 0)], 3);
        assert_eq!(out.rtt_sample_from, None);
        assert_eq!(out.newly_acked, 0);
    }

    #[test]
    fn packet_threshold_declares_loss() {
        let mut l = SentLedger::new();
        for pn in 0..6 {
            ping_at(&mut l, pn, pn);
        }
        // ACK only pn 5: cutoff = 5 - 3 = 2 → pns 0 and 1 lost.
        let out = ack(&mut l, &[AckRange::new(5, 5)], 3);
        assert_eq!(out.lost_pns, vec![0, 1]);
        assert_eq!(out.lost_frames, vec![SentFrame::Ping, SentFrame::Ping]);
        // pns 2, 3, 4 still in flight.
        assert_eq!(l.in_flight(), 3);
    }

    #[test]
    fn lost_frames_come_back_in_pn_order_as_ranges() {
        let mut l = SentLedger::new();
        let stream = |offset| {
            SentFrame::Stream(StreamRange {
                id: 0,
                offset,
                len: 1000,
                fin: false,
            })
        };
        l.on_sent(
            0,
            at(0),
            true,
            &[SentFrame::Crypto { offset: 0, len: 6 }, stream(0)],
        );
        l.on_sent(1, at(1), false, &[]);
        l.on_sent(2, at(2), true, &[stream(1000), SentFrame::HandshakeDone]);
        ping_at(&mut l, 6, 3);
        let out = ack(&mut l, &[AckRange::new(6, 6)], 3);
        assert_eq!(out.lost_pns, vec![0, 1, 2]);
        assert_eq!(
            out.lost_frames,
            vec![
                SentFrame::Crypto { offset: 0, len: 6 },
                stream(0),
                stream(1000),
                SentFrame::HandshakeDone
            ]
        );
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn pto_deadline_tracks_oldest_eliciting() {
        let mut l = SentLedger::new();
        assert_eq!(l.pto_deadline(SimDuration::from_millis(100)), None);
        ping_at(&mut l, 0, 50);
        ping_at(&mut l, 1, 80);
        assert_eq!(l.pto_deadline(SimDuration::from_millis(100)), Some(at(150)));
        ack(&mut l, &[AckRange::new(0, 0)], 3);
        assert_eq!(l.pto_deadline(SimDuration::from_millis(100)), Some(at(180)));
    }

    #[test]
    fn drain_for_retransmit_empties_eliciting() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        l.on_sent(1, at(1), false, &[]);
        let mut frames = Vec::new();
        l.drain_for_retransmit(&mut frames);
        assert_eq!(frames, vec![SentFrame::Ping]);
        assert!(!l.has_eliciting_in_flight());
        assert_eq!(l.in_flight(), 1, "non-eliciting stays");
    }

    #[test]
    fn partial_ack_ranges() {
        let mut l = SentLedger::new();
        for pn in 0..10 {
            ping_at(&mut l, pn, pn);
        }
        let out = ack(
            &mut l,
            &[AckRange::new(8, 9), AckRange::new(3, 4)],
            100, // large threshold: no loss
        );
        assert_eq!(out.newly_acked, 4);
        assert_eq!(out.rtt_sample_from, Some(at(9)));
        assert!(out.lost_pns.is_empty());
        assert_eq!(l.in_flight(), 6);
    }

    #[test]
    fn acks_outside_the_window_are_ignored() {
        let mut l = SentLedger::new();
        for pn in 10..13 {
            ping_at(&mut l, pn, pn);
        }
        let out = ack(&mut l, &[AckRange::new(40, 60), AckRange::new(0, 9)], 100);
        assert_eq!(out.newly_acked, 0);
        assert_eq!(l.in_flight(), 3);
        // The front trims as the oldest packets go; later ones still map.
        ack(&mut l, &[AckRange::new(10, 11)], 100);
        ping_at(&mut l, 13, 13);
        let out = ack(&mut l, &[AckRange::new(13, 13)], 100);
        assert_eq!((out.newly_acked, l.in_flight()), (1, 1));
    }

    #[test]
    fn time_threshold_declares_old_unacked_lost() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ping_at(&mut l, 1, 5);
        ping_at(&mut l, 2, 10);
        // ACK pn 2 only; threshold 3 keeps 0 and 1 alive (gap < 3).
        let out = ack(&mut l, &[AckRange::new(2, 2)], 3);
        assert!(out.lost_pns.is_empty());
        // 50 ms later with a 40 ms loss delay, pn 0 and 1 time out.
        let out = time_lost(&mut l, at(50), SimDuration::from_millis(40));
        assert_eq!(out.lost_pns, vec![0, 1]);
        assert_eq!(out.lost_frames.len(), 2);
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn time_threshold_spares_recent_and_above_largest() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        ping_at(&mut l, 5, 48); // above largest acked
        ack(&mut l, &[AckRange::new(3, 3)], 100);
        let out = time_lost(&mut l, at(50), SimDuration::from_millis(40));
        assert_eq!(out.lost_pns, vec![0], "pn 5 > largest acked survives");
        assert_eq!(l.in_flight(), 1);
    }

    #[test]
    fn time_threshold_noop_without_acks() {
        let mut l = SentLedger::new();
        ping_at(&mut l, 0, 0);
        let out = time_lost(&mut l, at(1_000), SimDuration::from_millis(1));
        assert!(out.lost_pns.is_empty(), "no largest_acked yet");
    }

    proptest::proptest! {
        #[test]
        fn prop_every_packet_acked_or_lost_or_inflight(
            sent in proptest::collection::btree_set(0u64..100, 1..40),
            acked in proptest::collection::btree_set(0u64..100, 1..40),
        ) {
            let mut l = SentLedger::new();
            for &pn in &sent {
                ping_at(&mut l, pn, pn);
            }
            let ranges: Vec<AckRange> = acked.iter().rev().map(|&p| AckRange::new(p, p)).collect();
            let out = ack(&mut l, &ranges, 3);
            let n_acked = out.newly_acked as usize;
            let n_lost = out.lost_pns.len();
            proptest::prop_assert_eq!(n_acked + n_lost + l.in_flight(), sent.len());
            proptest::prop_assert_eq!(
                n_acked,
                sent.intersection(&acked).count()
            );
        }
    }
}
