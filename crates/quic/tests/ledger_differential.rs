//! Differential tests: the pn-indexed sent ledger and the in-place ACK
//! tracker against reference copies of the `BTreeMap` ledger and the
//! rebuild-merge tracker they replaced.
//!
//! Both sides are driven with the same random sequences of sends (with
//! occasional pn gaps), ACKs, time-threshold loss checks and PTO drains;
//! after every step their observable results must match exactly: RTT
//! sample source, lost pns, the order of lost frames, newly acked counts,
//! packets in flight and PTO deadlines; for the trackers, duplicate
//! detection, ACK timers and the acknowledged ranges.

use quicspin_netsim::{SimDuration, SimTime};
use quicspin_quic::ack::RecvTracker;
use quicspin_quic::recovery::{AckOutcome, SentFrame, SentLedger};
use quicspin_quic::streams::StreamRange;
use quicspin_wire::{AckRange, Frame, Reader, Writer};

/// The sent ledger as it was: a `BTreeMap` keyed by pn.
mod reference_ledger {
    use quicspin_netsim::{SimDuration, SimTime};
    use quicspin_quic::recovery::SentFrame;
    use quicspin_wire::AckRange;
    use std::collections::BTreeMap;

    struct SentPacket {
        time: SimTime,
        ack_eliciting: bool,
        retransmittable: Vec<SentFrame>,
    }

    #[derive(Default)]
    pub struct Outcome {
        pub rtt_sample_from: Option<SimTime>,
        pub lost_frames: Vec<SentFrame>,
        pub lost_pns: Vec<u64>,
        pub newly_acked: Vec<u64>,
    }

    #[derive(Default)]
    pub struct Ledger {
        unacked: BTreeMap<u64, SentPacket>,
        largest_acked: Option<u64>,
        eliciting: u64,
    }

    impl Ledger {
        pub fn on_sent(&mut self, pn: u64, time: SimTime, ack_eliciting: bool, f: &[SentFrame]) {
            if ack_eliciting {
                self.eliciting += 1;
            }
            self.unacked.insert(
                pn,
                SentPacket {
                    time,
                    ack_eliciting,
                    retransmittable: f.to_vec(),
                },
            );
        }

        fn remove(&mut self, pn: u64) -> SentPacket {
            let sent = self.unacked.remove(&pn).expect("pn collected above");
            if sent.ack_eliciting {
                self.eliciting -= 1;
            }
            sent
        }

        pub fn on_ack(&mut self, ranges: &[AckRange], packet_threshold: u64) -> Outcome {
            let mut outcome = Outcome::default();
            let mut largest_newly: Option<(u64, SimTime, bool)> = None;
            for range in ranges {
                while let Some((&pn, _)) = self.unacked.range(range.start..=range.end).next() {
                    let sent = self.remove(pn);
                    if largest_newly.is_none_or(|(l, _, _)| pn > l) {
                        largest_newly = Some((pn, sent.time, sent.ack_eliciting));
                    }
                    outcome.newly_acked.push(pn);
                }
                if self.largest_acked.is_none_or(|l| range.end > l) {
                    self.largest_acked = Some(range.end);
                }
            }
            if let Some((_, time, eliciting)) = largest_newly {
                if eliciting {
                    outcome.rtt_sample_from = Some(time);
                }
            }
            if let Some(largest) = self.largest_acked {
                let cutoff = largest.saturating_sub(packet_threshold);
                while let Some((&pn, _)) = self.unacked.range(..cutoff).next() {
                    let sent = self.remove(pn);
                    outcome.lost_pns.push(pn);
                    outcome.lost_frames.extend(sent.retransmittable);
                }
            }
            outcome
        }

        pub fn detect_time_lost(&mut self, now: SimTime, loss_delay: SimDuration) -> Outcome {
            let mut outcome = Outcome::default();
            let Some(largest) = self.largest_acked else {
                return outcome;
            };
            let lost: Vec<u64> = self
                .unacked
                .range(..largest)
                .filter(|(_, p)| now.saturating_since(p.time) >= loss_delay)
                .map(|(&pn, _)| pn)
                .collect();
            for pn in lost {
                let sent = self.remove(pn);
                outcome.lost_pns.push(pn);
                outcome.lost_frames.extend(sent.retransmittable);
            }
            outcome
        }

        pub fn eliciting_in_flight(&self) -> u64 {
            self.eliciting
        }

        pub fn pto_deadline(&self, pto: SimDuration) -> Option<SimTime> {
            if self.eliciting == 0 {
                return None;
            }
            self.unacked
                .values()
                .find(|p| p.ack_eliciting)
                .map(|p| p.time + pto)
        }

        pub fn drain_for_retransmit(&mut self) -> Vec<SentFrame> {
            let mut frames = Vec::new();
            let pns: Vec<u64> = self
                .unacked
                .iter()
                .filter(|(_, p)| p.ack_eliciting)
                .map(|(&pn, _)| pn)
                .collect();
            for pn in pns {
                frames.extend(self.remove(pn).retransmittable);
            }
            frames
        }

        pub fn in_flight(&self) -> usize {
            self.unacked.len()
        }
    }
}

/// The ACK tracker as it was: every insert rebuilds the range vector.
mod reference_tracker {
    use quicspin_netsim::{SimDuration, SimTime};
    use quicspin_wire::{AckRange, Frame};

    #[derive(Default)]
    pub struct Tracker {
        pub ranges: Vec<(u64, u64)>,
        largest: Option<u64>,
        largest_recv_time: SimTime,
        eliciting_since_ack: u32,
        ack_timer: Option<SimTime>,
        ack_now: bool,
    }

    impl Tracker {
        pub fn contains(&self, pn: u64) -> bool {
            self.ranges.iter().any(|&(s, e)| pn >= s && pn <= e)
        }

        pub fn on_packet(
            &mut self,
            pn: u64,
            ack_eliciting: bool,
            now: SimTime,
            threshold: u32,
            max_ack_delay: SimDuration,
        ) -> bool {
            if self.contains(pn) {
                return false;
            }
            let out_of_order = self.largest.is_some_and(|l| pn < l);
            let pos = self.ranges.partition_point(|&(start, _)| start <= pn);
            self.ranges.insert(pos, (pn, pn));
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ranges.len());
            for &(start, end) in self.ranges.iter() {
                match merged.last_mut() {
                    Some(last) if start <= last.1.saturating_add(1) => last.1 = last.1.max(end),
                    _ => merged.push((start, end)),
                }
            }
            self.ranges = merged;
            if self.largest.is_none_or(|l| pn >= l) {
                self.largest = Some(pn);
                self.largest_recv_time = now;
            }
            if ack_eliciting {
                self.eliciting_since_ack += 1;
                if self.eliciting_since_ack >= threshold.max(1) || out_of_order {
                    self.ack_now = true;
                    self.ack_timer = None;
                } else if self.ack_timer.is_none() {
                    self.ack_timer = Some(now + max_ack_delay);
                }
            }
            true
        }

        pub fn on_timeout(&mut self, now: SimTime) {
            if self.ack_timer.is_some_and(|d| now >= d) {
                self.ack_now = true;
                self.ack_timer = None;
            }
        }

        pub fn next_timeout(&self) -> Option<SimTime> {
            self.ack_timer
        }

        pub fn wants_ack(&self) -> bool {
            self.ack_now
        }

        pub fn make_ack(&mut self, now: SimTime, extra_us: u64) -> Option<Frame> {
            let largest = self.largest?;
            let delay = now.saturating_since(self.largest_recv_time);
            let ranges: Vec<AckRange> = self
                .ranges
                .iter()
                .rev()
                .map(|&(start, end)| AckRange::new(start, end))
                .collect();
            self.ack_now = false;
            self.ack_timer = None;
            self.eliciting_since_ack = 0;
            Some(Frame::Ack {
                largest,
                delay_us: delay.as_micros() + extra_us,
                ranges,
            })
        }
    }
}

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 17
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn frames(&mut self, out: &mut Vec<SentFrame>) {
        out.clear();
        for _ in 0..self.below(4) {
            out.push(match self.below(4) {
                0 => SentFrame::Ping,
                1 => SentFrame::HandshakeDone,
                2 => SentFrame::Crypto {
                    offset: self.below(5_000),
                    len: self.below(1_200) as usize,
                },
                _ => SentFrame::Stream(StreamRange {
                    id: self.below(3) * 4,
                    offset: self.below(100_000),
                    len: self.below(1_200) as usize,
                    fin: self.chance(10),
                }),
            });
        }
    }

    /// Descending, disjoint ranges over `0..=top`, sometimes past it.
    fn ack_ranges(&mut self, top: u64) -> Vec<AckRange> {
        let mut ranges = Vec::new();
        let mut end = top + self.below(4);
        for _ in 0..1 + self.below(5) {
            let start = end.saturating_sub(self.below(12));
            ranges.push(AckRange::new(start, end));
            match start.checked_sub(2 + self.below(10)) {
                Some(next) => end = next,
                None => break,
            }
        }
        ranges
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn check_same(ledger: &SentLedger, reference: &reference_ledger::Ledger, step: usize) {
    assert_eq!(ledger.in_flight(), reference.in_flight(), "step {step}");
    assert_eq!(
        ledger.eliciting_in_flight(),
        reference.eliciting_in_flight(),
        "step {step}"
    );
    assert_eq!(
        ledger.pto_deadline(ms(100)),
        reference.pto_deadline(ms(100)),
        "step {step}"
    );
}

fn ledger_sequence(seed: u64) {
    let mut g = Gen(seed);
    let mut ledger = SentLedger::new();
    let mut reference = reference_ledger::Ledger::default();
    let mut out = AckOutcome::default();
    let mut frames = Vec::new();
    let (mut next_pn, mut now) = (0u64, SimTime::ZERO);
    for step in 0..300 {
        now += ms(g.below(20));
        match g.below(10) {
            0..=4 => {
                // Send, occasionally skipping packet numbers.
                if g.chance(10) {
                    next_pn += 1 + g.below(5);
                }
                let eliciting = g.chance(80);
                g.frames(&mut frames);
                ledger.on_sent(next_pn, now, eliciting, &frames);
                reference.on_sent(next_pn, now, eliciting, &frames);
                next_pn += 1;
            }
            5..=7 => {
                let top = next_pn.saturating_sub(g.below(8));
                let ranges = g.ack_ranges(top);
                let threshold = 1 + g.below(4);
                ledger.on_ack(&ranges, threshold, &mut out);
                let expected = reference.on_ack(&ranges, threshold);
                assert_eq!(out.rtt_sample_from, expected.rtt_sample_from, "step {step}");
                assert_eq!(out.lost_pns, expected.lost_pns, "step {step}");
                assert_eq!(out.lost_frames, expected.lost_frames, "step {step}");
                assert_eq!(out.newly_acked, expected.newly_acked.len() as u64);
                let delay = ms(g.below(60));
                ledger.detect_time_lost(now, delay, &mut out);
                let timed = reference.detect_time_lost(now, delay);
                let mut lost_pns = expected.lost_pns;
                lost_pns.extend(timed.lost_pns);
                let mut lost_frames = expected.lost_frames;
                lost_frames.extend(timed.lost_frames);
                assert_eq!(out.lost_pns, lost_pns, "step {step}");
                assert_eq!(out.lost_frames, lost_frames, "step {step}");
            }
            8 => {
                let delay = ms(g.below(80));
                out = AckOutcome::default();
                ledger.detect_time_lost(now, delay, &mut out);
                let expected = reference.detect_time_lost(now, delay);
                assert_eq!(out.lost_pns, expected.lost_pns, "step {step}");
                assert_eq!(out.lost_frames, expected.lost_frames, "step {step}");
            }
            _ => {
                frames.clear();
                ledger.drain_for_retransmit(&mut frames);
                assert_eq!(frames, reference.drain_for_retransmit(), "step {step}");
            }
        }
        check_same(&ledger, &reference, step);
    }
}

fn tracker_sequence(seed: u64) {
    let mut g = Gen(seed);
    let mut tracker = RecvTracker::new();
    let mut reference = reference_tracker::Tracker::default();
    let mut now = SimTime::ZERO;
    let mut top = 0u64;
    for step in 0..300 {
        now += SimDuration::from_micros(g.below(30_000));
        match g.below(8) {
            0..=5 => {
                // Mostly in order, with reordering, gaps and duplicates.
                let pn = match g.below(10) {
                    0..=5 => top,
                    6 => top + 1 + g.below(6),
                    _ => top.saturating_sub(1 + g.below(10)),
                };
                top = top.max(pn + 1);
                let eliciting = g.chance(80);
                let threshold = g.below(3) as u32;
                assert_eq!(
                    tracker.on_packet(pn, eliciting, now, threshold, ms(25)),
                    reference.on_packet(pn, eliciting, now, threshold, ms(25)),
                    "step {step} pn {pn}"
                );
            }
            6 => {
                tracker.on_timeout(now);
                reference.on_timeout(now);
            }
            _ => {
                let extra = g.below(500);
                let mut w = Writer::new();
                let wrote = tracker.write_ack(&mut w, now, extra);
                let expected = reference.make_ack(now, extra);
                assert_eq!(wrote, expected.is_some(), "step {step}");
                if let Some(expected) = expected {
                    let mut bytes = Writer::new();
                    expected.encode(&mut bytes);
                    assert_eq!(w.as_slice(), bytes.as_slice(), "step {step}");
                    let mut r = Reader::new(w.as_slice());
                    assert_eq!(Frame::decode(&mut r), Ok(expected));
                }
            }
        }
        let mut ranges: Vec<(u64, u64)> = tracker.ranges().map(|r| (r.start, r.end)).collect();
        ranges.reverse();
        assert_eq!(ranges, reference.ranges, "step {step}");
        assert_eq!(tracker.wants_ack(), reference.wants_ack(), "step {step}");
        assert_eq!(tracker.next_timeout(), reference.next_timeout());
        for pn in top.saturating_sub(12)..top + 2 {
            assert_eq!(tracker.contains(pn), reference.contains(pn), "pn {pn}");
        }
    }
}

proptest::proptest! {
    #[test]
    fn prop_sent_ledger_matches_btreemap_reference(seed: u64) {
        for i in 0..8 {
            ledger_sequence(seed.wrapping_add(i));
        }
    }

    #[test]
    fn prop_recv_tracker_matches_rebuild_merge_reference(seed: u64) {
        for i in 0..8 {
            tracker_sequence(seed.wrapping_add(i));
        }
    }
}
