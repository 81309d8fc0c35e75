//! Differential test of the fixed-size observer against the exact
//! reference it replaced.
//!
//! [`Reference`] is the observer as it was before per-flow state became
//! fixed-size: every accepted period kept in an insert-sorted `Vec` for
//! the all-history median, every sample kept for the statistics. The
//! fixed-size [`FlowObserver`] must produce byte-identical [`FlowStats`]
//! whenever each direction accepted at most [`MEDIAN_WINDOW`] periods,
//! because its window then holds every period. The inputs are lab runs
//! over lossy, reordering, jittery paths and 10⁶-packet square waves; a
//! default-sized campaign is checked to keep every tapped flow within
//! the window.

use quicspin_core::{Direction, PacketObservation, MEDIAN_WINDOW};
use quicspin_netsim::TapRecord;
use quicspin_observer::{FlowObserver, FlowStats, ObservedPacket, ObserverPolicy};
use quicspin_quic::{ConnectionLab, LabConfig};
use quicspin_scanner::{CampaignConfig, Scanner};
use quicspin_webpop::{Population, PopulationConfig};

/// One direction of the reference observer: exact all-history median.
#[derive(Default)]
struct RefDir {
    last_spin: Option<bool>,
    last_edge_us: Option<u64>,
    edges: u64,
    samples_us: Vec<u64>,
    sorted_periods_us: Vec<u64>,
    rejected_reorder: u64,
    rejected_gap: u64,
    suppressed_warmup: u64,
}

impl RefDir {
    fn median(&self) -> Option<f64> {
        if self.sorted_periods_us.is_empty() {
            return None;
        }
        let n = self.sorted_periods_us.len();
        Some(if n % 2 == 1 {
            self.sorted_periods_us[n / 2] as f64
        } else {
            (self.sorted_periods_us[n / 2 - 1] + self.sorted_periods_us[n / 2]) as f64 / 2.0
        })
    }

    fn note(&mut self, time_us: u64, spin: bool, policy: &ObserverPolicy) {
        let prev = match self.last_spin {
            None => {
                self.last_spin = Some(spin);
                return;
            }
            Some(v) => v,
        };
        if prev == spin {
            return;
        }
        self.edges += 1;
        let prev_edge = match self.last_edge_us {
            None => {
                self.last_spin = Some(spin);
                self.last_edge_us = Some(time_us);
                return;
            }
            Some(t) => t,
        };
        let period = time_us.saturating_sub(prev_edge);
        let median = self.median();
        if let Some(m) = median {
            if policy.min_period_frac > 0.0 && (period as f64) < policy.min_period_frac * m {
                self.rejected_reorder += 1;
                return;
            }
        }
        self.last_spin = Some(spin);
        self.last_edge_us = Some(time_us);
        if let Some(m) = median {
            if policy.max_period_factor > 0.0 && (period as f64) > policy.max_period_factor * m {
                self.rejected_gap += 1;
                return;
            }
        }
        let at = self.sorted_periods_us.partition_point(|&p| p < period);
        self.sorted_periods_us.insert(at, period);
        if time_us < policy.warmup_us {
            self.suppressed_warmup += 1;
            return;
        }
        self.samples_us.push(period);
    }
}

/// The RFC 9312 §4.2.1 component split, keeping every component sample.
#[derive(Default)]
struct RefDual {
    last_spin: [Option<bool>; 2],
    last_edge: [Option<(u64, bool)>; 2],
    server_side_us: Vec<u64>,
    client_side_us: Vec<u64>,
}

impl RefDual {
    fn observe(&mut self, idx: usize, obs: &PacketObservation) {
        let is_edge = match self.last_spin[idx] {
            None => {
                self.last_spin[idx] = Some(obs.spin);
                return;
            }
            Some(prev) => prev != obs.spin,
        };
        self.last_spin[idx] = Some(obs.spin);
        if !is_edge {
            return;
        }
        if idx == 1 {
            if let Some((up_time, up_value)) = self.last_edge[0] {
                if up_value == obs.spin && obs.time_us >= up_time {
                    self.server_side_us.push(obs.time_us - up_time);
                }
            }
        } else if let Some((down_time, down_value)) = self.last_edge[1] {
            if down_value != obs.spin && obs.time_us >= down_time {
                self.client_side_us.push(obs.time_us - down_time);
            }
        }
        self.last_edge[idx] = Some((obs.time_us, obs.spin));
    }
}

fn mean_us(samples: &[u64]) -> Option<u64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<u64>() / samples.len() as u64)
    }
}

/// The pre-window observer, kept verbatim as the differential reference.
#[derive(Default)]
struct Reference {
    policy: ObserverPolicy,
    dirs: [RefDir; 2],
    dual: RefDual,
    packets: u64,
    unobservable: u64,
}

impl Reference {
    fn ingest(&mut self, packet: &ObservedPacket) {
        self.packets += 1;
        let idx = match packet.direction() {
            Direction::Upstream => 0,
            Direction::Downstream => 1,
        };
        self.dual.observe(idx, &packet.to_observation());
        let policy = self.policy;
        self.dirs[idx].note(packet.time_us(), packet.spin(), &policy);
    }

    /// Most periods either direction accepted into its median.
    fn accepted_periods(&self) -> usize {
        self.dirs
            .iter()
            .map(|d| d.sorted_periods_us.len())
            .max()
            .unwrap()
    }

    fn fits_window(&self) -> bool {
        self.accepted_periods() <= MEDIAN_WINDOW
    }

    fn stats(&self) -> FlowStats {
        let [up, down] = &self.dirs;
        FlowStats {
            packets: self.packets,
            unobservable: self.unobservable,
            edges_upstream: up.edges,
            edges_downstream: down.edges,
            samples: down.samples_us.len() as u64,
            samples_upstream: up.samples_us.len() as u64,
            mean_us: mean_us(&down.samples_us),
            min_us: down.samples_us.iter().copied().min(),
            max_us: down.samples_us.iter().copied().max(),
            server_side_mean_us: mean_us(&self.dual.server_side_us),
            client_side_mean_us: mean_us(&self.dual.client_side_us),
            rejected_reorder: up.rejected_reorder + down.rejected_reorder,
            rejected_gap: up.rejected_gap + down.rejected_gap,
            suppressed_warmup: up.suppressed_warmup + down.suppressed_warmup,
            measurable: !down.samples_us.is_empty(),
        }
    }
}

/// Both observers over one tap capture.
fn both_over(records: &[TapRecord], cid_len: usize) -> (FlowObserver, Reference) {
    let mut flow = FlowObserver::default();
    let mut reference = Reference::default();
    for record in records {
        match ObservedPacket::from_tap(record, cid_len) {
            Some(packet) => {
                flow.ingest(&packet);
                reference.ingest(&packet);
            }
            None => {
                flow.note_unobservable();
                reference.unobservable += 1;
            }
        }
    }
    (flow, reference)
}

/// Outcome of a differential sweep: flows compared byte for byte, and
/// flows with more periods than the window (compared only for counts
/// the window cannot change).
#[derive(Debug, Default)]
struct Tally {
    compared: usize,
    beyond_window: usize,
}

impl Tally {
    fn check(&mut self, flow: &FlowObserver, reference: &Reference, what: &str) {
        let (new, old) = (flow.stats(), reference.stats());
        // The window never touches what happens before the first
        // heuristic decision: packets, unobservable counts and the
        // component split.
        assert_eq!(
            (new.packets, new.unobservable),
            (old.packets, old.unobservable)
        );
        assert_eq!(new.server_side_mean_us, old.server_side_mean_us, "{what}");
        assert_eq!(new.client_side_mean_us, old.client_side_mean_us, "{what}");
        if reference.fits_window() {
            assert_eq!(
                serde_json::to_string(&new).unwrap(),
                serde_json::to_string(&old).unwrap(),
                "{what}"
            );
            self.compared += 1;
        } else {
            self.beyond_window += 1;
        }
    }
}

#[test]
fn lossy_reordering_jittery_lab_runs_match_the_reference() {
    let mut tally = Tally::default();
    for seed in 1..=12u64 {
        for (loss, reorder, jitter) in [(0.02, 0.01, 0.05), (0.05, 0.02, 0.1), (0.1, 0.05, 0.2)] {
            for tap in [0.2, 0.5, 0.9] {
                let rtt_ms = 15.0 + 7.0 * seed as f64;
                let outcome = ConnectionLab::new(LabConfig {
                    path_rtt_ms: rtt_ms,
                    jitter_ms: rtt_ms * jitter,
                    loss,
                    reorder,
                    reorder_hold_ms: 2.0,
                    seed,
                    tap_position: Some(tap),
                    ..LabConfig::default()
                })
                .run();
                let (flow, reference) = both_over(&outcome.tap_records, outcome.cid_len);
                tally.check(
                    &flow,
                    &reference,
                    &format!("seed {seed} loss {loss} reorder {reorder} tap {tap}"),
                );
            }
        }
    }
    assert!(tally.compared >= 100, "{tally:?}");
}

#[test]
fn every_tapped_flow_of_a_default_campaign_fits_the_window() {
    // `spinctl run`'s default population (600 domains, seed 23) and
    // campaign, with the tap mid-path, on the default and a lossy path.
    // Only edges after a direction's first one close a period, so a
    // direction with at most `MEDIAN_WINDOW + 1` edges accepted at most
    // `MEDIAN_WINDOW` periods: its window holds the whole history, and the
    // lab-run and square-wave differentials above and below cover how the
    // observer then matches the reference.
    let domains = 600u32;
    let population = Population::generate(PopulationConfig {
        seed: 23,
        toplist_domains: domains / 8 + 1,
        zone_domains: domains - domains / 8 - 1,
    });
    let scanner = Scanner::new(&population);
    for loss in [None, Some(0.05)] {
        let mut config = CampaignConfig {
            tap: Some(0.5),
            ..CampaignConfig::default()
        };
        if let Some(loss) = loss {
            config.conditions.loss = loss;
        }
        let campaign = scanner.run_campaign(&config);
        let views: Vec<_> = campaign
            .records
            .iter()
            .filter_map(|r| r.observer.as_ref())
            .collect();
        assert!(
            views.len() > 20,
            "loss {loss:?}: {} tapped flows",
            views.len()
        );
        let most_edges = views
            .iter()
            .map(|v| v.stats.edges_upstream.max(v.stats.edges_downstream))
            .max()
            .unwrap();
        println!(
            "loss {loss:?}: {} tapped flows, most edges in one direction {most_edges} \
             (window {MEDIAN_WINDOW})",
            views.len()
        );
        for view in &views {
            assert!(
                view.stats.edges_upstream <= MEDIAN_WINDOW as u64 + 1
                    && view.stats.edges_downstream <= MEDIAN_WINDOW as u64 + 1,
                "loss {loss:?}: {:?} outgrows the window; most edges {most_edges}",
                view.stats
            );
        }
    }
}

/// splitmix64: a tiny deterministic generator for the square waves.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn short_header(spin: bool) -> Vec<u8> {
    let h = quicspin_wire::ShortHeader {
        spin,
        vec: 0,
        dcid: quicspin_wire::ConnectionId::new(&[7; 8]).unwrap(),
        packet_number: quicspin_wire::PacketNumber::new(0),
    };
    let mut w = quicspin_wire::Writer::new();
    h.encode(&mut w);
    w.into_bytes()
}

/// Feeds `packets` packets of a two-direction square wave with `edges`
/// spin edges per direction to both observers. The RTT jitters by up to
/// ±`jitter_pct` % per period, and each edge is at random followed by a
/// stale reordered packet or lost together with its successor.
fn square_wave(seed: u64, packets: u64, edges: u64, jitter_pct: u64) -> (FlowObserver, Reference) {
    let mut rng = Rng(seed);
    let datagrams = [short_header(false), short_header(true)];
    let base_rtt_us = 20_000 + rng.below(180_000);
    let per_half = packets / 2 / (edges + 1);
    let mut flow = FlowObserver::default();
    let mut reference = Reference::default();
    let mut feed = |time_us: u64, dir: Direction, spin: bool| {
        let datagram = &datagrams[usize::from(spin)];
        let packet = ObservedPacket::from_datagram(time_us, dir, datagram, 8).unwrap();
        flow.ingest(&packet);
        reference.ingest(&packet);
    };
    let mut t = 0u64;
    let mut spin = false;
    for _ in 0..=edges {
        let jitter = rng.below(2 * jitter_pct + 1);
        let rtt = base_rtt_us * (100 - jitter_pct + jitter) / 100;
        let step = (rtt / per_half).max(1);
        let glitch = rng.below(16);
        for k in 0..per_half {
            let at = t + k * step;
            feed(at, Direction::Upstream, spin);
            feed(at + step / 2, Direction::Downstream, spin);
            if k == 0 && glitch == 0 {
                // A stale packet overtakes right after the edge.
                feed(at + 1, Direction::Downstream, !spin);
                feed(at + 2, Direction::Downstream, spin);
            }
        }
        t += rtt;
        // A lost pair of edges skips a full period.
        if glitch == 1 {
            t += rtt;
        }
        spin = !spin;
    }
    (flow, reference)
}

#[test]
fn million_packet_square_waves_match_the_reference_within_the_window() {
    // Seeded property cases: 10⁶ packets each, edge counts spread up to
    // the window's capacity.
    for seed in 1..=4u64 {
        let edges = 2 + Rng(seed).below(MEDIAN_WINDOW as u64 - 4);
        let (flow, reference) = square_wave(seed, 1_000_000, edges, 10);
        assert!(flow.stats().packets >= 999_000);
        assert!(reference.fits_window(), "seed {seed}: {edges} edges");
        assert_eq!(flow.stats(), reference.stats(), "seed {seed}");
        assert!(flow.stats().measurable);
    }
}

#[test]
fn steady_waves_match_the_reference_beyond_the_window() {
    // With a constant period every window has the all-history median, so
    // the stats agree however long the flow runs.
    let (flow, reference) = square_wave(9, 40_000, 20 * MEDIAN_WINDOW as u64, 0);
    assert!(!reference.fits_window());
    assert_eq!(flow.stats(), reference.stats());
}
