//! Per-layer unit costs, timed by the benchmark from outside the
//! program: wire encode/decode/peek, netsim send + drain, and observer
//! ingest, each over a packet mix taken from the workload itself.

use crate::util::median;
use quicspin_netsim::{LinkConfig, SimDuration, Simulator, TapRecord};
use quicspin_observer::{FlowObserver, ObservedPacket};
use quicspin_quic::{ConnectionLab, LabConfig, TransportConfig};
use quicspin_scanner::NetworkConditions;
use quicspin_webpop::{IpVersion, Population};
use quicspin_wire::{Header, Packet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each unit cost is sampled for. Rounds repeat until this much
/// time has passed; the median round sets the figure.
const SAMPLE_FOR: Duration = Duration::from_millis(150);

/// Times `round`, which performs `ops` operations, until `SAMPLE_FOR`
/// has passed; returns the median ns per operation.
pub fn ns_per_op(ops: usize, mut round: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    round();
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 3 || start.elapsed() < SAMPLE_FOR {
        let t = Instant::now();
        round();
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// The tap capture of one simulated connection.
pub struct Capture {
    pub records: Vec<TapRecord>,
    pub cid_len: usize,
    pub path_rtt_ms: f64,
}

/// Runs `count` connections of the population's QUIC hosts (chosen by
/// `seed`) through the connection lab under the workload's path
/// conditions with a mid-path tap, and keeps every datagram crossing it:
/// the workload's packet mix, both directions, handshake and 1-RTT.
pub fn capture_mix(
    population: &Population,
    conditions: &NetworkConditions,
    count: usize,
    seed: u64,
) -> Vec<Capture> {
    let n = population.len() as u64;
    let mut captures = Vec::new();
    let mut probe = seed;
    let mut tries = 0;
    while captures.len() < count && tries < count * 1000 {
        tries += 1;
        probe = crate::util::splitmix64(probe);
        let id = (probe % n) as u32;
        let Some(plan) = population.plan_connection(id, 0, IpVersion::V4, 0) else {
            continue;
        };
        let config = LabConfig {
            path_rtt_ms: plan.rtt_ms,
            jitter_ms: plan.rtt_ms * conditions.jitter_frac,
            loss: conditions.loss,
            reorder: conditions.reorder,
            seed: plan.seed,
            server: TransportConfig::default().with_spin_policy(plan.spin_policy),
            server_profile: plan.server_profile.clone(),
            link_rate_bytes_per_sec: Some(12_500_000),
            tap_position: Some(0.5),
            ..LabConfig::default()
        };
        let outcome = ConnectionLab::new(config).run();
        captures.push(Capture {
            records: outcome.tap_records,
            cid_len: outcome.cid_len,
            path_rtt_ms: plan.rtt_ms,
        });
    }
    captures
}

/// Unit costs over a captured packet mix, in ns per operation.
pub struct MixCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub peek_ns: f64,
    pub send_drain_ns: f64,
    pub ingest_ns: f64,
}

/// Times each layer over `captures`. `tap` says whether the workload
/// runs with the on-path tap: it decides whether the simulator pins
/// delivered buffers in a tap capture, and whether peek and observer
/// ingest do any work in the workload at all (they report 0 when not).
pub fn mix_costs(captures: &[Capture], conditions: &NetworkConditions, tap: bool) -> MixCosts {
    let datagrams: Vec<(&[u8], usize)> = captures
        .iter()
        .flat_map(|c| c.records.iter().map(|r| (&r.datagram[..], c.cid_len)))
        .collect();
    let packets: Vec<Packet> = datagrams
        .iter()
        .filter_map(|&(d, cid_len)| Packet::decode(d, cid_len).ok())
        .collect();

    let decode_ns = ns_per_op(datagrams.len(), || {
        for &(d, cid_len) in &datagrams {
            let _ = black_box(Packet::decode(black_box(d), cid_len));
        }
    });
    let mut buf = Vec::new();
    let encode_ns = ns_per_op(packets.len(), || {
        for p in &packets {
            buf = black_box(p).encode_into(std::mem::take(&mut buf));
            black_box(&buf);
        }
    });
    let peek_ns = if tap {
        ns_per_op(datagrams.len(), || {
            for &(d, cid_len) in &datagrams {
                black_box(Header::peek_observable(black_box(d), cid_len));
            }
        })
    } else {
        0.0
    };

    let sends: usize = captures.iter().map(|c| c.records.len()).sum();
    let send_drain_ns = ns_per_op(sends, || {
        for (i, c) in captures.iter().enumerate() {
            let link = LinkConfig {
                delay: SimDuration::from_millis_f64(c.path_rtt_ms / 2.0),
                jitter: SimDuration::from_millis_f64(c.path_rtt_ms * conditions.jitter_frac),
                loss: conditions.loss,
                reorder: conditions.reorder,
                rate_bytes_per_sec: Some(12_500_000),
                ..LinkConfig::default()
            };
            let mut sim = Simulator::symmetric(link, i as u64 + 1);
            if tap {
                sim = sim.with_tap(0.5);
            }
            for r in &c.records {
                sim.send(r.from, r.datagram.clone());
            }
            while let Some(ev) = sim.step() {
                black_box(ev);
            }
            black_box(sim.take_tap_records());
        }
    });

    let ingest_ns = if tap {
        let flows: Vec<Vec<ObservedPacket>> = captures
            .iter()
            .map(|c| {
                c.records
                    .iter()
                    .filter_map(|r| ObservedPacket::from_tap(r, c.cid_len))
                    .collect()
            })
            .collect();
        ingest_cost(&flows)
    } else {
        0.0
    };

    MixCosts {
        encode_ns,
        decode_ns,
        peek_ns,
        send_drain_ns,
        ingest_ns,
    }
}

/// Median ns per `FlowObserver::ingest` call, one fresh observer per
/// flow. 0 when `flows` holds no packet.
pub fn ingest_cost(flows: &[Vec<ObservedPacket>]) -> f64 {
    let packets: usize = flows.iter().map(Vec::len).sum();
    ns_per_op(packets, || {
        for flow in flows {
            let mut observer = FlowObserver::default();
            for p in flow {
                observer.ingest(black_box(p));
            }
            black_box(observer.stats());
        }
    })
}
