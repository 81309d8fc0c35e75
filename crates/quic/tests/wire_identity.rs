//! Wire-identity golden test.
//!
//! A seeded matrix of simulated exchanges is folded into one FNV-1a
//! digest: every tap record (side, time, bytes), both endpoints' qlog
//! events (in the binary trace encoding) and both endpoints' transport
//! counters. The packet path may be restructured freely, but not one
//! byte on the wire, one qlog event or one RNG draw may move; any such
//! change shows up here as a different digest.
//!
//! The matrix covers a clean path, 5 % loss, and 2 % loss with 1 %
//! reordering and jitter of 5 % of the RTT. Each path runs through
//! [`ConnectionLab`] (one [`LabScratch`] reused across runs, tap at 0.5)
//! and through a small driver below that also duplicates datagrams,
//! which the lab's path model never does.

use quicspin_netsim::{LinkConfig, Side, SimDuration, SimEvent, SimTime, Simulator, TapRecord};
use quicspin_qlog::{encode_trace, TraceLog};
use quicspin_quic::{
    AppEvent, ConnCounters, Connection, ConnectionLab, LabConfig, LabScratch, ServerProfile,
    SpinPolicy, TransportConfig,
};

/// Digest of the whole matrix on the reference implementation.
const GOLDEN_DIGEST: u64 = 0x4d9d_050c_7db0_b6a7;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_run(
    h: &mut Fnv,
    records: &[TapRecord],
    client: &TraceLog,
    server: &TraceLog,
    counters: [ConnCounters; 2],
) {
    h.u64(records.len() as u64);
    for r in records {
        h.u64(u64::from(r.from == Side::Client));
        h.u64(r.time.as_micros());
        h.u64(r.datagram.len() as u64);
        h.bytes(&r.datagram);
    }
    h.bytes(&encode_trace(client));
    h.bytes(&encode_trace(server));
    for c in counters {
        h.bytes(format!("{c:?}").as_bytes());
    }
}

/// (loss, reorder, jitter as a fraction of the RTT) per path.
const PATHS: [(f64, f64, f64); 3] = [(0.0, 0.0, 0.0), (0.05, 0.0, 0.0), (0.02, 0.01, 0.05)];

fn lab_matrix(h: &mut Fnv) {
    let mut scratch = LabScratch::default();
    for (p, &(loss, reorder, jitter)) in PATHS.iter().enumerate() {
        for seed in 0..6u64 {
            let rtt = [18.0, 40.0, 95.0][seed as usize % 3];
            let server = match seed % 3 {
                0 => TransportConfig::default(),
                1 => TransportConfig::default().with_vec(),
                _ => TransportConfig::default().with_spin_policy(SpinPolicy::GreasePerPacket),
            };
            let config = LabConfig {
                path_rtt_ms: rtt,
                jitter_ms: rtt * jitter,
                loss,
                reorder,
                seed: 1000 * p as u64 + seed,
                server,
                server_profile: if seed % 2 == 0 {
                    ServerProfile::default()
                } else {
                    ServerProfile {
                        initial_delay: SimDuration::from_millis(12),
                        chunks: vec![
                            (SimDuration::ZERO, 3_000),
                            (SimDuration::from_millis(30), 17_500),
                            (SimDuration::from_millis(1), 900),
                        ],
                    }
                },
                link_rate_bytes_per_sec: Some(12_500_000),
                tap_position: Some(0.5),
                response_prefix: b"HTTP/3 200\r\nserver: golden\r\n\r\n".to_vec(),
                ..LabConfig::default()
            };
            let out = ConnectionLab::new(config).run_with_scratch(&mut scratch);
            assert!(out.handshake_completed, "path {p} seed {seed}");
            h.u64(out.response_bytes as u64);
            h.bytes(&out.response_data);
            hash_run(
                h,
                &out.tap_records,
                &out.client_qlog,
                &out.server_qlog,
                [out.stats.client, out.stats.server],
            );
            scratch.reclaim(out);
        }
    }
}

fn flush(sim: &mut Simulator, side: Side, conn: &mut Connection) {
    while let Some(d) = conn.poll_transmit(sim.now()) {
        sim.send_after(side, conn.last_send_latency(), d);
    }
}

/// One request/response exchange over a duplicating path, driven the way
/// the lab drives it (timers re-armed after every event).
fn duplicating_run(h: &mut Fnv, link: LinkConfig, seed: u64) {
    let mut sim = Simulator::symmetric(link, seed).with_tap(0.5);
    let mut client = Connection::new_client(TransportConfig::default(), seed * 2 + 1, sim.now());
    let mut server = Connection::new_server(TransportConfig::default(), seed * 2 + 2, sim.now());
    let deadline = SimTime::ZERO + SimDuration::from_secs(60);
    let mut response = 0usize;
    flush(&mut sim, Side::Client, &mut client);
    for (side, conn) in [(Side::Client, &client), (Side::Server, &server)] {
        if let Some(at) = conn.next_timeout() {
            sim.set_timer(side, at, 0);
        }
    }
    while let Some((now, event)) = sim.step() {
        if now > deadline {
            break;
        }
        match event {
            SimEvent::Datagram { to, datagram } => match to {
                Side::Client => client.handle_datagram(now, &datagram),
                Side::Server => server.handle_datagram(now, &datagram),
            },
            SimEvent::Timer { side, .. } => match side {
                Side::Client => client.on_timeout(now),
                Side::Server => server.on_timeout(now),
            },
        }
        while let Some(ev) = client.poll_event() {
            match ev {
                AppEvent::HandshakeCompleted => client.send_stream(0, b"GET /dup", true),
                AppEvent::StreamData { data, fin, .. } => {
                    response += data.len();
                    if fin {
                        client.close("done");
                    }
                }
                AppEvent::Closed { .. } => {}
            }
        }
        while let Some(ev) = server.poll_event() {
            if let AppEvent::StreamData { fin: true, .. } = ev {
                server.send_stream(0, &[0x5a; 30_000], true);
            }
        }
        flush(&mut sim, Side::Client, &mut client);
        flush(&mut sim, Side::Server, &mut server);
        for (side, conn) in [(Side::Client, &client), (Side::Server, &server)] {
            if let Some(at) = conn.next_timeout() {
                sim.set_timer(side, at, 0);
            }
        }
        if client.is_closed() && server.is_closed() {
            break;
        }
    }
    sim.sort_tap_records();
    assert!(
        sim.stats().duplicated.iter().sum::<u64>() > 0,
        "seed {seed}"
    );
    h.u64(response as u64);
    hash_run(
        h,
        sim.tap_records(),
        client.qlog(),
        server.qlog(),
        [client.counters(), server.counters()],
    );
}

fn duplicating_matrix(h: &mut Fnv) {
    for (p, &(loss, reorder, jitter)) in PATHS.iter().enumerate() {
        for seed in 0..3u64 {
            let delay = SimDuration::from_millis(10 + 15 * seed);
            let link = LinkConfig {
                delay,
                jitter: delay.mul_f64(2.0 * jitter),
                loss,
                reorder,
                duplicate: 0.05,
                rate_bytes_per_sec: Some(12_500_000),
                ..LinkConfig::default()
            };
            duplicating_run(h, link, 500 + 10 * p as u64 + seed);
        }
    }
}

#[test]
fn packet_path_is_wire_identical_to_reference() {
    let mut h = Fnv::new();
    lab_matrix(&mut h);
    duplicating_matrix(&mut h);
    assert_eq!(
        h.0, GOLDEN_DIGEST,
        "wire, qlog or counters changed: digest {:#018x}",
        h.0
    );
}
