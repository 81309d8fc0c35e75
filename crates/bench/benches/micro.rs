//! Microbenchmarks of the substrates: wire codec, spin observer,
//! connection handshake, simulator event throughput, the JSON artifact
//! writers and readers, and population generation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quicspin_core::{Direction, ObserverConfig, PacketObservation, SpinObserver};
use quicspin_netsim::{LinkConfig, Side, SimDuration, Simulator};
use quicspin_observer::{FlowObserver, ObservedPacket};
use quicspin_quic::{ConnectionLab, LabConfig};
use quicspin_scanner::{
    chrome_trace_export, read_chrome_trace, read_observer, write_chrome_trace, write_observer,
    CampaignConfig, FlightConfig, ObserverDoc, Scanner,
};
use quicspin_webpop::{Population, PopulationConfig};
use quicspin_wire::{ConnectionId, Frame, Header, Packet, PacketNumber, ShortHeader};

fn wire_codec(c: &mut Criterion) {
    let packet = Packet {
        header: Header::Short(ShortHeader {
            spin: true,
            vec: 2,
            dcid: ConnectionId::from_u64(42),
            packet_number: PacketNumber::new(1234),
        }),
        frames: vec![Frame::Stream {
            id: 0,
            offset: 9000,
            fin: false,
            data: vec![0x42; 1200],
        }],
    };
    let encoded = packet.encode();
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_1200B_stream_packet", |b| {
        b.iter(|| std::hint::black_box(&packet).encode())
    });
    group.bench_function("decode_1200B_stream_packet", |b| {
        b.iter(|| Packet::decode(std::hint::black_box(&encoded), 8).unwrap())
    });
    group.bench_function("peek_observable", |b| {
        b.iter(|| Header::peek_observable(std::hint::black_box(&encoded), 8).unwrap())
    });
    group.finish();
}

fn observer_throughput(c: &mut Criterion) {
    // One million observations of a 40 ms square wave.
    let observations: Vec<PacketObservation> = (0..1_000_000u64)
        .map(|i| PacketObservation::wire(i * 10_000, (i / 4) % 2 == 0))
        .collect();
    let mut group = c.benchmark_group("observer");
    group.throughput(Throughput::Elements(observations.len() as u64));
    group.sample_size(10);
    group.bench_function("spin_observer_1M_packets", |b| {
        b.iter(|| {
            let mut observer = SpinObserver::with_config(ObserverConfig::default());
            for obs in &observations {
                observer.observe(std::hint::black_box(obs));
            }
            observer.rtt_samples_us().len()
        })
    });
    // The same wave through the on-path observer: short headers narrowed
    // at the privacy boundary, then one per-flow edge machine.
    let datagrams = [false, true].map(|spin| {
        let mut w = quicspin_wire::Writer::new();
        ShortHeader {
            spin,
            vec: 0,
            dcid: ConnectionId::from_u64(42),
            packet_number: PacketNumber::new(0),
        }
        .encode(&mut w);
        w.into_bytes()
    });
    let packets: Vec<ObservedPacket> = observations
        .iter()
        .map(|o| {
            let datagram = &datagrams[usize::from(o.spin)];
            ObservedPacket::from_datagram(o.time_us, Direction::Downstream, datagram, 8).unwrap()
        })
        .collect();
    group.bench_function("flow_observer_1M_packets", |b| {
        b.iter(|| {
            let mut observer = FlowObserver::default();
            for packet in &packets {
                observer.ingest(std::hint::black_box(packet));
            }
            observer.stats().samples
        })
    });
    group.finish();
}

fn connection_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("connection");
    group.sample_size(20);
    group.bench_function("full_exchange_36KB_40ms", |b| {
        b.iter(|| {
            let mut lab = ConnectionLab::new(LabConfig::default());
            let out = lab.run();
            std::hint::black_box(out.response_bytes)
        })
    });
    group.finish();
}

fn simulator_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("send_and_drain_10k_datagrams", |b| {
        b.iter(|| {
            let mut sim = Simulator::symmetric(LinkConfig::ideal(SimDuration::from_millis(10)), 1);
            for i in 0..10_000u64 {
                sim.send(Side::Client, vec![(i % 256) as u8; 64]);
            }
            let mut n = 0;
            while sim.step().is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

/// Writes and reads back `observer.json` and `trace.json` of a fixed
/// seeded campaign (4 000 domains, 5 % loss, tap at 0.5, flight recorder
/// armed), through the same functions `spinctl run` uses. The campaign
/// runs on first use, so name filters that skip this group skip it too.
fn artifact_io(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("quicspin-bench-artifacts-{}", std::process::id()));
    let fixture = std::cell::OnceCell::new();
    let setup = || {
        let population = Population::generate(PopulationConfig {
            seed: 0xa7,
            toplist_domains: 500,
            zone_domains: 3_500,
        });
        let mut config = CampaignConfig {
            flight: FlightConfig::armed(0xa7),
            tap: Some(0.5),
            ..CampaignConfig::default()
        };
        config.conditions.loss = 0.05;
        let (campaign, recording) = Scanner::new(&population).run_campaign_flight(&config);
        let doc = ObserverDoc::from_records(&config.campaign_id(), 0.5, &campaign.records);
        let events = chrome_trace_export(&recording);
        write_observer(&dir, &doc).unwrap();
        write_chrome_trace(&dir, &events).unwrap();
        (doc, events)
    };

    let mut group = c.benchmark_group("artifacts");
    group.sample_size(20);
    group.bench_function("observer_write", |b| {
        let (doc, _) = fixture.get_or_init(setup);
        b.iter(|| write_observer(&dir, std::hint::black_box(doc)).unwrap())
    });
    group.bench_function("observer_read", |b| {
        fixture.get_or_init(setup);
        b.iter(|| read_observer(&dir).unwrap().flows.len())
    });
    group.bench_function("trace_write", |b| {
        let (_, events) = fixture.get_or_init(setup);
        b.iter(|| write_chrome_trace(&dir, std::hint::black_box(events)).unwrap())
    });
    group.bench_function("trace_read", |b| {
        fixture.get_or_init(setup);
        b.iter(|| read_chrome_trace(&dir).unwrap().len())
    });
    group.finish();
    if fixture.get().is_some() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Generates the paper-proportioned 1:1000 population (≈219 k domains,
/// 216 k of them drawn over the 1 140 zone weights): the set-up cost of
/// every paper-scale sweep.
fn population_generation(c: &mut Criterion) {
    let config = PopulationConfig::paper_scale(1000);
    let mut group = c.benchmark_group("webpop");
    group.throughput(Throughput::Elements(config.total_domains()));
    group.sample_size(10);
    group.bench_function("generate_paper_1000", |b| {
        b.iter(|| Population::generate(config.clone()).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    wire_codec,
    observer_throughput,
    connection_exchange,
    simulator_events,
    artifact_io,
    population_generation
);
criterion_main!(benches);
