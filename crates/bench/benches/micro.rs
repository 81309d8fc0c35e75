//! Microbenchmarks of the substrates: wire codec, spin observer,
//! connection handshake, and simulator event throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quicspin_core::{Direction, ObserverConfig, PacketObservation, SpinObserver};
use quicspin_netsim::{LinkConfig, Side, SimDuration, Simulator};
use quicspin_observer::{FlowObserver, ObservedPacket};
use quicspin_quic::{ConnectionLab, LabConfig};
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

criterion_group!(
    benches,
    wire_codec,
    observer_throughput,
    connection_exchange,
    simulator_events
);
criterion_main!(benches);
