//! Network tomography with the spin bit (the §6 outlook: "assessing the
//! usefulness of the spin bit for practical applications, such as network
//! tomography").
//!
//! An in-network observer that sees both directions of a flow can split
//! the RTT into a client-side and a server-side component at its own
//! position. This example places taps at several points along the same
//! path, demultiplexes flows by connection ID, and shows the component
//! split moving with the tap — plus a pcap round-trip, since a real
//! observer would work from captures.
//!
//! Run with: `cargo run --release --example network_tomography`

use quicspin::core::{Direction, DualDirectionObserver};
use quicspin::netsim::{read_pcap, write_pcap};
use quicspin::observer::{FlowObserver, ObservedPacket};
use quicspin::prelude::*;
use std::collections::BTreeMap;

fn main() {
    println!("tap position | client-side | server-side | reconstructed RTT");
    for tap_position in [0.1, 0.5, 0.9] {
        let mut lab = ConnectionLab::new(LabConfig {
            path_rtt_ms: 80.0,
            tap_position: Some(tap_position),
            seed: 11,
            ..LabConfig::default()
        });
        let out = lab.run();

        // A real observer works from a capture: write + re-read pcap.
        let pcap = write_pcap(&out.tap_records);
        let records = read_pcap(&pcap).expect("own capture parses");

        let mut observer = DualDirectionObserver::new();
        let mut flows: BTreeMap<Vec<u8>, FlowObserver> = BTreeMap::new();
        for record in &records {
            let Some(packet) = ObservedPacket::from_tap(record, 8) else {
                continue;
            };
            observer.observe(packet.direction(), &packet.to_observation());
            // Per-flow observation of the server->client direction keyed
            // by DCID (each direction carries its own DCID).
            if packet.direction() == Direction::Downstream {
                flows
                    .entry(packet.dcid().to_vec())
                    .or_default()
                    .ingest(&packet);
            }
        }
        let measurable = flows.values().filter(|f| f.stats().measurable).count();

        println!(
            "        {:.1}  | {:>8.1} ms | {:>8.1} ms | {:>8.1} ms  ({} flow(s), {} measurable)",
            tap_position,
            observer.client_side_mean_ms().unwrap_or(f64::NAN),
            observer.server_side_mean_ms().unwrap_or(f64::NAN),
            observer.full_rtt_mean_ms().unwrap_or(f64::NAN),
            flows.len(),
            measurable,
        );
    }
    println!("\npath RTT is 80 ms; the component split follows the tap position");
    println!("while the reconstructed full RTT stays put — §6's tomography use case.");
}
