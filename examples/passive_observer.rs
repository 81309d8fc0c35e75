//! Passive on-path observation with robustness heuristics and the VEC.
//!
//! A network operator's view: no qlog, no packet numbers — only the spin
//! bit (and optionally the Valid Edge Counter) on short-header packets
//! crossing a tap. Demonstrates the Fig. 1b reordering failure mode, the
//! RFC 9312 filters that mitigate it, and the VEC alternative that never
//! made it into RFC 9000.
//!
//! Run with: `cargo run --release --example passive_observer`

use quicspin::core::{ObserverConfig, RttFilter, SpinObserver};
use quicspin::netsim::Side;
use quicspin::prelude::*;

fn observe(
    observations: &[quicspin::core::PacketObservation],
    config: ObserverConfig,
) -> (usize, Option<f64>, usize) {
    let mut observer = SpinObserver::with_config(config);
    for obs in observations {
        observer.observe(obs);
    }
    (
        observer.rtt_samples_us().len(),
        observer.mean_rtt_ms(),
        observer.filtered_out(),
    )
}

fn main() {
    // A heavily reordering path: 8 % of packets get held back long enough
    // to be overtaken — far worse than anything the paper saw, to make
    // the heuristics visible.
    let mut lab = ConnectionLab::new(LabConfig {
        path_rtt_ms: 50.0,
        reorder: 0.08,
        jitter_ms: 2.0,
        seed: 7,
        client: TransportConfig::default().with_vec(),
        server: TransportConfig::default().with_vec(),
        ..LabConfig::default()
    });
    let outcome = lab.run();
    let tap = outcome.tap_observations(Side::Server);
    println!("tap captured {} server→client 1-RTT packets\n", tap.len());

    let configs: [(&str, ObserverConfig); 4] = [
        ("baseline (no filter)", ObserverConfig::default()),
        (
            "static floor 5 ms",
            ObserverConfig {
                filter: RttFilter::StaticFloor { min_us: 5_000 },
                ..ObserverConfig::default()
            },
        ),
        (
            "dynamic range [0.3x, 3x] of windowed median",
            ObserverConfig {
                filter: RttFilter::DynamicRange {
                    lower: 0.3,
                    upper: 3.0,
                },
                ..ObserverConfig::default()
            },
        ),
        (
            "VEC: saturated edges only",
            ObserverConfig {
                require_valid_edge: true,
                ..ObserverConfig::default()
            },
        ),
    ];

    println!(
        "{:<44} {:>8} {:>12} {:>9}",
        "observer", "samples", "mean RTT", "rejected"
    );
    for (name, config) in configs {
        let (n, mean, rejected) = observe(&tap, config);
        println!(
            "{:<44} {:>8} {:>9.1} ms {:>9}",
            name,
            n,
            mean.unwrap_or(0.0),
            rejected
        );
    }

    println!(
        "\nground truth: path RTT 50.0 ms; stack measured {:.1} ms",
        outcome
            .client_stack_samples_us
            .iter()
            .min()
            .map(|&v| v as f64 / 1000.0)
            .unwrap_or(0.0)
    );
}
