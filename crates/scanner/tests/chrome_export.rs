//! `chrome_trace_export` against a reference copy of its original
//! anomaly lookup, which filtered every anomaly of the campaign once per
//! retained trace. The export now takes each probe's anomalies as one
//! binary-searched range of the sorted anomaly list; the events and
//! their order must not change.

use quicspin_qlog::{chrome_trace_events, ChromeArgs, ChromeEvent};
use quicspin_scanner::{
    chrome_trace_export, CampaignConfig, FlightConfig, FlightRecording, NetworkConditions, Scanner,
};
use quicspin_webpop::{Population, PopulationConfig};

/// The original export, kept verbatim as the reference.
fn reference_export(recording: &FlightRecording) -> Vec<ChromeEvent> {
    let mut events = Vec::new();
    for retained in recording.retained() {
        let probe = retained.probe;
        let Some(trace) = recording.trace(probe) else {
            continue;
        };
        events.extend(chrome_trace_events(&trace, probe.domain_id, probe.hop));
        for anomaly in recording.anomalies().iter().filter(|a| a.probe == probe) {
            events.push(
                ChromeEvent::instant(
                    anomaly.kind.name(),
                    trace.duration_us(),
                    probe.domain_id,
                    probe.hop,
                    "anomaly",
                )
                .with_args(ChromeArgs {
                    severity: Some(u64::from(anomaly.severity)),
                    detail: Some(anomaly.detail.clone()),
                    ..ChromeArgs::default()
                }),
            );
        }
    }
    events
}

#[test]
fn export_matches_the_reference_filter() {
    // A QUIC-dense toplist over a lossy, reordering, tapped path with a
    // low handshake-outlier threshold (so probes collect several
    // anomalies) and a retention budget too small for every trace.
    let population = Population::generate(PopulationConfig {
        seed: 0x15,
        toplist_domains: 300,
        zone_domains: 0,
    });
    let mut config = CampaignConfig {
        threads: 2,
        flight: FlightConfig::armed(0x15),
        tap: Some(0.5),
        conditions: NetworkConditions {
            loss: 0.05,
            reorder: 0.01,
            jitter_frac: 0.05,
        },
        ..CampaignConfig::default()
    };
    config.flight.handshake_outlier_us = 200_000;
    config.flight.retention_budget_bytes = 16 << 10;
    let (_, recording) = Scanner::new(&population).run_campaign_flight(&config);

    // The campaign must exercise the range lookup: retained probes with
    // several anomalies, and anomalies of probes whose trace was evicted.
    let count = |probe| {
        recording
            .anomalies()
            .iter()
            .filter(|a| a.probe == probe)
            .count()
    };
    let retained: Vec<_> = recording.retained().iter().map(|t| t.probe).collect();
    assert!(retained.iter().filter(|&&p| count(p) >= 2).count() >= 2);
    assert!(recording.evicted_traces() > 0);
    assert!(recording
        .anomalies()
        .iter()
        .any(|a| !retained.contains(&a.probe)));

    assert_eq!(
        chrome_trace_export(&recording),
        reference_export(&recording)
    );
}
