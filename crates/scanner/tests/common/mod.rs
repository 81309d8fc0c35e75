//! A seeded, tapped, flight-armed campaign shared by the JSON artifact
//! tests: a few hundred domains at 5 % loss, with the profiler on.

// Each test binary reads a different subset of the fixture.
#![allow(dead_code)]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use quicspin_qlog::{ChromeEvent, TraceLog};
use quicspin_scanner::{
    build_timeseries, chrome_trace_export, AnomalyIndex, CampaignConfig, ConnectionRecord,
    FlightConfig, ObserverDoc, RunManifest, Scanner, TimeSeriesDoc,
};
use quicspin_telemetry::{ProfileDoc, ProfilerRegistry};
use quicspin_webpop::{Population, PopulationConfig};

/// Every JSON document the campaign produces.
pub struct Fixture {
    pub index: AnomalyIndex,
    pub observer: ObserverDoc,
    pub series: TimeSeriesDoc,
    pub chrome: Vec<ChromeEvent>,
    pub profile: ProfileDoc,
    pub manifest: RunManifest,
    pub records: Vec<ConnectionRecord>,
    pub trace: TraceLog,
}

/// Runs the campaign once per test binary.
pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let population = Population::generate(PopulationConfig {
            seed: 0x15,
            toplist_domains: 60,
            zone_domains: 300,
        });
        let mut config = CampaignConfig {
            threads: 2,
            flight: FlightConfig::armed(0x15),
            tap: Some(0.5),
            profiler: Arc::new(ProfilerRegistry::new()),
            ..CampaignConfig::default()
        };
        config.flight.baseline_sample_every = 16;
        config.conditions.loss = 0.05;
        let scanner = Scanner::new(&population);
        let ((campaign, recording), manifest) = scanner.with_progress(
            &config,
            Duration::from_secs(3600),
            |_| {},
            |scanner, config| scanner.run_campaign_flight(config),
        );
        let first = recording.retained().first().expect("a retained trace");
        Fixture {
            index: recording.index(),
            observer: ObserverDoc::from_records(&config.campaign_id(), 0.5, &campaign.records),
            series: build_timeseries(&campaign, &config, 64),
            chrome: chrome_trace_export(&recording),
            profile: config.profiler.snapshot().doc(),
            manifest: manifest.deterministic_view(),
            trace: recording.trace(first.probe).expect("decodable trace"),
            records: campaign.records,
        }
    })
}
