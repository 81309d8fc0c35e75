//! End-to-end test of the campaign telemetry layer: an instrumented
//! campaign must account for every probe, populate per-stage latency
//! histograms and the QUIC/netsim counters, and its exported
//! `metrics.json` manifest must round-trip through serde exactly.

use quicspin::scanner::{
    read_run_manifest, write_run_manifest, CampaignConfig, NetworkConditions, ScanOutcome, Scanner,
};
use quicspin::webpop::{Population, PopulationConfig};
use std::time::Duration;

#[test]
fn instrumented_campaign_exports_complete_manifest() {
    let population = Population::generate(PopulationConfig {
        seed: 0x7e1e,
        toplist_domains: 200,
        zone_domains: 1_800,
    });
    let scanner = Scanner::new(&population);
    let config = CampaignConfig {
        conditions: NetworkConditions::clean(),
        threads: 2,
        keep_qlogs: true,
        ..CampaignConfig::default()
    };
    let mut progress_lines = 0usize;
    let (campaign, manifest) = scanner.with_progress(
        &config,
        Duration::from_millis(1),
        |_line| progress_lines += 1,
        |scanner, config| scanner.run_campaign(config),
    );
    assert!(progress_lines >= 2, "final progress line + summary table");

    // Probe accounting: every domain probed, completions + errors add up.
    let total = population.len() as u64;
    assert_eq!(manifest.counter("probes_started"), total);
    assert_eq!(manifest.counter("probes_completed"), total);
    assert_eq!(manifest.counter("records_produced"), campaign.len() as u64);
    let errored = campaign
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                ScanOutcome::HandshakeFailed | ScanOutcome::Unreachable
            )
        })
        .count() as u64;
    assert_eq!(manifest.counter("probes_errored"), errored);

    // QUIC stack counters flowed up through the worker shards.
    assert!(manifest.counter("handshakes_completed") > 0);
    assert!(manifest.counter("packets_sent") > manifest.counter("handshakes_completed"));
    assert!(manifest.counter("packets_received") > 0);
    assert!(manifest.counter("spin_transitions_observed") > 0);
    assert!(manifest.counter("qlog_traces_retained") > 0);

    // Netsim counters: a clean path still has queue occupancy.
    assert!(manifest.counter("netsim_queue_high_water") > 0);
    assert_eq!(manifest.counter("netsim_drops"), 0);
    assert!(manifest.counter("datagram_pool_hits") > 0);

    // Per-stage histograms are non-empty with sane quantile ordering.
    for name in [
        "probe",
        "handshake",
        "transfer",
        "spin_extraction",
        "classify",
    ] {
        let stage = manifest
            .stage(name)
            .unwrap_or_else(|| panic!("stage {name} missing"));
        assert!(stage.count > 0, "stage {name} recorded nothing");
        assert!(stage.p50_ns <= stage.p90_ns, "stage {name} quantiles");
        assert!(stage.p90_ns <= stage.p99_ns, "stage {name} quantiles");
        assert!(stage.p99_ns <= stage.max_ns, "stage {name} quantiles");
        assert!(stage.min_ns <= stage.p50_ns, "stage {name} quantiles");
    }
    assert_eq!(manifest.stage("probe").unwrap().count, total);

    // metrics.json round-trips exactly (all-integer manifest fields).
    let dir = std::env::temp_dir().join(format!("quicspin-manifest-{}", std::process::id()));
    let path = write_run_manifest(&dir, &manifest).expect("write metrics.json");
    assert!(path.ends_with("metrics.json"));
    let reread = read_run_manifest(&dir).expect("read metrics.json back");
    assert_eq!(reread, manifest, "serde round-trip must be exact");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_manifest_yields_descriptive_not_found_error() {
    let dir =
        std::env::temp_dir().join(format!("quicspin-manifest-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let err = read_run_manifest(&dir).expect_err("missing metrics.json must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    let message = err.to_string();
    assert!(
        message.contains("metrics.json") && message.contains("cannot read run manifest"),
        "error must name the file and the failure: {message}"
    );
}

#[test]
fn corrupt_manifest_yields_descriptive_invalid_data_error() {
    let dir =
        std::env::temp_dir().join(format!("quicspin-manifest-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("metrics.json"), b"{\"schema_version\": oops").unwrap();
    let err = read_run_manifest(&dir).expect_err("corrupt metrics.json must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let message = err.to_string();
    assert!(
        message.contains("corrupt run manifest") && message.contains("metrics.json"),
        "error must name the file and the corruption: {message}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_does_not_change_campaign_results() {
    let population = Population::generate(PopulationConfig {
        seed: 0x7e1e,
        toplist_domains: 100,
        zone_domains: 900,
    });
    let scanner = Scanner::new(&population);
    let config = CampaignConfig {
        conditions: NetworkConditions::clean(),
        threads: 2,
        ..CampaignConfig::default()
    };
    let plain = scanner.run_campaign(&config);
    let (instrumented, _manifest) = scanner.with_progress(
        &config,
        Duration::from_secs(60),
        |_| {},
        |scanner, config| scanner.run_campaign(config),
    );
    assert_eq!(
        serde_json::to_string(&plain.records).unwrap(),
        serde_json::to_string(&instrumented.records).unwrap(),
        "instrumentation must be invisible in the records"
    );
}
