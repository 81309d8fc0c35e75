//! Full measurement campaign against the synthetic Internet — the
//! centrepiece example: regenerates Tables 1–4 and the §4.2 web-server
//! attribution exactly as the paper's CW 20/2023 measurement does.
//!
//! Usage: `cargo run --release --example internet_campaign [scale]`
//! where `scale` is the 1:N population denominator (default 1000 —
//! ≈ 219 k domains; use 100 for a ≈ 2.2 M-domain run if you have time).

use quicspin::analysis::{render, Dataset};
use quicspin::scanner::{write_run_manifest, CampaignConfig, Scanner};
use quicspin::webpop::{IpVersion, Population, PopulationConfig, WebServer};
use std::time::Duration;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    eprintln!("generating population at scale 1:{scale} ...");
    let population = Population::generate(PopulationConfig::paper_scale(scale));
    eprintln!("{} domains generated", population.len());

    let scanner = Scanner::new(&population);

    // --- IPv4 sweep (Tables 1, 2, 3, §4.2) --------------------------------
    eprintln!("running IPv4 campaign (CW 20 analogue) ...");
    let config = CampaignConfig::default();
    let (v4, manifest) = scanner.with_progress(
        &config,
        Duration::from_secs(2),
        |line| eprintln!("{line}"),
        |scanner, config| scanner.run_campaign(config),
    );
    eprintln!("{} records", v4.len());
    match write_run_manifest(std::path::Path::new("target/campaign"), &manifest) {
        Ok(path) => eprintln!("run manifest written to {}", path.display()),
        Err(e) => eprintln!("could not write run manifest: {e}"),
    }

    let tables = Dataset::build_parallel(&v4, config.threads);
    println!(
        "{}",
        render::render_overview("Table 1: IPv4 overview", &tables.overview)
    );
    println!("{}", render::render_orgs(&tables.orgs));
    println!("{}", render::render_spin_config(&tables.spin_config));

    println!("Web servers (share of spinning connections):");
    for ws in [
        WebServer::LiteSpeed,
        WebServer::Imunify360,
        WebServer::NginxQuic,
        WebServer::Caddy,
        WebServer::OtherServer,
    ] {
        println!(
            "  {:<22} {:5.1}%",
            format!("{ws:?}"),
            tables.webserver.spin_share(ws) * 100.0
        );
    }
    println!();

    // --- IPv6 sweep (Table 4) ---------------------------------------------
    eprintln!("running IPv6 campaign ...");
    let v6 = scanner.run_campaign(&CampaignConfig {
        version: IpVersion::V6,
        ..CampaignConfig::default()
    });
    let table4 = Dataset::build_parallel(&v6, config.threads).overview;
    println!(
        "{}",
        render::render_overview("Table 4: IPv6 overview", &table4)
    );

    // Peak resident set of the whole run (both campaigns resident), for
    // `scripts/ci.sh --scale`'s memory gate. Linux only: skipped where
    // `/proc/self/status` cannot be read.
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(hwm) = status.lines().find(|l| l.starts_with("VmHWM:")) {
            eprintln!("{hwm}");
        }
    }
}
