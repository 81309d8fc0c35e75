//! `Dataset` golden test.
//!
//! Pins the FNV-1a digest and length of the pretty JSON of one seeded
//! campaign's `Dataset` (seed 11, 200 toplist + 4 000 zone domains,
//! clean path). Every way of building it — one fold over the whole
//! record vector (`Dataset::build`), shard folds merged in order
//! (`Dataset::build_parallel`), and a `DatasetFold` fed batch by batch
//! as the campaign engine sweeps — must produce exactly these bytes, and
//! the text must read back to an equal `Dataset`.

use quicspin_analysis::{CampaignSummary, Dataset, DatasetFold};
use quicspin_scanner::{Campaign, CampaignConfig, ConnectionRecord, NetworkConditions, Scanner};
use quicspin_webpop::{Population, PopulationConfig};

const DIGEST: u64 = 0x84b6_9310_7790_9f43;
const LEN: usize = 7_065;

/// 64-bit FNV-1a.
fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn population() -> Population {
    Population::generate(PopulationConfig {
        seed: 11,
        toplist_domains: 200,
        zone_domains: 4_000,
    })
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        threads,
        conditions: NetworkConditions::clean(),
        ..CampaignConfig::default()
    }
}

fn campaign(pop: &Population) -> Campaign {
    Scanner::new(pop).run_campaign(&config(2))
}

/// Checks the digest and length of `dataset`'s pretty JSON, and that the
/// text parses back to an equal value.
fn assert_golden(name: &str, dataset: &Dataset) {
    let text = serde_json::to_string_pretty(dataset).unwrap();
    assert_eq!(
        (fnv(&text), text.len()),
        (DIGEST, LEN),
        "{name}: Dataset JSON moved"
    );
    let back: Dataset = serde_json::from_str(&text).unwrap();
    assert_eq!(&back, dataset, "{name}: Dataset JSON does not round-trip");
}

#[test]
fn build_and_build_parallel_match_the_golden() {
    let c = campaign(&population());
    assert_golden("build", &Dataset::build(&c));
    for shards in [2, 3, 4, 8] {
        assert_golden(
            &format!("build_parallel({shards})"),
            &Dataset::build_parallel(&c, shards),
        );
    }
}

#[test]
fn sweep_sink_fold_matches_the_golden() {
    let pop = population();
    let scanner = Scanner::new(&pop);
    for threads in [1, 4] {
        for budget_bytes in [0, 16 * 1024] {
            let mut fold = DatasetFold::default();
            scanner.sweep(
                &config(threads),
                0..pop.len() as u32,
                budget_bytes,
                |b: &mut Vec<ConnectionRecord>| fold.push(b),
            );
            assert_golden(
                &format!("sweep fold, threads {threads}, budget {budget_bytes}"),
                &fold.finish(),
            );
        }
    }
}

#[test]
fn class_counts_cover_every_domain() {
    let pop = population();
    let counts = CampaignSummary::build(&campaign(&pop)).counts(|_| true);
    assert_eq!(counts.total, pop.len() as u64);
    assert_eq!(counts.classes.iter().sum::<u64>(), counts.total);
}
