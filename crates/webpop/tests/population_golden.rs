//! Population golden test.
//!
//! Pins the FNV-1a digest of the `Debug` form of every `DomainRecord`,
//! followed by the `Debug` form of `plan_connection(id, 0, V4, 0)` for
//! every QUIC domain, for two seeded populations: the paper's 1:10 000
//! composition at seed 11 (toplist and zone domains) and a 20 000-domain
//! toplist-only population. Any change to the order or arithmetic of a
//! random draw — a reordered or compensated weight sum, a draw skipped or
//! added — moves these digests.

use quicspin_webpop::{IpVersion, Population, PopulationConfig};
use std::fmt::Write;

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest, domain count and QUIC-domain count of one population.
fn digest(config: PopulationConfig) -> (u64, usize, usize) {
    let p = Population::generate(config);
    let mut h = Fnv::new();
    let mut line = String::new();
    for d in p.domains() {
        line.clear();
        writeln!(line, "{d:?}").unwrap();
        h.feed(&line);
    }
    let mut quic = 0;
    for d in p.domains().iter().filter(|d| d.quic) {
        line.clear();
        writeln!(line, "{:?}", p.plan_connection(d.id, 0, IpVersion::V4, 0)).unwrap();
        h.feed(&line);
        quic += 1;
    }
    (h.0, p.len(), quic)
}

#[test]
fn paper_scale_population_is_pinned() {
    let got = digest(PopulationConfig::paper_scale(10_000).with_seed(11));
    assert_eq!(
        got,
        (0xc935_cb21_c0c5_e6a5, 21_925, 2_334),
        "paper_scale(10000) seed 11 moved"
    );
}

#[test]
fn toplist_only_population_is_pinned() {
    let got = digest(PopulationConfig {
        seed: 11,
        toplist_domains: 20_000,
        zone_domains: 0,
    });
    assert_eq!(
        got,
        (0xfbc2_3ca5_4871_e732, 20_000, 4_361),
        "20 000 toplist-only domains moved"
    );
}
