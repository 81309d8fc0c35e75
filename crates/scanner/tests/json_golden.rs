//! JSON byte-identity golden test.
//!
//! Pins FNV-1a digests of every JSON document a seeded campaign
//! produces: the pretty text of each artifact (`anomalies.json`,
//! `observer.json`, `timeseries.json`, `trace.json`, `profile.json` and
//! the manifest's deterministic view) and the compact text of the
//! connection records and one qlog trace. The last two exercise the
//! `#[serde(flatten)]` and internally tagged enum paths, which no
//! artifact uses. The JSON writer and parser may be restructured
//! freely, but not one output byte may move. Every document must also
//! read back to an equal value.

mod common;

use common::fixture;
use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a.
fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Pretty-prints `value`, checks the digest and length, and checks that
/// the text parses back to an equal value.
fn pretty<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(
    name: &str,
    value: &T,
    digest: u64,
    len: usize,
) {
    let text = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(
        (fnv(&text), text.len()),
        (digest, len),
        "{name}: pretty JSON moved"
    );
    let back: T = serde_json::from_str(&text).unwrap();
    assert_eq!(&back, value, "{name}: pretty JSON does not round-trip");
}

#[test]
fn artifact_documents_are_byte_identical() {
    let f = fixture();
    pretty("anomalies.json", &f.index, 0xcd35_c489_24f0_5364, 19_337);
    pretty("observer.json", &f.observer, 0x1bdb_efb3_e538_e9bd, 32_786);
    pretty("timeseries.json", &f.series, 0x91b3_c0a1_faae_518a, 31_849);
    pretty("trace.json", &f.chrome, 0xb014_7744_f562_66ab, 49_725);
    pretty("profile.json", &f.profile, 0x975b_c5ad_48cb_0ebd, 2_029);
    pretty("metrics.json", &f.manifest, 0xa865_66bf_59fd_df3a, 3_656);
}

#[test]
fn connection_records_are_byte_identical() {
    let f = fixture();
    let text = serde_json::to_string(&f.records).unwrap();
    assert_eq!(
        (fnv(&text), text.len()),
        (0xf4f1_891a_9632_6ace, 116_654),
        "records: compact JSON moved"
    );
    // `ConnectionRecord` has no `PartialEq`: compare re-serialized text.
    let pretty = serde_json::to_string_pretty(&f.records).unwrap();
    let back: Vec<quicspin_scanner::ConnectionRecord> = serde_json::from_str(&pretty).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
}

#[test]
fn qlog_trace_is_byte_identical() {
    let f = fixture();
    let text = serde_json::to_string(&f.trace).unwrap();
    assert_eq!(
        (fnv(&text), text.len()),
        (0x8588_8415_e403_2e13, 8_461),
        "qlog trace: compact JSON moved"
    );
    assert!(text.contains(r#""name":"packet_received""#));
    let pretty = serde_json::to_string_pretty(&f.trace).unwrap();
    let back: quicspin_qlog::TraceLog = serde_json::from_str(&pretty).unwrap();
    assert_eq!(back, f.trace);
}
