//! Hostile input through the JSON parser: arbitrary bytes, and valid
//! artifact text that is truncated or has bytes overwritten, fed through
//! `serde_json::from_str` as every artifact document type. The parser
//! must never panic, every error must be one line, and a truncated
//! document must always be rejected.

mod common;

use std::sync::OnceLock;

use common::fixture;
use proptest::collection::vec;
use proptest::prelude::any;
use serde::{Deserialize, Serialize};

/// Parses `text` as one document type; the error is rendered.
type Parse = fn(&str) -> Result<(), String>;

fn parse_as<T: Deserialize>(text: &str) -> Result<(), String> {
    serde_json::from_str::<T>(text)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Each artifact document type (`anomalies.json`, `observer.json`,
/// `timeseries.json`, `trace.json`, `profile.json`, `metrics.json`, and
/// a qlog trace) with the fixture's pretty text of it.
fn documents() -> &'static [(String, Parse)] {
    static DOCS: OnceLock<Vec<(String, Parse)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        fn doc<T: Serialize + Deserialize>(value: &T) -> (String, Parse) {
            (serde_json::to_string_pretty(value).unwrap(), parse_as::<T>)
        }
        let f = fixture();
        vec![
            doc(&f.index),
            doc(&f.observer),
            doc(&f.series),
            doc(&f.chrome),
            doc(&f.profile),
            doc(&f.manifest),
            doc(&f.trace),
        ]
    })
}

/// Bytes drawn from JSON's own alphabet reach deeper into the parser
/// than uniform ones.
const JSON_BYTES: &[u8] = b"{}[]\":,-+.0123456789eEtrufalsn\\/ubfU \n\xc3\xa9";

fn one_line(result: Result<(), String>) -> Result<(), String> {
    match result {
        Err(e) if e.contains('\n') || e.is_empty() => Err(format!("bad error message {e:?}")),
        _ => Ok(()),
    }
}

#[test]
fn fixture_documents_parse() {
    for (text, parse) in documents() {
        parse(text).unwrap();
    }
}

#[test]
fn every_hundredth_prefix_is_rejected() {
    for (text, parse) in documents() {
        for end in (0..text.len()).step_by(text.len() / 100 + 1) {
            if text.is_char_boundary(end) {
                let result = parse(&text[..end]);
                assert!(result.is_err(), "prefix of {end} bytes parsed");
                one_line(result).unwrap();
            }
        }
    }
}

proptest::proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in vec(any::<u8>(), 0..200),
        picks in vec(0usize..JSON_BYTES.len(), 0..200),
    ) {
        let json: Vec<u8> = picks.iter().map(|&i| JSON_BYTES[i]).collect();
        for input in [&bytes, &json] {
            let text = String::from_utf8_lossy(input);
            for (_, parse) in documents() {
                let checked = one_line(parse(&text));
                proptest::prop_assert!(checked.is_ok(), "{:?}: {:?}", text, checked);
            }
        }
    }

    #[test]
    fn truncated_documents_are_rejected(doc in 0usize..7, cut in 0.0f64..1.0) {
        let (text, parse) = &documents()[doc];
        let mut end = (cut * text.len() as f64) as usize;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        let result = parse(&text[..end]);
        proptest::prop_assert!(result.is_err(), "prefix of {} bytes parsed", end);
        proptest::prop_assert!(one_line(result).is_ok());
    }

    #[test]
    fn corrupted_documents_never_panic(
        doc in 0usize..7,
        edits in vec((0.0f64..1.0, any::<u8>(), 0usize..JSON_BYTES.len()), 1..4),
    ) {
        let (text, parse) = &documents()[doc];
        let mut bytes = text.clone().into_bytes();
        for &(at, byte, pick) in &edits {
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] = if byte & 1 == 0 { byte } else { JSON_BYTES[pick] };
        }
        let corrupted = String::from_utf8_lossy(&bytes);
        let checked = one_line(parse(&corrupted));
        proptest::prop_assert!(checked.is_ok(), "{:?}", checked);
    }
}
