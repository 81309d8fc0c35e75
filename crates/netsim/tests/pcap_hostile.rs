//! `read_pcap` on hostile bytes.
//!
//! The reader must return an error on anything that is not a complete
//! capture, never panic: arbitrary bytes, arbitrary bytes behind a valid
//! global header, and valid captures cut short or with a byte flipped.
//! A capture cut exactly at a record boundary reads back as its first
//! records; a cut anywhere else inside the records is `Truncated`.

use quicspin_netsim::{read_pcap, write_pcap, PcapError, Side, SimTime, TapRecord};

fn record(us: u64, from: Side, len: usize) -> TapRecord {
    TapRecord {
        time: SimTime::from_nanos(us * 1_000),
        from,
        datagram: (0..len)
            .map(|i| (i as u8) ^ 0x5a)
            .collect::<Vec<u8>>()
            .into(),
    }
}

/// A small valid capture and the byte offset where each record ends.
fn capture() -> (Vec<TapRecord>, Vec<u8>, Vec<usize>) {
    let records = vec![
        record(0, Side::Client, 40),
        record(1_500_000, Side::Server, 0),
        record(2_000_001, Side::Client, 7),
        record(9_999_999, Side::Server, 1_200),
    ];
    let bytes = write_pcap(&records);
    let mut ends = Vec::new();
    let mut at = 24;
    for r in &records {
        at += 16 + 1 + r.datagram.len();
        ends.push(at);
    }
    assert_eq!(at, bytes.len());
    (records, bytes, ends)
}

/// Whatever reads must be plausible for its input size.
fn check(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
    if let Ok(records) = read_pcap(bytes) {
        proptest::prop_assert!(bytes.len() >= 24);
        let body: usize = records.iter().map(|r| 16 + 1 + r.datagram.len()).sum();
        proptest::prop_assert_eq!(24 + body, bytes.len());
    }
    Ok(())
}

#[test]
fn every_cut_of_a_valid_capture_is_an_error_or_a_prefix() {
    let (records, bytes, ends) = capture();
    for cut in 0..=bytes.len() {
        let got = read_pcap(&bytes[..cut]);
        if cut < 24 {
            assert_eq!(got, Err(PcapError::BadHeader), "cut {cut}");
        } else if cut == 24 {
            assert_eq!(got, Ok(Vec::new()));
        } else if let Some(k) = ends.iter().position(|&end| end == cut) {
            assert_eq!(got.as_deref(), Ok(&records[..=k]), "cut {cut}");
        } else {
            assert_eq!(got, Err(PcapError::Truncated), "cut {cut}");
        }
    }
}

#[test]
fn every_single_byte_flip_of_a_valid_capture_never_panics() {
    let (_, bytes, _) = capture();
    for at in 0..bytes.len() {
        for xor in [0x01, 0x80, 0xff] {
            let mut flipped = bytes.clone();
            flipped[at] ^= xor;
            if let Err(proptest::TestCaseError::Fail(msg)) = check(&flipped) {
                panic!("byte {at} ^ {xor:#04x}: {msg}");
            }
        }
    }
}

proptest::proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
    ) {
        check(&bytes)?;
    }

    #[test]
    fn arbitrary_records_behind_a_valid_header_never_panic(
        tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        small_caplen in proptest::prelude::any::<bool>(),
    ) {
        let mut bytes = write_pcap(&[]);
        bytes.extend_from_slice(&tail);
        if small_caplen && tail.len() >= 12 {
            // Keep the first record's length inside the input, so the
            // body and the records after it are parsed too.
            let caplen = u32::from(tail[8]) % 64;
            bytes[24 + 8..24 + 12].copy_from_slice(&caplen.to_le_bytes());
        }
        check(&bytes)?;
    }

    #[test]
    fn byte_flipped_and_cut_captures_never_panic(
        at in 0usize..2_000,
        xor in 1u8..=255,
        cut in 0usize..2_000,
    ) {
        let (_, mut bytes, _) = capture();
        let at = at % bytes.len();
        bytes[at] ^= xor;
        bytes.truncate(cut.max(at + 1));
        check(&bytes)?;
    }
}
