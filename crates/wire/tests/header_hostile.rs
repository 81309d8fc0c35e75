//! `Header::decode` and `Header::peek_observable` on hostile bytes.
//!
//! Both must return an error (or `None`) on any input, never panic, for
//! every short-header CID length a demultiplexer may supply (0..=20).
//! Whatever decodes must re-encode to bytes that decode to the same
//! header, and `peek_observable` must agree with the full decode on the
//! bits an on-path observer reads.

use quicspin_wire::{
    ConnectionId, Header, LongHeader, LongType, PacketNumber, Reader, ShortHeader, Version, Writer,
};

/// Decodes `bytes` both ways and checks the two agree with each other
/// and with a re-encoding of the decoded header.
fn check(bytes: &[u8], cid_len: usize) -> Result<(), proptest::TestCaseError> {
    let mut r = Reader::new(bytes);
    let decoded = Header::decode(&mut r, cid_len);
    let peeked = Header::peek_observable(bytes, cid_len);
    match &decoded {
        Ok(Header::Short(h)) => {
            proptest::prop_assert_eq!(peeked, Some(h.observable()));
        }
        Ok(Header::Long(_)) => proptest::prop_assert_eq!(peeked, None),
        Err(_) => {}
    }
    if let Ok(header) = decoded {
        let mut w = Writer::new();
        header.encode(&mut w);
        let again = Header::decode(&mut Reader::new(w.as_slice()), cid_len);
        proptest::prop_assert_eq!(again, Ok(header));
    }
    Ok(())
}

/// A valid encoding of one header of each form and long type.
fn valid_encodings(cid_len: usize) -> Vec<Vec<u8>> {
    let dcid = ConnectionId::new(&[0xab; 20][..cid_len]).unwrap();
    let scid = ConnectionId::from_u64(7);
    let mut headers = vec![Header::Short(ShortHeader {
        spin: true,
        vec: 2,
        dcid,
        packet_number: PacketNumber::new(0x0102_0304),
    })];
    for ty in [
        LongType::Initial,
        LongType::ZeroRtt,
        LongType::Handshake,
        LongType::Retry,
    ] {
        headers.push(Header::Long(LongHeader {
            ty,
            version: Version::V1,
            dcid,
            scid,
            packet_number: (ty != LongType::Retry).then(|| PacketNumber::new(9)),
        }));
    }
    headers
        .iter()
        .map(|h| {
            let mut w = Writer::new();
            h.encode(&mut w);
            w.as_slice().to_vec()
        })
        .collect()
}

#[test]
fn truncated_valid_headers_never_panic() {
    for cid_len in 0..=20 {
        for bytes in valid_encodings(cid_len) {
            for cut in 0..=bytes.len() {
                if let Err(proptest::TestCaseError::Fail(msg)) = check(&bytes[..cut], cid_len) {
                    panic!("cid_len {cid_len}, cut {cut}: {msg}");
                }
            }
            assert!(Header::decode(&mut Reader::new(&bytes), cid_len).is_ok());
        }
    }
}

#[test]
fn every_first_byte_and_cid_len_never_panics() {
    // Pseudo-random tails (64-bit LCG) behind each of the 256 first
    // bytes, at every length up to the longest long header.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut tail = [0u8; 48];
    for first in 0..=255u8 {
        for b in tail.iter_mut() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *b = (state >> 56) as u8;
        }
        let mut bytes = vec![first];
        bytes.extend_from_slice(&tail);
        for cid_len in 0..=20 {
            for len in 0..=bytes.len() {
                if let Err(proptest::TestCaseError::Fail(msg)) = check(&bytes[..len], cid_len) {
                    panic!("first {first:#04x}, cid_len {cid_len}, len {len}: {msg}");
                }
            }
        }
    }
}

proptest::proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        cid_len in 0usize..=20,
    ) {
        check(&bytes, cid_len)?;
    }

    #[test]
    fn byte_flipped_valid_headers_never_panic(
        cid_len in 0usize..=20,
        which in 0usize..5,
        at in 0usize..64,
        xor in 1u8..=255,
        cut in 0usize..64,
    ) {
        let mut bytes = valid_encodings(cid_len).swap_remove(which);
        let at = at % bytes.len();
        bytes[at] ^= xor;
        if cut < bytes.len() {
            bytes.truncate(bytes.len() - cut);
        }
        check(&bytes, cid_len)?;
    }
}
