//! The borrowed decoder and the in-place encoders against a reference
//! copy of the owned frame codec they replaced.
//!
//! `legacy` below is that codec, kept verbatim as the oracle: decoding
//! any byte string through [`FrameRef`] and [`FrameRef::to_owned`] must
//! give the same frames and the same [`WireError`], and the in-place ACK,
//! STREAM, CRYPTO and PADDING encoders must write the same bytes. Inputs
//! are arbitrary bytes and mutated encodings of valid frame sequences.

use quicspin_wire::{
    encode_ack, encode_crypto, encode_padding, encode_stream, varint, AckRange, Frame, FrameRef,
    Frames, PacketRef, Reader, WireError, Writer,
};

mod legacy {
    use quicspin_wire::{varint, AckRange, Frame, Reader, WireError, Writer};

    pub fn encode(f: &Frame, w: &mut Writer) {
        match f {
            Frame::Padding { len } => {
                for _ in 0..*len {
                    w.write_u8(0x00);
                }
            }
            Frame::Ack {
                largest,
                delay_us,
                ranges,
            } => {
                w.write_u8(0x02);
                varint::write(w, *largest);
                varint::write(w, *delay_us);
                varint::write(w, (ranges.len() - 1) as u64);
                varint::write(w, ranges[0].end - ranges[0].start);
                let mut smallest = ranges[0].start;
                for range in &ranges[1..] {
                    varint::write(w, smallest - range.end - 2);
                    varint::write(w, range.end - range.start);
                    smallest = range.start;
                }
            }
            Frame::Crypto { offset, data } => {
                w.write_u8(0x06);
                varint::write(w, *offset);
                varint::write(w, data.len() as u64);
                w.write_bytes(data);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => {
                w.write_u8(0x08 | 0x04 | 0x02 | u8::from(*fin));
                varint::write(w, *id);
                varint::write(w, *offset);
                varint::write(w, data.len() as u64);
                w.write_bytes(data);
            }
            other => other.encode(w),
        }
    }

    pub fn decode(r: &mut Reader<'_>) -> Result<Frame, WireError> {
        let ty = varint::read(r, "frame type")?;
        match ty {
            0x00 => {
                let mut len = 1;
                while r.peek_u8() == Some(0x00) {
                    r.read_u8("padding")?;
                    len += 1;
                }
                Ok(Frame::Padding { len })
            }
            0x01 => Ok(Frame::Ping),
            0x02 | 0x03 => {
                let largest = varint::read(r, "ack largest")?;
                let delay_us = varint::read(r, "ack delay")?;
                let range_count = varint::read(r, "ack range count")?;
                let first_len = varint::read(r, "ack first range")?;
                if first_len > largest {
                    return Err(WireError::Malformed {
                        context: "ack first range exceeds largest",
                    });
                }
                let mut ranges = vec![AckRange::new(largest - first_len, largest)];
                let mut smallest = largest - first_len;
                for _ in 0..range_count {
                    let gap = varint::read(r, "ack gap")?;
                    let len = varint::read(r, "ack range len")?;
                    let end = smallest.checked_sub(gap + 2).ok_or(WireError::Malformed {
                        context: "ack gap underflow",
                    })?;
                    let start = end.checked_sub(len).ok_or(WireError::Malformed {
                        context: "ack range underflow",
                    })?;
                    ranges.push(AckRange::new(start, end));
                    smallest = start;
                }
                if ty == 0x03 {
                    for _ in 0..3 {
                        varint::read(r, "ack ecn count")?;
                    }
                }
                Ok(Frame::Ack {
                    largest,
                    delay_us,
                    ranges,
                })
            }
            0x06 => {
                let offset = varint::read(r, "crypto offset")?;
                let len = varint::read(r, "crypto len")? as usize;
                let data = r.read_bytes(len, "crypto data")?.to_vec();
                Ok(Frame::Crypto { offset, data })
            }
            0x08..=0x0f => {
                let has_off = ty & 0x04 != 0;
                let has_len = ty & 0x02 != 0;
                let fin = ty & 0x01 != 0;
                let id = varint::read(r, "stream id")?;
                let offset = if has_off {
                    varint::read(r, "stream offset")?
                } else {
                    0
                };
                let data = if has_len {
                    let len = varint::read(r, "stream len")? as usize;
                    r.read_bytes(len, "stream data")?.to_vec()
                } else {
                    r.read_rest().to_vec()
                };
                Ok(Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
                })
            }
            0x18 => {
                let seq = varint::read(r, "ncid seq")?;
                let len = usize::from(r.read_u8("ncid len")?);
                let cid = r.read_bytes(len, "ncid cid")?.to_vec();
                Ok(Frame::NewConnectionId { seq, cid })
            }
            0x1c | 0x1d => {
                let error_code = varint::read(r, "close code")?;
                let len = varint::read(r, "close reason len")? as usize;
                let reason =
                    String::from_utf8_lossy(r.read_bytes(len, "close reason")?).into_owned();
                Ok(Frame::ConnectionClose { error_code, reason })
            }
            0x1e => Ok(Frame::HandshakeDone),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }

    pub fn decode_all(payload: &[u8]) -> Result<Vec<Frame>, WireError> {
        let mut r = Reader::new(payload);
        let mut frames = Vec::new();
        while !r.is_empty() {
            frames.push(decode(&mut r)?);
        }
        Ok(frames)
    }
}

/// Small deterministic generator for the frame soup.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Values spread over all four varint lengths.
    fn varint(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(64),
            1 => self.below(16_384),
            2 => self.below(1 << 30),
            _ => self.below(varint::MAX + 1),
        }
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max + 1))
            .map(|_| self.next() as u8)
            .collect()
    }

    fn ranges(&mut self) -> (u64, Vec<AckRange>) {
        let largest = 1_000 + self.below(1_000_000);
        let mut ranges = vec![AckRange::new(largest - self.below(500), largest)];
        for _ in 0..self.below(6) {
            let smallest = ranges.last().expect("first range").start;
            let gap = self.below(40);
            if smallest < gap + 2 {
                break;
            }
            let end = smallest - gap - 2;
            ranges.push(AckRange::new(end - self.below(end.min(300) + 1), end));
        }
        (largest, ranges)
    }

    fn frame(&mut self) -> Frame {
        match self.below(9) {
            0 => Frame::Padding {
                len: 1 + self.below(40) as usize,
            },
            1 => Frame::Ping,
            2 => {
                let (largest, ranges) = self.ranges();
                Frame::Ack {
                    largest,
                    delay_us: self.varint(),
                    ranges,
                }
            }
            3 => Frame::Crypto {
                offset: self.varint(),
                data: self.bytes(64),
            },
            4 | 5 => Frame::Stream {
                id: self.varint(),
                offset: self.varint(),
                fin: self.below(2) == 1,
                data: self.bytes(200),
            },
            6 => Frame::NewConnectionId {
                seq: self.varint(),
                cid: self.bytes(20),
            },
            7 => Frame::ConnectionClose {
                error_code: self.varint(),
                reason: "bye".repeat(self.below(4) as usize),
            },
            _ => Frame::HandshakeDone,
        }
    }

    /// A valid payload, with occasional raw frame-type variants the
    /// encoder never emits: ACK_ECN, and a final STREAM frame without
    /// OFF/LEN bits that runs to the end of the payload.
    fn payload(&mut self) -> Vec<u8> {
        let mut w = Writer::new();
        for _ in 0..1 + self.below(5) {
            if self.below(10) == 0 {
                w.write_u8(0x03);
                let largest = 100 + self.below(50);
                for v in [largest, self.varint(), 0, self.below(largest + 1)] {
                    varint::write(&mut w, v);
                }
                for _ in 0..3 {
                    varint::write(&mut w, self.varint());
                }
            } else {
                legacy::encode(&self.frame(), &mut w);
            }
        }
        if self.below(6) == 0 {
            w.write_u8(0x08 | self.below(2) as u8);
            varint::write(&mut w, self.varint());
            let data = self.bytes(30);
            w.write_bytes(&data);
        }
        w.into_bytes()
    }

    /// Flips, overwrites, inserts, deletes or truncates a few bytes.
    fn mutate(&mut self, bytes: &mut Vec<u8>) {
        for _ in 0..1 + self.below(3) {
            let at = self.below(bytes.len() as u64 + 1) as usize;
            match self.below(5) {
                0 if at < bytes.len() => bytes[at] ^= 1 << self.below(8),
                1 if at < bytes.len() => bytes[at] = self.next() as u8,
                2 => bytes.insert(at, self.next() as u8),
                3 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.truncate(at),
            }
        }
    }
}

/// Decodes through the borrowed decoder, walking every ACK range, so a
/// panic anywhere in decode or iteration surfaces.
fn decode_borrowed(payload: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut frames = Vec::new();
    for frame in Frames::new(payload) {
        let frame = frame?;
        if let FrameRef::Ack { ranges, .. } = frame {
            assert!(ranges.iter().count() >= 1);
        }
        frames.push(frame.to_owned());
    }
    Ok(frames)
}

fn check_decoders_agree(payload: &[u8]) {
    let expected = legacy::decode_all(payload);
    assert_eq!(decode_borrowed(payload), expected, "payload {payload:02x?}");
    assert_eq!(Frame::decode_all(payload), expected);
    // One frame at a time through `Frame::decode`, same reader positions.
    let (mut a, mut b) = (Reader::new(payload), Reader::new(payload));
    while !a.is_empty() {
        let (fa, fb) = (Frame::decode(&mut a), legacy::decode(&mut b));
        assert_eq!(fa, fb);
        if fa.is_err() {
            break;
        }
        assert_eq!(a.position(), b.position());
    }
    // A packet around the payload decodes iff every frame does.
    let mut datagram = vec![0x40 | 0x03, 0, 0, 0, 0];
    datagram.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    datagram.extend_from_slice(payload);
    let packet = PacketRef::decode(&datagram, 0);
    assert_eq!(packet.is_ok(), expected.is_ok());
    if let (Ok(packet), Ok(frames)) = (packet, expected) {
        let owned: Vec<Frame> = packet.frames().map(|f| f.to_owned()).collect();
        assert_eq!(owned, frames);
        assert_eq!(
            packet.is_ack_eliciting(),
            frames.iter().any(Frame::is_ack_eliciting)
        );
    }
}

proptest::proptest! {
    #[test]
    fn prop_arbitrary_bytes_decode_like_the_reference(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
    ) {
        check_decoders_agree(&bytes);
    }

    #[test]
    fn prop_valid_payloads_decode_like_the_reference(seed: u64) {
        let payload = Gen(seed).payload();
        proptest::prop_assert!(legacy::decode_all(&payload).is_ok());
        check_decoders_agree(&payload);
    }

    #[test]
    fn prop_mutated_payloads_decode_like_the_reference(seed: u64) {
        let mut g = Gen(seed);
        let mut payload = g.payload();
        g.mutate(&mut payload);
        check_decoders_agree(&payload);
    }

    #[test]
    fn prop_in_place_encoders_match_the_reference(seed: u64) {
        let mut g = Gen(seed);
        let (largest, ranges) = g.ranges();
        let delay_us = g.varint();
        let ack = Frame::Ack { largest, delay_us, ranges: ranges.clone() };
        let (id, offset, fin, data) = (g.varint(), g.varint(), g.below(2) == 1, g.bytes(300));
        let stream = Frame::Stream { id, offset, fin, data: data.clone() };
        let crypto = Frame::Crypto { offset, data: data.clone() };
        let padding = 1 + g.below(1_500) as usize;

        let mut expected = Writer::new();
        for f in [&ack, &stream, &crypto, &Frame::Padding { len: padding }] {
            legacy::encode(f, &mut expected);
        }
        let mut direct = Writer::new();
        encode_ack(&mut direct, largest, delay_us, ranges.iter().copied());
        encode_stream(&mut direct, id, offset, fin, &data);
        encode_crypto(&mut direct, offset, &data);
        encode_padding(&mut direct, padding);
        let mut owned = Writer::new();
        for f in [&ack, &stream, &crypto, &Frame::Padding { len: padding }] {
            f.encode(&mut owned);
        }
        proptest::prop_assert_eq!(direct.as_slice(), expected.as_slice());
        proptest::prop_assert_eq!(owned.as_slice(), expected.as_slice());
    }
}

#[test]
fn ack_ranges_borrow_and_iterate_descending() {
    let ranges = vec![
        AckRange::new(100, 100),
        AckRange::new(95, 97),
        AckRange::new(0, 10),
    ];
    let mut w = Writer::new();
    encode_ack(&mut w, 100, 7, ranges.iter().copied());
    let mut r = Reader::new(w.as_slice());
    match FrameRef::decode(&mut r).unwrap() {
        FrameRef::Ack {
            largest,
            delay_us,
            ranges: got,
        } => {
            assert_eq!((largest, delay_us), (100, 7));
            assert_eq!(got.iter().collect::<Vec<_>>(), ranges);
        }
        other => panic!("expected ACK, got {other:?}"),
    }
}

#[test]
fn malformed_frame_anywhere_rejects_the_packet() {
    let mut w = Writer::new();
    Frame::Ping.encode(&mut w);
    encode_stream(&mut w, 0, 0, false, b"abc");
    varint::write(&mut w, 0x42); // unknown frame type after two good frames
    let payload = w.into_bytes();
    let mut datagram = vec![0x40, 0, 0, 0, 0];
    datagram.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    datagram.extend_from_slice(&payload);
    assert_eq!(
        PacketRef::decode(&datagram, 0),
        Err(WireError::UnknownFrameType(0x42))
    );
}
