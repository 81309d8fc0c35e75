//! QUIC frames (RFC 9000 §19) — the subset the simulated endpoints use.
//!
//! There is one decoder, [`FrameRef::decode`]: it yields frames whose
//! payloads (STREAM and CRYPTO data, connection IDs, close reasons) and
//! ACK range section borrow the datagram, so the receive path copies no
//! bytes it does not keep. The owned [`Frame`] is that decode followed by
//! [`FrameRef::to_owned`].
//!
//! Encoding likewise has one implementation per frame type. The
//! free-standing encoders ([`encode_ack`], [`encode_stream`],
//! [`encode_crypto`], [`encode_padding`]) write straight from a
//! connection's own state — descending ranges, a slice of a send buffer —
//! and [`Frame::encode`] calls the same functions, so an owned frame and
//! a frame written in place produce the same bytes.

use crate::coding::{Reader, Writer};
use crate::error::WireError;
use crate::varint;

/// One contiguous range of acknowledged packet numbers, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRange {
    /// Smallest packet number in the range.
    pub start: u64,
    /// Largest packet number in the range.
    pub end: u64,
}

impl AckRange {
    /// Creates a range; panics if `start > end` (a programming error).
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "AckRange start {start} > end {end}");
        AckRange { start, end }
    }

    /// Number of packets covered.
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Ranges are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `pn` falls inside this range.
    pub fn contains(&self, pn: u64) -> bool {
        pn >= self.start && pn <= self.end
    }
}

/// The QUIC frames modelled by this stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// PADDING (type 0x00). `len` consecutive padding bytes.
    Padding {
        /// Number of padding bytes this entry represents.
        len: usize,
    },
    /// PING (type 0x01): elicits an ACK.
    Ping,
    /// ACK (type 0x02). Ranges are ordered descending by packet number, the
    /// first range containing `largest`.
    Ack {
        /// Largest packet number being acknowledged.
        largest: u64,
        /// ACK delay in microseconds (already scaled by ack_delay_exponent).
        delay_us: u64,
        /// Acknowledged ranges, descending, first contains `largest`.
        ranges: Vec<AckRange>,
    },
    /// CRYPTO (type 0x06): carries the simulated TLS handshake blobs.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Handshake payload bytes.
        data: Vec<u8>,
    },
    /// STREAM (types 0x08..=0x0f, always encoded with offset+len+fin bits).
    Stream {
        /// Stream ID.
        id: u64,
        /// Offset of `data` in the stream.
        offset: u64,
        /// Whether this frame ends the stream.
        fin: bool,
        /// Stream payload bytes.
        data: Vec<u8>,
    },
    /// NEW_CONNECTION_ID (type 0x18), simplified: sequence number + CID bytes.
    NewConnectionId {
        /// Sequence number of the issued CID.
        seq: u64,
        /// The issued connection ID bytes.
        cid: Vec<u8>,
    },
    /// CONNECTION_CLOSE (type 0x1c), transport error class.
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// HANDSHAKE_DONE (type 0x1e), server → client only.
    HandshakeDone,
}

/// A decoded frame borrowing its variable-length parts from the datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// PADDING: `len` consecutive padding bytes.
    Padding {
        /// Number of padding bytes.
        len: usize,
    },
    /// PING.
    Ping,
    /// ACK (or ACK_ECN, whose counts are skipped).
    Ack {
        /// Largest packet number being acknowledged.
        largest: u64,
        /// ACK delay in microseconds.
        delay_us: u64,
        /// The validated range section.
        ranges: AckRanges<'a>,
    },
    /// CRYPTO.
    Crypto {
        /// Offset in the crypto stream.
        offset: u64,
        /// Handshake payload bytes.
        data: &'a [u8],
    },
    /// STREAM.
    Stream {
        /// Stream ID.
        id: u64,
        /// Offset of `data` in the stream.
        offset: u64,
        /// Whether this frame ends the stream.
        fin: bool,
        /// Stream payload bytes.
        data: &'a [u8],
    },
    /// NEW_CONNECTION_ID.
    NewConnectionId {
        /// Sequence number of the issued CID.
        seq: u64,
        /// The issued connection ID bytes.
        cid: &'a [u8],
    },
    /// CONNECTION_CLOSE; the reason is raw bytes (not checked for UTF-8).
    ConnectionClose {
        /// Transport error code.
        error_code: u64,
        /// Reason phrase bytes.
        reason: &'a [u8],
    },
    /// HANDSHAKE_DONE.
    HandshakeDone,
}

/// The range section of a decoded ACK frame, validated at decode time:
/// iterating it yields the acknowledged ranges in descending order
/// without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRanges<'a> {
    /// The first range, which contains the largest acknowledged pn.
    first: AckRange,
    /// The (gap, length) varint pairs after the first range.
    rest: &'a [u8],
}

impl<'a> AckRanges<'a> {
    /// The ranges, descending by packet number.
    pub fn iter(&self) -> AckRangeIter<'a> {
        AckRangeIter {
            next: Some(self.first),
            rest: Reader::new(self.rest),
        }
    }
}

/// Iterator over [`AckRanges`].
#[derive(Debug, Clone)]
pub struct AckRangeIter<'a> {
    next: Option<AckRange>,
    rest: Reader<'a>,
}

/// The decoder checked every range before handing out an [`AckRanges`].
const RANGES_VALIDATED: &str = "ACK ranges validated at decode";

impl Iterator for AckRangeIter<'_> {
    type Item = AckRange;

    fn next(&mut self) -> Option<AckRange> {
        let range = self.next.take()?;
        if !self.rest.is_empty() {
            let gap = varint::read(&mut self.rest, "ack gap").expect(RANGES_VALIDATED);
            let len = varint::read(&mut self.rest, "ack range len").expect(RANGES_VALIDATED);
            let end = range.start - gap - 2;
            self.next = Some(AckRange::new(end - len, end));
        }
        Some(range)
    }
}

impl<'a> FrameRef<'a> {
    /// Decodes one frame. Consecutive PADDING bytes are coalesced.
    pub fn decode(r: &mut Reader<'a>) -> Result<Self, WireError> {
        let ty = varint::read(r, "frame type")?;
        match ty {
            0x00 => Ok(FrameRef::Padding {
                len: 1 + r.skip_zeros(),
            }),
            0x01 => Ok(FrameRef::Ping),
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
                let first = AckRange::new(largest - first_len, largest);
                let rest_at = r.position();
                let mut smallest = first.start;
                for _ in 0..range_count {
                    let gap = varint::read(r, "ack gap")?;
                    let len = varint::read(r, "ack range len")?;
                    let end = smallest.checked_sub(gap + 2).ok_or(WireError::Malformed {
                        context: "ack gap underflow",
                    })?;
                    smallest = end.checked_sub(len).ok_or(WireError::Malformed {
                        context: "ack range underflow",
                    })?;
                }
                let rest = r.consumed_since(rest_at);
                // Type 0x03 (ACK_ECN) carries three extra counts; skip them.
                if ty == 0x03 {
                    for _ in 0..3 {
                        varint::read(r, "ack ecn count")?;
                    }
                }
                Ok(FrameRef::Ack {
                    largest,
                    delay_us,
                    ranges: AckRanges { first, rest },
                })
            }
            0x06 => {
                let offset = varint::read(r, "crypto offset")?;
                let len = varint::read(r, "crypto len")? as usize;
                let data = r.read_bytes(len, "crypto data")?;
                Ok(FrameRef::Crypto { offset, data })
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
                    r.read_bytes(len, "stream data")?
                } else {
                    r.read_rest()
                };
                Ok(FrameRef::Stream {
                    id,
                    offset,
                    fin,
                    data,
                })
            }
            0x18 => {
                let seq = varint::read(r, "ncid seq")?;
                let len = usize::from(r.read_u8("ncid len")?);
                let cid = r.read_bytes(len, "ncid cid")?;
                Ok(FrameRef::NewConnectionId { seq, cid })
            }
            0x1c | 0x1d => {
                let error_code = varint::read(r, "close code")?;
                let len = varint::read(r, "close reason len")? as usize;
                let reason = r.read_bytes(len, "close reason")?;
                Ok(FrameRef::ConnectionClose { error_code, reason })
            }
            0x1e => Ok(FrameRef::HandshakeDone),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }

    /// Whether this frame is ack-eliciting (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            FrameRef::Ack { .. } | FrameRef::Padding { .. } | FrameRef::ConnectionClose { .. }
        )
    }

    /// Copies the borrowed parts out into an owned [`Frame`].
    pub fn to_owned(&self) -> Frame {
        match *self {
            FrameRef::Padding { len } => Frame::Padding { len },
            FrameRef::Ping => Frame::Ping,
            FrameRef::Ack {
                largest,
                delay_us,
                ranges,
            } => Frame::Ack {
                largest,
                delay_us,
                ranges: ranges.iter().collect(),
            },
            FrameRef::Crypto { offset, data } => Frame::Crypto {
                offset,
                data: data.to_vec(),
            },
            FrameRef::Stream {
                id,
                offset,
                fin,
                data,
            } => Frame::Stream {
                id,
                offset,
                fin,
                data: data.to_vec(),
            },
            FrameRef::NewConnectionId { seq, cid } => Frame::NewConnectionId {
                seq,
                cid: cid.to_vec(),
            },
            FrameRef::ConnectionClose { error_code, reason } => Frame::ConnectionClose {
                error_code,
                reason: String::from_utf8_lossy(reason).into_owned(),
            },
            FrameRef::HandshakeDone => Frame::HandshakeDone,
        }
    }
}

/// Iterator decoding the frames of a packet payload one by one; stops
/// after the first error.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    r: Reader<'a>,
    failed: bool,
}

impl<'a> Frames<'a> {
    /// Iterates the frames in `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Frames {
            r: Reader::new(payload),
            failed: false,
        }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<FrameRef<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.r.is_empty() {
            return None;
        }
        let frame = FrameRef::decode(&mut self.r);
        self.failed = frame.is_err();
        Some(frame)
    }
}

/// Writes `len` PADDING bytes.
pub fn encode_padding(w: &mut Writer, len: usize) {
    w.write_zeros(len);
}

/// Writes an ACK frame from `ranges`, which must be descending by packet
/// number with the first containing `largest`.
pub fn encode_ack<I>(w: &mut Writer, largest: u64, delay_us: u64, ranges: I)
where
    I: IntoIterator<Item = AckRange>,
    I::IntoIter: ExactSizeIterator,
{
    let mut ranges = ranges.into_iter();
    let count = ranges.len();
    let first = ranges.next().expect("ACK frame must carry >= 1 range");
    assert_eq!(
        first.end, largest,
        "first ACK range must contain the largest pn"
    );
    w.write_u8(0x02);
    varint::write(w, largest);
    varint::write(w, delay_us);
    varint::write(w, (count - 1) as u64);
    // First range: number of packets below `largest`, inclusive.
    varint::write(w, first.end - first.start);
    let mut smallest = first.start;
    for range in ranges {
        // Gap: packets between this range and the previous one, encoded
        // as gap-1 (RFC 9000 §19.3.1).
        varint::write(w, smallest - range.end - 2);
        varint::write(w, range.end - range.start);
        smallest = range.start;
    }
}

/// Writes a CRYPTO frame carrying `data` at `offset`.
pub fn encode_crypto(w: &mut Writer, offset: u64, data: &[u8]) {
    w.write_u8(0x06);
    varint::write(w, offset);
    varint::write(w, data.len() as u64);
    w.write_bytes(data);
}

/// Writes a STREAM frame (always with the offset and length fields).
pub fn encode_stream(w: &mut Writer, id: u64, offset: u64, fin: bool, data: &[u8]) {
    // 0x08 | OFF(0x04) | LEN(0x02) | FIN(0x01)
    w.write_u8(0x08 | 0x04 | 0x02 | u8::from(fin));
    varint::write(w, id);
    varint::write(w, offset);
    varint::write(w, data.len() as u64);
    w.write_bytes(data);
}

impl Frame {
    /// Whether this frame is ack-eliciting (RFC 9002 §2).
    pub fn is_ack_eliciting(&self) -> bool {
        !matches!(
            self,
            Frame::Ack { .. } | Frame::Padding { .. } | Frame::ConnectionClose { .. }
        )
    }

    /// Encodes the frame into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Padding { len } => encode_padding(w, *len),
            Frame::Ping => w.write_u8(0x01),
            Frame::Ack {
                largest,
                delay_us,
                ranges,
            } => encode_ack(w, *largest, *delay_us, ranges.iter().copied()),
            Frame::Crypto { offset, data } => encode_crypto(w, *offset, data),
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => encode_stream(w, *id, *offset, *fin, data),
            Frame::NewConnectionId { seq, cid } => {
                w.write_u8(0x18);
                varint::write(w, *seq);
                w.write_u8(cid.len() as u8);
                w.write_bytes(cid);
            }
            Frame::ConnectionClose { error_code, reason } => {
                w.write_u8(0x1c);
                varint::write(w, *error_code);
                varint::write(w, reason.len() as u64);
                w.write_bytes(reason.as_bytes());
            }
            Frame::HandshakeDone => w.write_u8(0x1e),
        }
    }

    /// Decodes one frame ([`FrameRef::decode`], then copied out).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        FrameRef::decode(r).map(|f| f.to_owned())
    }

    /// Decodes all frames in a packet payload.
    pub fn decode_all(payload: &[u8]) -> Result<Vec<Frame>, WireError> {
        // Typical packets carry 1-3 frames; start big enough to avoid the
        // early growth reallocations.
        let mut frames = Vec::with_capacity(4);
        for frame in Frames::new(payload) {
            frames.push(frame?.to_owned());
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) -> Frame {
        let mut w = Writer::new();
        f.encode(&mut w);
        let mut r = Reader::new(w.as_slice());
        let back = Frame::decode(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after {f:?}");
        back
    }

    #[test]
    fn ping_and_handshake_done() {
        assert_eq!(roundtrip(&Frame::Ping), Frame::Ping);
        assert_eq!(roundtrip(&Frame::HandshakeDone), Frame::HandshakeDone);
    }

    #[test]
    fn padding_coalesces() {
        let f = Frame::Padding { len: 17 };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn ack_single_range() {
        let f = Frame::Ack {
            largest: 100,
            delay_us: 25,
            ranges: vec![AckRange::new(90, 100)],
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn ack_multi_range_with_gaps() {
        // Acknowledge 100..=100, 95..=97, 0..=10.
        let f = Frame::Ack {
            largest: 100,
            delay_us: 0,
            ranges: vec![
                AckRange::new(100, 100),
                AckRange::new(95, 97),
                AckRange::new(0, 10),
            ],
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn ack_malformed_first_range_rejected() {
        // largest=5 but first range length 10.
        let mut w = Writer::new();
        w.write_u8(0x02);
        varint::write(&mut w, 5);
        varint::write(&mut w, 0);
        varint::write(&mut w, 0);
        varint::write(&mut w, 10);
        let mut r = Reader::new(w.as_slice());
        assert!(matches!(
            Frame::decode(&mut r),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn crypto_roundtrip() {
        let f = Frame::Crypto {
            offset: 123,
            data: b"client hello".to_vec(),
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn stream_roundtrip_with_fin() {
        for fin in [false, true] {
            let f = Frame::Stream {
                id: 0,
                offset: 42,
                fin,
                data: vec![1, 2, 3],
            };
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn connection_close_roundtrip() {
        let f = Frame::ConnectionClose {
            error_code: 0x0a,
            reason: "no error".into(),
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn new_connection_id_roundtrip() {
        let f = Frame::NewConnectionId {
            seq: 3,
            cid: vec![9; 8],
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut w = Writer::new();
        varint::write(&mut w, 0x42);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(
            Frame::decode(&mut r),
            Err(WireError::UnknownFrameType(0x42))
        );
    }

    #[test]
    fn ack_eliciting_classification() {
        assert!(Frame::Ping.is_ack_eliciting());
        assert!(Frame::Crypto {
            offset: 0,
            data: vec![]
        }
        .is_ack_eliciting());
        assert!(Frame::HandshakeDone.is_ack_eliciting());
        assert!(!Frame::Padding { len: 1 }.is_ack_eliciting());
        assert!(!Frame::Ack {
            largest: 0,
            delay_us: 0,
            ranges: vec![AckRange::new(0, 0)]
        }
        .is_ack_eliciting());
        assert!(!Frame::ConnectionClose {
            error_code: 0,
            reason: String::new()
        }
        .is_ack_eliciting());
    }

    #[test]
    fn decode_all_sequence() {
        let mut w = Writer::new();
        Frame::Ping.encode(&mut w);
        Frame::Padding { len: 3 }.encode(&mut w);
        Frame::HandshakeDone.encode(&mut w);
        let frames = Frame::decode_all(w.as_slice()).unwrap();
        assert_eq!(
            frames,
            vec![Frame::Ping, Frame::Padding { len: 3 }, Frame::HandshakeDone]
        );
    }

    #[test]
    fn ack_range_contains_and_len() {
        let r = AckRange::new(5, 9);
        assert_eq!(r.len(), 5);
        assert!(r.contains(5) && r.contains(9) && r.contains(7));
        assert!(!r.contains(4) && !r.contains(10));
        assert!(!r.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_ack_roundtrip(
            // Build random descending, disjoint ranges.
            seed_ranges in proptest::collection::vec((0u64..1000, 1u64..50), 1..8)
        ) {
            // Construct disjoint descending ranges from random (gap, len) pairs.
            let mut ranges = Vec::new();
            let mut cursor: u64 = 100_000;
            for (gap, len) in seed_ranges {
                let end = cursor.saturating_sub(gap + 2);
                let start = end.saturating_sub(len);
                if end == 0 || start == 0 { break; }
                ranges.push(AckRange::new(start, end));
                cursor = start;
            }
            proptest::prop_assume!(!ranges.is_empty());
            let f = Frame::Ack {
                largest: ranges[0].end,
                delay_us: 17,
                ranges: ranges.clone(),
            };
            proptest::prop_assert_eq!(roundtrip(&f), f);
        }

        #[test]
        fn prop_stream_roundtrip(
            id in 0u64..1000,
            offset in 0u64..1_000_000,
            fin in proptest::prelude::any::<bool>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let f = Frame::Stream { id, offset, fin, data };
            proptest::prop_assert_eq!(roundtrip(&f), f);
        }
    }
}
