//! Full packets (header + frames) and packet-number arithmetic.

use crate::coding::{Reader, Writer};
use crate::error::WireError;
use crate::frame::{Frame, FrameRef, Frames};
use crate::header::Header;

/// A full, untruncated QUIC packet number (62-bit space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketNumber(u64);

impl PacketNumber {
    /// Creates a packet number.
    pub fn new(v: u64) -> Self {
        PacketNumber(v)
    }

    /// Returns the numeric value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Next packet number.
    pub fn next(self) -> Self {
        PacketNumber(self.0 + 1)
    }
}

impl From<u64> for PacketNumber {
    fn from(v: u64) -> Self {
        PacketNumber(v)
    }
}

impl core::fmt::Display for PacketNumber {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.0.fmt(f)
    }
}

/// Truncates a full packet number to `bytes` wire bytes (RFC 9000 §17.1).
pub fn truncate_packet_number(pn: u64, bytes: usize) -> u64 {
    assert!((1..=4).contains(&bytes), "pn length must be 1..=4");
    pn & ((1u64 << (8 * bytes)) - 1)
}

/// Expands a truncated packet number given the largest acknowledged /
/// received packet number (RFC 9000 Appendix A, reference algorithm).
pub fn expand_packet_number(truncated: u64, bytes: usize, largest: Option<u64>) -> u64 {
    assert!((1..=4).contains(&bytes), "pn length must be 1..=4");
    let pn_nbits = 8 * bytes as u32;
    let expected = largest.map(|l| l + 1).unwrap_or(0);
    let pn_win = 1u64 << pn_nbits;
    let pn_hwin = pn_win / 2;
    let pn_mask = pn_win - 1;
    let candidate = (expected & !pn_mask) | truncated;
    if candidate + pn_hwin <= expected && candidate + pn_win < (1u64 << 62) {
        candidate + pn_win
    } else if candidate > expected + pn_hwin && candidate >= pn_win {
        candidate - pn_win
    } else {
        candidate
    }
}

/// Decodes the header and the length prefix; returns the payload.
fn split_datagram(datagram: &[u8], cid_len: usize) -> Result<(Header, &[u8]), WireError> {
    let mut r = Reader::new(datagram);
    let header = Header::decode(&mut r, cid_len)?;
    let len = usize::from(r.read_u16("payload length")?);
    let payload = r.read_bytes(len, "payload")?;
    Ok((header, payload))
}

/// A decoded packet whose frames still borrow the datagram.
///
/// [`PacketRef::decode`] validates every frame before it returns, so a
/// receiver can act on the frames knowing the whole payload is well
/// formed — a malformed frame anywhere drops the packet before any of it
/// is processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRef<'a> {
    /// Packet header (long or short).
    pub header: Header,
    /// The validated frame payload.
    payload: &'a [u8],
    ack_eliciting: bool,
}

impl<'a> PacketRef<'a> {
    /// Decodes a datagram produced by [`Packet::encode`], checking every
    /// frame of the payload.
    pub fn decode(datagram: &'a [u8], cid_len: usize) -> Result<Self, WireError> {
        let (header, payload) = split_datagram(datagram, cid_len)?;
        let mut ack_eliciting = false;
        for frame in Frames::new(payload) {
            ack_eliciting |= frame?.is_ack_eliciting();
        }
        Ok(PacketRef {
            header,
            payload,
            ack_eliciting,
        })
    }

    /// The frames, in payload order.
    pub fn frames(&self) -> impl Iterator<Item = FrameRef<'a>> {
        Frames::new(self.payload).map(|f| f.expect("payload validated at decode"))
    }

    /// Whether any frame is ack-eliciting.
    pub fn is_ack_eliciting(&self) -> bool {
        self.ack_eliciting
    }
}

/// A decoded QUIC packet: header plus its frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Packet header (long or short).
    pub header: Header,
    /// The frames carried in the payload.
    pub frames: Vec<Frame>,
}

impl Packet {
    /// Encodes the packet into a datagram.
    ///
    /// A 2-byte big-endian payload length is written between header and
    /// frames so that decoding is self-delimiting without real AEAD
    /// framing. Real QUIC carries an explicit Length field in long headers
    /// and uses the UDP datagram boundary for short headers; the simulator
    /// transports exactly one packet per datagram, so this is equivalent.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(Vec::new())
    }

    /// Encodes the packet into `buf` (cleared first), reusing its
    /// allocation — senders can recycle delivered datagram buffers
    /// instead of allocating per packet.
    pub fn encode_into(&self, buf: Vec<u8>) -> Vec<u8> {
        Packet::encode_with(&self.header, buf, |w| {
            for frame in &self.frames {
                frame.encode(w);
            }
        })
    }

    /// Encodes a packet whose payload `frames` writes straight into the
    /// datagram: `header`, the payload length, then the payload, all in
    /// `buf` (cleared first). The writer passed to `frames` already holds
    /// the header, so `w.len()` is the datagram length so far.
    pub fn encode_with(header: &Header, buf: Vec<u8>, frames: impl FnOnce(&mut Writer)) -> Vec<u8> {
        // Single pass into one MTU-sized buffer: header, a length
        // placeholder, then the frames, back-patching the length. Avoids
        // the staging buffer (and its growth reallocations) a
        // payload-first encode would need.
        let mut w = Writer::from_vec(buf, 1500);
        header.encode(&mut w);
        let len_at = w.len();
        w.write_u16(0);
        let payload_start = w.len();
        frames(&mut w);
        let payload_len = w.len() - payload_start;
        assert!(payload_len <= usize::from(u16::MAX), "payload too large");
        w.patch_u16(len_at, payload_len as u16);
        w.into_bytes()
    }

    /// Decodes a datagram produced by [`Packet::encode`] into owned
    /// frames.
    pub fn decode(datagram: &[u8], cid_len: usize) -> Result<Self, WireError> {
        let (header, payload) = split_datagram(datagram, cid_len)?;
        let frames = Frame::decode_all(payload)?;
        Ok(Packet { header, frames })
    }

    /// Whether any frame is ack-eliciting.
    pub fn is_ack_eliciting(&self) -> bool {
        self.frames.iter().any(Frame::is_ack_eliciting)
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cid::ConnectionId;
    use crate::header::{LongHeader, LongType, ShortHeader};
    use crate::version::Version;

    #[test]
    fn truncate_masks_low_bytes() {
        assert_eq!(truncate_packet_number(0x1234_5678, 2), 0x5678);
        assert_eq!(truncate_packet_number(0xff, 1), 0xff);
        assert_eq!(truncate_packet_number(0x1_0000_0001, 4), 1);
    }

    #[test]
    fn expand_rfc9000_appendix_a_example() {
        // RFC 9000 A.3: largest_pn = 0xa82f30ea, truncated 0x9b32 (2 bytes)
        // expands to 0xa82f9b32.
        assert_eq!(
            expand_packet_number(0x9b32, 2, Some(0xa82f_30ea)),
            0xa82f_9b32
        );
    }

    #[test]
    fn expand_first_packet() {
        assert_eq!(expand_packet_number(0, 4, None), 0);
        assert_eq!(expand_packet_number(5, 1, None), 5);
    }

    #[test]
    fn expand_wraps_forward() {
        // largest = 0xff, truncated 0x00 in one byte → next window (0x100).
        assert_eq!(expand_packet_number(0x00, 1, Some(0xff)), 0x100);
    }

    #[test]
    fn expand_wraps_backward() {
        // largest = 0x100, truncated 0xff likely refers to 0xff not 0x1ff.
        assert_eq!(expand_packet_number(0xff, 1, Some(0x100)), 0xff);
    }

    #[test]
    fn packet_roundtrip_short() {
        let p = Packet {
            header: Header::Short(ShortHeader {
                spin: true,
                vec: 0,
                dcid: ConnectionId::from_u64(99),
                packet_number: PacketNumber::new(12),
            }),
            frames: vec![Frame::Ping, Frame::Padding { len: 4 }],
        };
        let bytes = p.encode();
        let back = Packet::decode(&bytes, 8).unwrap();
        assert_eq!(back, p);
        assert_eq!(p.encoded_len(), bytes.len());
    }

    #[test]
    fn packet_roundtrip_long() {
        let p = Packet {
            header: Header::Long(LongHeader {
                ty: LongType::Initial,
                version: Version::V1,
                dcid: ConnectionId::from_u64(1),
                scid: ConnectionId::from_u64(2),
                packet_number: Some(PacketNumber::new(0)),
            }),
            frames: vec![Frame::Crypto {
                offset: 0,
                data: b"hello".to_vec(),
            }],
        };
        let back = Packet::decode(&p.encode(), 8).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn ack_eliciting_propagates_from_frames() {
        let mut p = Packet {
            header: Header::Short(ShortHeader {
                spin: false,
                vec: 0,
                dcid: ConnectionId::EMPTY,
                packet_number: PacketNumber::new(0),
            }),
            frames: vec![Frame::Padding { len: 2 }],
        };
        assert!(!p.is_ack_eliciting());
        p.frames.push(Frame::Ping);
        assert!(p.is_ack_eliciting());
    }

    #[test]
    fn decode_rejects_truncated_datagram() {
        let p = Packet {
            header: Header::Short(ShortHeader {
                spin: false,
                vec: 0,
                dcid: ConnectionId::from_u64(7),
                packet_number: PacketNumber::new(3),
            }),
            frames: vec![Frame::Ping],
        };
        let mut bytes = p.encode();
        bytes.truncate(bytes.len() - 1);
        assert!(Packet::decode(&bytes, 8).is_err());
    }

    #[test]
    fn packet_number_ordering_and_next() {
        let a = PacketNumber::new(1);
        assert_eq!(a.next(), PacketNumber::new(2));
        assert!(a < a.next());
        assert_eq!(PacketNumber::from(9u64).value(), 9);
        assert_eq!(PacketNumber::new(5).to_string(), "5");
    }

    proptest::proptest! {
        #[test]
        fn prop_expand_inverts_truncate_within_window(
            largest in 0u64..1_000_000_000,
            delta in 0u64..100,
            bytes in 1usize..=4,
        ) {
            // A packet within half the window of largest+1 must recover exactly.
            let pn = largest + delta;
            let half_window = 1u64 << (8 * bytes - 1);
            proptest::prop_assume!(delta + 1 < half_window);
            let truncated = truncate_packet_number(pn, bytes);
            proptest::prop_assert_eq!(
                expand_packet_number(truncated, bytes, Some(largest)),
                pn
            );
        }
    }
}
