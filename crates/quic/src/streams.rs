//! Minimal stream machinery: ordered byte streams with FIN, enough for an
//! HTTP/3-style request/response exchange (plus retransmission support).
//!
//! The send half keeps every byte written, so a STREAM frame is just a
//! [`StreamRange`] of it: the packet builder copies the bytes straight
//! into the datagram, the sent ledger stores the range, and a lost range
//! is re-read from the same buffer. The receive half appends in-order
//! bytes to its assembly buffer and copies only out-of-order segments
//! into its reassembly map; delivered buffers can be handed back with
//! [`StreamSet::recycle`] to assemble the next bytes.

use std::collections::BTreeMap;

/// The bytes `offset..offset + len` of stream `id`, as one STREAM frame
/// carries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRange {
    /// Stream ID.
    pub id: u64,
    /// Stream offset of the first byte.
    pub offset: u64,
    /// Number of bytes.
    pub len: usize,
    /// Whether the frame ends the stream.
    pub fin: bool,
}

/// Sending half of one stream.
#[derive(Debug, Clone, Default)]
struct SendStream {
    /// Every byte written so far, from stream offset 0. Sent bytes stay:
    /// a lost frame is retransmitted by re-reading its range.
    data: Vec<u8>,
    /// Bytes of `data` already packetized once.
    sent: usize,
    /// FIN requested by the application.
    fin_queued: bool,
    /// FIN has been packetized.
    fin_sent: bool,
    /// Lost ranges awaiting retransmission: (offset, len, fin). Served
    /// last-in first-out, before fresh data.
    retransmit: Vec<(u64, usize, bool)>,
}

/// Receiving half of one stream.
#[derive(Debug, Clone, Default)]
struct RecvStream {
    /// Out-of-order segments by offset.
    segments: BTreeMap<u64, Vec<u8>>,
    /// Contiguously assembled prefix not yet delivered to the app.
    assembled: Vec<u8>,
    /// Next offset expected into `assembled`.
    next_offset: u64,
    /// Total stream length once FIN is known.
    fin_at: Option<u64>,
    /// FIN already delivered to the app.
    fin_delivered: bool,
}

/// Recycled assembly buffers kept at most.
const SPARE_BUFFERS: usize = 4;

/// All streams of a connection.
#[derive(Debug, Clone, Default)]
pub struct StreamSet {
    send: BTreeMap<u64, SendStream>,
    recv: BTreeMap<u64, RecvStream>,
    /// Delivered buffers handed back for reuse as assembly buffers.
    spare: Vec<Vec<u8>>,
}

impl StreamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        StreamSet::default()
    }

    /// Queues application data (and optionally FIN) on a stream.
    pub fn write(&mut self, id: u64, data: &[u8], fin: bool) {
        let s = self.send.entry(id).or_default();
        assert!(!s.fin_queued, "write after FIN on stream {id}");
        s.data.extend_from_slice(data);
        if fin {
            s.fin_queued = true;
        }
    }

    /// Whether any stream has data or FIN waiting to be packetized.
    pub fn has_pending(&self) -> bool {
        self.send.values().any(|s| {
            s.data.len() > s.sent || !s.retransmit.is_empty() || (s.fin_queued && !s.fin_sent)
        })
    }

    /// Picks the next STREAM frame, up to `max_len` payload bytes; read
    /// its bytes with [`StreamSet::bytes`]. Retransmissions are served
    /// before fresh data.
    pub fn next_frame(&mut self, max_len: usize) -> Option<StreamRange> {
        for (&id, s) in self.send.iter_mut() {
            // Retransmissions first: resend the lost range verbatim
            // (splitting if it exceeds max_len).
            if let Some((offset, len, fin)) = s.retransmit.pop() {
                if len > max_len {
                    s.retransmit
                        .push((offset + max_len as u64, len - max_len, fin));
                    return Some(StreamRange {
                        id,
                        offset,
                        len: max_len,
                        fin: false,
                    });
                }
                return Some(StreamRange {
                    id,
                    offset,
                    len,
                    fin,
                });
            }
            let unsent = s.data.len() - s.sent;
            if unsent == 0 && (!s.fin_queued || s.fin_sent) {
                continue;
            }
            let len = unsent.min(max_len);
            let offset = s.sent as u64;
            s.sent += len;
            let fin = s.fin_queued && s.sent == s.data.len();
            if fin {
                s.fin_sent = true;
            }
            return Some(StreamRange {
                id,
                offset,
                len,
                fin,
            });
        }
        None
    }

    /// The bytes of a range handed out by [`StreamSet::next_frame`].
    pub fn bytes(&self, range: &StreamRange) -> &[u8] {
        let data = &self.send[&range.id].data;
        &data[range.offset as usize..][..range.len]
    }

    /// Re-queues a lost STREAM frame's range for retransmission at its
    /// original offset.
    pub fn requeue(&mut self, range: StreamRange) {
        let s = self.send.entry(range.id).or_default();
        if range.len > 0 || range.fin {
            s.retransmit.push((range.offset, range.len, range.fin));
        }
    }

    /// Ingests a received STREAM frame. In-order bytes are appended to the
    /// assembly buffer; only out-of-order segments are copied into the
    /// reassembly map.
    pub fn on_frame(&mut self, id: u64, offset: u64, data: &[u8], fin: bool) {
        let s = self.recv.entry(id).or_default();
        let end = offset + data.len() as u64;
        if fin {
            s.fin_at = Some(end);
        }
        if !data.is_empty() && end > s.next_offset {
            if offset <= s.next_offset {
                let skip = (s.next_offset - offset) as usize;
                s.assembled.extend_from_slice(&data[skip..]);
                s.next_offset = end;
            } else {
                s.segments.insert(offset, data.to_vec());
            }
        }
        // Assemble the contiguous prefix.
        while let Some((&seg_offset, _)) = s.segments.range(..=s.next_offset).next_back() {
            let seg = s.segments.remove(&seg_offset).expect("segment exists");
            let seg_end = seg_offset + seg.len() as u64;
            if seg_end <= s.next_offset {
                continue; // fully duplicate
            }
            let skip = (s.next_offset - seg_offset) as usize;
            s.assembled.extend_from_slice(&seg[skip..]);
            s.next_offset = seg_end;
        }
    }

    /// Reads newly assembled data; returns `(data, fin_reached)`.
    /// Returns `None` when nothing new is available. The stream goes on
    /// assembling into a recycled buffer when one is available.
    pub fn read(&mut self, id: u64) -> Option<(Vec<u8>, bool)> {
        let s = self.recv.get_mut(&id)?;
        let fin_now = s.fin_at == Some(s.next_offset) && !s.fin_delivered;
        if s.assembled.is_empty() && !fin_now {
            return None;
        }
        let data = std::mem::replace(&mut s.assembled, self.spare.pop().unwrap_or_default());
        if fin_now {
            s.fin_delivered = true;
        }
        Some((data, fin_now))
    }

    /// Hands back a buffer returned by [`StreamSet::read`] so a later
    /// read reuses its allocation.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < SPARE_BUFFERS && buf.capacity() > 0 {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// Total bytes received in order on a stream.
    pub fn bytes_received(&self, id: u64) -> u64 {
        self.recv.get(&id).map_or(0, |s| s.next_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next frame as (id, offset, fin, bytes).
    fn next(s: &mut StreamSet, max_len: usize) -> Option<(u64, u64, bool, Vec<u8>)> {
        let r = s.next_frame(max_len)?;
        Some((r.id, r.offset, r.fin, s.bytes(&r).to_vec()))
    }

    #[test]
    fn write_then_packetize() {
        let mut s = StreamSet::new();
        s.write(0, b"hello world", true);
        assert!(s.has_pending());
        assert_eq!(next(&mut s, 5), Some((0, 0, false, b"hello".to_vec())));
        assert_eq!(next(&mut s, 100), Some((0, 5, true, b" world".to_vec())));
        assert!(!s.has_pending());
        assert!(s.next_frame(100).is_none());
    }

    #[test]
    fn fin_only_frame() {
        let mut s = StreamSet::new();
        s.write(4, b"", true);
        assert_eq!(next(&mut s, 100), Some((4, 0, true, vec![])));
    }

    #[test]
    fn in_order_receive_and_read() {
        let mut s = StreamSet::new();
        s.on_frame(0, 0, b"abc", false);
        s.on_frame(0, 3, b"def", true);
        let (data, fin) = s.read(0).unwrap();
        assert_eq!(data, b"abcdef");
        assert!(fin);
        assert!(s.read(0).is_none());
        assert_eq!(s.bytes_received(0), 6);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut s = StreamSet::new();
        s.on_frame(0, 3, b"def", true);
        assert!(s.read(0).is_none(), "gap: nothing readable yet");
        s.on_frame(0, 0, b"abc", false);
        let (data, fin) = s.read(0).unwrap();
        assert_eq!(data, b"abcdef");
        assert!(fin);
    }

    #[test]
    fn duplicate_and_overlapping_segments() {
        let mut s = StreamSet::new();
        s.on_frame(0, 0, b"abcd", false);
        s.on_frame(0, 0, b"abcd", false); // full duplicate
        s.on_frame(0, 2, b"cdef", true); // overlap
        let (data, fin) = s.read(0).unwrap();
        assert_eq!(data, b"abcdef");
        assert!(fin);
    }

    #[test]
    fn fin_without_data_read() {
        let mut s = StreamSet::new();
        s.on_frame(2, 0, b"", true);
        let (data, fin) = s.read(2).unwrap();
        assert!(data.is_empty());
        assert!(fin);
        assert!(s.read(2).is_none(), "fin delivered once");
    }

    #[test]
    fn recycled_buffers_assemble_later_reads() {
        let mut s = StreamSet::new();
        s.on_frame(0, 0, b"abc", false);
        let (first, _) = s.read(0).unwrap();
        let ptr = first.as_ptr();
        s.recycle(first);
        s.on_frame(0, 3, b"def", false);
        let (second, _) = s.read(0).unwrap();
        assert_eq!(second, b"def");
        s.on_frame(0, 6, b"ghi", false);
        let (third, _) = s.read(0).unwrap();
        assert_eq!((third.as_slice(), third.as_ptr()), (&b"ghi"[..], ptr));
    }

    #[test]
    fn requeue_retransmits_lost_frame() {
        let mut s = StreamSet::new();
        s.write(0, b"abcdef", true);
        let f1 = s.next_frame(3).unwrap(); // "abc"
        let _f2 = s.next_frame(3).unwrap(); // "def" + fin
        s.requeue(f1); // f1 is lost
        assert_eq!(next(&mut s, 100), Some((0, 0, false, b"abc".to_vec())));
    }

    #[test]
    fn requeue_splits_at_max_len_and_keeps_fin_on_the_tail() {
        let mut s = StreamSet::new();
        s.write(0, b"abcdef", true);
        let f = s.next_frame(100).unwrap();
        s.requeue(f);
        assert_eq!(next(&mut s, 4), Some((0, 0, false, b"abcd".to_vec())));
        assert_eq!(next(&mut s, 4), Some((0, 4, true, b"ef".to_vec())));
        assert!(s.next_frame(4).is_none());
    }

    #[test]
    fn requeue_fin_restores_fin() {
        let mut s = StreamSet::new();
        s.write(0, b"xy", true);
        let f = s.next_frame(100).unwrap();
        assert!(f.fin);
        s.requeue(f);
        assert_eq!(next(&mut s, 100), Some((0, 0, true, b"xy".to_vec())));
    }

    #[test]
    fn multiple_streams_round_robin_by_id() {
        let mut s = StreamSet::new();
        s.write(4, b"b", false);
        s.write(0, b"a", false);
        assert_eq!(s.next_frame(100).unwrap().id, 0, "lowest id first");
    }

    #[test]
    #[should_panic(expected = "write after FIN")]
    fn write_after_fin_panics() {
        let mut s = StreamSet::new();
        s.write(0, b"a", true);
        s.write(0, b"b", false);
    }

    proptest::proptest! {
        #[test]
        fn prop_reassembly_any_order(chunks in proptest::collection::vec(
            proptest::collection::vec(proptest::prelude::any::<u8>(), 1..20), 1..10
        ), perm_seed: u64) {
            // Build the reference byte stream and its (offset, data) chunks.
            let mut offset = 0u64;
            let mut pieces = Vec::new();
            let mut reference = Vec::new();
            for c in &chunks {
                pieces.push((offset, c.clone()));
                reference.extend_from_slice(c);
                offset += c.len() as u64;
            }
            // Shuffle deterministically.
            let mut state = perm_seed.wrapping_add(1);
            for i in (1..pieces.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                pieces.swap(i, j);
            }
            let mut s = StreamSet::new();
            let total = reference.len() as u64;
            for (off, data) in &pieces {
                let is_last_piece = *off + data.len() as u64 == total;
                s.on_frame(0, *off, data, is_last_piece);
            }
            let (data, fin) = s.read(0).unwrap();
            proptest::prop_assert_eq!(data, reference);
            proptest::prop_assert!(fin);
        }
    }
}
