//! Binary wire format for location events, and the workspace's one
//! byte cursor.
//!
//! The cluster (router → worker → coordinator) moves plans and events
//! between processes over the same transport the query server uses:
//! 4-byte **big-endian** length-prefixed frames. Payloads here are
//! binary — integers little-endian, floats as raw IEEE-754 bits — so a
//! decoded event is *bit-identical* to the one encoded, which the
//! cluster's digest gate depends on.
//!
//! The module provides two layers:
//!
//! 1. byte framing ([`write_frame`] / [`read_frame`]) with an explicit
//!    `max_frame_len` — the length prefix is untrusted input, so the
//!    limit is checked *before* any allocation and an oversized prefix
//!    surfaces as a typed [`OversizedFrame`] error the caller can
//!    answer before closing;
//! 2. the payload cursor — [`PayloadReader`] and the `put_*` writers —
//!    with the [`LocationEvent`] codec and the per-epoch event frames
//!    of [`WireEventSink`] / [`decode_event_frame`] on top of it.
//!
//! Engine checkpoints (`rfid_core::engine::checkpoint`) and WAL records
//! (`rfid_serve::log`) are written and read with the same `put_*` /
//! [`PayloadReader`] calls inside their own envelopes, so every binary
//! format in the workspace answers a hostile element count the same
//! way: [`PayloadReader::count_u32`] / [`PayloadReader::count_u64`]
//! refuse a count larger than the bytes that remain *before* anything
//! is allocated for it.
//!
//! [`merge_by_tag`] is the one k-way merge in global tag order that the
//! cluster head (support rows) and the coordinator (events, via
//! [`merge_events_by_tag`]) both use.

use crate::pipeline::EventSink;
use crate::{Epoch, EventStats, LocationEvent, TagId};
use rfid_geom::{Point3, Pose};
use std::io::{self, Read, Write};

/// Default frame-size cap, matching the query server's.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 4 << 20;

/// A frame announced a length above the configured cap. Carried as the
/// source of an [`io::ErrorKind::InvalidData`] error so servers can
/// downcast and answer with a typed error before closing, instead of
/// allocating for (or silently dying on) a corrupt prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame {
    pub len: u32,
    pub max: u32,
}

impl std::fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame of {} bytes exceeds the {}-byte limit",
            self.len, self.max
        )
    }
}

impl std::error::Error for OversizedFrame {}

impl OversizedFrame {
    /// Recovers the typed error from an [`io::Error`], if that is what
    /// it carries.
    pub fn from_io(err: &io::Error) -> Option<Self> {
        err.get_ref()?.downcast_ref::<Self>().copied()
    }

    /// Wraps into the [`io::Error`] that [`read_frame`] returns.
    pub(crate) fn into_io(self) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, self)
    }
}

/// Writes one length-prefixed binary frame. Refuses payloads above
/// `max` (the peer would drop them).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: u32) -> io::Result<()> {
    if payload.len() > max as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {max}-byte limit",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed binary frame. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; EOF inside a frame is
/// [`io::ErrorKind::UnexpectedEof`]; a length prefix above `max` is an
/// [`OversizedFrame`] error raised *before* any allocation.
pub fn read_frame<R: Read>(r: &mut R, max: u32) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            // EOF *before* the prefix is a clean end of stream; EOF
            // *inside* it is a truncated frame and must be loud
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > max {
        return Err(OversizedFrame { len, max }.into_io());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// payload codec
// ---------------------------------------------------------------------

/// A truncated or malformed payload (distinct from transport errors:
/// the frame arrived whole but its contents don't parse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormatError {
    /// The payload ended before the field being decoded.
    Truncated,
    /// An unknown discriminant byte.
    BadTag(u8),
    /// Decoding finished with bytes left over.
    TrailingBytes(usize),
    /// A length-prefixed string field held invalid UTF-8.
    BadString,
}

impl std::fmt::Display for WireFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFormatError::Truncated => write!(f, "payload truncated"),
            WireFormatError::BadTag(t) => write!(f, "unknown discriminant byte {t:#04x}"),
            WireFormatError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireFormatError::BadString => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireFormatError {}

impl From<WireFormatError> for io::Error {
    fn from(e: WireFormatError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Cursor over a received payload; every getter checks bounds.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireFormatError> {
        Ok(self.bytes(N)?.try_into().expect("slice of length N"))
    }

    pub fn u8(&mut self) -> Result<u8, WireFormatError> {
        Ok(self.take::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireFormatError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    pub fn u64(&mut self) -> Result<u64, WireFormatError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Raw IEEE-754 bits — the decoded value is bit-identical.
    pub fn f64(&mut self) -> Result<f64, WireFormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn point(&mut self) -> Result<Point3, WireFormatError> {
        Ok(Point3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    pub fn pose(&mut self) -> Result<Pose, WireFormatError> {
        let pos = self.point()?;
        let phi = self.f64()?;
        // field construction, not Pose::new: re-normalizing phi could
        // flip the sign bit of an encoded -pi
        Ok(Pose { pos, phi })
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireFormatError> {
        let end = self.pos.checked_add(n).ok_or(WireFormatError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(WireFormatError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// A length-prefixed UTF-8 string (the [`put_str`] counterpart).
    pub fn str_field(&mut self) -> Result<&'a str, WireFormatError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| WireFormatError::BadString)
    }

    /// A `u32` element count, refused when it exceeds the bytes that
    /// remain: every element takes at least one byte, so such a count
    /// is a truncated (or hostile) payload. Call it before
    /// `with_capacity` — the count is outside input.
    pub fn count_u32(&mut self) -> Result<usize, WireFormatError> {
        let n = self.u32()?;
        self.check_count(n.into())
    }

    /// [`count_u32`](Self::count_u32) for the `u64` counts checkpoints
    /// carry.
    pub fn count_u64(&mut self) -> Result<usize, WireFormatError> {
        let n = self.u64()?;
        self.check_count(n)
    }

    fn check_count(&self, n: u64) -> Result<usize, WireFormatError> {
        if n > self.remaining() as u64 {
            return Err(WireFormatError::Truncated);
        }
        Ok(n as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), WireFormatError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireFormatError::TrailingBytes(n)),
        }
    }
}

pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Raw IEEE-754 bits — round-trips bit-identically.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A length-prefixed UTF-8 string ([`PayloadReader::str_field`]
/// decodes it).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub fn put_point(out: &mut Vec<u8>, p: &Point3) {
    put_f64(out, p.x);
    put_f64(out, p.y);
    put_f64(out, p.z);
}

pub fn put_pose(out: &mut Vec<u8>, p: &Pose) {
    put_point(out, &p.pos);
    put_f64(out, p.phi);
}

/// Encodes one location event (bit-exact floats).
pub fn encode_event(e: &LocationEvent, out: &mut Vec<u8>) {
    put_u64(out, e.epoch.0);
    put_u64(out, e.tag.0);
    put_point(out, &e.location);
    match &e.stats {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_f64(out, s.support);
            put_f64(out, s.var[0]);
            put_f64(out, s.var[1]);
            put_f64(out, s.var[2]);
        }
    }
}

/// Decodes one location event.
pub fn decode_event(r: &mut PayloadReader<'_>) -> Result<LocationEvent, WireFormatError> {
    let epoch = Epoch(r.u64()?);
    let tag = TagId(r.u64()?);
    let location = r.point()?;
    let stats = match r.u8()? {
        0 => None,
        1 => Some(EventStats {
            support: r.f64()?,
            var: [r.f64()?, r.f64()?, r.f64()?],
        }),
        t => return Err(WireFormatError::BadTag(t)),
    };
    Ok(LocationEvent {
        epoch,
        tag,
        location,
        stats,
    })
}

// ---------------------------------------------------------------------
// pipeline adapters
// ---------------------------------------------------------------------

/// Event-frame kinds written by [`WireEventSink`].
pub const EVENTS_EPOCH: u8 = 0;
pub const EVENTS_FINAL: u8 = 1;

/// An [`EventSink`] that writes one event frame per completed epoch —
/// `kind, epoch, count, events` — and a final frame on finish, even
/// when empty: the receiving coordinator uses the per-epoch frames as
/// barriers for its global tag-order merge. I/O errors are latched
/// (the [`EventSink`] methods are infallible) and surfaced via
/// [`WireEventSink::io_error`].
#[derive(Debug)]
pub struct WireEventSink<W: Write> {
    w: W,
    buf: Vec<u8>,
    pending: u32,
    last_epoch: u64,
    error: Option<io::Error>,
    max_frame_len: u32,
}

impl<W: Write> WireEventSink<W> {
    pub fn new(w: W) -> Self {
        Self {
            w,
            buf: Vec::new(),
            pending: 0,
            last_epoch: 0,
            error: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }

    /// The first I/O error, if any (the sink stops writing after it).
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn write_events_frame(&mut self, kind: u8, epoch: Epoch) {
        if self.error.is_some() {
            return;
        }
        let mut frame = Vec::with_capacity(self.buf.len() + 16);
        put_u8(&mut frame, kind);
        put_u64(&mut frame, epoch.0);
        put_u32(&mut frame, self.pending);
        frame.extend_from_slice(&self.buf);
        let res =
            write_frame(&mut self.w, &frame, self.max_frame_len).and_then(|()| self.w.flush());
        if let Err(e) = res {
            self.error = Some(e);
        }
        self.buf.clear();
        self.pending = 0;
    }
}

impl<W: Write> EventSink for WireEventSink<W> {
    fn on_event(&mut self, event: &LocationEvent) {
        encode_event(event, &mut self.buf);
        self.pending += 1;
        self.last_epoch = self.last_epoch.max(event.epoch.0);
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.last_epoch = self.last_epoch.max(epoch.0);
        self.write_events_frame(EVENTS_EPOCH, epoch);
    }

    fn on_finish(&mut self) {
        self.write_events_frame(EVENTS_FINAL, Epoch(self.last_epoch));
    }
}

/// One decoded event frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EventFrame {
    pub kind: u8,
    pub epoch: Epoch,
    pub events: Vec<LocationEvent>,
}

/// Decodes one frame produced by [`WireEventSink`].
pub fn decode_event_frame(payload: &[u8]) -> Result<EventFrame, WireFormatError> {
    let mut r = PayloadReader::new(payload);
    let kind = r.u8()?;
    if kind != EVENTS_EPOCH && kind != EVENTS_FINAL {
        return Err(WireFormatError::BadTag(kind));
    }
    let epoch = Epoch(r.u64()?);
    let count = r.count_u32()?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        events.push(decode_event(&mut r)?);
    }
    r.finish()?;
    Ok(EventFrame {
        kind,
        epoch,
        events,
    })
}

/// K-way merges per-worker lists into **global tag order** — the
/// canonical order every cross-worker effect of the cluster is folded
/// in (worker order changes with the worker count; tag order does
/// not). Each input list must be sorted by `key`; the workers own
/// disjoint tag sets, so the merged order is the single-process order.
/// Items are handed to `push` by reference.
pub fn merge_by_tag<'a, T>(
    lists: &'a [Vec<T>],
    key: impl Fn(&T) -> TagId,
    mut push: impl FnMut(&'a T),
) {
    let mut pos = vec![0usize; lists.len()];
    loop {
        let mut best: Option<(TagId, usize)> = None;
        for (i, list) in lists.iter().enumerate() {
            if let Some(item) = list.get(pos[i]) {
                let tag = key(item);
                if best.is_none_or(|(b, _)| tag < b) {
                    best = Some((tag, i));
                }
            }
        }
        let Some((_, i)) = best else { break };
        push(&lists[i][pos[i]]);
        pos[i] += 1;
    }
}

/// [`merge_by_tag`] over per-worker event lists (every per-epoch and
/// final list the engine emits is sorted by tag), appending to `out`:
/// the merged order is the single-process emission order.
pub fn merge_events_by_tag(lists: &[Vec<LocationEvent>], out: &mut Vec<LocationEvent>) {
    merge_by_tag(lists, |e| e.tag, |e| out.push(*e));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(epoch: u64, tag: u64, x: f64) -> LocationEvent {
        LocationEvent::new(
            Epoch(epoch),
            TagId(tag),
            Point3::new(x, -0.0, f64::MIN_POSITIVE),
        )
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc", 64).unwrap();
        write_frame(&mut buf, b"", 64).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some(&b"abc"[..])
        );
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_typed_and_preallocation() {
        // a 3 GiB announcement must fail before any allocation
        let mut buf = Vec::new();
        buf.extend_from_slice(&(3u32 << 30).to_be_bytes());
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(
            OversizedFrame::from_io(&err),
            Some(OversizedFrame {
                len: 3 << 30,
                max: 1024
            })
        );
    }

    #[test]
    fn truncation_at_every_byte_boundary_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload", 64).unwrap();
        for cut in 0..full.len() {
            let mut r = io::Cursor::new(full[..cut].to_vec());
            match read_frame(&mut r, 64) {
                Ok(None) => assert_eq!(cut, 0, "only an empty stream is a clean EOF"),
                Ok(Some(_)) => panic!("cut at {cut} produced a frame"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            }
        }
    }

    #[test]
    fn events_round_trip_bit_exact() {
        let events = vec![
            ev(3, 7, 1.5),
            LocationEvent::new(Epoch(4), TagId(8), Point3::new(0.1, 0.2, 0.3)).with_stats(
                EventStats {
                    var: [f64::EPSILON, 2.0, -0.0],
                    support: 123.456,
                },
            ),
        ];
        let mut buf = Vec::new();
        for e in &events {
            encode_event(e, &mut buf);
        }
        let mut r = PayloadReader::new(&buf);
        for e in &events {
            let d = decode_event(&mut r).unwrap();
            assert_eq!(d.epoch, e.epoch);
            assert_eq!(d.tag, e.tag);
            assert_eq!(d.location.x.to_bits(), e.location.x.to_bits());
            assert_eq!(d.location.y.to_bits(), e.location.y.to_bits());
            assert_eq!(d.location.z.to_bits(), e.location.z.to_bits());
            match (d.stats, e.stats) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.support.to_bits(), b.support.to_bits());
                    for k in 0..3 {
                        assert_eq!(a.var[k].to_bits(), b.var[k].to_bits());
                    }
                }
                _ => panic!("stats presence changed"),
            }
        }
        r.finish().unwrap();
    }

    #[test]
    fn counts_above_the_remaining_bytes_are_refused() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0; 3]);
        assert_eq!(PayloadReader::new(&buf).count_u32(), Ok(3));
        buf[0] = 4;
        assert_eq!(
            PayloadReader::new(&buf).count_u32(),
            Err(WireFormatError::Truncated)
        );
        // a count no `usize` cast may get to truncate
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert_eq!(
            PayloadReader::new(&buf).count_u64(),
            Err(WireFormatError::Truncated)
        );
        put_u64(&mut buf, 0);
        let mut r = PayloadReader::new(&buf[8..]);
        assert_eq!(r.count_u64(), Ok(0));
        r.finish().unwrap();
    }

    #[test]
    fn event_sink_frames_per_epoch_with_final_marker() {
        let mut buf = Vec::new();
        {
            let mut sink = WireEventSink::new(&mut buf);
            sink.on_event(&ev(1, 5, 0.5));
            sink.on_event(&ev(1, 9, 1.5));
            sink.on_epoch_complete(Epoch(1));
            sink.on_epoch_complete(Epoch(2)); // empty barrier frame
            sink.on_event(&ev(3, 5, 2.5));
            sink.on_epoch_complete(Epoch(3));
            sink.on_finish();
            assert!(sink.io_error().is_none());
        }
        let mut r = io::Cursor::new(buf);
        let mut frames = Vec::new();
        while let Some(p) = read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap() {
            frames.push(decode_event_frame(&p).unwrap());
        }
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].events.len(), 2);
        assert_eq!(frames[1].events.len(), 0, "empty epochs still frame");
        assert_eq!(frames[2].events.len(), 1);
        assert_eq!(frames[3].kind, EVENTS_FINAL);
        assert_eq!(frames[3].epoch, Epoch(3));
    }

    #[test]
    fn merge_by_tag_reconstructs_global_order() {
        let lists = vec![
            vec![ev(1, 0, 0.0), ev(1, 3, 0.0), ev(1, 9, 0.0)],
            vec![ev(1, 1, 0.0), ev(1, 4, 0.0)],
            vec![],
            vec![ev(1, 2, 0.0)],
        ];
        let mut out = Vec::new();
        merge_events_by_tag(&lists, &mut out);
        let tags: Vec<u64> = out.iter().map(|e| e.tag.0).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 9]);
    }

    fn merged(lists: &[Vec<u64>]) -> Vec<u64> {
        let mut out = Vec::new();
        merge_by_tag(lists, |t| TagId(*t), |t| out.push(*t));
        out
    }

    #[test]
    fn merge_by_tag_reproduces_global_sort() {
        // residue classes mod 3, each sorted
        let lists = [vec![0, 3, 9], vec![1, 4, 7], vec![2, 5]];
        assert_eq!(merged(&lists), vec![0, 1, 2, 3, 4, 5, 7, 9]);
    }

    #[test]
    fn merge_by_tag_single_list_is_identity() {
        assert_eq!(merged(&[vec![2, 5, 8]]), vec![2, 5, 8]);
    }

    #[test]
    fn merge_by_tag_handles_empty_lists() {
        assert_eq!(merged(&[vec![], vec![1], vec![]]), vec![1]);
        assert_eq!(merged(&[]), Vec::<u64>::new());
    }
}
