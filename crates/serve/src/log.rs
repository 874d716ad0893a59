//! The on-disk write-ahead log: crash-consistent durability for the
//! event store.
//!
//! ## Layout
//!
//! A log directory holds one file, `wal.log`: an append-only run of
//! records framed as
//!
//! ```text
//! [payload length u32 LE][FNV-1a(payload) u64 LE][payload]
//! ```
//!
//! with a one-byte kind tag leading the payload: `0x01` EVENT (the
//! full [`LocationEvent`], float bits exact), `0x02` EPOCH_COMPLETE,
//! `0x03` FINISH. The log is a write-ahead journal of **sink calls**:
//! replaying its records through a fresh [`EventStore`] re-derives
//! every arrival stamp and sequence number exactly, because the
//! store's stamping is a pure function of the call sequence. Records
//! are written and parsed with the workspace's one byte cursor
//! ([`rfid_stream::wire`]'s `put_*` / `PayloadReader`, as frames and
//! checkpoints are); they carry no element count, and no payload is
//! longer than 74 bytes (an EVENT with stats), so a longer length is
//! damage, never an allocation.
//!
//! ## Commit protocol
//!
//! Each record is one `write_all` at the end of `wal.log`. The file is
//! fsynced (`sync_all`, nothing else) at the log's commit points: when
//! a record's arrival slot passes the current `width`-epoch span, when
//! an EPOCH_COMPLETE closes its span, at FINISH, and at every
//! [`SegmentLog::sync`] (the barrier a checkpoint takes). The open that
//! creates `wal.log` fsyncs the directory once, so the file's name is
//! as durable as its bytes.
//!
//! ## Crash rule
//!
//! Open scans `wal.log` once, validating every record and rebuilding
//! the arrival clock. A record that does not decode (cut short, a
//! checksum mismatch, a length above 74, a payload that does not parse
//! exactly) ends the valid data. If a whole checksummed record starts
//! at any later byte offset, the damage is not a torn write and open
//! fails with [`LogError::Corrupt`], naming the offset. Otherwise the
//! bad region runs to end-of-file: a torn tail, truncated and reported
//! in [`Recovery::truncated_bytes`]. Two crashes look like something
//! else under this rule, and both outcomes are acceptable:
//!
//! * a power loss that leaves a hole before later records is refused
//!   as `Corrupt`: the log fails closed. A process kill, which is what
//!   every harness produces, never leaves a hole, because the page
//!   cache holds every byte written before it;
//! * damage to the final fsynced records with nothing whole behind
//!   them is truncated as a torn tail. Recovery then resumes from an
//!   older checkpoint (a checkpoint is used only if the log covers its
//!   epoch), or from none, and re-drives, so its digest is still exact.
//!
//! A directory in the segmented layout of earlier versions (a
//! `MANIFEST` or any `segment-*.log`) is refused as `Corrupt`, and so
//! is a whole record completing epoch `u64::MAX`: no arrival epoch
//! follows that one, so [`SegmentLog::complete_epoch`] never writes it
//! and only a crafted log holds it.

use crate::store::{ArrivalClock, EventStore, StoreConfig};
use rfid_stream::digest::{fnv1a, FNV_OFFSET};
use rfid_stream::wire::{
    put_f64, put_point, put_u32, put_u64, put_u8, PayloadReader, WireFormatError,
};
use rfid_stream::{Epoch, EventSink, EventStats, LocationEvent, TagId};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

const WAL_FILE: &str = "wal.log";

const KIND_EVENT: u8 = 0x01;
const KIND_EPOCH_COMPLETE: u8 = 0x02;
const KIND_FINISH: u8 = 0x03;

/// Frame overhead per record: payload length + checksum.
const RECORD_HEADER: usize = 4 + 8;

/// The largest payload the codec writes: an EVENT with stats.
const MAX_PAYLOAD: usize = 1 + 8 + 8 + 3 * 8 + 1 + 4 * 8;

/// Why the log could not be opened or replayed.
#[derive(Debug)]
pub enum LogError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// Damage that is not a torn tail, or a directory in an older
    /// layout.
    Corrupt(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "segment log i/o: {e}"),
            LogError::Corrupt(what) => write!(f, "corrupt segment log: {what}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
enum LogRecord {
    /// A stored event (`EventSink::on_event`).
    Event(LocationEvent),
    /// An epoch-completion mark (`EventSink::on_epoch_complete`).
    EpochComplete(Epoch),
    /// End of stream (`EventSink::on_finish`).
    Finish,
}

/// What [`SegmentLog::open`] had to repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Torn bytes truncated off the end of the log.
    pub truncated_bytes: u64,
}

/// A crash to inject while writing (fault-injection harnesses only).
/// Once the log has written `after_bytes` record bytes in this
/// process, the next append either aborts before writing (`torn =
/// false`) or writes a partial record and then aborts (`torn = true`)
/// — simulating a kill mid-`write(2)`.
#[derive(Debug, Clone, Copy)]
pub struct WriteFault {
    /// Cumulative record bytes after which the crash fires.
    pub after_bytes: u64,
    /// Whether to leave a torn half-record behind.
    pub torn: bool,
}

// ---------------------------------------------------------------------
// record codec
// ---------------------------------------------------------------------

/// Appends one framed record to `out`. The WAL's own field order
/// (`var` before `support`; the wire's event codec has them the other
/// way round) is what every log on disk holds.
fn encode_record(record: &LogRecord, out: &mut Vec<u8>) {
    let start = out.len();
    match record {
        LogRecord::Event(ev) => {
            put_u8(out, KIND_EVENT);
            put_u64(out, ev.epoch.0);
            put_u64(out, ev.tag.0);
            put_point(out, &ev.location);
            match &ev.stats {
                None => put_u8(out, 0),
                Some(s) => {
                    put_u8(out, 1);
                    for v in s.var {
                        put_f64(out, v);
                    }
                    put_f64(out, s.support);
                }
            }
        }
        LogRecord::EpochComplete(e) => {
            put_u8(out, KIND_EPOCH_COMPLETE);
            put_u64(out, e.0);
        }
        LogRecord::Finish => put_u8(out, KIND_FINISH),
    }
    // the header needs the finished payload: write it behind, then
    // rotate it in front
    let len = out.len() - start;
    let checksum = fnv1a(FNV_OFFSET, &out[start..]);
    put_u32(out, len as u32);
    put_u64(out, checksum);
    out[start..].rotate_right(RECORD_HEADER);
}

fn decode_payload(p: &[u8]) -> Result<LogRecord, WireFormatError> {
    let mut r = PayloadReader::new(p);
    let record = match r.u8()? {
        KIND_EVENT => {
            let mut ev = LocationEvent::new(Epoch(r.u64()?), TagId(r.u64()?), r.point()?);
            match r.u8()? {
                0 => {}
                1 => {
                    let var = [r.f64()?, r.f64()?, r.f64()?];
                    let support = r.f64()?;
                    ev = ev.with_stats(EventStats { var, support });
                }
                t => return Err(WireFormatError::BadTag(t)),
            }
            LogRecord::Event(ev)
        }
        KIND_EPOCH_COMPLETE => LogRecord::EpochComplete(Epoch(r.u64()?)),
        KIND_FINISH => LogRecord::Finish,
        t => return Err(WireFormatError::BadTag(t)),
    };
    r.finish()?;
    Ok(record)
}

enum Scan {
    Record {
        record: LogRecord,
        next: usize,
    },
    /// End of valid data at this offset (clean end or damage).
    End(usize),
}

/// Decodes the record at `pos`, or reports where valid data ends: a
/// header or payload cut short, a length above [`MAX_PAYLOAD`]
/// (refused before anything is hashed), a checksum mismatch and a
/// payload that does not parse exactly all end the scan at `pos`.
fn scan_record(buf: &[u8], pos: usize) -> Scan {
    let mut r = PayloadReader::new(buf.get(pos..).unwrap_or_default());
    let (Ok(len), Ok(checksum)) = (r.u32(), r.u64()) else {
        return Scan::End(pos);
    };
    if len as usize > MAX_PAYLOAD {
        return Scan::End(pos);
    }
    let Ok(payload) = r.bytes(len as usize) else {
        return Scan::End(pos);
    };
    if fnv1a(FNV_OFFSET, payload) != checksum {
        return Scan::End(pos);
    }
    match decode_payload(payload) {
        Ok(record) => Scan::Record {
            record,
            next: buf.len() - r.remaining(),
        },
        Err(_) => Scan::End(pos),
    }
}

/// Passes every record of `buf` to `visit` in order, with the offset
/// just past it, and returns where the valid data ends; damage followed
/// by a whole record anywhere after it is [`LogError::Corrupt`] (the
/// module docs' crash rule), and so is a completion of epoch
/// `u64::MAX`, which [`SegmentLog::complete_epoch`] never writes.
fn scan_log(buf: &[u8], mut visit: impl FnMut(LogRecord, usize)) -> Result<usize, LogError> {
    let mut pos = 0;
    loop {
        match scan_record(buf, pos) {
            Scan::Record {
                record: LogRecord::EpochComplete(Epoch(u64::MAX)),
                ..
            } => {
                return Err(LogError::Corrupt(format!(
                    "completion of epoch u64::MAX at byte {pos}"
                )));
            }
            Scan::Record { record, next } => {
                visit(record, next);
                pos = next;
            }
            Scan::End(at) => {
                let whole = |p: &usize| matches!(scan_record(buf, *p), Scan::Record { .. });
                return match (at + 1..buf.len()).find(whole) {
                    Some(later) => Err(LogError::Corrupt(format!(
                        "bad record at byte {at}, whole record at byte {later}"
                    ))),
                    None => Ok(at),
                };
            }
        }
    }
}

// ---------------------------------------------------------------------
// the log
// ---------------------------------------------------------------------

/// Where the records so far leave the log: the store's arrival clock
/// and the fsync spans. Appends and the scan at open advance it alike.
#[derive(Debug, Clone, Copy, Default)]
struct Position {
    clock: ArrivalClock,
    /// Last epoch of the span records are landing in; `None` once a
    /// commit point closed it.
    span_end: Option<u64>,
    /// Spans opened so far (see [`SegmentLog::live_segments`]).
    spans: usize,
}

impl Position {
    /// Advances past `record` and returns whether a commit point falls
    /// before it is written and whether one falls after.
    fn track(&mut self, record: &LogRecord, width: u64) -> (bool, bool) {
        let slot = match record {
            LogRecord::EpochComplete(e) => self.clock.complete(*e),
            LogRecord::Event(_) | LogRecord::Finish => self.clock.next(),
        };
        let before = self.span_end.is_some_and(|end| slot > end);
        if before || self.span_end.is_none() {
            self.span_end = Some((slot / width * width).saturating_add(width - 1));
            self.spans += 1;
        }
        let after = match record {
            LogRecord::Event(_) => false,
            LogRecord::EpochComplete(_) => self.span_end.is_some_and(|end| slot >= end),
            LogRecord::Finish => true,
        };
        if after {
            self.span_end = None;
        }
        (before, after)
    }
}

/// The append-only on-disk log (see the module docs).
#[derive(Debug)]
pub struct SegmentLog {
    path: PathBuf,
    file: File,
    width: u64,
    at: Position,
    recovery: Recovery,
    /// One record's encoding, reused across appends.
    buf: Vec<u8>,
    fault: Option<WriteFault>,
    fault_written: u64,
}

impl SegmentLog {
    /// Opens (or creates) the log in `dir`, fsyncing every `width`
    /// epochs of arrivals, and truncates a torn tail (see the module
    /// docs). A zero `width` is [`LogError::Io`] with
    /// [`io::ErrorKind::InvalidInput`], before `dir` is touched.
    pub fn open(dir: &Path, width: u64) -> Result<Self, LogError> {
        Self::open_replaying(dir, width, |_| {})
    }

    /// [`SegmentLog::open`], passing every record to `visit` during
    /// the one scan of the file.
    fn open_replaying(
        dir: &Path,
        width: u64,
        mut visit: impl FnMut(LogRecord),
    ) -> Result<Self, LogError> {
        if width == 0 {
            return Err(LogError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the log's fsync width must be >= 1 epoch",
            )));
        }
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name == "MANIFEST" || (name.starts_with("segment-") && name.ends_with(".log")) {
                return Err(LogError::Corrupt(format!(
                    "{name}: a segmented log of an earlier version"
                )));
            }
        }
        let path = dir.join(WAL_FILE);
        let created = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if created {
            File::open(dir)?.sync_all()?;
        }
        let bytes = fs::read(&path)?;
        let mut at = Position::default();
        let end = scan_log(&bytes, |record, _| {
            at.track(&record, width);
            visit(record);
        })?;
        let mut recovery = Recovery::default();
        if end < bytes.len() {
            recovery.truncated_bytes = (bytes.len() - end) as u64;
            file.set_len(end as u64)?;
            file.sync_all()?;
        }
        Ok(Self {
            path,
            file,
            width,
            at,
            recovery,
            buf: Vec::with_capacity(RECORD_HEADER + MAX_PAYLOAD),
            fault: None,
            fault_written: 0,
        })
    }

    /// What open had to repair (nothing after a clean shutdown).
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// Highest completed epoch in the log (`None` when empty).
    pub fn last_completed(&self) -> Option<u64> {
        self.at.clock.last()
    }

    /// The `width`-epoch spans records have opened, each closed by one
    /// fsync (a span that a repeated completion re-enters after its
    /// close counts again).
    pub fn live_segments(&self) -> usize {
        self.at.spans
    }

    /// Arms a crash fault (see [`WriteFault`]). Fault-injection
    /// harnesses only — the armed process WILL abort.
    pub fn arm_fault(&mut self, fault: WriteFault) {
        self.fault = Some(fault);
    }

    fn append(&mut self, record: &LogRecord) -> Result<(), LogError> {
        let (before, after) = self.at.track(record, self.width);
        if before {
            self.file.sync_all()?;
        }
        self.buf.clear();
        encode_record(record, &mut self.buf);
        // fault injection: crash before (or torn inside) this write
        if let Some(fault) = self.fault {
            if self.fault_written + self.buf.len() as u64 > fault.after_bytes {
                if fault.torn {
                    let keep = (fault.after_bytes - self.fault_written) as usize;
                    let keep = keep.clamp(1, self.buf.len() - 1);
                    let _ = self.file.write_all(&self.buf[..keep]);
                    let _ = self.file.sync_all();
                }
                std::process::abort();
            }
            self.fault_written += self.buf.len() as u64;
        }
        self.file.write_all(&self.buf)?;
        if after {
            self.file.sync_all()?;
        }
        Ok(())
    }

    /// Journals one event (call before applying it to the store).
    pub fn append_event(&mut self, event: &LocationEvent) -> Result<(), LogError> {
        self.append(&LogRecord::Event(*event))
    }

    /// Journals an epoch completion, fsyncing when it closes its span.
    /// A completion of epoch `u64::MAX`, after which no arrival epoch
    /// is left, is [`LogError::Io`] with
    /// [`io::ErrorKind::InvalidInput`], and nothing is written.
    pub fn complete_epoch(&mut self, epoch: Epoch) -> Result<(), LogError> {
        if epoch.0 == u64::MAX {
            return Err(LogError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "epoch u64::MAX cannot be completed",
            )));
        }
        self.append(&LogRecord::EpochComplete(epoch))
    }

    /// Journals end-of-stream and fsyncs.
    pub fn finish(&mut self) -> Result<(), LogError> {
        self.append(&LogRecord::Finish)
    }

    /// Fsyncs the log — the durability barrier a checkpoint must take
    /// before committing.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Truncates the log just after the last EPOCH_COMPLETE mark for
    /// `epoch`: later records (re-emitted by a restarted engine) are
    /// dropped. [`LogError::Corrupt`] if there is no such mark (the log
    /// ended before `epoch`).
    pub fn truncate_after_epoch(&mut self, epoch: Epoch) -> Result<(), LogError> {
        let bytes = fs::read(&self.path)?;
        let mut at = Position::default();
        let mut cut = None;
        scan_log(&bytes, |record, next| {
            at.track(&record, self.width);
            if record == LogRecord::EpochComplete(epoch) {
                cut = Some((next, at));
            }
        })?;
        let Some((end, at)) = cut else {
            return Err(LogError::Corrupt(format!(
                "no completion mark for epoch {} in the log",
                epoch.0
            )));
        };
        self.file.set_len(end as u64)?;
        self.file.sync_all()?;
        self.at = at;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// durable store
// ---------------------------------------------------------------------

/// An [`EventStore`] whose sink calls are journaled to a
/// [`SegmentLog`] before being applied — open it again after a crash
/// and the store state (arrival stamps and sequence numbers included)
/// is rebuilt exactly by replay.
#[derive(Debug)]
pub struct DurableStore {
    store: EventStore,
    log: SegmentLog,
}

impl DurableStore {
    /// Opens (or creates) a durable store in `dir`. The log's fsync
    /// width is the store's `segment_epochs` (0 is refused as
    /// [`SegmentLog::open`] refuses it); existing records are replayed
    /// into the fresh store.
    pub fn open(dir: &Path, cfg: StoreConfig) -> Result<Self, LogError> {
        let mut store = EventStore::new(cfg);
        let log = SegmentLog::open_replaying(dir, cfg.segment_epochs, |record| match record {
            LogRecord::Event(ev) => store.on_event(&ev),
            LogRecord::EpochComplete(e) => store.complete_epoch(e),
            LogRecord::Finish => store.finish(),
        })?;
        Ok(Self { store, log })
    }

    /// The in-memory store (all queries go through it).
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// The underlying log (recovery stats, fault arming).
    pub fn log_mut(&mut self) -> &mut SegmentLog {
        &mut self.log
    }

    /// What opening had to repair.
    pub fn recovery(&self) -> Recovery {
        self.log.recovery()
    }

    /// Journals and applies one event.
    pub fn push(&mut self, event: &LocationEvent) -> Result<(), LogError> {
        self.log.append_event(event)?;
        self.store.push(event);
        Ok(())
    }

    /// Journals and applies an epoch completion.
    pub fn complete_epoch(&mut self, epoch: Epoch) -> Result<(), LogError> {
        self.log.complete_epoch(epoch)?;
        self.store.complete_epoch(epoch);
        Ok(())
    }

    /// Journals and applies end-of-stream.
    pub fn finish(&mut self) -> Result<(), LogError> {
        self.log.finish()?;
        self.store.finish();
        Ok(())
    }

    /// Durability barrier: fsync the log.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }
}

/// Sink adapter: journaling failures abort the process (a durability
/// layer that silently drops events would defeat its purpose; use the
/// explicit methods to handle errors).
impl EventSink for DurableStore {
    fn on_event(&mut self, event: &LocationEvent) {
        self.push(event).expect("segment log append failed");
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.complete_epoch(epoch)
            .expect("segment log append failed");
    }

    fn on_finish(&mut self) {
        self.finish().expect("segment log append failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rfid-log-{name}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn ev(epoch: u64, tag: u64, x: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, -0.5, 0.25)).with_stats(
            EventStats {
                var: [0.1, 0.2, 0.0],
                support: 123.0,
            },
        )
    }

    /// Drives `n` epochs into a durable store (tag 1 every epoch, tag
    /// 2 on evens).
    fn feed(d: &mut DurableStore, n: u64) {
        for e in 0..n {
            d.push(&ev(e, 1, e as f64)).unwrap();
            if e % 2 == 0 {
                d.push(&ev(e, 2, -(e as f64))).unwrap();
            }
            d.complete_epoch(Epoch(e)).unwrap();
        }
    }

    fn stored_rows(store: &EventStore) -> Vec<(u64, u64, u64, u64)> {
        store
            .events()
            .map(|s| {
                (
                    s.seq,
                    s.arrival,
                    s.event.tag.0,
                    s.event.location.x.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn records_round_trip() {
        let records = [
            LogRecord::Event(ev(7, 3, 1.5)),
            LogRecord::Event(LocationEvent::new(Epoch(0), TagId(1), Point3::origin())),
            LogRecord::EpochComplete(Epoch(9)),
            LogRecord::Finish,
        ];
        // `bounds[k]` is where record `k` starts; the last is the end
        let mut buf = Vec::new();
        let mut bounds = vec![0];
        for r in &records {
            encode_record(r, &mut buf);
            bounds.push(buf.len());
        }
        let scan_all = |buf: &[u8]| {
            let mut pos = 0;
            let mut got = Vec::new();
            loop {
                match scan_record(buf, pos) {
                    Scan::Record { record, next } => {
                        got.push(record);
                        pos = next;
                    }
                    Scan::End(at) => return (got, at),
                }
            }
        };
        assert_eq!(scan_all(&buf), (records.to_vec(), buf.len()));

        // damage anywhere — the buffer cut at every length, every single
        // bit flipped — stops the scan at the boundary of the record it
        // lands in: the records before come back as written, nothing
        // after the damage does, nothing panics
        for cut in 0..buf.len() {
            let whole = bounds.iter().rposition(|b| *b <= cut).expect("0 <= cut");
            assert_eq!(
                scan_all(&buf[..cut]),
                (records[..whole].to_vec(), bounds[whole]),
                "cut at {cut}"
            );
        }
        for at in 0..buf.len() {
            let hit = bounds.iter().rposition(|b| *b <= at).expect("0 <= at");
            for bit in 0..8 {
                buf[at] ^= 1 << bit;
                assert_eq!(
                    scan_all(&buf),
                    (records[..hit].to_vec(), bounds[hit]),
                    "bit {bit} of byte {at}"
                );
                buf[at] ^= 1 << bit;
            }
        }
    }

    /// One record of each shape, byte for byte as commit d52ebce wrote
    /// them (computed outside this crate: FNV-1a 64 over the payload,
    /// `struct.pack('<IQ', len, fnv) + payload`). Every log on
    /// disk is a run of these, so a drift here orphans every log.
    #[rustfmt::skip]
    fn pinned() -> [(&'static [u8], LogRecord); 4] { [
        (
            &[
                0x4a, 0x00, 0x00, 0x00, // payload length 74
                0x3e, 0x29, 0x5e, 0x8f, 0xe6, 0x6b, 0x3b, 0xad, // FNV-1a(payload)
                0x01, // EVENT
                0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch 7
                0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // tag 3
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // x 1.5
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf, // y -0.5
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // z 0.25
                0x01, // stats present: var first, support last
                0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f, // var[0] 0.1
                0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xc9, 0x3f, // var[1] 0.2
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // var[2] 0.0
                0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x5e, 0x40, // support 123.0
            ],
            LogRecord::Event(ev(7, 3, 1.5)),
        ),
        (
            &[
                0x2a, 0x00, 0x00, 0x00, // payload length 42
                0x07, 0x83, 0x08, 0x6b, 0xe0, 0x82, 0x88, 0xe3, // FNV-1a(payload)
                0x01, // EVENT
                0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // epoch
                0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // tag u64::MAX - 1
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // x -0.0
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // y 2.0
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, // z f64::MIN_POSITIVE
                0x00, // no stats
            ],
            LogRecord::Event(LocationEvent::new(
                Epoch(0x0102_0304_0506_0708),
                TagId(u64::MAX - 1),
                Point3::new(-0.0, 2.0, f64::MIN_POSITIVE),
            )),
        ),
        (
            &[
                0x09, 0x00, 0x00, 0x00, // payload length 9
                0xcc, 0x1c, 0x51, 0x9a, 0x34, 0x9e, 0xb4, 0xe5, // FNV-1a(payload)
                0x02, // EPOCH_COMPLETE
                0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch 9
            ],
            LogRecord::EpochComplete(Epoch(9)),
        ),
        (
            &[
                0x01, 0x00, 0x00, 0x00, // payload length 1
                0x92, 0xb9, 0x01, 0x86, 0x4c, 0xbe, 0x63, 0xaf, // FNV-1a(payload)
                0x03, // FINISH
            ],
            LogRecord::Finish,
        ),
    ] }

    #[test]
    fn record_bytes_equal_the_parents() {
        let mut segment = Vec::new();
        for (bytes, record) in pinned() {
            let mut buf = Vec::new();
            encode_record(&record, &mut buf);
            assert_eq!(buf.as_slice(), bytes, "{record:?}");
            segment.extend_from_slice(bytes);
        }
        // the literals, not the encoder's output, decode back
        let mut pos = 0;
        for (bytes, record) in pinned() {
            match scan_record(&segment, pos) {
                Scan::Record { record: got, next } => {
                    // `==` on the -0.0 coordinate would also accept 0.0
                    if let (LogRecord::Event(a), LogRecord::Event(b)) = (&got, &record) {
                        assert_eq!(a.location.x.to_bits(), b.location.x.to_bits());
                    }
                    assert_eq!(got, record);
                    assert_eq!(next, pos + bytes.len());
                    pos = next;
                }
                Scan::End(at) => panic!("pinned bytes stop decoding at {at}"),
            }
        }
        assert!(matches!(scan_record(&segment, pos), Scan::End(at) if at == segment.len()));
    }

    #[test]
    fn reopen_rebuilds_identical_store_state() {
        let dir = temp_dir("reopen");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 19);
        d.finish().unwrap();
        let want = stored_rows(d.store());
        let want_stats = d.store().stats();
        drop(d);

        let d2 = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(d2.recovery(), Recovery::default());
        assert_eq!(stored_rows(d2.store()), want);
        assert_eq!(d2.store().stats(), want_stats);
        assert!(d2.store().is_finished());
        assert_eq!(d2.store().latest_epoch(), 18);
        fs::remove_dir_all(&dir).ok();
    }

    fn wal(dir: &Path) -> PathBuf {
        dir.join(WAL_FILE)
    }

    fn flip_bit(path: &Path, at: u64) {
        let mut bytes = fs::read(path).unwrap();
        bytes[at as usize] ^= 0x10;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn torn_tail_truncates_and_reopens() {
        let dir = temp_dir("torn");
        let cfg = StoreConfig::default().with_segment_epochs(8);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 13);
        let full = stored_rows(d.store());
        drop(d);
        // tear the tail: chop into the middle of the final event
        // record (the trailing EPOCH_COMPLETE record is 21 bytes, so
        // cutting 30 bytes lands mid-event)
        let len = fs::metadata(wal(&dir)).unwrap().len();
        let f = OpenOptions::new().write(true).open(wal(&dir)).unwrap();
        f.set_len(len - 30).unwrap();
        drop(f);

        let d2 = DurableStore::open(&dir, cfg).unwrap();
        assert!(d2.recovery().truncated_bytes > 0);
        let got = stored_rows(d2.store());
        // a strict prefix survived; nothing corrupt leaked through
        assert!(got.len() < full.len());
        assert_eq!(full[..got.len()], got[..]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damage_followed_by_a_whole_record_is_corrupt() {
        let dir = temp_dir("flip-first");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 9);
        drop(d);
        // one bit of the first record's payload
        flip_bit(&wal(&dir), 20);
        match DurableStore::open(&dir, cfg) {
            Err(LogError::Corrupt(what)) => assert!(what.contains("at byte 0,"), "{what}"),
            other => panic!("opened a log with a hole in its history: {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damage_in_the_final_record_is_a_torn_tail() {
        let dir = temp_dir("flip-last");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 9);
        let full = stored_rows(d.store());
        drop(d);
        // the same bit of the final record, EPOCH_COMPLETE(8)
        let len = fs::metadata(wal(&dir)).unwrap().len();
        flip_bit(&wal(&dir), len - 21 + 20);
        let mut d2 = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(d2.recovery().truncated_bytes, 21);
        assert_eq!(stored_rows(d2.store()), full);
        assert_eq!(d2.store().latest_epoch(), 7);
        // the repaired log takes appends again
        d2.complete_epoch(Epoch(8)).unwrap();
        drop(d2);
        let d3 = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(d3.recovery(), Recovery::default());
        assert_eq!(d3.store().latest_epoch(), 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segmented_log_directory_is_refused() {
        for name in ["MANIFEST", "segment-00000000000000000000.log"] {
            let dir = temp_dir("segmented");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(name), b"").unwrap();
            match DurableStore::open(&dir, StoreConfig::default()) {
                Err(LogError::Corrupt(what)) => assert!(what.contains(name), "{what}"),
                other => panic!("opened an earlier layout: {other:?}"),
            }
            assert!(!wal(&dir).exists());
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_zero_width_is_refused() {
        let dir = temp_dir("zero-width");
        let invalid = |r: Result<(), LogError>| match r {
            Err(LogError::Io(e)) => e.kind() == io::ErrorKind::InvalidInput,
            _ => false,
        };
        assert!(invalid(SegmentLog::open(&dir, 0).map(drop)));
        let cfg = StoreConfig {
            segment_epochs: 0,
            ..StoreConfig::default()
        };
        assert!(invalid(DurableStore::open(&dir, cfg).map(drop)));
        // refused before the directory is created
        assert!(!dir.exists());
    }

    #[test]
    fn a_completion_of_u64_max_is_refused() {
        let dir = temp_dir("epoch-max");
        let cfg = StoreConfig::default().with_segment_epochs(3);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 4);
        match d.complete_epoch(Epoch(u64::MAX)) {
            Err(LogError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("completed u64::MAX: {other:?}"),
        }
        assert_eq!(d.store().latest_epoch(), 3);
        // the last arrival epoch there is: its span ends at u64::MAX
        d.complete_epoch(Epoch(u64::MAX - 1)).unwrap();
        d.push(&ev(u64::MAX - 1, 1, 9.0)).unwrap();
        d.finish().unwrap();
        let rows = stored_rows(d.store());
        assert_eq!(rows.last().unwrap().1, u64::MAX);
        drop(d);
        let reopened = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(stored_rows(reopened.store()), rows);
        drop(reopened);

        // a checksummed EPOCH_COMPLETE(u64::MAX), even as the last
        // record, is refused rather than truncated as a torn tail
        let mut record = Vec::new();
        encode_record(&LogRecord::EpochComplete(Epoch(u64::MAX)), &mut record);
        let mut file = OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        file.write_all(&record).unwrap();
        drop(file);
        assert!(matches!(
            DurableStore::open(&dir, cfg),
            Err(LogError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_length_above_the_largest_payload_is_refused() {
        // the largest record the codec writes is an EVENT with stats
        let mut buf = Vec::new();
        encode_record(&LogRecord::Event(ev(7, 3, 1.5)), &mut buf);
        assert_eq!(buf.len(), RECORD_HEADER + MAX_PAYLOAD);
        // one byte longer, checksum and all, is not a record
        let payload = [buf[RECORD_HEADER..].to_vec(), vec![0]].concat();
        let mut long = Vec::new();
        put_u32(&mut long, payload.len() as u32);
        put_u64(&mut long, fnv1a(FNV_OFFSET, &payload));
        long.extend_from_slice(&payload);
        assert!(matches!(scan_record(&long, 0), Scan::End(0)));
    }

    #[test]
    fn truncate_after_epoch_drops_later_records() {
        let dir = temp_dir("truncate");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 18);
        d.finish().unwrap();
        drop(d);

        // reopen the raw log and cut back to epoch 9 (mid-span)
        let mut log = SegmentLog::open(&dir, 4).unwrap();
        log.truncate_after_epoch(Epoch(9)).unwrap();
        assert_eq!(log.last_completed(), Some(9));
        drop(log);

        let d2 = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(d2.store().latest_epoch(), 9);
        assert!(!d2.store().is_finished());
        assert!(d2.store().events().all(|s| s.arrival <= 9));
        // appending after the cut continues cleanly
        let mut d2 = d2;
        d2.push(&ev(10, 1, 10.0)).unwrap();
        d2.complete_epoch(Epoch(10)).unwrap();
        assert_eq!(d2.store().latest_epoch(), 10);
        // the mark must exist
        let mut log = SegmentLog::open(&dir, 4).unwrap();
        assert!(log.truncate_after_epoch(Epoch(999)).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
