//! The on-disk segment log: crash-consistent durability for the
//! event store.
//!
//! ## Layout
//!
//! A log directory holds:
//!
//! ```text
//! MANIFEST             committed segment boundaries (atomic)
//! segment-<start>.log  segments (zero-padded start epoch)
//! ```
//!
//! Each segment file is an append-only run of records framed as
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
//! checkpoints are); they carry no element count, and a payload length
//! that runs past the file is a torn tail, never an allocation.
//!
//! ## Commit protocol
//!
//! Records append to the tail segment file. When the arrival clock
//! passes the tail's last epoch the file is fsynced (**then**) the
//! `MANIFEST` is rewritten atomically — temp file, fsync, rename,
//! directory fsync. A crash between the two leaves a sealed file the
//! manifest does not know about; [`SegmentLog::open`] adopts such
//! files (ordering by their start epoch) and re-commits the manifest.
//! A crash mid-record leaves a torn tail; open truncates the tail file
//! back to its last whole record. A missing manifest is rebuilt from
//! the segment files themselves. A manifest line the log does not know
//! (such as the `archived` line of a log whose store compacted) is
//! [`LogError::Corrupt`]: the log never opens with part of its history
//! missing.

use crate::store::{ArrivalClock, EventStore, StoreConfig};
use rfid_stream::digest::{fnv1a, FNV_OFFSET};
use rfid_stream::wire::{
    put_f64, put_point, put_u32, put_u64, put_u8, PayloadReader, WireFormatError,
};
use rfid_stream::{Epoch, EventSink, EventStats, LocationEvent, TagId};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

const MANIFEST: &str = "MANIFEST";
const MANIFEST_MAGIC: &str = "RFLOG 1";

const KIND_EVENT: u8 = 0x01;
const KIND_EPOCH_COMPLETE: u8 = 0x02;
const KIND_FINISH: u8 = 0x03;

/// Frame overhead per record: payload length + checksum.
const RECORD_HEADER: usize = 4 + 8;

/// Why the log could not be opened or replayed.
#[derive(Debug)]
pub enum LogError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// A committed (manifest-listed) file or the manifest itself does
    /// not decode.
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
pub enum LogRecord {
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
    /// Torn bytes truncated off the tail (or an uncommitted) file.
    pub truncated_bytes: u64,
    /// Sealed-but-uncommitted files adopted into the manifest.
    pub adopted_segments: usize,
    /// The manifest was missing and rebuilt from the segment files.
    pub rebuilt_manifest: bool,
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

#[derive(Debug, Clone)]
struct SegFile {
    /// First arrival epoch covered (inclusive, width-aligned).
    start: u64,
    /// Last arrival epoch covered (inclusive).
    end: u64,
    path: PathBuf,
}

#[derive(Debug)]
struct Tail {
    seg: SegFile,
    file: File,
    /// Valid bytes written so far.
    bytes: u64,
}

fn segment_file_name(start: u64) -> String {
    // zero-padded so lexical order equals numeric order
    format!("segment-{start:020}.log")
}

fn parse_segment_start(name: &str) -> Option<u64> {
    name.strip_prefix("segment-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// record codec
// ---------------------------------------------------------------------

/// Appends one framed record to `out`. The WAL's own field order
/// (`var` before `support`; the wire's event codec has them the other
/// way round) is what every segment on disk holds.
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
    /// End of valid data at this offset (clean end or torn tail).
    End(usize),
}

/// Decodes the record at `pos`, or reports where valid data ends: a
/// header or payload cut short, a checksum mismatch and a payload that
/// does not parse exactly all end the scan at `pos`.
fn scan_record(buf: &[u8], pos: usize) -> Scan {
    let mut r = PayloadReader::new(buf.get(pos..).unwrap_or_default());
    let (Ok(len), Ok(checksum)) = (r.u32(), r.u64()) else {
        return Scan::End(pos);
    };
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

/// Writes `bytes` to a temp file and renames it over `path`, fsyncing
/// the file and then the directory — the standard atomic-replace
/// sequence.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// the log
// ---------------------------------------------------------------------

/// The append-only on-disk segment log (see the module docs).
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    width: u64,
    sealed: Vec<SegFile>,
    tail: Option<Tail>,
    /// The store's arrival clock, rebuilt from the records at open.
    clock: ArrivalClock,
    finished: bool,
    recovery: Recovery,
    fault: Option<WriteFault>,
    fault_written: u64,
}

impl SegmentLog {
    /// Opens (or creates) the log in `dir` with `width`-epoch
    /// segments, repairing whatever a crash left behind: torn tails
    /// are truncated, sealed-but-uncommitted files adopted, a missing
    /// manifest rebuilt. The width must match the existing log's.
    pub fn open(dir: &Path, width: u64) -> Result<Self, LogError> {
        assert!(width >= 1, "segment width must be >= 1 epoch");
        fs::create_dir_all(dir)?;
        let mut log = Self {
            dir: dir.to_path_buf(),
            width,
            sealed: Vec::new(),
            tail: None,
            clock: ArrivalClock::default(),
            finished: false,
            recovery: Recovery::default(),
            fault: None,
            fault_written: 0,
        };
        let committed = log.read_manifest()?;
        log.adopt_files(committed)?;
        // replay the records to rebuild the clock
        let mut clock = ArrivalClock::default();
        let mut finished = false;
        log.replay(|record| {
            match record {
                LogRecord::EpochComplete(e) => {
                    clock.complete(e);
                }
                LogRecord::Finish => finished = true,
                LogRecord::Event(_) => {}
            }
            Ok(())
        })?;
        log.clock = clock;
        log.finished = finished;
        if log.recovery != Recovery::default() || !dir.join(MANIFEST).exists() {
            log.commit_manifest()?;
        }
        Ok(log)
    }

    /// Sealed-segment starts committed by the manifest, or `None` when
    /// the manifest is missing (first open, or crash damage).
    fn read_manifest(&mut self) -> Result<Option<Vec<(u64, u64)>>, LogError> {
        let path = self.dir.join(MANIFEST);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(LogError::Corrupt("manifest: bad magic line".into()));
        }
        let mut sealed = Vec::new();
        for line in lines {
            let mut parts = line.split_ascii_whitespace();
            match parts.next() {
                Some("width") => {
                    let w: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| LogError::Corrupt("manifest: bad width".into()))?;
                    if w != self.width {
                        return Err(LogError::Corrupt(format!(
                            "manifest width {w} does not match requested {}",
                            self.width
                        )));
                    }
                }
                Some("sealed") => {
                    let mut num = || -> Result<u64, LogError> {
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| LogError::Corrupt("manifest: bad segment line".into()))
                    };
                    sealed.push((num()?, num()?));
                }
                Some(other) => {
                    return Err(LogError::Corrupt(format!(
                        "manifest: unknown key {other:?}"
                    )))
                }
                None => {}
            }
        }
        Ok(Some(sealed))
    }

    /// Scans the directory, validating every segment file against the
    /// committed list and classifying it sealed or tail.
    fn adopt_files(&mut self, committed: Option<Vec<(u64, u64)>>) -> Result<(), LogError> {
        let rebuilt = committed.is_none();
        let committed = committed.unwrap_or_default();
        let mut live: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(start) = parse_segment_start(&entry.file_name().to_string_lossy()) {
                live.push(start);
            }
        }
        live.sort_unstable();
        // a committed file must exist and decode in full
        let committed_starts: Vec<u64> = committed.iter().map(|(s, _)| *s).collect();
        for &(start, end) in &committed {
            let path = self.dir.join(segment_file_name(start));
            if !path.exists() {
                return Err(LogError::Corrupt(format!(
                    "manifest lists segment {start} but no file exists"
                )));
            }
            let buf = fs::read(&path)?;
            let mut pos = 0usize;
            loop {
                match scan_record(&buf, pos) {
                    Scan::Record { next, .. } => pos = next,
                    Scan::End(at) if at == buf.len() => break,
                    Scan::End(at) => {
                        return Err(LogError::Corrupt(format!(
                            "committed segment {start} torn at byte {at}"
                        )))
                    }
                }
            }
            self.sealed.push(SegFile { start, end, path });
        }
        // uncommitted live files: all but the newest were sealed but
        // not yet committed (crash between fsync and manifest write);
        // the newest is the tail. Torn bytes truncate off either.
        let uncommitted: Vec<u64> = live
            .into_iter()
            .filter(|s| !committed_starts.contains(s))
            .collect();
        if rebuilt {
            self.recovery.rebuilt_manifest = true;
        }
        for (i, &start) in uncommitted.iter().enumerate() {
            let path = self.dir.join(segment_file_name(start));
            let mut buf = fs::read(&path)?;
            let mut pos = 0usize;
            loop {
                match scan_record(&buf, pos) {
                    Scan::Record { next, .. } => pos = next,
                    Scan::End(at) => {
                        if at < buf.len() {
                            self.recovery.truncated_bytes += (buf.len() - at) as u64;
                            let f = OpenOptions::new().write(true).open(&path)?;
                            f.set_len(at as u64)?;
                            f.sync_all()?;
                            buf.truncate(at);
                        }
                        break;
                    }
                }
            }
            let seg = SegFile {
                start,
                end: start + (self.width - 1),
                path,
            };
            if i + 1 < uncommitted.len() {
                self.recovery.adopted_segments += 1;
                self.sealed.push(seg);
            } else {
                // the newest file is the tail; reopen for append
                let file = OpenOptions::new().append(true).open(&seg.path)?;
                self.tail = Some(Tail {
                    seg,
                    file,
                    bytes: buf.len() as u64,
                });
            }
        }
        self.sealed.sort_by_key(|s| s.start);
        Ok(())
    }

    /// What open had to repair (all zeroes after a clean shutdown).
    pub fn recovery(&self) -> Recovery {
        self.recovery
    }

    /// The segment width in epochs.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Highest completed epoch in the log (`None` when empty).
    pub fn last_completed(&self) -> Option<u64> {
        self.clock.last()
    }

    /// Whether a FINISH record is on disk.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Number of sealed segments plus the tail.
    pub fn live_segments(&self) -> usize {
        self.sealed.len() + usize::from(self.tail.is_some())
    }

    /// Arms a crash fault (see [`WriteFault`]). Fault-injection
    /// harnesses only — the armed process WILL abort.
    pub fn arm_fault(&mut self, fault: WriteFault) {
        self.fault = Some(fault);
    }

    fn append(&mut self, slot: u64, record: &LogRecord) -> Result<(), LogError> {
        // roll the tail when the slot passes its range
        if self.tail.as_ref().is_some_and(|t| slot > t.seg.end) {
            self.seal_tail()?;
        }
        if self.tail.is_none() {
            let start = (slot / self.width) * self.width;
            let path = self.dir.join(segment_file_name(start));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.tail = Some(Tail {
                seg: SegFile {
                    start,
                    end: start + (self.width - 1),
                    path,
                },
                file,
                bytes: 0,
            });
        }
        let mut buf = Vec::with_capacity(80);
        encode_record(record, &mut buf);
        // fault injection: crash before (or torn inside) this write
        if let Some(fault) = self.fault {
            if self.fault_written + buf.len() as u64 > fault.after_bytes {
                let tail = self.tail.as_mut().expect("tail exists");
                if fault.torn {
                    let keep = (fault.after_bytes - self.fault_written) as usize;
                    let keep = keep.clamp(1, buf.len() - 1);
                    let _ = tail.file.write_all(&buf[..keep]);
                    let _ = tail.file.sync_all();
                }
                std::process::abort();
            }
            self.fault_written += buf.len() as u64;
        }
        let tail = self.tail.as_mut().expect("tail exists");
        tail.file.write_all(&buf)?;
        tail.bytes += buf.len() as u64;
        Ok(())
    }

    /// Fsyncs the tail, moves it to the sealed list, and commits the
    /// manifest.
    fn seal_tail(&mut self) -> Result<(), LogError> {
        if let Some(tail) = self.tail.take() {
            tail.file.sync_all()?;
            self.sealed.push(tail.seg);
            self.commit_manifest()?;
        }
        Ok(())
    }

    fn commit_manifest(&self) -> Result<(), LogError> {
        let mut text = format!("{MANIFEST_MAGIC}\nwidth {}\n", self.width);
        for s in &self.sealed {
            text.push_str(&format!("sealed {} {}\n", s.start, s.end));
        }
        atomic_write(&self.dir.join(MANIFEST), text.as_bytes())?;
        Ok(())
    }

    /// Journals one event (call before applying it to the store).
    pub fn append_event(&mut self, event: &LocationEvent) -> Result<(), LogError> {
        self.append(self.clock.next(), &LogRecord::Event(*event))
    }

    /// Journals an epoch completion; seals the tail at segment
    /// boundaries exactly when the in-memory store does.
    pub fn complete_epoch(&mut self, epoch: Epoch) -> Result<(), LogError> {
        // the clock advances only once the record is on its way
        let mut clock = self.clock;
        let e = clock.complete(epoch);
        self.append(e, &LogRecord::EpochComplete(epoch))?;
        self.clock = clock;
        if self.tail.as_ref().is_some_and(|t| e >= t.seg.end) {
            self.seal_tail()?;
        }
        Ok(())
    }

    /// Journals end-of-stream and seals the tail.
    pub fn finish(&mut self) -> Result<(), LogError> {
        self.append(self.clock.next(), &LogRecord::Finish)?;
        self.finished = true;
        self.seal_tail()
    }

    /// Fsyncs the tail file — the durability barrier a checkpoint must
    /// take before committing.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(tail) = &self.tail {
            tail.file.sync_all()?;
        }
        Ok(())
    }

    /// Replays every record, segment by segment in epoch order,
    /// through `visit`.
    pub fn replay(
        &self,
        mut visit: impl FnMut(LogRecord) -> Result<(), LogError>,
    ) -> Result<(), LogError> {
        let mut buf = Vec::new();
        let mut replay_file = |seg: &SegFile, buf: &mut Vec<u8>| -> Result<(), LogError> {
            buf.clear();
            File::open(&seg.path)?.read_to_end(buf)?;
            let mut pos = 0usize;
            loop {
                match scan_record(buf, pos) {
                    Scan::Record { record, next } => {
                        visit(record)?;
                        pos = next;
                    }
                    Scan::End(at) if at == buf.len() => return Ok(()),
                    Scan::End(at) => {
                        return Err(LogError::Corrupt(format!(
                            "segment {} torn at byte {at} during replay",
                            seg.start
                        )))
                    }
                }
            }
        };
        for seg in &self.sealed {
            replay_file(seg, &mut buf)?;
        }
        if let Some(tail) = &self.tail {
            replay_file(&tail.seg, &mut buf)?;
        }
        Ok(())
    }

    /// Truncates the live log so its last record is the
    /// EPOCH_COMPLETE mark for `epoch`: later records (re-emitted by a
    /// restarted engine) are dropped, sealed segments past the cut are
    /// deleted, and the manifest is re-committed. No-op error if the
    /// mark is not in the live log (the log ended before `epoch`).
    pub fn truncate_after_epoch(&mut self, epoch: Epoch) -> Result<(), LogError> {
        // locate the cut: scan live files in order for the mark
        let mut live: Vec<SegFile> = self.sealed.clone();
        if let Some(tail) = &self.tail {
            live.push(tail.seg.clone());
        }
        live.sort_by_key(|s| s.start);
        let mut cut: Option<(usize, u64)> = None; // (file index, byte offset)
        for (i, seg) in live.iter().enumerate() {
            let buf = fs::read(&seg.path)?;
            let mut pos = 0usize;
            while let Scan::Record { record, next } = scan_record(&buf, pos) {
                if record == LogRecord::EpochComplete(epoch) {
                    cut = Some((i, next as u64));
                }
                pos = next;
            }
        }
        let Some((file_idx, offset)) = cut else {
            return Err(LogError::Corrupt(format!(
                "no completion mark for epoch {} in the live log",
                epoch.0
            )));
        };
        // drop the tail handle before mutating files
        self.tail = None;
        for seg in &live[file_idx + 1..] {
            fs::remove_file(&seg.path)?;
        }
        let keep = &live[file_idx];
        let f = OpenOptions::new().write(true).open(&keep.path)?;
        f.set_len(offset)?;
        f.sync_all()?;
        // everything before the cut file stays sealed; the cut file
        // becomes the new tail
        self.sealed = live[..file_idx].to_vec();
        let file = OpenOptions::new().append(true).open(&keep.path)?;
        self.tail = Some(Tail {
            seg: keep.clone(),
            file,
            bytes: offset,
        });
        self.clock = ArrivalClock::completed_at(epoch.0);
        self.finished = false;
        self.commit_manifest()
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
    /// Opens (or creates) a durable store in `dir`. The log's segment
    /// width is the store's `segment_epochs`; existing records are
    /// replayed into the fresh store.
    pub fn open(dir: &Path, cfg: StoreConfig) -> Result<Self, LogError> {
        let log = SegmentLog::open(dir, cfg.segment_epochs)?;
        let mut store = EventStore::new(cfg);
        log.replay(|record| {
            match record {
                LogRecord::Event(ev) => {
                    store.push(&ev);
                }
                LogRecord::EpochComplete(e) => store.complete_epoch(e),
                LogRecord::Finish => store.finish(),
            }
            Ok(())
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

    /// Durability barrier: fsync the log tail.
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
    /// `struct.pack('<IQ', len, fnv) + payload`). Every segment file on
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
        let tail = dir.join(segment_file_name(8));
        let len = fs::metadata(&tail).unwrap().len();
        let f = OpenOptions::new().write(true).open(&tail).unwrap();
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
    fn missing_manifest_is_rebuilt() {
        let dir = temp_dir("manifest");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 17);
        let want = stored_rows(d.store());
        drop(d);
        fs::remove_file(dir.join(MANIFEST)).unwrap();

        let d2 = DurableStore::open(&dir, cfg).unwrap();
        assert!(d2.recovery().rebuilt_manifest);
        assert!(d2.recovery().adopted_segments > 0);
        assert_eq!(stored_rows(d2.store()), want);
        assert!(dir.join(MANIFEST).exists(), "manifest re-committed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_manifest_with_an_archived_line_is_refused() {
        let dir = temp_dir("archived");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 17);
        drop(d);
        // the line a compacting store wrote for a segment it moved out
        let mut manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        manifest.push_str("archived 0 3\n");
        fs::write(dir.join(MANIFEST), manifest).unwrap();

        match DurableStore::open(&dir, cfg) {
            Err(LogError::Corrupt(what)) => assert!(what.contains("archived"), "{what}"),
            other => panic!("opened a log with part of its history missing: {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_after_epoch_drops_later_records() {
        let dir = temp_dir("truncate");
        let cfg = StoreConfig::default().with_segment_epochs(4);
        let mut d = DurableStore::open(&dir, cfg).unwrap();
        feed(&mut d, 18);
        d.finish().unwrap();
        drop(d);

        // reopen the raw log and cut back to epoch 9 (mid-segment)
        let mut log = SegmentLog::open(&dir, 4).unwrap();
        log.truncate_after_epoch(Epoch(9)).unwrap();
        assert_eq!(log.last_completed(), Some(9));
        assert!(!log.is_finished());
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
