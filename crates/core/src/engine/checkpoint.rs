//! Engine checkpointing: full filter state to bytes and back.
//!
//! The determinism contract (every object step draws from its own
//! `(seed, tag, epoch)` RNG stream; all cross-object effects merge in
//! tag order) means the engine's observable behaviour is a pure
//! function of its state at an epoch boundary. This module serializes
//! that state — the object map (each object's belief, output-policy
//! scope and compression due epoch), the reader filter, the spatial
//! index, the engine RNG — so that a restored engine resumed at epoch `E+1` emits an event
//! stream **bit-identical** to the uninterrupted run (pinned by the
//! golden digests and the kill-and-restart suite).
//!
//! ## Format
//!
//! A checkpoint is a single binary blob, no serde:
//!
//! ```text
//! magic "RFCKPT01" | version u32 (3) | config fingerprint u64 | epoch u64
//! payload length u64 | payload bytes | FNV-1a(magic .. payload) u64
//! ```
//!
//! The checksum covers every byte before it, header included, so a
//! flipped epoch is refused like a flipped payload byte; [`peek_epoch`]
//! verifies it before it answers. A reader checks the magic, the
//! version, the fingerprint, the lengths and then the checksum, in that
//! order. Any other version is refused as
//! [`CheckpointError::UnsupportedVersion`]; no decoder for it is kept.
//! Version 3 has version 2's layout, but an object particle's weight
//! field holds the weight itself, a probability, where version 2 held
//! its log: a version-2 blob would decode to different beliefs, so it
//! is refused like version 1.
//!
//! All integers and float bit patterns are little-endian, written and
//! read with the workspace's one byte cursor (`rfid_stream::wire`'s
//! `put_*` / `PayloadReader`); an element count larger than the bytes
//! left in the blob is refused before anything is allocated for it
//! (`PayloadReader::count_u64`), and a reader pointer outside the
//! blob's own reader section is refused too. The config fingerprint
//! covers every [`FilterConfig`] field. Every list in the payload is
//! in a canonical order (objects and policy rows by tag,
//! cooldown entries by `(due, tag)`), so the bytes never depend on how
//! the writing engine laid its state out
//! (`crates/core/tests/checkpoint_compat.rs` pins a fixture byte for
//! byte).
//!
//! Two sections are derived from the object rows. The output-policy
//! section holds one `(tag, entered, last_read, reported)` row per
//! object, and the cooldown section one `(due, tag)` entry per object
//! with a compression check scheduled, keyed at its due epoch. A
//! restore checks both against the object rows and refuses, as
//! [`CheckpointError::Corrupt`], a scope row for a tag with no object,
//! an object with no scope row, a scope row whose `last_read` differs
//! from its object's, a cooldown entry for an object with no check
//! scheduled, a tag listed twice, a scheduled object with no entry,
//! and a key past its object's due epoch. A key before it is accepted:
//! an engine that kept a separate compression queue wrote the epoch it
//! queued the check at, and the object's due epoch is what a restored
//! engine keeps and writes back.
//!
//! A compressed object is written as its mean and the nine entries of
//! its covariance, row by row, mirrored from the six of the lower
//! triangle it keeps in memory. A covariance the engine fitted is
//! exactly symmetric (`Mat3::outer` products commute), so these are
//! the bytes the full matrix always gave. A restore refuses, as
//! [`CheckpointError::Corrupt`], a covariance with a non-finite entry,
//! one whose upper triangle differs from its lower in any bit (the
//! packed form cannot hold it) and one that does not factor as
//! written: compression keeps the regularized matrix that factored, so
//! the restored belief derives the same Cholesky factor, and no restore
//! adds a ridge.
//!
//! Files are written atomically: temp file + `fsync` + rename +
//! directory `fsync`, so a crash mid-save leaves the previous
//! checkpoint intact.
//!
//! [`FilterConfig`]: crate::config::FilterConfig

use super::{Belief, InferenceEngine, ObjectState};
use crate::compression::CompressedBelief;
use crate::config::{
    FilterConfig, ReaderMode, DECOMPRESSED_PARTICLES, INIT_CONE_HALF_ANGLE,
    INIT_RANGE_OVERESTIMATE, MAX_INIT_RANGE, RESAMPLE_ESS_FRAC, RESPAWN_DISTANCE,
    SMALL_MOVE_DISTANCE,
};
use crate::factored::{ObjectFilter, ReaderFilter};
use crate::output::Scope;
use crate::particle::{ObjectParticle, ReaderParticle};
use rand::rngs::StdRng;
use rfid_geom::{Aabb, Mat3};
use rfid_model::{LocationPrior, ReadRateModel};
use rfid_spatial::RegionIndex;
use rfid_stream::digest::{fnv1a, FNV_OFFSET};
use rfid_stream::wire::{
    put_f64, put_point, put_pose, put_u32, put_u64, put_u8, PayloadReader, WireFormatError,
};
use rfid_stream::{Epoch, TagId};
use std::io::Write as _;
use std::path::Path;

/// File magic: "RFCKPT" + format generation.
pub(crate) const MAGIC: [u8; 8] = *b"RFCKPT01";
/// Format version inside the current magic generation.
pub(crate) const VERSION: u32 = 3;

/// Why a checkpoint could not be read or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The blob is not a checkpoint, is truncated, or fails its
    /// checksum.
    Corrupt(&'static str),
    /// The checkpoint format is one this build does not read.
    UnsupportedVersion(u32),
    /// The checkpoint was taken under a different inference
    /// configuration (fingerprints differ).
    ConfigMismatch { expected: u64, found: u64 },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} does not match the engine's \
                 {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<WireFormatError> for CheckpointError {
    fn from(e: WireFormatError) -> Self {
        CheckpointError::Corrupt(match e {
            WireFormatError::Truncated => "truncated, or an element count exceeds the bytes left",
            WireFormatError::TrailingBytes(_) => "trailing bytes",
            WireFormatError::BadTag(_) | WireFormatError::BadString => "malformed field",
        })
    }
}

/// The canonical byte string the config fingerprint hashes: every
/// [`FilterConfig`] field, with the `crate::config` constants at the
/// offsets they had as fields, so a blob written by a build with
/// another value is refused as `ConfigMismatch`.
fn config_bytes(cfg: &FilterConfig) -> Vec<u8> {
    let mut e = Vec::new();
    put_u64(&mut e, cfg.particles_per_object as u64);
    put_u64(&mut e, cfg.reader_particles as u64);
    put_f64(&mut e, RESAMPLE_ESS_FRAC);
    put_f64(&mut e, INIT_RANGE_OVERESTIMATE);
    put_f64(&mut e, INIT_CONE_HALF_ANGLE);
    put_f64(&mut e, MAX_INIT_RANGE);
    put_f64(&mut e, RESPAWN_DISTANCE);
    put_f64(&mut e, SMALL_MOVE_DISTANCE);
    let reader_mode = match cfg.reader_mode {
        ReaderMode::Filter => 0,
        ReaderMode::TrustReports => 1,
    };
    put_u8(&mut e, reader_mode);
    put_u8(&mut e, cfg.use_spatial_index as u8);
    put_u8(&mut e, cfg.compression.enabled as u8);
    put_u64(&mut e, cfg.compression.idle_epochs);
    // reserved: a removed option's offset, at the value every config
    // gave it, so fingerprints do not move
    put_f64(&mut e, f64::INFINITY);
    put_u64(&mut e, DECOMPRESSED_PARTICLES as u64);
    // reserved: the byte a removed option's off-switch occupied. Kept
    // at 0 so fingerprints and `RFCKPT01` blobs stay byte-identical; a
    // blob written with that option on (1 + two `f64`s here) has a
    // different fingerprint and is refused as `ConfigMismatch`.
    put_u8(&mut e, 0);
    put_u64(&mut e, cfg.report_delay_epochs);
    put_u64(&mut e, cfg.seed);
    e
}

/// The fingerprint of an inference configuration: FNV-1a over
/// `config_bytes`. Two configs fingerprint equal iff they produce
/// identical event streams from identical state.
pub fn config_fingerprint(cfg: &FilterConfig) -> u64 {
    fnv1a(FNV_OFFSET, &config_bytes(cfg))
}

/// The epoch recorded in a checkpoint blob's header. Checks the frame
/// and its checksum, not the payload's contents or the fingerprint.
pub fn peek_epoch(bytes: &[u8]) -> Result<Epoch, CheckpointError> {
    open_frame(bytes, None).map(|(epoch, _)| epoch)
}

/// Checks a blob's frame — magic, version, config fingerprint (against
/// `expected`, when given), lengths, checksum, in that order — and
/// returns its epoch and payload.
fn open_frame(bytes: &[u8], expected: Option<u64>) -> Result<(Epoch, &[u8]), CheckpointError> {
    let mut d = PayloadReader::new(bytes);
    if d.bytes(8)? != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic"));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let found = d.u64()?;
    if let Some(expected) = expected.filter(|e| *e != found) {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    let epoch = Epoch(d.u64()?);
    let payload_len = d.count_u64()?;
    let payload = d.bytes(payload_len)?;
    let checksum = d.u64()?;
    d.finish()?;
    if fnv1a(FNV_OFFSET, &bytes[..bytes.len() - 8]) != checksum {
        return Err(CheckpointError::Corrupt("checksum mismatch"));
    }
    Ok((epoch, payload))
}

impl<P: LocationPrior, S: ReadRateModel> InferenceEngine<P, S> {
    /// The fingerprint of this engine's configuration (see
    /// [`config_fingerprint`]).
    pub fn config_fingerprint(&self) -> u64 {
        config_fingerprint(&self.config)
    }

    /// Serializes the full filter state as of the completion of
    /// `epoch` (call at an epoch boundary — after `process_batch`,
    /// before the next).
    pub fn checkpoint_bytes(&self, epoch: Epoch) -> Vec<u8> {
        let mut p = Vec::new();

        // engine RNG
        for w in self.rng.state() {
            put_u64(&mut p, w);
        }

        // last report
        match &self.last_report {
            None => put_u8(&mut p, 0),
            Some(pose) => {
                put_u8(&mut p, 1);
                put_pose(&mut p, pose);
            }
        }

        // reader filter
        match &self.reader {
            None => put_u8(&mut p, 0),
            Some(r) => {
                put_u8(&mut p, 1);
                put_u64(&mut p, r.len() as u64);
                for rp in r.particles() {
                    put_pose(&mut p, &rp.pose);
                    put_f64(&mut p, rp.log_w);
                }
                for s in r.support() {
                    put_f64(&mut p, *s);
                }
                put_u64(&mut p, r.resample_count());
            }
        }

        // statistics
        put_u64(&mut p, self.stats.epochs);
        put_u64(&mut p, self.stats.readings);
        put_u64(&mut p, self.stats.object_updates);
        put_u64(&mut p, self.stats.events_emitted);
        put_u64(&mut p, self.stats.object_resamples);
        put_u64(&mut p, self.stats.reader_resamples);
        put_u64(&mut p, self.stats.compressions);
        put_u64(&mut p, self.stats.decompressions);
        put_u64(&mut p, self.stats.half_respawns);
        put_u64(&mut p, self.stats.full_reinits);

        // object states, sorted by tag
        let mut states: Vec<(&TagId, &ObjectState)> = self.objects.iter().collect();
        states.sort_unstable_by_key(|(tag, _)| **tag);
        put_u64(&mut p, states.len() as u64);
        for (tag, state) in &states {
            put_u64(&mut p, tag.0);
            match &state.belief {
                Belief::Active(f) => {
                    put_u8(&mut p, 0);
                    put_u64(&mut p, f.len() as u64);
                    for op in f.iter_particles() {
                        put_point(&mut p, &op.loc);
                        put_u32(&mut p, op.reader_idx);
                        put_f64(&mut p, op.w);
                    }
                    put_u64(&mut p, f.pointer_stamp());
                    put_u64(&mut p, f.resample_count());
                }
                Belief::Compressed(c) => {
                    put_u8(&mut p, 1);
                    put_point(&mut p, &c.mean);
                    for row in &c.cov_matrix().m {
                        for v in row {
                            put_f64(&mut p, *v);
                        }
                    }
                    put_u64(&mut p, c.compressed_at.0);
                }
            }
            let (loc, var) = state.last_estimate;
            put_point(&mut p, &loc);
            for v in var {
                put_f64(&mut p, v);
            }
            put_u64(&mut p, state.scope.last_read.0);
            put_u64(&mut p, state.compression_due);
        }

        // output-policy scope rows, derived from the objects, by tag
        put_u64(&mut p, states.len() as u64);
        for (tag, state) in &states {
            let s = state.scope;
            put_u64(&mut p, tag.0);
            put_u64(&mut p, s.entered.0);
            put_u64(&mut p, s.last_read.0);
            put_u8(&mut p, s.reported as u8);
        }

        // compression cooldown entries, derived from the objects'
        // scheduled checks, sorted by (due epoch, tag)
        let mut cooldown: Vec<(u64, TagId)> = states
            .iter()
            .filter(|(_, s)| s.compression_due != 0)
            .map(|(tag, s)| (s.compression_due, **tag))
            .collect();
        cooldown.sort_unstable();
        put_u64(&mut p, cooldown.len() as u64);
        for (due, tag) in &cooldown {
            put_u64(&mut p, *due);
            put_u64(&mut p, tag.0);
        }

        // spatial index: regions in insertion order
        match &self.index {
            None => put_u8(&mut p, 0),
            Some(index) => {
                put_u8(&mut p, 1);
                let n = index.num_regions() as u64;
                put_u64(&mut p, n);
                for id in 0..n {
                    let bbox = index.region_box(id);
                    put_point(&mut p, &bbox.min);
                    put_point(&mut p, &bbox.max);
                    let members = index.region_members(id);
                    put_u64(&mut p, members.len() as u64);
                    for m in members {
                        put_u64(&mut p, m.0);
                    }
                }
            }
        }

        // frame the payload
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, self.config_fingerprint());
        put_u64(&mut out, epoch.0);
        put_u64(&mut out, p.len() as u64);
        out.extend_from_slice(&p);
        let checksum = fnv1a(FNV_OFFSET, &out);
        put_u64(&mut out, checksum);
        out
    }

    /// Restores the engine to the state captured by a
    /// [`checkpoint_bytes`](Self::checkpoint_bytes) blob. The engine
    /// must have been built with a fingerprint-equal configuration.
    /// Returns the checkpoint epoch; resume processing from the next
    /// batch after it.
    ///
    /// On error the engine may be partially overwritten — rebuild it
    /// before retrying.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<Epoch, CheckpointError> {
        let (epoch, payload) = open_frame(bytes, Some(self.config_fingerprint()))?;
        let mut d = PayloadReader::new(payload);

        // engine RNG
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = d.u64()?;
        }
        self.rng = StdRng::from_state(words);

        // last report
        self.last_report = match d.u8()? {
            0 => None,
            1 => Some(d.pose()?),
            _ => return Err(CheckpointError::Corrupt("bad last-report flag")),
        };

        // reader filter
        self.reader = match d.u8()? {
            0 => None,
            1 => {
                let n = d.count_u64()?;
                if n == 0 {
                    return Err(CheckpointError::Corrupt("empty reader filter"));
                }
                let mut particles = Vec::with_capacity(n);
                for _ in 0..n {
                    let pose = d.pose()?;
                    let log_w = d.f64()?;
                    particles.push(ReaderParticle { pose, log_w });
                }
                let mut support = Vec::with_capacity(n);
                for _ in 0..n {
                    support.push(d.f64()?);
                }
                let resamples = d.u64()?;
                Some(ReaderFilter::from_parts(particles, support, resamples))
            }
            _ => return Err(CheckpointError::Corrupt("bad reader flag")),
        };
        // the object step indexes the reader tables by each particle's
        // pointer unchecked, and a checksum only proves the writer
        // computed one
        let reader_len = self.reader.as_ref().map_or(0, |r| r.len());

        // statistics
        self.stats.epochs = d.u64()?;
        self.stats.readings = d.u64()?;
        self.stats.object_updates = d.u64()?;
        self.stats.events_emitted = d.u64()?;
        self.stats.object_resamples = d.u64()?;
        self.stats.reader_resamples = d.u64()?;
        self.stats.compressions = d.u64()?;
        self.stats.decompressions = d.u64()?;
        self.stats.half_respawns = d.u64()?;
        self.stats.full_reinits = d.u64()?;

        // object states
        self.objects.clear();
        let n_objects = d.count_u64()?;
        for _ in 0..n_objects {
            let tag = TagId(d.u64()?);
            let belief = match d.u8()? {
                0 => {
                    let k = d.count_u64()?;
                    if k == 0 {
                        return Err(CheckpointError::Corrupt("empty object filter"));
                    }
                    let mut particles = Vec::with_capacity(k);
                    for _ in 0..k {
                        let loc = d.point()?;
                        let reader_idx = d.u32()?;
                        if reader_idx as usize >= reader_len {
                            return Err(CheckpointError::Corrupt("reader pointer out of range"));
                        }
                        let w = d.f64()?;
                        particles.push(ObjectParticle { loc, reader_idx, w });
                    }
                    let stamp = d.u64()?;
                    let resamples = d.u64()?;
                    Belief::Active(Box::new(ObjectFilter::from_parts(
                        particles, stamp, resamples,
                    )))
                }
                1 => {
                    let mean = d.point()?;
                    let mut m = [[0.0f64; 3]; 3];
                    for row in &mut m {
                        for v in row.iter_mut() {
                            *v = d.f64()?;
                        }
                    }
                    let compressed_at = Epoch(d.u64()?);
                    if m.iter().flatten().any(|v| !v.is_finite()) {
                        return Err(CheckpointError::Corrupt("non-finite covariance"));
                    }
                    if (0..3).any(|i| (0..i).any(|j| m[i][j].to_bits() != m[j][i].to_bits())) {
                        return Err(CheckpointError::Corrupt("asymmetric covariance"));
                    }
                    let cov = Mat3 { m };
                    if cov.cholesky().is_none() {
                        return Err(CheckpointError::Corrupt("covariance does not factor"));
                    }
                    Belief::Compressed(CompressedBelief::from_matrix(mean, &cov, compressed_at))
                }
                _ => return Err(CheckpointError::Corrupt("bad belief kind")),
            };
            let loc = d.point()?;
            let var = [d.f64()?, d.f64()?, d.f64()?];
            let last_read = Epoch(d.u64()?);
            let compression_due = d.u64()?;
            let state = ObjectState {
                belief,
                last_estimate: (loc, var),
                // the scope row below supplies `entered` and `reported`
                scope: Scope::first_read(last_read),
                compression_due,
            };
            if self.objects.insert(tag, state).is_some() {
                return Err(CheckpointError::Corrupt("object listed twice"));
            }
        }

        // output-policy scope rows: one per object, in tag order
        let n_rows = d.count_u64()?;
        let mut previous = None;
        for _ in 0..n_rows {
            let tag = TagId(d.u64()?);
            let entered = Epoch(d.u64()?);
            let last_read = Epoch(d.u64()?);
            let reported = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CheckpointError::Corrupt("bad reported flag")),
            };
            if previous >= Some(tag) {
                return Err(CheckpointError::Corrupt("scope rows out of tag order"));
            }
            previous = Some(tag);
            let Some(state) = self.objects.get_mut(&tag) else {
                return Err(CheckpointError::Corrupt(
                    "scope row for a tag with no object",
                ));
            };
            if state.scope.last_read != last_read {
                return Err(CheckpointError::Corrupt(
                    "scope row disagrees with its object",
                ));
            }
            state.scope = Scope {
                entered,
                last_read,
                reported,
            };
        }
        if n_rows != self.objects.len() {
            return Err(CheckpointError::Corrupt("object without a scope row"));
        }

        // compression cooldown: one entry per object with a check
        // scheduled, keyed at or before its due epoch
        let n_cooldown = d.count_u64()?;
        let mut listed = Vec::with_capacity(n_cooldown);
        for _ in 0..n_cooldown {
            let key = d.u64()?;
            let tag = TagId(d.u64()?);
            let due = self.objects.get(&tag).map_or(0, |s| s.compression_due);
            if due == 0 {
                return Err(CheckpointError::Corrupt(
                    "cooldown entry for an object with no check scheduled",
                ));
            }
            if key > due {
                return Err(CheckpointError::Corrupt(
                    "cooldown entry past its object's due epoch",
                ));
            }
            listed.push(tag);
        }
        listed.sort_unstable();
        if listed.windows(2).any(|w| w[0] == w[1]) {
            return Err(CheckpointError::Corrupt("tag listed twice in the cooldown"));
        }
        if listed.len() != self.cooldown_entries() {
            return Err(CheckpointError::Corrupt(
                "scheduled object without a cooldown entry",
            ));
        }

        // spatial index
        self.index = match d.u8()? {
            0 => None,
            1 => {
                let mut index = RegionIndex::new();
                let n_regions = d.count_u64()?;
                let mut members = Vec::new();
                for _ in 0..n_regions {
                    let min = d.point()?;
                    let max = d.point()?;
                    let n_members = d.count_u64()?;
                    members.clear();
                    for _ in 0..n_members {
                        members.push(TagId(d.u64()?));
                    }
                    index.insert_region(Aabb::new(min, max), members.iter().copied());
                }
                Some(index)
            }
            _ => return Err(CheckpointError::Corrupt("bad index flag")),
        };
        d.finish()?;
        if self.index.is_some() != self.config.use_spatial_index {
            return Err(CheckpointError::Corrupt(
                "index presence disagrees with config",
            ));
        }

        Ok(epoch)
    }

    /// Writes a checkpoint atomically: the blob lands in a temp file,
    /// is fsynced, renamed over `path`, and the directory is fsynced —
    /// a crash at any point leaves either the old or the new
    /// checkpoint, never a torn one.
    pub fn save_checkpoint(&self, path: &Path, epoch: Epoch) -> Result<(), CheckpointError> {
        let bytes = self.checkpoint_bytes(epoch);
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        let tmp = path.with_extension("ckpt-tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            // commit the rename itself
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Restores from a checkpoint file written by
    /// [`save_checkpoint`](Self::save_checkpoint). Returns the
    /// checkpoint epoch.
    pub fn load_checkpoint(&mut self, path: &Path) -> Result<Epoch, CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.restore_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterConfig;
    use crate::engine::run_engine;
    use rfid_geom::{Point3, Pose};
    use rfid_model::{BoxPrior, JointModel, ModelParams};
    use rfid_stream::{EpochBatch, InferenceStage, LocationEvent};

    fn prior() -> BoxPrior {
        BoxPrior::new(Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 40.0, 0.0),
        ))
    }

    fn engine(config: FilterConfig) -> InferenceEngine<BoxPrior> {
        let model = JointModel::new(ModelParams::default_warehouse());
        let shelf = vec![
            (TagId(1_000_000), Point3::new(2.0, 2.0, 0.0)),
            (TagId(1_000_001), Point3::new(2.0, 6.0, 0.0)),
        ];
        InferenceEngine::new(model, prior(), shelf, config).unwrap()
    }

    fn cfg() -> FilterConfig {
        let mut cfg = FilterConfig::full_default();
        cfg.particles_per_object = 120;
        cfg.reader_particles = 25;
        cfg.report_delay_epochs = 8;
        cfg.compression.idle_epochs = 6;
        cfg
    }

    fn batches(n: u64) -> Vec<EpochBatch> {
        use rand::{Rng, SeedableRng};
        let model = JointModel::new(ModelParams::default_warehouse());
        let mut rng = StdRng::seed_from_u64(99);
        let objs: Vec<(u64, Point3)> = (0..4)
            .map(|i| (i, Point3::new(2.0, 1.0 + i as f64 * 2.0, 0.0)))
            .collect();
        (0..n)
            .map(|t| {
                let y = t as f64 * 0.1;
                let pose = Pose::new(Point3::new(0.0, y, 0.0), 0.0);
                let mut readings = Vec::new();
                for (tag, loc) in &objs {
                    if rng.gen::<f64>() < model.sensor.p_read(&pose, loc) {
                        readings.push(TagId(*tag));
                    }
                }
                EpochBatch {
                    epoch: Epoch(t),
                    readings,
                    reader_report: Some(pose),
                }
            })
            .collect()
    }

    fn assert_streams_equal(a: &[LocationEvent], b: &[LocationEvent]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.tag, y.tag);
            assert_eq!(x.location.x.to_bits(), y.location.x.to_bits());
            assert_eq!(x.location.y.to_bits(), y.location.y.to_bits());
            assert_eq!(x.location.z.to_bits(), y.location.z.to_bits());
            match (&x.stats, &y.stats) {
                (None, None) => {}
                (Some(s), Some(t)) => {
                    for (a, b) in s.var.iter().zip(t.var.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    assert_eq!(s.support.to_bits(), t.support.to_bits());
                }
                _ => panic!("stats presence differs"),
            }
        }
    }

    #[test]
    fn restore_resumes_bit_identically() {
        let all = batches(70);
        let mut baseline = engine(cfg());
        let expect = run_engine(&mut baseline, &all);

        // run to epoch 30, checkpoint, restore into a fresh engine,
        // resume: the concatenated streams must match exactly
        for cut in [1usize, 30, 69] {
            let mut first = engine(cfg());
            let mut events = Vec::new();
            for b in &all[..cut] {
                first.process_batch_into(b, &mut events);
            }
            let blob = first.checkpoint_bytes(Epoch(cut as u64 - 1));

            let mut resumed = engine(cfg());
            let at = resumed.restore_bytes(&blob).unwrap();
            assert_eq!(at, Epoch(cut as u64 - 1));
            for b in &all[cut..] {
                resumed.process_batch_into(b, &mut events);
            }
            resumed.finalize_into(Epoch(69), &mut events);
            assert_streams_equal(&expect, &events);
            assert_eq!(resumed.stats().epochs, 70);
        }
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        // small clouds keep the every-byte sweeps below quick
        let mut small = cfg();
        small.particles_per_object = 12;
        small.reader_particles = 5;
        let mut e = engine(small);
        for b in &batches(10) {
            e.process_batch(b);
        }
        let mut blob = e.checkpoint_bytes(Epoch(9));
        assert_eq!(peek_epoch(&blob).unwrap(), Epoch(9));

        // truncated at every length: an error, never a panic
        for cut in 0..blob.len() {
            assert!(
                matches!(
                    engine(small).restore_bytes(&blob[..cut]),
                    Err(CheckpointError::Corrupt(_))
                ),
                "cut at {cut}/{} restored",
                blob.len()
            );
        }
        // every single-bit flip is refused — magic, version, fingerprint
        // and payload length field by field, the epoch, the payload and
        // the checksum by the checksum — by the restore and the peek
        for at in 0..blob.len() {
            for bit in 0..8 {
                blob[at] ^= 1 << bit;
                let got = engine(small).restore_bytes(&blob);
                assert!(got.is_err(), "bit {bit} of byte {at} flipped and restored");
                assert!(peek_epoch(&blob).is_err(), "bit {bit} of byte {at} peeked");
                blob[at] ^= 1 << bit;
            }
        }
        let mut fresh = engine(small);
        assert_eq!(fresh.restore_bytes(&blob).unwrap(), Epoch(9));
        assert_eq!(fresh.checkpoint_bytes(Epoch(9)), blob);

        // bad magic
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(
            engine(small).restore_bytes(&bad),
            Err(CheckpointError::Corrupt(_))
        ));
        // config mismatch
        let mut other = small;
        other.seed ^= 1;
        let mut fresh = engine(other);
        assert!(matches!(
            fresh.restore_bytes(&blob),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    /// A blob someone wrote, as opposed to one that rotted: valid
    /// checksum, one reader pointer past the reader section it came
    /// with. The object step indexes by that pointer unchecked.
    #[test]
    fn out_of_range_reader_pointer_is_rejected() {
        let config = cfg();
        let mut e = engine(config);
        for b in &batches(10) {
            e.process_batch(b);
        }
        let blob = e.checkpoint_bytes(Epoch(9));
        // header | rng | last report | reader section | stats | object
        // count, then the first object: tag, kind, particle count, and
        // its first particle's location
        let n = config.reader_particles;
        let header = 8 + 4 + 8 + 8 + 8;
        let first_object = header + 32 + (1 + 32) + (1 + 8 + n * (32 + 8) + n * 8 + 8) + 80 + 8;
        let kind = first_object + 8;
        assert_eq!(blob[kind], 0, "first object is an active cloud");
        let pointer = kind + 1 + 8 + 24;

        let with_pointer = |value: u32| {
            let mut patched = blob.clone();
            patched[pointer..pointer + 4].copy_from_slice(&value.to_le_bytes());
            let end = patched.len() - 8;
            let checksum = fnv1a(FNV_OFFSET, &patched[..end]);
            patched[end..].copy_from_slice(&checksum.to_le_bytes());
            engine(config).restore_bytes(&patched)
        };
        assert_eq!(with_pointer(n as u32 - 1).unwrap(), Epoch(9));
        for bad in [n as u32, u32::MAX] {
            assert!(matches!(
                with_pointer(bad),
                Err(CheckpointError::Corrupt("reader pointer out of range"))
            ));
        }
    }

    /// A blob someone wrote: valid checksum, one compressed object's
    /// covariance replaced by one decompression could not factor, or
    /// one the stored lower triangle could not hold.
    #[test]
    fn a_hostile_compressed_covariance_is_refused() {
        let config = cfg();
        let mut e = engine(config);
        for b in &batches(70) {
            e.process_batch(b);
        }
        let c = e
            .objects
            .values()
            .find_map(|s| match &s.belief {
                Belief::Compressed(c) => Some(c.clone()),
                Belief::Active(_) => None,
            })
            .expect("a compressed object");
        let blob = e.checkpoint_bytes(Epoch(69));
        // the belief's mean, its nine covariance entries row by row,
        // then its compression epoch
        let mut mean = Vec::new();
        put_point(&mut mean, &c.mean);
        let cov_at = blob.windows(24).position(|w| w == mean).expect("mean") + 24;
        assert_eq!(
            blob[cov_at + 72..cov_at + 80],
            c.compressed_at.0.to_le_bytes()
        );

        type Edit = fn(&mut [[f64; 3]; 3]);
        let with_cov = |edit: Edit| {
            let mut m = c.cov_matrix().m;
            edit(&mut m);
            let mut patched = blob.clone();
            for (k, v) in m.iter().flatten().enumerate() {
                patched[cov_at + 8 * k..cov_at + 8 * k + 8].copy_from_slice(&v.to_le_bytes());
            }
            let end = patched.len() - 8;
            let checksum = fnv1a(FNV_OFFSET, &patched[..end]);
            patched[end..].copy_from_slice(&checksum.to_le_bytes());
            engine(config).restore_bytes(&patched)
        };
        assert_eq!(with_cov(|_| {}).unwrap(), Epoch(69));
        let hostile: [(Edit, &str); 5] = [
            (|m| m[0][0] = -5.0, "covariance does not factor"),
            (|m| m[1][1] = f64::NAN, "non-finite covariance"),
            (|m| m[2][2] = f64::INFINITY, "non-finite covariance"),
            (|m| m[1][0] += 1e-3, "asymmetric covariance"),
            (|m| m[0][2] = -m[0][2], "asymmetric covariance"),
        ];
        for (edit, why) in hostile {
            match with_cov(edit) {
                Err(CheckpointError::Corrupt(what)) => assert_eq!(what, why),
                other => panic!("{why}: restored as {other:?}"),
            }
        }
    }

    /// A blob someone wrote: valid checksum, but a scope row or a
    /// cooldown entry that disagrees with the object rows, which carry
    /// each object's last read and due epoch.
    #[test]
    fn rows_that_disagree_with_their_objects_are_refused() {
        let config = cfg();
        let mut e = engine(config);
        for b in &batches(40) {
            e.process_batch(b);
        }
        let blob = e.checkpoint_bytes(Epoch(39));
        let mut tags: Vec<TagId> = e.objects.keys().copied().collect();
        tags.sort_unstable();
        let due = |tag: &TagId| e.objects[tag].compression_due;
        let idle = *tags.iter().find(|t| due(t) == 0).expect("an idle object");
        let (key, tag) = tags
            .iter()
            .filter(|t| due(t) != 0)
            .map(|t| (due(t), *t))
            .min()
            .expect("a scheduled object");

        // header | rng | last report | reader section | stats | objects
        let n = config.reader_particles;
        let mut scopes = 36 + 32 + (1 + 32) + (1 + 8 + n * (32 + 8) + n * 8 + 8) + 80 + 8;
        for s in e.objects.values() {
            scopes += 8 + 1 + 48 + 16;
            scopes += match &s.belief {
                Belief::Active(f) => 8 + f.len() * 36 + 16,
                Belief::Compressed(_) => 24 + 72 + 8,
            };
        }
        let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        assert_eq!(u64_at(scopes), tags.len() as u64);
        let row = |i: usize| scopes + 8 + 25 * i;
        assert_eq!(u64_at(row(0)), tags[0].0);
        let cooldown = row(tags.len());
        assert_eq!(u64_at(cooldown), e.cooldown_entries() as u64);
        assert_eq!((u64_at(cooldown + 8), u64_at(cooldown + 16)), (key, tag.0));

        let put = |b: &mut Vec<u8>, at: usize, v: u64| {
            b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        type Edit<'a> = &'a dyn Fn(&mut Vec<u8>);
        let restore = |edit: Edit| {
            let mut patched = blob.clone();
            edit(&mut patched);
            let payload = patched.len() as u64 - 44;
            put(&mut patched, 28, payload);
            let end = patched.len() - 8;
            let checksum = fnv1a(FNV_OFFSET, &patched[..end]);
            put(&mut patched, end, checksum);
            let mut restored = engine(config);
            restored.restore_bytes(&patched).map(|_| restored)
        };
        // an entry keyed before its object's due epoch restores, and
        // is written back at the due epoch
        let stale = restore(&|b| put(b, cooldown + 8, key - 1)).unwrap();
        assert!(stale.checkpoint_bytes(Epoch(39)) == blob);

        let last = row(tags.len() - 1);
        let hostile: [(Edit, &str); 7] = [
            (
                &|b| put(b, last, u64::MAX),
                "scope row for a tag with no object",
            ),
            (
                &|b| {
                    b.drain(last..last + 25);
                    put(b, scopes, tags.len() as u64 - 1);
                },
                "object without a scope row",
            ),
            (
                &|b| put(b, row(0) + 16, u64_at(row(0) + 16) + 1),
                "scope row disagrees with its object",
            ),
            (
                &|b| put(b, cooldown + 16, idle.0),
                "cooldown entry for an object with no check scheduled",
            ),
            (
                &|b| {
                    let entry = b[cooldown + 8..cooldown + 24].to_vec();
                    b.splice(cooldown + 8..cooldown + 8, entry);
                    put(b, cooldown, e.cooldown_entries() as u64 + 1);
                },
                "tag listed twice in the cooldown",
            ),
            (
                &|b| {
                    b.drain(cooldown + 8..cooldown + 24);
                    put(b, cooldown, e.cooldown_entries() as u64 - 1);
                },
                "scheduled object without a cooldown entry",
            ),
            (
                &|b| put(b, cooldown + 8, key + 1),
                "cooldown entry past its object's due epoch",
            ),
        ];
        for (edit, why) in hostile {
            match restore(edit) {
                Err(CheckpointError::Corrupt(what)) => assert_eq!(what, why),
                Err(other) => panic!("{why}: refused as {other:?}"),
                Ok(_) => panic!("{why}: restored"),
            }
        }
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("rfid-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.ckpt");
        let mut e = engine(cfg());
        let all = batches(20);
        for b in &all {
            e.process_batch(b);
        }
        e.save_checkpoint(&path, Epoch(19)).unwrap();
        // no temp file left behind
        assert!(!path.with_extension("ckpt-tmp").exists());
        let mut restored = engine(cfg());
        assert_eq!(restored.load_checkpoint(&path).unwrap(), Epoch(19));
        // the restored engine checkpoints to the identical blob
        assert_eq!(
            restored.checkpoint_bytes(Epoch(19)),
            e.checkpoint_bytes(Epoch(19))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_changes_with_config() {
        let base = cfg();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&cfg()));
        let mut other = base;
        other.particles_per_object += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other));
    }
}
