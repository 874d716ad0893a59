//! Engine checkpointing: full filter state to bytes and back.
//!
//! The determinism contract (every object step draws from its own
//! `(seed, tag, epoch)` RNG stream; all cross-object effects merge in
//! tag order) means the engine's observable behaviour is a pure
//! function of its state at an epoch boundary. This module serializes
//! that state — per-object particle sets, the reader filter, the output
//! policy, the compression cooldown, the spatial index, the engine RNG —
//! so that a restored engine resumed at epoch `E+1` emits an event
//! stream **bit-identical** to the uninterrupted run (pinned by the
//! golden digests and the kill-and-restart suite).
//!
//! ## Format
//!
//! A checkpoint is a single binary blob, no serde:
//!
//! ```text
//! magic "RFCKPT01" | version u32 | config fingerprint u64 | epoch u64
//! payload length u64 | payload bytes | FNV-1a(payload) u64
//! ```
//!
//! All integers and float bit patterns are little-endian. The config
//! fingerprint covers every [`FilterConfig`] field. Every list in the
//! payload is in a canonical order (objects and policy rows by tag,
//! cooldown entries by `(due, tag)`), so the bytes never depended on
//! how the writing engine laid its state out: blobs written by the
//! engines that still partitioned objects in-process load unchanged
//! (`crates/core/tests/checkpoint_compat.rs`).
//!
//! Files are written atomically: temp file + `fsync` + rename +
//! directory `fsync`, so a crash mid-save leaves the previous
//! checkpoint intact.
//!
//! [`FilterConfig`]: crate::config::FilterConfig

use super::{Belief, InferenceEngine, ObjectState};
use crate::compression::CompressedBelief;
use crate::config::{FilterConfig, ReaderMode};
use crate::factored::{ObjectFilter, ReaderFilter};
use crate::particle::{ObjectParticle, ReaderParticle};
use crate::spatial_hook::SpatialHook;
use rand::rngs::StdRng;
use rfid_geom::{Aabb, Gaussian3, Mat3, Point3, Pose};
use rfid_model::object::LocationPrior;
use rfid_model::sensor::ReadRateModel;
use rfid_stream::digest::{fnv1a, FNV_OFFSET};
use rfid_stream::{Epoch, TagId};
use std::io::Write as _;
use std::path::Path;

/// File magic: "RFCKPT" + format generation.
pub const MAGIC: [u8; 8] = *b"RFCKPT01";
/// Format version inside the current magic generation.
pub const VERSION: u32 = 1;

/// Why a checkpoint could not be read or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The blob is not a checkpoint, is truncated, or fails its
    /// checksum.
    Corrupt(&'static str),
    /// The checkpoint format is newer than this build understands.
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

// ---------------------------------------------------------------------
// byte-level encoding
// ---------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn point(&mut self, p: &Point3) {
        self.f64(p.x);
        self.f64(p.y);
        self.f64(p.z);
    }
    fn pose(&mut self, p: &Pose) {
        self.point(&p.pos);
        self.f64(p.phi);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or(CheckpointError::Corrupt("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A length that must be storable (guards against allocating from a
    /// corrupt count before the data would fail to decode anyway).
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(CheckpointError::Corrupt("implausible element count"));
        }
        Ok(n as usize)
    }
    fn point(&mut self) -> Result<Point3, CheckpointError> {
        Ok(Point3::new(self.f64()?, self.f64()?, self.f64()?))
    }
    fn pose(&mut self) -> Result<Pose, CheckpointError> {
        let pos = self.point()?;
        let phi = self.f64()?;
        Ok(Pose { pos, phi })
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// The canonical byte string the config fingerprint hashes: every
/// [`FilterConfig`] field, in declaration order.
fn config_bytes(cfg: &FilterConfig) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(cfg.particles_per_object as u64);
    e.u64(cfg.reader_particles as u64);
    e.f64(cfg.resample_ess_frac);
    e.f64(cfg.init_range_overestimate);
    e.f64(cfg.init_cone_half_angle);
    e.f64(cfg.max_init_range);
    e.f64(cfg.respawn_distance);
    e.f64(cfg.small_move_distance);
    e.u8(match cfg.reader_mode {
        ReaderMode::Filter => 0,
        ReaderMode::TrustReports => 1,
    });
    e.u8(cfg.use_spatial_index as u8);
    e.u8(cfg.compression.enabled as u8);
    e.u64(cfg.compression.idle_epochs);
    e.f64(cfg.compression.max_cross_entropy);
    e.u64(cfg.compression.decompressed_particles as u64);
    // reserved: the byte a removed option's off-switch occupied. Kept
    // at 0 so fingerprints and `RFCKPT01` blobs stay byte-identical; a
    // blob written with that option on (1 + two `f64`s here) has a
    // different fingerprint and is refused as `ConfigMismatch`.
    e.u8(0);
    e.u64(cfg.report_delay_epochs);
    e.u64(cfg.seed);
    e.buf
}

/// The fingerprint of an inference configuration: FNV-1a over
/// `config_bytes`. Two configs fingerprint equal iff they produce
/// identical event streams from identical state.
pub fn config_fingerprint(cfg: &FilterConfig) -> u64 {
    fnv1a(FNV_OFFSET, &config_bytes(cfg))
}

/// The epoch recorded in a checkpoint blob's header (cheap peek — no
/// payload validation beyond the magic and version).
pub fn peek_epoch(bytes: &[u8]) -> Result<Epoch, CheckpointError> {
    let mut d = Dec::new(bytes);
    if d.take(8)? != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic"));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let _fingerprint = d.u64()?;
    Ok(Epoch(d.u64()?))
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
        let mut p = Enc::default();

        // engine RNG
        for w in self.rng.state() {
            p.u64(w);
        }

        // last report
        match &self.last_report {
            None => p.u8(0),
            Some(pose) => {
                p.u8(1);
                p.pose(pose);
            }
        }

        // reader filter
        match &self.reader {
            None => p.u8(0),
            Some(r) => {
                p.u8(1);
                p.u64(r.len() as u64);
                for rp in r.particles() {
                    p.pose(&rp.pose);
                    p.f64(rp.log_w);
                }
                for s in r.support() {
                    p.f64(*s);
                }
                p.u64(r.resample_count());
            }
        }

        // statistics
        p.u64(self.stats.epochs);
        p.u64(self.stats.readings);
        p.u64(self.stats.object_updates);
        p.u64(self.stats.events_emitted);
        p.u64(self.stats.object_resamples);
        p.u64(self.stats.reader_resamples);
        p.u64(self.stats.compressions);
        p.u64(self.stats.decompressions);
        p.u64(self.stats.half_respawns);
        p.u64(self.stats.full_reinits);

        // object states, sorted by tag
        let mut states: Vec<(&TagId, &ObjectState)> = self.objects.iter().collect();
        states.sort_unstable_by_key(|(tag, _)| **tag);
        p.u64(states.len() as u64);
        for (tag, state) in states {
            p.u64(tag.0);
            match &state.belief {
                Belief::Active(f) => {
                    p.u8(0);
                    p.u64(f.len() as u64);
                    for op in f.iter_particles() {
                        p.point(&op.loc);
                        p.u32(op.reader_idx);
                        p.f64(op.log_w);
                    }
                    p.u64(f.pointer_stamp());
                    p.u64(f.resample_count());
                }
                Belief::Compressed(c) => {
                    p.u8(1);
                    p.point(&c.gaussian.mean);
                    for row in &c.gaussian.cov.m {
                        for v in row {
                            p.f64(*v);
                        }
                    }
                    p.f64(c.loss);
                    p.u64(c.compressed_at.0);
                }
            }
            let (loc, var) = state.last_estimate;
            p.point(&loc);
            for v in var {
                p.f64(v);
            }
            p.u64(state.last_read.0);
            p.u64(state.compression_due);
        }

        // output-policy scope states, sorted by tag
        let rows = self.policy.snapshot_states();
        p.u64(rows.len() as u64);
        for (tag, entered, last_read, reported) in &rows {
            p.u64(tag.0);
            p.u64(entered.0);
            p.u64(last_read.0);
            p.u8(*reported as u8);
        }

        // compression cooldown entries, sorted by (due epoch, tag).
        // Per-tag sweep decisions are order-independent (each depends
        // only on the tag's own belief and the frozen reader), so the
        // canonical order restores an equivalent schedule.
        let mut cooldown: Vec<(u64, TagId)> = Vec::new();
        for (due, tags) in &self.cooldown {
            cooldown.extend(tags.iter().map(|t| (*due, *t)));
        }
        cooldown.sort_unstable();
        p.u64(cooldown.len() as u64);
        for (due, tag) in &cooldown {
            p.u64(*due);
            p.u64(tag.0);
        }

        // spatial index: regions in insertion order
        match &self.hook {
            None => p.u8(0),
            Some(hook) => {
                p.u8(1);
                let n = hook.num_regions() as u64;
                p.u64(n);
                for id in 0..n {
                    let bbox = hook.region_box(id);
                    p.point(&bbox.min);
                    p.point(&bbox.max);
                    let members = hook.region_members(id);
                    p.u64(members.len() as u64);
                    for m in members {
                        p.u64(m.0);
                    }
                }
            }
        }

        // frame the payload
        let mut out = Enc::default();
        out.buf.extend_from_slice(&MAGIC);
        out.u32(VERSION);
        out.u64(self.config_fingerprint());
        out.u64(epoch.0);
        out.u64(p.buf.len() as u64);
        let checksum = fnv1a(FNV_OFFSET, &p.buf);
        out.buf.extend_from_slice(&p.buf);
        out.u64(checksum);
        out.buf
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
        let mut d = Dec::new(bytes);
        if d.take(8)? != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic"));
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let found = d.u64()?;
        let expected = self.config_fingerprint();
        if found != expected {
            return Err(CheckpointError::ConfigMismatch { expected, found });
        }
        let epoch = Epoch(d.u64()?);
        let payload_len = d.len()?;
        let payload = d.take(payload_len)?;
        let checksum = d.u64()?;
        if !d.done() {
            return Err(CheckpointError::Corrupt("trailing bytes"));
        }
        if fnv1a(FNV_OFFSET, payload) != checksum {
            return Err(CheckpointError::Corrupt("payload checksum mismatch"));
        }
        let mut d = Dec::new(payload);

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
                let n = d.len()?;
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
        let n_objects = d.len()?;
        for _ in 0..n_objects {
            let tag = TagId(d.u64()?);
            let belief = match d.u8()? {
                0 => {
                    let k = d.len()?;
                    if k == 0 {
                        return Err(CheckpointError::Corrupt("empty object filter"));
                    }
                    let mut particles = Vec::with_capacity(k);
                    for _ in 0..k {
                        let loc = d.point()?;
                        let reader_idx = d.u32()?;
                        let log_w = d.f64()?;
                        particles.push(ObjectParticle {
                            loc,
                            reader_idx,
                            log_w,
                        });
                    }
                    let stamp = d.u64()?;
                    let resamples = d.u64()?;
                    Belief::Active(ObjectFilter::from_parts(particles, stamp, resamples))
                }
                1 => {
                    let mean = d.point()?;
                    let mut m = [[0.0f64; 3]; 3];
                    for row in &mut m {
                        for v in row.iter_mut() {
                            *v = d.f64()?;
                        }
                    }
                    let loss = d.f64()?;
                    let compressed_at = Epoch(d.u64()?);
                    Belief::Compressed(CompressedBelief {
                        // Gaussian3::new re-derives the Cholesky/inverse
                        // caches deterministically from (mean, cov)
                        gaussian: Gaussian3::new(mean, Mat3 { m }),
                        loss,
                        compressed_at,
                    })
                }
                _ => return Err(CheckpointError::Corrupt("bad belief kind")),
            };
            let loc = d.point()?;
            let var = [d.f64()?, d.f64()?, d.f64()?];
            let last_read = Epoch(d.u64()?);
            let compression_due = d.u64()?;
            self.objects.insert(
                tag,
                ObjectState {
                    belief,
                    last_estimate: (loc, var),
                    last_read,
                    compression_due,
                },
            );
        }

        // output-policy scope states
        let n_rows = d.len()?;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let tag = TagId(d.u64()?);
            let entered = Epoch(d.u64()?);
            let last_read = Epoch(d.u64()?);
            let reported = match d.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CheckpointError::Corrupt("bad reported flag")),
            };
            rows.push((tag, entered, last_read, reported));
        }
        self.policy.restore_states(rows);

        // compression cooldown
        self.cooldown.clear();
        let n_cooldown = d.len()?;
        for _ in 0..n_cooldown {
            let due = d.u64()?;
            let tag = TagId(d.u64()?);
            self.cooldown.entry(due).or_default().push(tag);
        }

        // spatial index
        self.hook = match d.u8()? {
            0 => None,
            1 => {
                let mut hook = SpatialHook::new(self.range_over);
                let n_regions = d.len()?;
                let mut members = Vec::new();
                for _ in 0..n_regions {
                    let min = d.point()?;
                    let max = d.point()?;
                    let n_members = d.len()?;
                    members.clear();
                    for _ in 0..n_members {
                        members.push(TagId(d.u64()?));
                    }
                    hook.record(Aabb::new(min, max), members.iter().copied());
                }
                Some(hook)
            }
            _ => return Err(CheckpointError::Corrupt("bad hook flag")),
        };
        if !d.done() {
            return Err(CheckpointError::Corrupt("trailing payload bytes"));
        }
        if self.hook.is_some() != self.config.use_spatial_index {
            return Err(CheckpointError::Corrupt(
                "hook presence disagrees with config",
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
    use rfid_model::object::BoxPrior;
    use rfid_model::{JointModel, ModelParams};
    use rfid_stream::{EpochBatch, LocationEvent};

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
        let mut e = engine(cfg());
        for b in &batches(10) {
            e.process_batch(b);
        }
        let blob = e.checkpoint_bytes(Epoch(9));
        assert_eq!(peek_epoch(&blob).unwrap(), Epoch(9));

        // truncation
        let mut fresh = engine(cfg());
        assert!(matches!(
            fresh.restore_bytes(&blob[..blob.len() - 9]),
            Err(CheckpointError::Corrupt(_))
        ));
        // bit flip in the payload
        let mut flipped = blob.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let mut fresh = engine(cfg());
        assert!(fresh.restore_bytes(&flipped).is_err());
        // bad magic
        let mut bad = blob.clone();
        bad[0] = b'X';
        let mut fresh = engine(cfg());
        assert!(matches!(
            fresh.restore_bytes(&bad),
            Err(CheckpointError::Corrupt(_))
        ));
        // config mismatch
        let mut other = cfg();
        other.seed ^= 1;
        let mut fresh = engine(other);
        assert!(matches!(
            fresh.restore_bytes(&blob),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
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
