//! The checkpoint format is pinned by literal bytes, not round trips.
//!
//! `fixtures/pr34_v2.ckpt` (5 objects, 3 of them compressed, 2
//! cooldown entries, the spatial index) is a version-2 blob: the
//! checksum covers the header, and a compressed object stores its
//! Gaussian and compression epoch only. It was written by this file's
//! `cfg()`, `engine()` and `batches()`:
//!
//! ```ignore
//! let mut first = engine(cfg());
//! let mut events = Vec::new();
//! for b in &batches()[..CUT] {
//!     first.process_batch_into(b, &mut events);
//! }
//! std::fs::write(path, first.checkpoint_bytes(Epoch(CUT as u64 - 1))).unwrap();
//! ```
//!
//! Every list in the payload is in a canonical order, so the bytes do
//! not depend on how the writing engine laid its state out. The
//! fixture's engine state predates the box cone sampler, which
//! re-blessed the goldens: today's engine restores it, writes it back
//! byte for byte and finishes it on a literal digest, and its own
//! checkpoint at the same cut finishes on the uninterrupted stream.
//!
//! `fixtures/pr13_four_partitions.ckpt` (7,809 bytes) is a version-1
//! blob of the same cut and config, written by an engine that still
//! partitioned its objects. This build refuses it as
//! `UnsupportedVersion(1)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::engine::checkpoint::{config_fingerprint, peek_epoch, CheckpointError};
use rfid_core::engine::run_engine;
use rfid_core::{
    FilterConfig, InferenceEngine, ReaderMode, DECOMPRESSED_PARTICLES, INIT_CONE_HALF_ANGLE,
    MAX_INIT_RANGE, RESPAWN_DISTANCE, SMALL_MOVE_DISTANCE,
};
use rfid_geom::{Aabb, Point3, Pose};
use rfid_model::{BoxPrior, JointModel, ModelParams, ReadRateModel};
use rfid_stream::digest::{event_digest, fnv1a, FNV_OFFSET};
use rfid_stream::{Epoch, EpochBatch, InferenceStage, TagId};

const FIXTURE: &[u8] = include_bytes!("fixtures/pr34_v2.ckpt");
const V1_FIXTURE: &[u8] = include_bytes!("fixtures/pr13_four_partitions.ckpt");
const EPOCHS: u64 = 100;
/// Batches the fixture's writer had processed.
const CUT: usize = 40;

fn cfg() -> FilterConfig {
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 40;
    cfg.reader_particles = 20;
    cfg.report_delay_epochs = 8;
    cfg.compression.idle_epochs = 6;
    cfg
}

fn engine(config: FilterConfig) -> InferenceEngine<BoxPrior> {
    let model = JointModel::new(ModelParams::default_warehouse());
    let prior = BoxPrior::new(Aabb::new(
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(4.0, 40.0, 0.0),
    ));
    let shelf = vec![
        (TagId(1_000_000), Point3::new(2.0, 2.0, 0.0)),
        (TagId(1_000_001), Point3::new(2.0, 6.0, 0.0)),
    ];
    InferenceEngine::new(model, prior, shelf, config).unwrap()
}

/// Six objects along an aisle; the reader walks out and back, so
/// objects compressed on the way out are read again (decompressed)
/// after the cut.
fn batches() -> Vec<EpochBatch> {
    let model = JointModel::new(ModelParams::default_warehouse());
    let mut rng = StdRng::seed_from_u64(1404);
    let objs: Vec<(u64, Point3)> = (0..6)
        .map(|i| (i, Point3::new(2.0, 1.0 + i as f64 * 1.5, 0.0)))
        .collect();
    (0..EPOCHS)
        .map(|t| {
            let y = t.min(EPOCHS - t) as f64 * 0.15;
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

#[test]
fn parent_written_checkpoint_restores_and_finishes_on_the_uninterrupted_digest() {
    let all = batches();
    let mut uninterrupted = engine(cfg());
    let expect = run_engine(&mut uninterrupted, &all);
    assert_eq!(uninterrupted.stats().decompressions, 4);

    // the events today's engine had emitted at the cut, then those of
    // an engine restored from its checkpoint: together they must be the
    // uninterrupted stream
    let mut events = Vec::new();
    let mut first = engine(cfg());
    for b in &all[..CUT] {
        first.process_batch_into(b, &mut events);
    }
    let at = Epoch(CUT as u64 - 1);
    let mut resumed = engine(cfg());
    assert_eq!(
        resumed.restore_bytes(&first.checkpoint_bytes(at)).unwrap(),
        at
    );
    for b in &all[CUT..] {
        resumed.process_batch_into(b, &mut events);
    }
    resumed.finalize_into(Epoch(EPOCHS - 1), &mut events);
    assert_eq!(event_digest(&events), event_digest(&expect));
    // the restored counters carry on from the writer's
    let (a, b) = (resumed.stats(), uninterrupted.stats());
    assert_eq!(
        (a.epochs, a.object_updates, a.compressions, a.decompressions),
        (b.epochs, b.object_updates, b.compressions, b.decompressions)
    );

    // the fixture's engine state came from the sampler before the box:
    // it restores, a restored engine writes it back byte for byte, and
    // today's engine finishes it on the stream pinned here
    assert_eq!(peek_epoch(FIXTURE).unwrap(), at);
    let mut parent = engine(cfg());
    assert_eq!(parent.restore_bytes(FIXTURE).unwrap(), at);
    assert!(parent.checkpoint_bytes(at) == FIXTURE, "checkpoint bytes");
    assert_eq!(parent.tracked_objects().count(), 5);
    assert_eq!(parent.num_compressed(), 3);
    assert_eq!(parent.cooldown_entries(), 2);
    let mut tail = Vec::new();
    for b in &all[CUT..] {
        parent.process_batch_into(b, &mut tail);
    }
    parent.finalize_into(Epoch(EPOCHS - 1), &mut tail);
    assert_eq!(
        (tail.len(), event_digest(&tail)),
        (6, 0xf316_5618_b442_a66e)
    );
}

#[test]
fn config_fingerprints_equal_the_parents() {
    // literals computed at commit 6771bac; a checkpoint's header
    // carries one, so a drift here orphans every checkpoint on disk
    assert_eq!(
        config_fingerprint(&FilterConfig::full_default()),
        0xcb71_515f_ff2f_a0de
    );
    assert_eq!(
        config_fingerprint(&FilterConfig::factored_default()),
        0xa003_0d50_f013_2102
    );
    assert_eq!(config_fingerprint(&cfg()), 0x45f3_086d_15cf_fb8b);
}

/// The fingerprint `c` had while `FilterConfig` still carried the
/// quantized likelihood table: `table` is that option's
/// `(d_step, theta_step)` when it was on. Field order and widths as
/// `config_bytes` wrote them at commit 1b977d4, the last with the option.
fn fingerprint_with_table(c: &FilterConfig, table: Option<(f64, f64)>) -> u64 {
    fingerprint_at(c, RESPAWN_DISTANCE, table)
}

/// [`fingerprint_with_table`] as a build whose respawn distance (a
/// `FilterConfig` field until PR 23, like the other four constants
/// named here) was `respawn_distance` computed it.
fn fingerprint_at(c: &FilterConfig, respawn_distance: f64, table: Option<(f64, f64)>) -> u64 {
    let mut b = Vec::new();
    b.extend((c.particles_per_object as u64).to_le_bytes());
    b.extend((c.reader_particles as u64).to_le_bytes());
    for v in [
        c.resample_ess_frac,
        c.init_range_overestimate,
        INIT_CONE_HALF_ANGLE,
        MAX_INIT_RANGE,
        respawn_distance,
        SMALL_MOVE_DISTANCE,
    ] {
        b.extend(v.to_bits().to_le_bytes());
    }
    b.push((c.reader_mode == ReaderMode::TrustReports) as u8);
    b.push(c.use_spatial_index as u8);
    b.push(c.compression.enabled as u8);
    b.extend(c.compression.idle_epochs.to_le_bytes());
    // the removed compression-loss threshold, at the value every
    // config carried
    b.extend(f64::INFINITY.to_bits().to_le_bytes());
    b.extend((DECOMPRESSED_PARTICLES as u64).to_le_bytes());
    b.push(table.is_some() as u8);
    if let Some((d_step, theta_step)) = table {
        b.extend(d_step.to_bits().to_le_bytes());
        b.extend(theta_step.to_bits().to_le_bytes());
    }
    b.extend(c.report_delay_epochs.to_le_bytes());
    b.extend(c.seed.to_le_bytes());
    fnv1a(FNV_OFFSET, &b)
}

#[test]
fn checkpoint_written_with_the_table_on_is_refused() {
    // the byte layout above is the engine's: table off reproduces it
    assert_eq!(
        fingerprint_with_table(&cfg(), None),
        config_fingerprint(&cfg())
    );
    let table_on = fingerprint_with_table(&cfg(), Some((0.05, 0.02)));
    // the fingerprint sits after the 8-byte magic and the u32 version
    let mut blob = FIXTURE.to_vec();
    blob[12..20].copy_from_slice(&table_on.to_le_bytes());
    match engine(cfg()).restore_bytes(&blob) {
        Err(CheckpointError::ConfigMismatch { expected, found }) => {
            assert_eq!(expected, config_fingerprint(&cfg()));
            assert_eq!(found, table_on);
        }
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

#[test]
fn checkpoint_written_with_another_respawn_distance_is_refused() {
    // a value that was a field when the blob was written and is a
    // constant now still sits in the fingerprint
    let other = fingerprint_at(&cfg(), 3.0, None);
    let mut blob = FIXTURE.to_vec();
    blob[12..20].copy_from_slice(&other.to_le_bytes());
    assert!(matches!(
        engine(cfg()).restore_bytes(&blob),
        Err(CheckpointError::ConfigMismatch { found, .. }) if found == other
    ));
}

#[test]
fn version_1_checkpoint_is_refused() {
    assert!(matches!(
        peek_epoch(V1_FIXTURE),
        Err(CheckpointError::UnsupportedVersion(1))
    ));
    assert!(matches!(
        engine(cfg()).restore_bytes(V1_FIXTURE),
        Err(CheckpointError::UnsupportedVersion(1))
    ));
}
