//! Determinism of the execution model: the engine's emitted event
//! stream must be **bit-identical** for every `worker_threads` value
//! *and* between the legacy batch path (`run_engine` over
//! `Vec<EpochBatch>`) and the streaming pipeline, because each object
//! step draws from its own `(seed, tag, epoch)` RNG stream and all
//! cross-object side effects (reader support, remap draws, event
//! order) merge in tag order on the calling thread.
//!
//! Two test names still say "shard": they are the ids the tier-1 floor
//! list knows these pins by.

use rfid_core::engine::run_engine;
use rfid_core::{FilterConfig, InferenceEngine};
use rfid_model::sensor::ConeSensor;
use rfid_model::{JointModel, ModelParams};
use rfid_sim::scenario;
use rfid_stream::{LocationEvent, Pipeline};

fn engine_for(
    sc: &scenario::Scenario,
    cfg: FilterConfig,
) -> InferenceEngine<rfid_sim::WarehouseLayout, ConeSensor> {
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid config")
}

fn run_with_threads(cfg_base: FilterConfig, workers: usize) -> (Vec<LocationEvent>, u64, u64) {
    let sc = scenario::scalability_trace(60, 4242);
    let batches = sc.trace.epoch_batches();
    let mut cfg = cfg_base;
    cfg.worker_threads = workers;
    let mut engine = engine_for(&sc, cfg);
    let events = run_engine(&mut engine, &batches);
    (
        events,
        engine.stats().object_resamples,
        engine.stats().object_updates,
    )
}

/// The same trace, but pulled incrementally through the streaming
/// pipeline (source → synchronizer → engine → sink).
fn run_pipeline_with(cfg_base: FilterConfig, workers: usize) -> Vec<LocationEvent> {
    let sc = scenario::scalability_trace(60, 4242);
    let mut cfg = cfg_base;
    cfg.worker_threads = workers;
    let engine = engine_for(&sc, cfg);
    let mut pipeline = Pipeline::new(sc.trace.epoch_len, engine, Vec::new());
    pipeline.run_to_completion(&mut sc.trace.stream());
    let (_, events, _) = pipeline.into_parts();
    events
}

fn assert_identical(a: &[LocationEvent], b: &[LocationEvent], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: event counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.epoch, y.epoch, "{label}: event {i} epoch");
        assert_eq!(x.tag, y.tag, "{label}: event {i} tag");
        // bit-level equality of the floating-point payloads
        assert_eq!(
            x.location.x.to_bits(),
            y.location.x.to_bits(),
            "{label}: event {i} ({:?}) x",
            x.tag
        );
        assert_eq!(
            x.location.y.to_bits(),
            y.location.y.to_bits(),
            "{label}: event {i} y"
        );
        assert_eq!(
            x.location.z.to_bits(),
            y.location.z.to_bits(),
            "{label}: event {i} z"
        );
        let (sx, sy) = (x.stats.expect("stats"), y.stats.expect("stats"));
        assert_eq!(
            sx.support.to_bits(),
            sy.support.to_bits(),
            "{label}: event {i} support"
        );
        for ax in 0..3 {
            assert_eq!(
                sx.var[ax].to_bits(),
                sy.var[ax].to_bits(),
                "{label}: event {i} var[{ax}]"
            );
        }
    }
}

#[test]
fn events_bit_identical_across_worker_threads() {
    let mut cfg = FilterConfig::indexed_default();
    cfg.particles_per_object = 150;
    cfg.reader_particles = 50;
    cfg.report_delay_epochs = 40;
    let (one, resamples_one, updates_one) = run_with_threads(cfg, 1);
    assert!(!one.is_empty(), "trace produced no events");
    for workers in [2usize, 4] {
        let (multi, resamples, updates) = run_with_threads(cfg, workers);
        assert_identical(&one, &multi, &format!("workers={workers}"));
        assert_eq!(
            resamples_one, resamples,
            "workers={workers}: resample counts"
        );
        assert_eq!(updates_one, updates, "workers={workers}: update counts");
    }
}

#[test]
fn full_variant_bit_identical_across_worker_threads() {
    // compression + decompression draw from the per-tag streams too
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 120;
    cfg.reader_particles = 40;
    cfg.report_delay_epochs = 40;
    cfg.compression.idle_epochs = 8;
    let (one, ..) = run_with_threads(cfg, 1);
    let (four, ..) = run_with_threads(cfg, 4);
    assert_identical(&one, &four, "full workers=4");
}

#[test]
fn pipeline_bit_identical_to_legacy_for_every_worker_shard_combination() {
    // the streaming pipeline must emit the exact bits of the legacy
    // batch path for worker_threads in {1,2,4}
    let mut cfg = FilterConfig::indexed_default();
    cfg.particles_per_object = 150;
    cfg.reader_particles = 50;
    cfg.report_delay_epochs = 40;
    let (legacy, ..) = run_with_threads(cfg, 1);
    assert!(!legacy.is_empty(), "trace produced no events");
    for workers in [1usize, 2, 4] {
        let piped = run_pipeline_with(cfg, workers);
        assert_identical(&legacy, &piped, &format!("pipeline workers={workers}"));
    }
}

#[test]
fn full_variant_pipeline_bit_identical_with_shards() {
    // compression + decompression + cooldown scheduling, piped
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 120;
    cfg.reader_particles = 40;
    cfg.report_delay_epochs = 40;
    cfg.compression.idle_epochs = 8;
    let (legacy, ..) = run_with_threads(cfg, 1);
    let piped = run_pipeline_with(cfg, 4);
    assert_identical(&legacy, &piped, "full pipeline workers=4");
}

#[test]
fn reruns_with_same_seed_are_reproducible() {
    let mut cfg = FilterConfig::indexed_default();
    cfg.particles_per_object = 100;
    cfg.reader_particles = 30;
    cfg.report_delay_epochs = 40;
    let (a, ..) = run_with_threads(cfg, 2);
    let (b, ..) = run_with_threads(cfg, 2);
    assert_identical(&a, &b, "rerun");
}
