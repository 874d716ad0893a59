//! Determinism of the execution model: the streaming pipeline (source
//! → synchronizer → engine → sink) must emit the event stream of the
//! batch path (`run_engine` over `Vec<EpochBatch>`) **bit for bit**,
//! and a rerun from the same seed must reproduce it, because each
//! object step draws from its own `(seed, tag, epoch)` RNG stream and
//! all cross-object side effects (reader support, remap draws, event
//! order) happen in tag order. The other two axes of the contract —
//! cluster size and checkpoint restart — are pinned by
//! `cluster_determinism.rs`, `tests/cluster_equivalence.rs`,
//! `checkpoint_compat.rs` and the kill-and-restart suites.

use rfid_core::engine::run_engine;
use rfid_core::{FilterConfig, InferenceEngine};
use rfid_model::{ConeSensor, JointModel, ModelParams};
use rfid_sim::scenario::{self, Scenario};
use rfid_stream::digest::event_digest;
use rfid_stream::pipeline::DEFAULT_MAX_SKEW_EPOCHS;
use rfid_stream::{LocationEvent, Pipeline, PipelineStats};

fn engine_for(
    sc: &Scenario,
    cfg: FilterConfig,
) -> InferenceEngine<rfid_sim::WarehouseLayout, ConeSensor> {
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid config")
}

fn run_batch(sc: &Scenario, cfg: FilterConfig) -> Vec<LocationEvent> {
    let mut engine = engine_for(sc, cfg);
    run_engine(&mut engine, &sc.trace.epoch_batches())
}

/// The same trace, but pulled incrementally through the streaming
/// pipeline (source → synchronizer → engine → sink).
fn run_pipeline(sc: &Scenario, cfg: FilterConfig) -> (Vec<LocationEvent>, PipelineStats) {
    let engine = engine_for(sc, cfg);
    let mut pipeline = Pipeline::new(sc.trace.epoch_len, engine, Vec::new());
    let stats = pipeline.run_to_completion(&mut sc.trace.stream());
    let (_, events, _) = pipeline.into_parts();
    (events, stats)
}

/// The two inputs every pin runs on: a steady two-round scan, and a
/// scan with tags arriving and departing between rounds (states are
/// created mid-run and go silent for good, which the first never
/// exercises).
fn scenarios() -> [(&'static str, Scenario); 2] {
    [
        ("scalability", scenario::scalability_trace(60, 4242)),
        ("tag churn", scenario::tag_churn_trace(4004)),
    ]
}

fn assert_pipeline_matches_batch(cfg: FilterConfig) {
    for (name, sc) in scenarios() {
        let batch = run_batch(&sc, cfg);
        assert!(!batch.is_empty(), "{name}: trace produced no events");
        assert_identical(&batch, &run_pipeline(&sc, cfg).0, name);
    }
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
fn pipeline_bit_identical_to_batch() {
    let mut cfg = FilterConfig::indexed_default();
    cfg.particles_per_object = 150;
    cfg.reader_particles = 50;
    cfg.report_delay_epochs = 40;
    assert_pipeline_matches_batch(cfg);

    // bounded memory on a real trace: ten times the scan rounds may not
    // buffer more — both high-water marks are held by the synchronizer's
    // skew window, not by the trace length
    cfg.particles_per_object = 30;
    let window = DEFAULT_MAX_SKEW_EPOCHS as usize + 1;
    for rounds in [2, 20] {
        let (_, stats) = run_pipeline(&scenario::endurance_trace(20, rounds, 99), cfg);
        assert!(
            stats.sync_pending_high_water <= window && stats.batch_buffer_high_water <= window,
            "{rounds} rounds: sync high-water {}, batch high-water {}, window {window}",
            stats.sync_pending_high_water,
            stats.batch_buffer_high_water
        );
    }
}

#[test]
fn full_variant_pipeline_bit_identical_to_batch() {
    // compression + decompression + cooldown scheduling, piped
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 120;
    cfg.reader_particles = 40;
    cfg.report_delay_epochs = 40;
    cfg.compression.idle_epochs = 8;
    assert_pipeline_matches_batch(cfg);
}

#[test]
fn reruns_with_same_seed_are_reproducible() {
    let mut cfg = FilterConfig::indexed_default();
    cfg.particles_per_object = 100;
    cfg.reader_particles = 30;
    cfg.report_delay_epochs = 40;
    for (name, sc) in scenarios() {
        assert_identical(&run_batch(&sc, cfg), &run_batch(&sc, cfg), name);
    }
}

/// The full variant (index + compression) at a size tier-1 can afford,
/// for the two literal pins below.
fn pinned_full() -> FilterConfig {
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 120;
    cfg.reader_particles = 40;
    cfg.report_delay_epochs = 40;
    cfg
}

// Two literal digests written at the commit before the out-of-reach
// test for Case-2 misses landed (PR 24). That test acts only where the
// sensor reports a hard edge *and* the spatial index is on, so an
// engine missing either must not notice it — nor any later change to
// how the index decides: these two streams are pinned by value, not
// against a second run of the same code.
// Both were re-blessed twice: when cone initialization moved to the
// box sampler, and when the object weights moved to probability space.

#[test]
fn a_sensor_without_a_hard_edge_keeps_its_digest() {
    let sc = scenario::scalability_trace(60, 4242);
    let model = JointModel::new(ModelParams::default_warehouse());
    let mut engine = InferenceEngine::new(
        model,
        sc.layout.clone(),
        sc.trace.shelf_tags.clone(),
        pinned_full(),
    )
    .expect("valid config");
    let events = run_engine(&mut engine, &sc.trace.epoch_batches());
    assert_eq!(
        (events.len(), event_digest(&events)),
        (78, 0x26c4f662a1836aa1),
        "the logistic-sensor engine's stream moved"
    );
}

#[test]
fn an_engine_without_the_index_keeps_its_digest() {
    let sc = scenario::scalability_trace(60, 4242);
    let mut cfg = pinned_full();
    cfg.use_spatial_index = false;
    let events = run_batch(&sc, cfg);
    assert_eq!(
        (events.len(), event_digest(&events)),
        (78, 0x722b31a2c5621cd9),
        "the index-off cone-sensor engine's stream moved"
    );
}
