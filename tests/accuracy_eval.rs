//! Accuracy-evaluation integration: the event-level scorer over real
//! system runs on the adversarial scenarios. (That the churn scenario's
//! event stream is reproducible bit for bit is pinned next to the other
//! determinism checks, in `crates/core/tests/determinism.rs`.)

use rfid_bench::metrics::{score_scenario, EventScoreConfig};
use rfid_bench::runner::{
    run_baseline_uniform, run_engine_variant, EngineVariant, InferenceSensor,
};
use rfid_model::{ConeSensor, ModelParams};
use rfid_repro::sim::scenario;
use rfid_stream::LocationEvent;

fn run_churn() -> (scenario::Scenario, Vec<LocationEvent>) {
    let sc = scenario::tag_churn_trace(4004);
    let out = run_engine_variant(
        &sc.trace.epoch_batches(),
        &sc.layout,
        &sc.trace.shelf_tags,
        EngineVariant::Full,
        InferenceSensor::TrueCone(ConeSensor::paper_default()),
        ModelParams::default_warehouse(),
        150,
        30,
    );
    (sc, out.events)
}

#[test]
fn engine_beats_uniform_on_event_f1_under_churn() {
    let (sc, events) = run_churn();
    let cfg = EventScoreConfig::default();
    let engine = score_scenario(&events, &sc, &cfg);
    let shelves = sc.layout.shelves().iter().map(|s| s.bbox).collect();
    let uni = run_baseline_uniform(
        &sc.trace.epoch_batches(),
        shelves,
        4.4,
        &sc.trace.shelf_tags,
        21,
    );
    let uniform = score_scenario(&uni.events, &sc, &cfg);
    assert!(
        engine.events.f1 > uniform.events.f1,
        "engine F1 {} must beat uniform {}",
        engine.events.f1,
        uniform.events.f1
    );
    // churn-specific: arrivals are recalled, and the engine does not
    // hallucinate departed objects into the second scan pass
    assert!(
        engine.events.recall > 0.8,
        "recall {}",
        engine.events.recall
    );
    assert_eq!(engine.events.confusion.phantom, 0, "phantom events");
    // every event is attributable to the correct shelf
    assert!(
        engine.containment > 0.9,
        "containment {}",
        engine.containment
    );
}

#[test]
fn scorer_handles_conveyor_change_detection_end_to_end() {
    let sc = scenario::conveyor_trace(4004);
    let out = run_engine_variant(
        &sc.trace.epoch_batches(),
        &sc.layout,
        &sc.trace.shelf_tags,
        EngineVariant::Full,
        InferenceSensor::TrueCone(ConeSensor::paper_default()),
        ModelParams::default_warehouse(),
        150,
        30,
    );
    let s = score_scenario(&out.events, &sc, &EventScoreConfig::default());
    assert!(s.change.moves_total > 50, "moves {}", s.change.moves_total);
    assert!(
        s.change.moves_detected > 0,
        "continuous motion must be detectable"
    );
    assert!(s.change.mean_delay_epochs >= 0.0);
    assert!(s.events.f1 > 0.5, "f1 {}", s.events.f1);
}
