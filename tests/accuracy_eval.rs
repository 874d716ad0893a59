//! Accuracy-evaluation integration: the event-level scorer over real
//! system runs, and the determinism contract extended to the new
//! adversarial scenarios — accuracy results must be bit-identical for
//! every `worker_threads` value, or the accuracy trajectory would
//! depend on the execution configuration.

use rfid_bench::runner::{
    run_baseline_uniform, run_engine_variant_opts, EngineVariant, InferenceSensor, RunOpts,
};
use rfid_bench::{score_scenario, EventScoreConfig};
use rfid_model::sensor::ConeSensor;
use rfid_model::ModelParams;
use rfid_repro::sim::scenario;
use rfid_stream::LocationEvent;

fn run_churn(workers: usize) -> (scenario::Scenario, Vec<LocationEvent>) {
    let sc = scenario::tag_churn_trace(4004);
    let out = run_engine_variant_opts(
        &sc.trace.epoch_batches(),
        &sc.layout,
        &sc.trace.shelf_tags,
        EngineVariant::Full,
        InferenceSensor::TrueCone(ConeSensor::paper_default()),
        ModelParams::default_warehouse(),
        RunOpts::new(150, 30).with_workers(workers),
    );
    (sc, out.events)
}

// The name is the id the tier-1 floor list knows this pin by; the
// subject is `worker_threads`.
#[test]
fn churn_accuracy_is_bit_identical_across_workers_and_shards() {
    let (_, base) = run_churn(1);
    assert!(!base.is_empty());
    // the digest covers every bit of every event — epoch, tag, full
    // location, and the statistics payload — so a scheduling-dependent
    // perturbation anywhere in the stream fails here
    let base_digest = rfid_bench::golden::event_digest(&base);
    for workers in [2usize, 4] {
        let (_, events) = run_churn(workers);
        // field-level diagnostics first: a digest mismatch alone
        // would not say where the streams diverged
        assert_eq!(base.len(), events.len(), "w={workers}");
        for (a, b) in base.iter().zip(&events) {
            assert_eq!(a.epoch, b.epoch, "w={workers}");
            assert_eq!(a.tag, b.tag, "w={workers}");
            assert_eq!(
                a.location.x.to_bits(),
                b.location.x.to_bits(),
                "w={workers} tag={:?}",
                a.tag
            );
        }
        assert_eq!(
            base_digest,
            rfid_bench::golden::event_digest(&events),
            "w={workers}: full-bit digest diverged"
        );
    }
}

#[test]
fn engine_beats_uniform_on_event_f1_under_churn() {
    let (sc, events) = run_churn(1);
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
    let out = run_engine_variant_opts(
        &sc.trace.epoch_batches(),
        &sc.layout,
        &sc.trace.shelf_tags,
        EngineVariant::Full,
        InferenceSensor::TrueCone(ConeSensor::paper_default()),
        ModelParams::default_warehouse(),
        RunOpts::new(150, 30),
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
