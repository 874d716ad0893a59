//! The golden-trace scenarios and their pinned configurations, shared
//! by every process of a cluster run (each process rebuilds the same
//! engine from the scenario name) and by the recovery/cluster
//! harnesses in `rfid-bench`.

use rfid_core::engine::run_engine;
use rfid_core::{FilterConfig, InferenceEngine};
use rfid_model::{ConeSensor, JointModel, ModelParams};
use rfid_sim::scenario::{self, Scenario};
use rfid_sim::WarehouseLayout;
use rfid_stream::LocationEvent;

/// The engine type every cluster process runs.
pub type Engine = InferenceEngine<WarehouseLayout, ConeSensor>;

/// The three golden-trace scenarios (plus `"tiny"`, a fast variant for
/// harness self-tests), with the same pinned configurations the
/// golden-trace digests are committed under.
pub fn canonical_scenario(name: &str) -> Option<(Scenario, FilterConfig)> {
    let pinned = |particles: usize| {
        let mut cfg = FilterConfig::full_default();
        cfg.particles_per_object = particles;
        cfg.reader_particles = 60;
        cfg.report_delay_epochs = 30;
        cfg
    };
    match name {
        "small_warehouse" => Some((scenario::small_trace(10, 4, 2024), pinned(250))),
        "low_read_rate" => Some((scenario::read_rate_trace(0.7, 333), pinned(200))),
        "moving_object" => Some((scenario::moving_object_trace(6.0, 200, 666), pinned(150))),
        "tiny" => Some((scenario::small_trace(3, 2, 77), pinned(30))),
        _ => None,
    }
}

/// Builds the paper-default engine for a scenario. Every process of a
/// cluster run calls this with the same `(scenario, config)` pair —
/// seed included — which is what lets the head replay the reader
/// update and the workers replay their object partitions exactly.
pub fn build_engine(sc: &Scenario, cfg: &FilterConfig) -> Engine {
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), *cfg)
        .expect("valid config")
}

/// The single-process reference event stream — the exact bytes every
/// cluster run must reproduce.
pub fn reference_events(sc: &Scenario, cfg: &FilterConfig) -> Vec<LocationEvent> {
    let mut engine = build_engine(sc, cfg);
    run_engine(&mut engine, &sc.trace.epoch_batches())
}
