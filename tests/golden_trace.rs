//! Golden-trace regression harness: the engine's event stream on three
//! canonical scenarios is pinned bit-for-bit by digests committed
//! under `tests/golden/`. Any change to the inference math — a model
//! constant, an RNG draw, a resampling rule, a merge order — flips a
//! digest and fails tier-1 instead of passing silently.
//!
//! Intentional inference changes regenerate the digests via the bless
//! path:
//!
//! ```text
//! RFID_GOLDEN_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and the diff of `tests/golden/*.txt` is then reviewed like any
//! other behavioral change. The digests also depend on the host's math
//! library; `tests/libm_pin.rs` pins the one they were blessed under.

use rfid_bench::golden::render_digest;
use rfid_repro::prelude::*;
use rfid_repro::sim::scenario::Scenario;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Runs the engine over a scenario with a fully pinned configuration
/// and checks (or blesses) its digest file.
fn check_golden(name: &str, sc: &Scenario, cfg: FilterConfig, cfg_desc: &str) {
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    let mut engine =
        InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
            .expect("valid config");
    let events = run_engine(&mut engine, &sc.trace.epoch_batches());
    assert!(!events.is_empty(), "{name}: scenario produced no events");

    let rendered = render_digest(name, cfg_desc, &events);
    let path = golden_path(name);
    if std::env::var_os("RFID_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden digest");
        eprintln!("blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest {} ({e}); regenerate with \
             RFID_GOLDEN_BLESS=1 cargo test --test golden_trace",
            path.display()
        )
    });
    assert_eq!(
        committed,
        rendered,
        "{name}: the engine's event stream drifted from the committed \
         golden digest. If the inference change is intentional, rerun \
         with RFID_GOLDEN_BLESS=1 and review the diff of {}. If the \
         source did not change, run `cargo test --test libm_pin`: it \
         names the math-library function whose results differ from \
         the ones the goldens were blessed under.",
        path.display()
    );
}

fn pinned(particles: usize) -> FilterConfig {
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = particles;
    cfg.reader_particles = 60;
    cfg.report_delay_epochs = 30;
    cfg
}

#[test]
fn golden_small_warehouse() {
    let sc = rfid_repro::sim::scenario::small_trace(10, 4, 2024);
    check_golden(
        "small_warehouse",
        &sc,
        pinned(250),
        "small_trace(10,4,2024) full_default particles=250 reader=60 delay=30 cone=paper",
    );
}

#[test]
fn golden_low_read_rate() {
    let sc = rfid_repro::sim::scenario::read_rate_trace(0.7, 333);
    check_golden(
        "low_read_rate",
        &sc,
        pinned(200),
        "read_rate_trace(0.7,333) full_default particles=200 reader=60 delay=30 cone=paper",
    );
}

#[test]
fn golden_moving_object() {
    let sc = rfid_repro::sim::scenario::moving_object_trace(6.0, 200, 666);
    check_golden(
        "moving_object",
        &sc,
        pinned(150),
        "moving_object_trace(6.0,200,666) full_default particles=150 reader=60 delay=30 cone=paper",
    );
}
