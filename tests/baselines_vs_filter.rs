//! Cross-crate comparison: our system vs SMURF vs uniform, on a trace
//! with reader-location drift — the paper's headline comparison in
//! miniature.

use rfid_repro::baselines::{Smurf, SmurfConfig, UniformBaseline};
use rfid_repro::core::engine::run_engine;
use rfid_repro::prelude::*;
use rfid_repro::sim::LabDeployment;
use rfid_repro::stream::Epoch;

fn mean_err(events: &[LocationEvent], truth: &rfid_repro::sim::GroundTruth) -> f64 {
    let mut s = 0.0;
    let mut n = 0;
    for e in events {
        if let Some(t) = truth.object_at(e.tag, e.epoch) {
            s += e.location.dist_xy(&t);
            n += 1;
        }
    }
    assert!(n > 0, "no scorable events");
    s / n as f64
}

#[test]
fn our_system_beats_smurf_on_the_lab_rig() {
    let lab = LabDeployment::standard();
    let trace = lab.generate(500, 11);
    let batches = trace.epoch_batches();
    let last = batches.last().unwrap().epoch;
    let shelves = vec![lab.imagined_shelf(0, true), lab.imagined_shelf(1, true)];

    // ours: a wide-angle logistic model matching the lab's spherical
    // antenna, with weak report trust (no EM here — the calibration
    // path is covered by rfid-learn's tests and the fig6b experiment;
    // this test isolates the inference comparison)
    let mut params = ModelParams::default_warehouse();
    params.sensor = SensorParams {
        a: [3.0, -0.5, -0.3],
        b: [-1.5, -0.5],
    };
    params.sensing.sigma = Vec3::new(0.3, 0.3, 0.0);
    let mut cfg = FilterConfig::factored_default();
    cfg.particles_per_object = 600;
    let mut engine = InferenceEngine::new(
        JointModel::new(params),
        lab.prior(),
        trace.shelf_tags.clone(),
        cfg,
    )
    .unwrap();
    let ours = run_engine(&mut engine, &batches);

    // SMURF
    let mut smurf = Smurf::new(
        SmurfConfig::new(3.0, shelves.clone()),
        trace.shelf_tags.iter().map(|(t, _)| *t),
    );
    let mut smurf_events = Vec::new();
    for b in &batches {
        smurf_events.extend(smurf.process_batch(b));
    }
    smurf_events.extend(smurf.finalize(last));

    // uniform
    let mut uni = UniformBaseline::new(3.0, shelves, trace.shelf_tags.iter().map(|(t, _)| *t), 5);
    let mut uni_events = Vec::new();
    for b in &batches {
        uni_events.extend(uni.process_batch(b));
    }
    uni_events.extend(uni.finalize(last));

    let e_ours = mean_err(&ours, &trace.truth);
    let e_smurf = mean_err(&smurf_events, &trace.truth);
    let e_uni = mean_err(&uni_events, &trace.truth);

    // the paper's ordering: ours < SMURF <= uniform
    assert!(
        e_ours < e_smurf,
        "our system should beat SMURF: {e_ours} vs {e_smurf}"
    );
    assert!(
        e_smurf < e_uni + 0.3,
        "SMURF should not lose badly to uniform: {e_smurf} vs {e_uni}"
    );
    // and a substantial reduction, in the spirit of the 49% claim
    let reduction = 100.0 * (1.0 - e_ours / e_smurf);
    assert!(
        reduction > 15.0,
        "error reduction vs SMURF only {reduction:.0}%"
    );
}

#[test]
fn every_object_reported_by_all_three_systems() {
    let lab = LabDeployment::standard();
    let trace = lab.generate(750, 12);
    let batches = trace.epoch_batches();
    let last = batches.last().unwrap().epoch;
    let shelves = vec![lab.imagined_shelf(0, false), lab.imagined_shelf(1, false)];

    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 300;
    let mut engine = InferenceEngine::new(
        JointModel::new(ModelParams::default_warehouse()),
        lab.prior(),
        trace.shelf_tags.clone(),
        cfg,
    )
    .unwrap();
    let ours = run_engine(&mut engine, &batches);

    let mut smurf = Smurf::new(
        SmurfConfig::new(3.0, shelves.clone()),
        trace.shelf_tags.iter().map(|(t, _)| *t),
    );
    let mut smurf_events = Vec::new();
    for b in &batches {
        smurf_events.extend(smurf.process_batch(b));
    }
    smurf_events.extend(smurf.finalize(last));

    let mut uni = UniformBaseline::new(3.0, shelves, trace.shelf_tags.iter().map(|(t, _)| *t), 6);
    let mut uni_events = Vec::new();
    for b in &batches {
        uni_events.extend(uni.process_batch(b));
    }
    uni_events.extend(uni.finalize(last));

    for (name, events) in [
        ("ours", &ours),
        ("smurf", &smurf_events),
        ("uniform", &uni_events),
    ] {
        let mut tags: Vec<u64> = events.iter().map(|e| e.tag.0).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags.len(),
            80,
            "{name} should report every one of the 80 tags, got {}",
            tags.len()
        );
    }
    let _ = Epoch(0);
}
