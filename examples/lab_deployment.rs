//! The (simulated) §V-C lab deployment: self-calibrate from reference
//! tags, then compare our system against the SMURF and uniform
//! baselines on a robot trace with dead-reckoning drift — every system
//! driven through the same streaming pipeline.
//!
//! ```text
//! cargo run --release --example lab_deployment
//! ```

use rfid_repro::baselines::{Smurf, SmurfConfig, UniformBaseline};
use rfid_repro::prelude::*;
use rfid_repro::sim::{LabDeployment, SimTrace};
use rfid_repro::stream::{InferenceStage, Pipeline};

fn mean_xy_error(events: &[LocationEvent], truth: &rfid_repro::sim::GroundTruth) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for e in events {
        if let Some(t) = truth.object_at(e.tag, e.epoch) {
            sum += e.location.dist_xy(&t);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Streams the trace through any inference stage and collects events.
fn run_stage<St: InferenceStage>(trace: &SimTrace, stage: St) -> Vec<LocationEvent> {
    let mut pipeline = Pipeline::new(trace.epoch_len, stage, Vec::new());
    pipeline.run_to_completion(&mut trace.stream());
    let (_, events, _) = pipeline.into_parts();
    events
}

fn main() {
    let lab = LabDeployment::standard();
    println!(
        "lab rig: {} tags in two rows, {} reference tags, robot scans at 0.1 ft/s\n",
        lab.objects.len(),
        lab.reference_tags.len()
    );

    // --- self-calibration (§III-C) --------------------------------
    // Learn the sensor model and noise parameters from a training
    // trace, using only the reference tags' known positions.
    let train = lab.generate(500, 1);
    let mut init = ModelParams::default_warehouse();
    init.sensor = SensorParams {
        a: [2.0, -0.2, -0.05],
        b: [-0.1, -0.5],
    };
    let em = calibrate(
        &train.epoch_batches(),
        &train.shelf_tags,
        &lab.prior(),
        init,
        &EmConfig::default(),
    );
    let learned = em.params;
    println!(
        "calibrated from {} training rows; learned sensor a = [{:.2}, {:.2}, {:.2}]",
        em.final_rows, learned.sensor.a[0], learned.sensor.a[1], learned.sensor.a[2]
    );

    // --- the comparison trace --------------------------------------
    let trace = lab.generate(500, 2);
    let read_range = LogisticSensorModel::new(learned.sensor).detection_range(0.2);
    let shelves = vec![lab.imagined_shelf(0, true), lab.imagined_shelf(1, true)];

    // our system
    let mut cfg = FilterConfig::factored_default();
    cfg.particles_per_object = 1000;
    let engine = InferenceEngine::new(
        JointModel::new(learned),
        lab.prior(),
        trace.shelf_tags.clone(),
        cfg,
    )
    .expect("valid configuration");
    let ours = run_stage(&trace, engine);

    // SMURF (augmented with location sampling, §V-C)
    let smurf_events = run_stage(
        &trace,
        Smurf::new(
            SmurfConfig::new(read_range, shelves.clone()),
            trace.shelf_tags.iter().map(|(t, _)| *t),
        ),
    );

    // uniform worst-case bound
    let uni_events = run_stage(
        &trace,
        UniformBaseline::new(
            read_range,
            shelves,
            trace.shelf_tags.iter().map(|(t, _)| *t),
            3,
        ),
    );

    // --- results ----------------------------------------------------
    let e_ours = mean_xy_error(&ours, &trace.truth);
    let e_smurf = mean_xy_error(&smurf_events, &trace.truth);
    let e_uni = mean_xy_error(&uni_events, &trace.truth);
    println!("\nmean XY error over the scan (small imagined shelf):");
    println!("  our system : {e_ours:.2} ft ({} events)", ours.len());
    println!(
        "  SMURF      : {e_smurf:.2} ft ({} events)",
        smurf_events.len()
    );
    println!("  uniform    : {e_uni:.2} ft ({} events)", uni_events.len());
    println!(
        "\nerror reduction vs SMURF: {:.0}%  (the paper reports 49% on its rig)",
        100.0 * (1.0 - e_ours / e_smurf)
    );
}
