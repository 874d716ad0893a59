//! Cross-crate stream test: the paper's two CQL queries run against
//! the engine's cleaned event stream and produce sensible answers that
//! the raw streams could not.

use rfid_repro::core::engine::run_engine;
use rfid_repro::prelude::*;
use rfid_repro::sim::scenario;
use rfid_repro::stream::queries::{FireCodeQuery, LocationChangeQuery, SquareFtArea};
use rfid_repro::stream::synchronize_traces;

#[test]
fn location_change_query_fires_once_per_stationary_object() {
    let sc = scenario::small_trace(8, 4, 300);
    let mut cfg = FilterConfig::factored_default();
    cfg.particles_per_object = 400;
    let mut engine = InferenceEngine::new(
        JointModel::new(ModelParams::default_warehouse()),
        sc.layout.clone(),
        sc.trace.shelf_tags.clone(),
        cfg,
    )
    .unwrap();
    let events = run_engine(&mut engine, &sc.trace.epoch_batches());

    let mut q = LocationChangeQuery::new(0.1);
    let mut updates = 0;
    for e in &events {
        if q.push(e).is_some() {
            updates += 1;
        }
    }
    // stationary objects, one event each: exactly one update per object
    assert_eq!(updates, 8);
    assert_eq!(q.num_tags(), 8);
}

#[test]
fn fire_code_query_counts_objects_per_square_foot() {
    // 16 objects on 8 ft of shelf: two per square foot, each 110 lb
    // => every occupied square foot totals 220 lb > 200 lb
    let sc = scenario::small_trace(16, 4, 301);
    let mut cfg = FilterConfig::factored_default();
    cfg.particles_per_object = 600;
    let mut engine = InferenceEngine::new(
        JointModel::new(ModelParams::default_warehouse()),
        sc.layout.clone(),
        sc.trace.shelf_tags.clone(),
        cfg,
    )
    .unwrap();
    let events = run_engine(&mut engine, &sc.trace.epoch_batches());

    let mut q = FireCodeQuery::new(5.0, |_| 110.0, 200.0);
    let mut violating_areas: Vec<SquareFtArea> = Vec::new();
    for e in &events {
        let t = e.epoch.0 as f64;
        q.push(t, e);
        for (area, _total) in q.evaluate(t) {
            if !violating_areas.contains(&area) {
                violating_areas.push(area);
            }
        }
    }
    assert!(
        !violating_areas.is_empty(),
        "densely packed shelf must trigger the fire code"
    );
    // violations sit on the shelf band (x cell 1 or 2 for the 2-ft standoff)
    for a in &violating_areas {
        assert!((1..=2).contains(&a.x), "violation off-shelf at {a:?}");
    }
}

#[test]
fn synchronizer_feeds_engine_identically_to_batch_helper() {
    // stream the raw trace through the incremental synchronizer and
    // compare with the one-shot helper
    let sc = scenario::small_trace(6, 2, 302);
    let batches_oneshot = sc.trace.epoch_batches();

    let mut sync = rfid_repro::stream::StreamSynchronizer::new(sc.trace.epoch_len);
    let mut batches_inc = Vec::new();
    let mut ri = 0;
    let mut pi = 0;
    let readings = &sc.trace.readings;
    let reports = &sc.trace.reports;
    // interleave by time
    while ri < readings.len() || pi < reports.len() {
        let next_reading = readings.get(ri).map(|r| r.time).unwrap_or(f64::INFINITY);
        let next_report = reports.get(pi).map(|r| r.time).unwrap_or(f64::INFINITY);
        if next_reading <= next_report {
            sync.push_reading(readings[ri]);
            ri += 1;
        } else {
            sync.push_report(reports[pi]);
            pi += 1;
        }
        batches_inc.extend(sync.drain_ready());
    }
    batches_inc.extend(sync.flush());

    assert_eq!(batches_oneshot.len(), batches_inc.len());
    for (a, b) in batches_oneshot.iter().zip(&batches_inc) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.readings, b.readings);
    }
    // and the helper agrees with itself
    let again = synchronize_traces(readings, reports, sc.trace.epoch_len);
    assert_eq!(again.len(), batches_oneshot.len());
}
