//! Cross-crate stream test: the paper's two CQL queries run against
//! the engine's cleaned event stream and produce sensible answers that
//! the raw streams could not.

use rfid_repro::core::engine::run_engine;
use rfid_repro::prelude::*;
use rfid_repro::sim::scenario;
use rfid_repro::stream::queries::{FireCodeQuery, LocationChangeQuery, SquareFtArea};

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
    // stream the raw trace through the incremental synchronizer, the
    // way the pipeline drives it, and compare with the batch helper
    let sc = scenario::small_trace(6, 2, 302);
    let batches_oneshot = sc.trace.epoch_batches();

    let mut sync = rfid_repro::stream::StreamSynchronizer::new(sc.trace.epoch_len);
    let mut batches_inc = Vec::new();
    for item in sc.trace.stream() {
        sync.push(item);
        batches_inc.extend(sync.drain_ready());
    }
    batches_inc.extend(sync.flush());
    assert_eq!(sync.late_dropped(), 0);
    assert_eq!(batches_oneshot, batches_inc);
}

/// FNV-1a over every batch a trace synchronizes into: the batch count,
/// then per batch the epoch, the sorted tags and the averaged report's
/// `x`/`y`/`z`/`phi` bits (or a none-marker).
fn batch_digest(batches: &[EpochBatch]) -> u64 {
    use rfid_repro::stream::digest::{fnv1a, FNV_OFFSET};
    let mut h = fnv1a(FNV_OFFSET, &(batches.len() as u64).to_le_bytes());
    for b in batches {
        h = fnv1a(h, &b.epoch.0.to_le_bytes());
        h = fnv1a(h, &(b.readings.len() as u64).to_le_bytes());
        for tag in &b.readings {
            h = fnv1a(h, &tag.0.to_le_bytes());
        }
        match b.reader_report {
            None => h = fnv1a(h, &[0u8]),
            Some(p) => {
                h = fnv1a(h, &[1u8]);
                for v in [p.pos.x, p.pos.y, p.pos.z, p.phi] {
                    h = fnv1a(h, &v.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

#[test]
fn epoch_batches_match_their_pinned_digests() {
    // the batches every reference run reads (goldens, accuracy rows,
    // recovery and cluster digests, the benchmark's batch reference)
    // must not move by a bit, whichever path synchronizes them
    let pinned: &[(&str, u64)] = &[
        ("churn", 0x58df_9d65_1e1c_0349),
        ("dropout", 0x552b_31f9_dd11_b4e9),
        ("bursty", 0x8ef2_330f_a206_397b),
        ("dense_shelf", 0xcba6_b871_321b_61a3),
        ("conveyor", 0x08bb_44d8_497a_5c39),
        ("multi_room", 0x71d3_47c3_3809_5ed7),
        ("cold_start", 0x87d5_e88c_6e0f_87a7),
        ("silent_skew", 0x7e78_c8fe_bf00_92e3),
        ("read_rate_100", 0x38b0_a551_0682_4320),
        ("read_rate_80", 0x8db6_eefd_1413_e9a9),
        ("read_rate_60", 0x0862_e2d1_e2c9_f8b6),
        ("small_warehouse", 0xf52c_0d4a_0b31_f219),
        ("low_read_rate", 0x74ba_2d5f_466d_54dd),
        ("moving_object", 0x4b34_dcdb_f220_6f89),
        ("tiny", 0x618c_fe4b_69c6_098a),
        ("endurance_2000x1", 0xfa4f_e319_086a_ba00),
        ("endurance_200x20", 0x05a8_2fca_bd2b_ba2d),
        ("lab_500ms", 0x878a_f241_bb2a_ac9f),
    ];
    let mut traces: Vec<(String, SimTrace)> = rfid_bench::accuracy::library(false)
        .into_iter()
        .map(|e| (e.name.to_string(), e.scenario.trace))
        .collect();
    for name in ["small_warehouse", "low_read_rate", "moving_object", "tiny"] {
        let (sc, _) = rfid_cluster::scenario::canonical_scenario(name).unwrap();
        traces.push((name.to_string(), sc.trace));
    }
    traces.push((
        "endurance_2000x1".into(),
        scenario::endurance_trace(2000, 1, 7).trace,
    ));
    traces.push((
        "endurance_200x20".into(),
        scenario::endurance_trace(200, 20, 7).trace,
    ));
    traces.push((
        "lab_500ms".into(),
        rfid_repro::sim::LabDeployment::standard().generate(500, 7),
    ));

    let got: Vec<(String, u64)> = traces
        .iter()
        .map(|(name, trace)| (name.clone(), batch_digest(&trace.epoch_batches())))
        .collect();
    let want: Vec<(String, u64)> = pinned.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(want, got, "epoch batches moved");
}

/// The events of `items` through a pipeline into a fresh engine, with
/// the pipeline's statistics.
fn pipeline_events(
    sc: &scenario::Scenario,
    items: &[StreamItem],
) -> (Vec<LocationEvent>, PipelineStats) {
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 200;
    let engine = InferenceEngine::new(
        JointModel::new(ModelParams::default_warehouse()),
        sc.layout.clone(),
        sc.trace.shelf_tags.clone(),
        cfg,
    )
    .unwrap();
    let mut pipeline = Pipeline::new(sc.trace.epoch_len, engine, Vec::new());
    let stats = pipeline.run_to_completion(&mut items.iter().copied());
    let (_, events, _) = pipeline.into_parts();
    (events, stats)
}

#[test]
fn reports_with_a_non_finite_coordinate_or_heading_move_no_event() {
    use rfid_repro::stream::digest::event_digest;
    let sc = scenario::small_trace(6, 2, 302);
    let clean: Vec<StreamItem> = sc.trace.stream().collect();
    // beside every second report, at its time (so its epoch keeps a
    // healthy report too), a copy with one coordinate or the heading
    // NaN or infinite
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut dirty = Vec::new();
    let (mut reports, mut injected) = (0usize, 0usize);
    for item in &clean {
        dirty.push(*item);
        if let StreamItem::Report(r) = item {
            reports += 1;
            if reports % 2 == 0 {
                let mut g = *r;
                let v = bad[injected % bad.len()];
                match (injected / bad.len()) % 4 {
                    0 => g.pose.pos.x = v,
                    1 => g.pose.pos.y = v,
                    2 => g.pose.pos.z = v,
                    _ => g.pose.phi = v,
                }
                dirty.push(StreamItem::Report(g));
                injected += 1;
            }
        }
    }
    assert!(
        injected >= 12,
        "every field and value at least once: {injected}"
    );
    let (want, clean_stats) = pipeline_events(&sc, &clean);
    let (got, stats) = pipeline_events(&sc, &dirty);
    assert!(!want.is_empty());
    assert_eq!(clean_stats.refused_poses, 0);
    // counted under their own name, apart from refused times
    assert_eq!((stats.refused_poses, stats.refused), (injected as u64, 0));
    assert_eq!(stats.reports_in, clean_stats.reports_in + injected as u64);
    assert_eq!(
        (got.len(), event_digest(&got)),
        (want.len(), event_digest(&want)),
        "a garbage report moved the events"
    );
}
