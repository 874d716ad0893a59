//! Bit-identity of the head/worker cluster split (transport-free).
//!
//! [`rfid_core::engine::cluster`] partitions the objects by
//! `tag % num_workers` across worker engines while a head engine owns
//! the reader and the engine RNG. This suite drives the exact same
//! per-epoch exchange the wire protocol carries — plan broadcast, task
//! reports, resample directive — fully in-process, and requires the
//! merged event stream to be **bit-identical** to `run_engine` for
//! every worker count. The `rfid-cluster` crate's child-process test
//! covers the same gate over real sockets.

use rfid_core::engine::cluster::{ClusterHead, ClusterWorker, EpochPlan, ResampleDirective};
use rfid_core::engine::run_engine;
use rfid_core::{EngineStats, FilterConfig, InferenceEngine, ReaderMode};
use rfid_model::{ConeSensor, JointModel, ModelParams, ReadRateModel};
use rfid_sim::{scenario, WarehouseLayout};
use rfid_stream::wire::merge_events_by_tag;
use rfid_stream::{Epoch, LocationEvent};

fn engine_with<S: ReadRateModel>(
    sc: &scenario::Scenario,
    cfg: FilterConfig,
    model: JointModel<S>,
) -> InferenceEngine<WarehouseLayout, S> {
    InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid config")
}

fn engine_for(
    sc: &scenario::Scenario,
    cfg: FilterConfig,
) -> InferenceEngine<WarehouseLayout, ConeSensor> {
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    engine_with(sc, cfg, model)
}

/// Drives the full head/worker exchange over the trace and returns the
/// coordinator-merged event stream and each worker's statistics.
fn run_cluster(
    sc: &scenario::Scenario,
    cfg: FilterConfig,
    num_workers: usize,
) -> (Vec<LocationEvent>, Vec<EngineStats>) {
    run_cluster_with(sc, || engine_for(sc, cfg), num_workers)
}

/// [`run_cluster`] over engines from `build`: the head and every worker
/// get a fresh one.
fn run_cluster_with<S: ReadRateModel>(
    sc: &scenario::Scenario,
    build: impl Fn() -> InferenceEngine<WarehouseLayout, S>,
    num_workers: usize,
) -> (Vec<LocationEvent>, Vec<EngineStats>) {
    let batches = sc.trace.epoch_batches();
    let mut head = ClusterHead::new(build(), num_workers);
    let mut workers: Vec<ClusterWorker<WarehouseLayout, S>> = (0..num_workers)
        .map(|_| ClusterWorker::new(build()))
        .collect();
    let mut merged = Vec::new();
    let mut last_epoch = Epoch(0);
    for batch in &batches {
        last_epoch = batch.epoch;
        let plan: EpochPlan = head.begin_epoch(batch);
        let mut per_worker_events: Vec<Vec<LocationEvent>> = Vec::with_capacity(num_workers);
        let mut reports = Vec::with_capacity(num_workers);
        for (i, w) in workers.iter_mut().enumerate() {
            let mut events = Vec::new();
            reports.push(w.process_epoch(&plan, i, &mut events));
            per_worker_events.push(events);
        }
        let directive: Option<ResampleDirective> = head.finish_epoch(&reports);
        assert_eq!(
            directive.is_some(),
            plan.will_resample,
            "the broadcast resample prediction must be exact (epoch {})",
            batch.epoch.0
        );
        for w in workers.iter_mut() {
            w.apply_resample(plan.epoch, directive.as_ref());
        }
        merge_events_by_tag(&per_worker_events, &mut merged);
    }
    let finals: Vec<Vec<LocationEvent>> = workers
        .iter_mut()
        .map(|w| {
            let mut events = Vec::new();
            w.finalize_into(last_epoch, &mut events);
            events
        })
        .collect();
    merge_events_by_tag(&finals, &mut merged);
    (merged, workers.iter().map(|w| *w.stats()).collect())
}

fn assert_identical(a: &[LocationEvent], b: &[LocationEvent], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: event counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.epoch, y.epoch, "{label}: event {i} epoch");
        assert_eq!(x.tag, y.tag, "{label}: event {i} tag");
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
        match (x.stats, y.stats) {
            (None, None) => {}
            (Some(sx), Some(sy)) => {
                assert_eq!(
                    sx.support.to_bits(),
                    sy.support.to_bits(),
                    "{label}: event {i} support"
                );
                for k in 0..3 {
                    assert_eq!(
                        sx.var[k].to_bits(),
                        sy.var[k].to_bits(),
                        "{label}: event {i} var[{k}]"
                    );
                }
            }
            _ => panic!("{label}: event {i} stats presence differs"),
        }
    }
}

fn full_cfg() -> FilterConfig {
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 120;
    cfg.reader_particles = 40;
    cfg.report_delay_epochs = 20;
    cfg
}

#[test]
fn cluster_matches_single_process_for_every_worker_count() {
    let sc = scenario::small_trace(10, 4, 2024);
    let cfg = full_cfg();
    let batches = sc.trace.epoch_batches();
    let mut reference = engine_for(&sc, cfg);
    let expected = run_engine(&mut reference, &batches);
    assert!(
        reference.stats().reader_resamples >= 1,
        "the scenario must exercise the resample/remap exchange"
    );
    assert!(!expected.is_empty(), "the scenario must emit events");
    for n in [1usize, 2, 4] {
        let (got, worker_stats) = run_cluster(&sc, cfg, n);
        assert_identical(&expected, &got, &format!("{n} workers"));
        if n != 2 {
            continue;
        }
        // the partitions add up to the single-process work, and every
        // worker times the stages it runs
        let total = reference.stats();
        let sum = |f: fn(&EngineStats) -> u64| worker_stats.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.object_updates), total.object_updates);
        assert_eq!(sum(|s| s.events_emitted), total.events_emitted);
        for (i, s) in worker_stats.iter().enumerate() {
            assert!(s.infer_us > 0, "worker {i} reports no infer time");
        }
    }
}

#[test]
fn cluster_matches_in_trust_reports_mode() {
    let sc = scenario::small_trace(6, 4, 99);
    let mut cfg = full_cfg();
    cfg.reader_mode = ReaderMode::TrustReports;
    cfg.reader_particles = 1;
    let batches = sc.trace.epoch_batches();
    let mut reference = engine_for(&sc, cfg);
    let expected = run_engine(&mut reference, &batches);
    for n in [1usize, 3] {
        let (got, _) = run_cluster(&sc, cfg, n);
        assert_identical(&expected, &got, &format!("trust-reports {n} workers"));
    }
}

/// The merged stream of engines from `build` equals `run_engine`'s for
/// N = 1, 2, 3, and the trace exercises the resample exchange.
fn assert_cluster_matches<S: ReadRateModel>(
    sc: &scenario::Scenario,
    build: impl Fn() -> InferenceEngine<WarehouseLayout, S>,
    label: &str,
) {
    let mut reference = build();
    let expected = run_engine(&mut reference, &sc.trace.epoch_batches());
    assert!(
        reference.stats().reader_resamples >= 1,
        "{label}: the scenario must exercise the resample/remap exchange"
    );
    assert!(
        !expected.is_empty(),
        "{label}: the scenario must emit events"
    );
    for n in [1usize, 2, 3] {
        let (got, _) = run_cluster_with(sc, &build, n);
        assert_identical(&expected, &got, &format!("{label}, {n} workers"));
    }
}

#[test]
fn cluster_matches_without_index_or_compression() {
    // no index: a worker steps every object it owns, every epoch, and
    // none is ever compressed
    let sc = scenario::small_trace(8, 4, 7);
    let mut cfg = FilterConfig::factored_default();
    cfg.particles_per_object = 120;
    cfg.reader_particles = 40;
    cfg.report_delay_epochs = 20;
    assert_cluster_matches(&sc, || engine_for(&sc, cfg), "factored");
}

#[test]
fn cluster_matches_with_the_logistic_sensor() {
    // no hard edge: the index finds candidates, and none is skipped as
    // out of reach
    let sc = scenario::small_trace(8, 4, 31);
    let cfg = full_cfg();
    let build = || engine_with(&sc, cfg, JointModel::new(ModelParams::default_warehouse()));
    assert_cluster_matches(&sc, build, "logistic");
}
