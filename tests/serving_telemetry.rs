//! The observability acceptance contract: a `TELEMETRY` scrape over a
//! real TCP connection must expose a metric family from **every**
//! layer that ran — engine, pipeline, store, hub, and the server's own
//! per-verb latency histograms — and `TELEMETRY TRACE` must carry the
//! slow-epoch spans sampled while the pipeline streamed.
//!
//! The per-crate serve tests cover the store/hub/server families in
//! isolation; only a full-stack run (pipeline driving a live engine
//! into a served store) can prove the engine_* and pipeline_* families
//! reach the same scrape.

use rfid_repro::prelude::*;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{serve_with, HubConfig, Query, QueryClient, QueryResponse, ServerConfig};
use rfid_serve::{SubscriptionHub, TelemetryCmd};
use rfid_stream::pipeline::sinks::StoreSink;
use std::sync::{Arc, RwLock};
use std::time::Duration;

#[test]
fn telemetry_scrape_exposes_every_layer() {
    // arm the slow-epoch ring before the run: at a 1µs threshold every
    // epoch is "slow", so the ring is guaranteed non-empty afterwards.
    // (The registry and trace ring are process-global; this file is its
    // own test binary, so the threshold leaks nowhere else.)
    rfid_obs::trace().set_slow_epoch_us(1);

    let sc = rfid_repro::sim::scenario::small_trace(12, 2, 77);
    let model = JointModel::new(ModelParams::default_warehouse());
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 100;
    cfg.report_delay_epochs = 30;
    let engine = InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid configuration");

    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    let hub = SubscriptionHub::new(HubConfig::default());
    let mut pipeline = Pipeline::new(
        sc.trace.epoch_len,
        engine,
        (StoreSink::new(Arc::clone(&store)), hub.sink()),
    );
    let stats = pipeline.run_to_completion(&mut sc.trace.stream());
    assert!(stats.epochs > 0, "the trace must actually stream");

    let server = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind query server");
    let mut client = QueryClient::connect(server.addr())
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect");

    // one real query so the verb histograms carry at least one sample
    match client.query(&Query::CurrentLocation(TagId(1))).unwrap() {
        QueryResponse::Rows(_) => {}
        QueryResponse::Error(e) => panic!("CURRENT failed: {e}"),
    }

    let metrics = client
        .telemetry(TelemetryCmd::Metrics)
        .expect("METRICS scrape");
    for family in [
        // engine: stage histograms + mirrored counters
        "engine_infer_us",
        "engine_ingest_us",
        "engine_emit_us",
        "engine_epochs_total",
        "engine_half_respawns_total",
        "engine_full_reinits_total",
        // registry-only: Case-2 candidates dropped as out of reach
        "engine_out_of_reach_total",
        // pipeline: stage counters + buffer high-water gauges
        "pipeline_epochs_total",
        "pipeline_readings_total",
        "pipeline_sync_pending_high_water",
        // store / hub / server
        "store_events_total",
        "hub_delivered_total",
        "hub_lagged_total",
        "server_query_us_current",
    ] {
        assert!(
            metrics.contains(family),
            "scrape is missing {family}:\n{metrics}"
        );
    }
    // the engine ran through the pipeline, so the two layers must agree
    // on the epoch count in the very same scrape
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no {name} sample line"))
            .trim()
            .parse()
            .expect("integer sample")
    };
    assert_eq!(counter("engine_epochs_total"), stats.epochs);
    assert_eq!(counter("pipeline_epochs_total"), stats.epochs);
    assert_eq!(counter("engine_infer_us_count"), stats.epochs);
    // and the registry mirror must reproduce the engine's own counters
    // exactly: it records the same integers the struct accumulates
    let engine = *pipeline.stage().stats();
    for (name, legacy) in [
        ("engine_epochs_total", engine.epochs),
        ("engine_readings_total", engine.readings),
        ("engine_object_updates_total", engine.object_updates),
        ("engine_events_total", engine.events_emitted),
        ("engine_object_resamples_total", engine.object_resamples),
        ("engine_reader_resamples_total", engine.reader_resamples),
        ("engine_compressions_total", engine.compressions),
        ("engine_decompressions_total", engine.decompressions),
        ("engine_half_respawns_total", engine.half_respawns),
        ("engine_full_reinits_total", engine.full_reinits),
        ("engine_ingest_us_sum", engine.ingest_us),
        ("engine_infer_us_sum", engine.infer_us),
        ("engine_emit_us_sum", engine.emit_us),
    ] {
        assert_eq!(counter(name), legacy, "{name} vs EngineStats");
    }

    // the armed trace ring must have sampled the streamed epochs
    let trace = client.telemetry(TelemetryCmd::Trace).expect("TRACE scrape");
    assert!(
        trace.lines().any(|l| l.starts_with("slow_epoch")),
        "no slow_epoch spans at a 1µs threshold:\n{trace}"
    );

    server.shutdown();
}
