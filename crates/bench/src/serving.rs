//! The serving load generator: replays a scenario through the engine
//! pipeline into a shared `EventStore` **while** client threads hammer
//! the TCP query server, measuring end-to-end (over-the-wire) latency
//! percentiles and throughput — the third benchmark trajectory next to
//! throughput and accuracy.
//!
//! Two sweep families share one report:
//! - **pull** rows (1/2/4 clients) keep the PR-5 query-latency
//!   envelope comparable across protocol generations;
//! - **mixed** rows scale to hundreds of concurrent connections where
//!   ~25% hold `SUBSCRIBE ALL` subscriptions and the rest rotate the
//!   five pull query kinds. Push fan-out latency is measured by
//!   joining each subscriber's receive timestamps against the hub's
//!   commit log on the arrival epoch.
//!
//! `experiments -- serving --json` writes the committed
//! `BENCH_serving.json`; each row is one sweep point.

use crate::runner::RunOpts;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rfid_core::{FilterConfig, InferenceEngine};
use rfid_model::sensor::ConeSensor;
use rfid_model::{JointModel, ModelParams};
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{
    serve_with, Frame, HubConfig, Query, QueryClient, QueryResponse, ServerConfig,
    SubscriptionFilter, SubscriptionHub,
};
use rfid_sim::scenario;
use rfid_stream::pipeline::sinks::StoreSink;
use rfid_stream::pipeline::PipelineStats;
use rfid_stream::{Epoch, Pipeline, StreamItem, TagId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Load-test knobs.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Pull-only client counts to sweep (one result row each); kept
    /// small so the latency envelope stays comparable to the
    /// thread-per-connection baseline.
    pub clients_sweep: Vec<usize>,
    /// Total connection counts for the mixed pull+subscribe sweep.
    pub mixed_sweep: Vec<usize>,
    /// Fraction of mixed-row connections that hold a `SUBSCRIBE ALL`
    /// subscription instead of issuing pull queries.
    pub subscriber_share: f64,
    /// Objects in the ingested warehouse scenario.
    pub objects: usize,
    /// Scan rounds of the ingested trace (ingestion wall time scales
    /// with this, and clients keep querying as long as it runs).
    pub rounds: usize,
    /// Engine particles per object.
    pub particles: usize,
    /// Every pull client issues at least this many queries, even if
    /// ingestion finishes first.
    pub min_queries_per_client: usize,
    /// The per-client floor for mixed rows (hundreds of clients share
    /// the server, so the floor is lower to bound the run).
    pub mixed_min_queries: usize,
    /// Execution knobs for the ingestion engine.
    pub opts: RunOpts,
}

impl ServingConfig {
    /// The committed-baseline operating point (`quick` shrinks it for
    /// CI smoke).
    pub fn standard(quick: bool) -> Self {
        Self {
            clients_sweep: if quick { vec![1, 2] } else { vec![1, 2, 4] },
            mixed_sweep: if quick { vec![16] } else { vec![64, 256] },
            subscriber_share: 0.25,
            objects: if quick { 60 } else { 100 },
            rounds: if quick { 2 } else { 4 },
            particles: if quick { 100 } else { 200 },
            min_queries_per_client: if quick { 200 } else { 1000 },
            mixed_min_queries: if quick { 50 } else { 100 },
            opts: RunOpts::new(if quick { 100 } else { 200 }, 60),
        }
    }
}

/// One sweep row: `clients` concurrent connections against the live
/// server, of which `subscribers` hold push subscriptions.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// `"pull"` or `"mixed"`.
    pub mode: &'static str,
    pub clients: usize,
    pub subscribers: usize,
    /// Total queries answered across all pull threads.
    pub queries: u64,
    /// `ERR` responses (0 expected with unlimited retention).
    pub errors: u64,
    /// Wall time of the query phase (first connect to last response).
    pub elapsed_s: f64,
    pub queries_per_sec: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    /// Push-side counters (0 for pull rows).
    pub push_frames: u64,
    pub push_rows: u64,
    pub lagged_frames: u64,
    pub dropped_rows: u64,
    /// Commit-to-receive fan-out latency over all (subscriber, frame)
    /// pairs, joined on the arrival epoch.
    pub push_p50_us: f64,
    pub push_p95_us: f64,
    pub push_p99_us: f64,
    pub push_max_us: f64,
    /// Ingestion-side counters of the same run.
    pub ingest_epochs: u64,
    pub ingest_events: u64,
    pub ingest_elapsed_s: f64,
    pub ingest_readings_per_sec: f64,
    /// Store size at the end of the run.
    pub store_events: u64,
    pub store_segments: usize,
    /// Registry-side counts of the same run (a global-registry
    /// snapshot diff bracketing the row): the server's verb-histogram
    /// samples over the four pull verbs, its SUBSCRIBE samples, the
    /// store's push counter, and the hub's delivery/overflow counters.
    /// `registry_queries`, `registry_subscribes`, and
    /// `registry_store_events` must equal their client-side
    /// counterparts exactly; `registry_delivered`/`registry_lagged`
    /// bound what subscribers observed (frames still queued at
    /// shutdown are counted but never received).
    pub registry_queries: u64,
    pub registry_subscribes: u64,
    pub registry_store_events: u64,
    pub registry_delivered: u64,
    pub registry_lagged: u64,
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// The mixed query workload: an even rotation over the five pull
/// kinds, with parameters drawn from a per-client deterministic RNG.
fn nth_query(rng: &mut StdRng, i: u64, objects: usize, max_epoch: u64) -> Query {
    let tag = TagId(rng.gen_range(0..objects as u64));
    let epoch = Epoch(rng.gen_range(0..max_epoch.max(1)));
    match i % 5 {
        0 => Query::CurrentLocation(tag),
        1 => Query::SnapshotAt(epoch),
        2 => Query::Trail {
            tag,
            from: Epoch(epoch.0.saturating_sub(100)),
            to: epoch,
        },
        3 => {
            let x0 = rng.gen_range(-2.0..30.0);
            let y0 = rng.gen_range(-2.0..4.0);
            Query::Containment {
                x0,
                y0,
                x1: x0 + 8.0,
                y1: y0 + 4.0,
                epoch,
            }
        }
        _ => Query::SnapshotDelta {
            at: epoch,
            since: Epoch(epoch.0.saturating_sub(50)),
        },
    }
}

/// What one subscriber thread brings home.
struct SubReport {
    /// (arrival epoch, receive instant) per `PUSH` frame.
    received: Vec<(u64, Instant)>,
    push_rows: u64,
    lagged_frames: u64,
    dropped_rows: u64,
}

/// Runs one sweep row: spin up store + server, ingest the scenario on
/// a pipeline thread, hit it from `pull_clients` query threads and
/// `subscribers` push-subscribed connections.
fn run_row(cfg: &ServingConfig, mode: &'static str, clients: usize) -> ServingRow {
    let subscribers = if mode == "mixed" {
        ((clients as f64 * cfg.subscriber_share).round() as usize).clamp(1, clients)
    } else {
        0
    };
    let pull_clients = clients - subscribers;
    let min_q = if mode == "mixed" {
        cfg.mixed_min_queries as u64
    } else {
        cfg.min_queries_per_client as u64
    };

    // brackets the whole row: the registry is process-global, and the
    // rows run sequentially, so this diff isolates the row's activity
    let registry_before = rfid_obs::global().snapshot();

    let sc = scenario::endurance_trace(cfg.objects, cfg.rounds, 99);
    let items: Vec<StreamItem> = sc.trace.stream().collect();
    let epoch_len = sc.trace.epoch_len;
    let max_epoch = items
        .iter()
        .map(|it| match it {
            StreamItem::Reading(r) => r.time,
            StreamItem::Report(r) => r.time,
        })
        .fold(0.0f64, f64::max)
        / epoch_len;
    let max_epoch = max_epoch as u64;
    let readings = items
        .iter()
        .filter(|it| matches!(it, StreamItem::Reading(_)))
        .count();

    let mut fcfg = FilterConfig::full_default();
    fcfg.particles_per_object = cfg.particles;
    fcfg.report_delay_epochs = cfg.opts.report_delay;
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    let engine = InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), fcfg)
        .expect("valid engine config");

    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    let mut hub_cfg = HubConfig::default();
    if subscribers > 0 {
        hub_cfg = hub_cfg.with_commit_log();
    }
    let hub = SubscriptionHub::new(hub_cfg);
    let server = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind query server");
    let addr = server.addr();
    let done = Arc::new(AtomicBool::new(false));

    // subscribers connect and register before ingestion starts so the
    // commit log and the receive timestamps cover the same stream
    let sub_workers: Vec<_> = (0..subscribers)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr)
                    .timeout(Duration::from_millis(100))
                    .establish()
                    .expect("connect subscriber");
                client
                    .subscribe(&SubscriptionFilter::All)
                    .expect("subscribe");
                let mut report = SubReport {
                    received: Vec::new(),
                    push_rows: 0,
                    lagged_frames: 0,
                    dropped_rows: 0,
                };
                loop {
                    match client.next_push() {
                        Ok(Frame::Push { epoch, rows, .. }) => {
                            report.received.push((epoch, Instant::now()));
                            report.push_rows += rows.len() as u64;
                        }
                        Ok(Frame::Lagged { dropped, .. }) => {
                            report.lagged_frames += 1;
                            report.dropped_rows += dropped;
                        }
                        Ok(other) => panic!("unexpected frame {other:?}"),
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            if done.load(Ordering::SeqCst) {
                                return report;
                            }
                        }
                        Err(e) => panic!("subscriber read failed: {e}"),
                    }
                }
            })
        })
        .collect();

    // ingestion: the live pipeline writing through the shared lock and
    // committing deltas into the hub
    let ingest = {
        let done = Arc::clone(&done);
        let sink = (StoreSink::new(Arc::clone(&store)), hub.sink());
        std::thread::spawn(move || {
            let mut pipeline = Pipeline::new(epoch_len, engine, sink);
            let start = Instant::now();
            let stats: PipelineStats = pipeline.run_to_completion(&mut items.into_iter());
            let elapsed = start.elapsed();
            done.store(true, Ordering::SeqCst);
            (stats, elapsed)
        })
    };

    let objects = cfg.objects;
    let query_start = Instant::now();
    let workers: Vec<_> = (0..pull_clients)
        .map(|c| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5E21E + c as u64);
                let mut client = QueryClient::connect(addr)
                    .timeout(Duration::from_secs(30))
                    .establish()
                    .expect("connect to query server");
                let mut latencies_us: Vec<f64> = Vec::new();
                let mut errors = 0u64;
                let mut i = 0u64;
                while !done.load(Ordering::SeqCst) || i < min_q {
                    let q = nth_query(&mut rng, i, objects, max_epoch);
                    let t0 = Instant::now();
                    let resp = client.query(&q).expect("query round trip");
                    let dt = t0.elapsed();
                    latencies_us.push(dt.as_secs_f64() * 1e6);
                    if matches!(resp, QueryResponse::Error(_)) {
                        errors += 1;
                    }
                    i += 1;
                }
                (latencies_us, errors)
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    let mut errors = 0u64;
    for w in workers {
        let (lat, err) = w.join().expect("client thread");
        latencies.extend(lat);
        errors += err;
    }
    let elapsed = query_start.elapsed();
    let (ingest_stats, ingest_elapsed) = ingest.join().expect("ingestion thread");
    let sub_reports: Vec<SubReport> = sub_workers
        .into_iter()
        .map(|w| w.join().expect("subscriber thread"))
        .collect();

    // join receive instants against the hub's commit log on the
    // arrival epoch: commit-to-socket-read fan-out latency
    let commit_at: HashMap<u64, Instant> = hub.commit_log().into_iter().collect();
    let mut push_lat_us: Vec<f64> = Vec::new();
    let mut push_frames = 0u64;
    let mut push_rows = 0u64;
    let mut lagged_frames = 0u64;
    let mut dropped_rows = 0u64;
    for r in &sub_reports {
        push_frames += r.received.len() as u64;
        push_rows += r.push_rows;
        lagged_frames += r.lagged_frames;
        dropped_rows += r.dropped_rows;
        for (epoch, at) in &r.received {
            if let Some(committed) = commit_at.get(epoch) {
                push_lat_us.push(at.duration_since(*committed).as_secs_f64() * 1e6);
            }
        }
    }
    push_lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let queries = latencies.len() as u64;
    let elapsed_s = elapsed.as_secs_f64().max(1e-9);
    let store = store.read().expect("store lock");
    let sstats = store.stats();

    // every client joined and the server shut down, so the registry
    // has the row's complete server-side story
    let delta = rfid_obs::global().snapshot().diff(&registry_before);
    let verb_samples = |name: &str| delta.histogram(name).map(|h| h.count).unwrap_or(0);
    let registry_queries = [
        "server_query_us_current",
        "server_query_us_snapshot",
        "server_query_us_trail",
        "server_query_us_contain",
    ]
    .iter()
    .map(|n| verb_samples(n))
    .sum();
    ServingRow {
        mode,
        clients,
        subscribers,
        queries,
        errors,
        elapsed_s,
        queries_per_sec: queries as f64 / elapsed_s,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0.0),
        push_frames,
        push_rows,
        lagged_frames,
        dropped_rows,
        push_p50_us: percentile(&push_lat_us, 0.50),
        push_p95_us: percentile(&push_lat_us, 0.95),
        push_p99_us: percentile(&push_lat_us, 0.99),
        push_max_us: push_lat_us.last().copied().unwrap_or(0.0),
        ingest_epochs: ingest_stats.epochs,
        ingest_events: ingest_stats.events,
        ingest_elapsed_s: ingest_elapsed.as_secs_f64(),
        ingest_readings_per_sec: readings as f64 / ingest_elapsed.as_secs_f64().max(1e-9),
        store_events: sstats.events_live + sstats.events_compacted,
        store_segments: sstats.segments,
        registry_queries,
        registry_subscribes: verb_samples("server_query_us_subscribe"),
        registry_store_events: delta.counter("store_events_total"),
        registry_delivered: delta.counter("hub_delivered_total"),
        registry_lagged: delta.counter("hub_lagged_total"),
    }
}

/// Runs the pull sweep, then the mixed pull+subscribe sweep.
pub fn run_serving(cfg: &ServingConfig) -> Vec<ServingRow> {
    let points = cfg
        .clients_sweep
        .iter()
        .map(|&c| ("pull", c))
        .chain(cfg.mixed_sweep.iter().map(|&c| ("mixed", c)));
    points
        .map(|(mode, clients)| {
            let row = run_row(cfg, mode, clients);
            eprintln!(
                "  [serving {mode} c={clients} s={}] {} queries, {:.0} q/s, pull p50/p99 \
                 {:.0}/{:.0} us, push p50/p99 {:.0}/{:.0} us, {} pushes, {} lagged \
                 (ingest: {} epochs in {:.2} s)",
                row.subscribers,
                row.queries,
                row.queries_per_sec,
                row.p50_us,
                row.p99_us,
                row.push_p50_us,
                row.push_p99_us,
                row.push_frames,
                row.lagged_frames,
                row.ingest_epochs,
                row.ingest_elapsed_s,
            );
            row
        })
        .collect()
}

/// Serializes sweep rows as the `BENCH_serving.json` document.
/// `metrics` is the registry diff over the whole sweep, embedded so
/// `experiments -- report` can render the snapshot table.
pub fn to_json(rows: &[ServingRow], cfg: &ServingConfig, metrics: &rfid_obs::Snapshot) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"scenario\": \"endurance_trace({}, {}, 99)\",\n  \"particles_per_object\": {},\n  \
         \"protocol\": \"length-prefixed text over TCP, v2 envelopes, sharded non-blocking \
         worker pool\",\n  \
         \"query_mix\": \"current/snapshot/trail/containment/delta rotation\",\n  \
         \"subscriber_share\": {},\n  \
         \"min_queries_per_client\": {},\n",
        cfg.objects, cfg.rounds, cfg.particles, cfg.subscriber_share, cfg.min_queries_per_client,
    ));
    s.push_str(&format!(
        "  \"metrics\": {},\n",
        crate::obs::metrics_json(metrics, "  ")
    ));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"subscribers\": {}, \"queries\": {}, \
             \"errors\": {}, \"elapsed_s\": {:.3}, \
             \"queries_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"p99_us\": {:.1}, \"max_us\": {:.1}, \"push_frames\": {}, \"push_rows\": {}, \
             \"lagged_frames\": {}, \"dropped_rows\": {}, \"push_p50_us\": {:.1}, \
             \"push_p95_us\": {:.1}, \"push_p99_us\": {:.1}, \"push_max_us\": {:.1}, \
             \"ingest_epochs\": {}, \
             \"ingest_events\": {}, \"ingest_elapsed_s\": {:.3}, \
             \"ingest_readings_per_sec\": {:.1}, \"store_events\": {}, \
             \"store_segments\": {}, \"registry_queries\": {}, \
             \"registry_subscribes\": {}, \"registry_store_events\": {}, \
             \"registry_delivered\": {}, \"registry_lagged\": {}}}{}\n",
            r.mode,
            r.clients,
            r.subscribers,
            r.queries,
            r.errors,
            r.elapsed_s,
            r.queries_per_sec,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.max_us,
            r.push_frames,
            r.push_rows,
            r.lagged_frames,
            r.dropped_rows,
            r.push_p50_us,
            r.push_p95_us,
            r.push_p99_us,
            r.push_max_us,
            r.ingest_epochs,
            r.ingest_events,
            r.ingest_elapsed_s,
            r.ingest_readings_per_sec,
            r.store_events,
            r.store_segments,
            r.registry_queries,
            r.registry_subscribes,
            r.registry_store_events,
            r.registry_delivered,
            r.registry_lagged,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_positions() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&lat, 0.50), 51.0);
        assert_eq!(percentile(&lat, 0.99), 99.0);
        assert_eq!(percentile(&lat, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn query_mix_rotates_all_kinds() {
        let mut rng = StdRng::seed_from_u64(7);
        let kinds: Vec<u8> = (0..10u64)
            .map(|i| match nth_query(&mut rng, i, 10, 100) {
                Query::CurrentLocation(_) => 0,
                Query::SnapshotAt(_) => 1,
                Query::Trail { .. } => 2,
                Query::Containment { .. } => 3,
                Query::SnapshotDelta { .. } => 4,
            })
            .collect();
        assert_eq!(kinds, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn delta_queries_never_invert_their_window() {
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..50u64 {
            if let Query::SnapshotDelta { at, since } = nth_query(&mut rng, i * 5 + 4, 10, 400) {
                assert!(since.0 <= at.0, "since {since:?} must not pass at {at:?}");
            } else {
                panic!("rotation slot 4 must be a delta query");
            }
        }
    }

    #[test]
    fn json_document_has_the_gated_fields() {
        let rows = vec![ServingRow {
            mode: "mixed",
            clients: 8,
            subscribers: 2,
            queries: 100,
            errors: 0,
            elapsed_s: 1.0,
            queries_per_sec: 100.0,
            p50_us: 50.0,
            p95_us: 95.0,
            p99_us: 99.0,
            max_us: 120.0,
            push_frames: 40,
            push_rows: 400,
            lagged_frames: 0,
            dropped_rows: 0,
            push_p50_us: 30.0,
            push_p95_us: 80.0,
            push_p99_us: 90.0,
            push_max_us: 100.0,
            ingest_epochs: 10,
            ingest_events: 20,
            ingest_elapsed_s: 0.5,
            ingest_readings_per_sec: 1000.0,
            store_events: 20,
            store_segments: 1,
            registry_queries: 100,
            registry_subscribes: 2,
            registry_store_events: 20,
            registry_delivered: 40,
            registry_lagged: 0,
        }];
        let reg = rfid_obs::Registry::new();
        reg.counter("store_events_total").add(20);
        let doc = to_json(&rows, &ServingConfig::standard(true), &reg.snapshot());
        for field in [
            "\"queries_per_sec\"",
            "\"p50_us\"",
            "\"p95_us\"",
            "\"p99_us\"",
            "\"subscribers\"",
            "\"push_p50_us\"",
            "\"push_p95_us\"",
            "\"push_p99_us\"",
            "\"lagged_frames\"",
            "\"registry_queries\"",
        ] {
            assert!(doc.contains(field), "missing {field}");
        }
        // the document parses with the in-tree reader
        let parsed = crate::json::Json::parse(&doc).unwrap();
        let row = &parsed.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("p99_us").unwrap().as_f64(), Some(99.0));
        assert_eq!(row.get("push_p99_us").unwrap().as_f64(), Some(90.0));
        assert_eq!(row.get("registry_queries").unwrap().as_f64(), Some(100.0));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics.get("store_events_total").unwrap().as_f64(),
            Some(20.0)
        );
    }
}
