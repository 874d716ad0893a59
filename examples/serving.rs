//! Serving queries: the full serving stack end to end —
//!
//! ```text
//! pipeline ─► (StoreSink, hub.sink()) ─► EventStore + SubscriptionHub
//!                                            ▲
//!                          TCP server ◄──────┘◄─ pull + push clients
//! ```
//!
//! A warehouse scan streams through the inference engine into a shared
//! `EventStore` while a TCP query server answers clients over the
//! length-prefixed text protocol (v2: `HELLO` handshake + request
//! envelopes): where is object X now, what trail did it take, what did
//! the warehouse look like at epoch E, what changed since epoch S —
//! and, live, a subscribed client receives every location change as
//! the pipeline commits it.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use rfid_repro::prelude::*;
use rfid_repro::sim::scenario;
use rfid_repro::stream::pipeline::sinks::StoreSink;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{
    serve_with, Frame, HubConfig, Query, QueryClient, QueryResponse, ServerConfig,
    SubscriptionFilter, SubscriptionHub, TelemetryCmd,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

fn print_rows(label: &str, resp: QueryResponse) {
    match resp {
        QueryResponse::Rows(rows) => {
            println!("{label}: {} row(s)", rows.len());
            for r in rows.iter().take(6) {
                println!(
                    "  {} @ epoch {:>4}  ({:6.2}, {:5.2}, {:4.2}) ft",
                    r.tag, r.epoch.0, r.location.x, r.location.y, r.location.z
                );
            }
            if rows.len() > 6 {
                println!("  … {} more", rows.len() - 6);
            }
        }
        QueryResponse::Error(e) => println!("{label}: ERR {e}"),
    }
}

fn main() {
    // a 24-object warehouse scan, cleaned by the full engine
    let sc = scenario::small_trace(24, 4, 2025);
    let model = JointModel::new(ModelParams::default_warehouse());
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 400;
    cfg.report_delay_epochs = 30;
    let engine = InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid configuration");

    // the shared store: the pipeline writes it, the server reads it.
    // Snapshots age a tag out 60 epochs after its last event (the churn
    // semantics — departed objects leave the relation but keep their
    // trail)
    let store = Arc::new(RwLock::new(EventStore::new(
        StoreConfig::default().with_snapshot_staleness(60),
    )));
    let hub = SubscriptionHub::new(HubConfig::default());
    let server = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind query server");
    println!(
        "query server listening on {} (protocol v2)\n",
        server.addr()
    );

    // a push client subscribes *before* ingestion and watches the
    // stream live from its own thread
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let done = Arc::clone(&done);
        let addr = server.addr();
        std::thread::spawn(move || {
            let mut client = QueryClient::connect(addr)
                .timeout(Duration::from_millis(200))
                .establish()
                .expect("connect subscriber");
            let sub = client
                .subscribe(&SubscriptionFilter::All)
                .expect("subscribe");
            let (mut frames, mut rows, mut shown) = (0u64, 0u64, 0);
            loop {
                match client.next_push() {
                    Ok(Frame::Push { epoch, rows: r, .. }) => {
                        frames += 1;
                        rows += r.len() as u64;
                        if shown < 3 {
                            shown += 1;
                            println!(
                                "PUSH @ epoch {:>4}: {} change(s), first {} -> ({:.2}, {:.2})",
                                epoch,
                                r.len(),
                                r[0].tag,
                                r[0].location.x,
                                r[0].location.y
                            );
                        }
                    }
                    Ok(Frame::Lagged { dropped, .. }) => {
                        println!("LAGGED: {dropped} change rows dropped");
                    }
                    Ok(other) => panic!("unexpected frame {other:?}"),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(e) => panic!("subscriber read failed: {e}"),
                }
            }
            client.unsubscribe(sub).expect("unsubscribe");
            (frames, rows)
        })
    };

    // ingest the scan through the streaming pipeline, fanning events
    // into the store AND the hub — in a deployment this thread runs
    // forever on the live reader streams
    let mut pipeline = Pipeline::new(
        sc.trace.epoch_len,
        engine,
        (StoreSink::new(Arc::clone(&store)), hub.sink()),
    );
    let stats = pipeline.run_to_completion(&mut sc.trace.stream());
    done.store(true, Ordering::SeqCst);
    {
        let s = store.read().unwrap();
        let st = s.stats();
        println!(
            "\ningested {} events over {} epochs, {} tag(s)",
            stats.events, stats.epochs, st.tags
        );
    }
    let (push_frames, push_rows) = watcher.join().expect("watcher thread");
    println!("subscriber saw {push_frames} PUSH frame(s) carrying {push_rows} change row(s)\n");

    // a pull client asks the five serving questions over real TCP
    let mut client = QueryClient::connect(server.addr())
        .timeout(Duration::from_secs(10))
        .establish()
        .expect("connect");
    let last = store.read().unwrap().latest_epoch();

    print_rows(
        "CURRENT tag 3",
        client.query(&Query::CurrentLocation(TagId(3))).unwrap(),
    );
    print_rows(
        &format!("TRAIL tag 3, epochs 0..={last}"),
        client
            .query(&Query::Trail {
                tag: TagId(3),
                from: Epoch(0),
                to: Epoch(last),
            })
            .unwrap(),
    );
    print_rows(
        &format!("SNAPSHOT at epoch {}", last / 2),
        client.query(&Query::SnapshotAt(Epoch(last / 2))).unwrap(),
    );
    // the epoch-delta form: only what changed in the second quarter of
    // the scan — the incremental-refresh primitive behind dashboards
    print_rows(
        &format!("SNAPSHOT at {} SINCE {}", last / 2, last / 4),
        client
            .query(&Query::SnapshotDelta {
                at: Epoch(last / 2),
                since: Epoch(last / 4),
            })
            .unwrap(),
    );
    // query at the scan midpoint: with staleness 60 configured, a
    // single-scan trace has aged most tags out of the *final* epoch's
    // relation — historical containment is the interesting question
    print_rows(
        &format!("CONTAIN x in [0, 6], y in [-1, 3] at epoch {}", last / 2),
        client
            .query(&Query::Containment {
                x0: 0.0,
                y0: -1.0,
                x1: 6.0,
                y1: 3.0,
                epoch: Epoch(last / 2),
            })
            .unwrap(),
    );

    // scrape the process-wide observability registry over the same
    // connection — protocol v2's TELEMETRY verb, answered without the
    // store lock, so a monitoring poll can never stall a query. Every
    // layer that ran above shows up: engine_*, pipeline_*, store_*,
    // hub_*, and the server's own per-verb latency histograms.
    let metrics = client
        .telemetry(TelemetryCmd::Metrics)
        .expect("telemetry scrape");
    println!(
        "\nTELEMETRY METRICS ({} bytes; counters, gauges, histogram sums):",
        metrics.len()
    );
    for line in metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket{"))
    {
        println!("  {line}");
    }

    server.shutdown();
    println!("\nserver stopped.");
}
