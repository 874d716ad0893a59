//! The push-serving acceptance contract: on a real engine trace, the
//! union of PUSH frames every TCP subscriber receives equals the
//! in-process `LocationChangeSink`'s delta stream **bit-for-bit**
//! (floats survive the wire via round-trip `Display`), filters select
//! exactly the matching sub-stream, and an induced-lag subscriber
//! accounts for every row: delivered rows + `LAGGED` drop counts =
//! the full delta stream, with exactly one notice for the overflow
//! run.

use rfid_repro::prelude::*;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{
    serve_with, Frame, HubConfig, QueryClient, ServerConfig, SubscriptionFilter, SubscriptionHub,
};
use rfid_stream::pipeline::sinks::{LocationChangeSink, LocationUpdate, StoreSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// A row key that compares floats by bits.
type RowKey = (u64, u64, u64, u64, u64);

fn key_of_update(u: &LocationUpdate) -> RowKey {
    (
        u.tag.0,
        u.epoch.0,
        u.location.x.to_bits(),
        u.location.y.to_bits(),
        u.location.z.to_bits(),
    )
}

fn key_of_row(r: &rfid_serve::store::LocationRow) -> RowKey {
    (
        r.tag.0,
        r.epoch.0,
        r.location.x.to_bits(),
        r.location.y.to_bits(),
        r.location.z.to_bits(),
    )
}

/// Collects a subscriber's frames until the stream has been quiet past
/// the done flag.
fn drain_pushes(
    mut client: QueryClient,
    done: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<Frame>> {
    std::thread::spawn(move || {
        let mut frames = Vec::new();
        loop {
            match client.next_push() {
                Ok(frame) => frames.push(frame),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if done.load(Ordering::SeqCst) {
                        return frames;
                    }
                }
                Err(e) => panic!("subscriber read failed: {e}"),
            }
        }
    })
}

#[test]
fn push_frames_match_location_change_sink_bit_for_bit() {
    let sc = rfid_repro::sim::scenario::endurance_trace(100, 4, 7007);
    let items: Vec<StreamItem> = sc.trace.stream().collect();
    let epoch_len = sc.trace.epoch_len;
    let half_shelf = sc.layout.total_length() / 2.0;

    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 150;
    cfg.report_delay_epochs = 30;
    let engine = InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid config");

    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    // 16-frame queues: TCP subscribers that read continuously never
    // lag (workers drain every pump while inference paces commits),
    // but the in-process laggard (never polled) must overflow
    let hub = SubscriptionHub::new(HubConfig::default().with_queue_frames(16));
    let server = serve_with(
        "127.0.0.1:0",
        Arc::clone(&store),
        hub.clone(),
        ServerConfig::default(),
    )
    .expect("bind");

    // three TCP subscribers with different filters, registered before
    // ingestion starts so they see the whole delta stream
    let connect = || {
        QueryClient::connect(server.addr())
            .timeout(Duration::from_millis(250))
            .establish()
            .expect("connect")
    };
    let filters = [
        SubscriptionFilter::All,
        SubscriptionFilter::Region {
            x0: -1e9,
            y0: -1e9,
            x1: 1e9,
            y1: half_shelf,
        },
        SubscriptionFilter::Tags(vec![TagId(0), TagId(3), TagId(7)]),
    ];
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = filters
        .iter()
        .map(|f| {
            let mut client = connect();
            client.subscribe(f).expect("subscribe");
            drain_pushes(client, Arc::clone(&done))
        })
        .collect();
    // the laggard: registered but never polled during ingestion
    let laggard = hub.subscribe(999, SubscriptionFilter::All);

    // ingest the trace through the live pipeline, fanning the stream
    // into the store, the hub, and the ground-truth change sink
    let ingest = {
        let store_sink = StoreSink::new(Arc::clone(&store));
        let hub_sink = hub.sink();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let sink = ((store_sink, hub_sink), LocationChangeSink::new(0.0));
            let mut pipeline = Pipeline::new(epoch_len, engine, sink);
            // yield between stream items so the single-core CI box
            // schedules the server workers between commits — the TCP
            // subscribers must stay well-fed; only the unpolled
            // laggard is supposed to overflow its queue
            let stats = pipeline
                .run_to_completion(&mut items.into_iter().inspect(|_| std::thread::yield_now()));
            done.store(true, Ordering::SeqCst);
            let (_engine, (_, change_sink), _) = pipeline.into_parts();
            (change_sink, stats)
        })
    };

    let (change_sink, stats) = ingest.join().expect("ingestion thread");
    assert!(stats.events > 0, "the engine emitted events");
    let truth: Vec<RowKey> = change_sink.updates().iter().map(key_of_update).collect();
    assert!(
        truth.len() > 60,
        "a real delta stream: {} rows",
        truth.len()
    );

    let frames: Vec<Vec<Frame>> = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .collect();

    // flatten each subscriber's PUSH rows in delivery order
    let flatten = |frames: &[Frame]| -> Vec<RowKey> {
        frames
            .iter()
            .map(|f| match f {
                Frame::Push { rows, .. } => rows.iter().map(key_of_row).collect::<Vec<_>>(),
                other => panic!("well-fed subscriber got {other:?}"),
            })
            .collect::<Vec<_>>()
            .concat()
    };

    // ALL: the union of received frames IS the sink's delta stream
    assert_eq!(flatten(&frames[0]), truth, "ALL subscriber != sink deltas");

    // REGION: exactly the updates whose new location matches
    let region_truth: Vec<RowKey> = change_sink
        .updates()
        .iter()
        .filter(|u| u.location.y <= half_shelf)
        .map(key_of_update)
        .collect();
    assert!(
        !region_truth.is_empty() && region_truth.len() < truth.len(),
        "region filter should be a proper non-empty subset"
    );
    assert_eq!(flatten(&frames[1]), region_truth, "REGION subscriber");

    // TAGS: exactly the updates of the subscribed tags
    let tag_truth: Vec<RowKey> = change_sink
        .updates()
        .iter()
        .filter(|u| [0u64, 3, 7].contains(&u.tag.0))
        .map(key_of_update)
        .collect();
    assert!(!tag_truth.is_empty());
    assert_eq!(flatten(&frames[2]), tag_truth, "TAGS subscriber");

    // the laggard overflowed: one LAGGED notice for the whole run,
    // then the surviving frames; every dropped row is counted and the
    // delivered tail is still bit-identical to the stream's suffix
    let queue_cap = hub.config().queue_frames;
    let commits = frames[0].len();
    assert!(
        commits > queue_cap,
        "trace must out-commit the queue ({commits} commits <= {queue_cap})"
    );
    let first = laggard.poll().expect("laggard has pending output");
    let Frame::Lagged { id: 999, dropped } = first else {
        panic!("expected the lag notice first, got {first:?}");
    };
    assert!(dropped > 0);
    let mut delivered: Vec<RowKey> = Vec::new();
    let mut survived_frames = 0usize;
    while let Some(frame) = laggard.poll() {
        match frame {
            Frame::Push { rows, .. } => {
                delivered.extend(rows.iter().map(key_of_row));
                survived_frames += 1;
            }
            Frame::Lagged { .. } => panic!("a second LAGGED for one overflow run"),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(survived_frames, queue_cap, "exactly the queue survives");
    assert_eq!(
        dropped as usize + delivered.len(),
        truth.len(),
        "dropped + delivered accounts for the whole delta stream"
    );
    assert_eq!(
        delivered,
        truth[truth.len() - delivered.len()..],
        "the delivered tail is bit-identical to the stream suffix"
    );

    server.shutdown();
}
