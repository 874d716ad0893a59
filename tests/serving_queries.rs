//! The serving acceptance contract: on a real engine trace, with
//! ingestion running on its own thread and query threads hammering the
//! shared store **while it streams**, the store's `Trail` and
//! `SnapshotAt` answers end up bit-identical to what the in-process
//! `TrailSink`/`SnapshotSink` computed from the very same pipeline run.

use rfid_repro::prelude::*;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{answer, Query, QueryResponse};
use rfid_stream::pipeline::sinks::{SnapshotSink, StoreSink, TrailSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

#[test]
fn store_answers_match_sinks_under_concurrent_ingestion() {
    let sc = rfid_repro::sim::scenario::tag_churn_trace(4004);
    let items: Vec<StreamItem> = sc.trace.stream().collect();
    let epoch_len = sc.trace.epoch_len;

    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 150;
    cfg.report_delay_epochs = 30;
    let engine = InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
        .expect("valid config");

    // default (sink-identical) semantics
    let store = Arc::new(RwLock::new(EventStore::new(StoreConfig::default())));
    let store_sink = StoreSink::new(Arc::clone(&store));
    let done = Arc::new(AtomicBool::new(false));

    // ingestion thread: the live pipeline, fanning events into the
    // in-process sinks and the shared store in the same run
    let ingest = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let sink = ((TrailSink::new(1 << 20), SnapshotSink::new(1)), store_sink);
            let mut pipeline = Pipeline::new(epoch_len, engine, sink);
            let stats = pipeline.run_to_completion(&mut items.into_iter());
            done.store(true, Ordering::SeqCst);
            let (_engine, ((trail, snapshot), _), _) = pipeline.into_parts();
            (trail, snapshot, stats)
        })
    };

    // query threads: mixed queries against the store while it fills
    let queriers: Vec<_> = (0..2)
        .map(|t| {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                let mut i = 0u64;
                // keep querying while ingestion runs; in any case issue
                // enough queries to exercise the shared lock
                while !done.load(Ordering::SeqCst) || answered < 50 {
                    let q = match (t + i) % 3 {
                        0 => Query::CurrentLocation(TagId(i % 16)),
                        1 => Query::SnapshotAt(Epoch(i % 128)),
                        _ => Query::Trail {
                            tag: TagId(i % 16),
                            from: Epoch(0),
                            to: Epoch(i % 256),
                        },
                    };
                    let guard = store.read().unwrap();
                    match answer(&guard, &q) {
                        QueryResponse::Rows(_) => answered += 1,
                        QueryResponse::Error(e) => panic!("mid-ingestion error: {e}"),
                    }
                    drop(guard);
                    i += 1;
                    // yield so the single-core CI box can make
                    // ingestion progress between queries
                    std::thread::yield_now();
                }
                answered
            })
        })
        .collect();

    let (trail_sink, snapshot_sink, stats) = ingest.join().expect("ingestion thread");
    let answered: u64 = queriers
        .into_iter()
        .map(|q| q.join().expect("query thread"))
        .sum();
    assert!(stats.events > 0, "the engine emitted events");
    assert!(
        answered > 0,
        "queries must actually have interleaved with ingestion"
    );

    let store = store.read().unwrap();
    assert!(store.is_finished());

    // ---- Trail: bit-identical to TrailSink, every tag ----
    let mut tags: Vec<TagId> = (0..16).map(TagId).collect();
    tags.sort_unstable();
    let mut tags_with_trails = 0;
    for &tag in &tags {
        let from_sink: Vec<(Epoch, Point3)> = trail_sink.trail(tag).copied().collect();
        let from_store: Vec<(Epoch, Point3)> = store
            .trail(tag, Epoch(0), Epoch(u64::MAX))
            .into_iter()
            .map(|s| (s.event.epoch, s.event.location))
            .collect();
        assert_eq!(from_sink.len(), from_store.len(), "trail arity of {tag}");
        for ((ea, la), (eb, lb)) in from_sink.iter().zip(&from_store) {
            assert_eq!(ea, eb, "trail epoch of {tag}");
            assert_eq!(la.x.to_bits(), lb.x.to_bits(), "trail x of {tag}");
            assert_eq!(la.y.to_bits(), lb.y.to_bits(), "trail y of {tag}");
            assert_eq!(la.z.to_bits(), lb.z.to_bits(), "trail z of {tag}");
        }
        tags_with_trails += usize::from(!from_sink.is_empty());
    }
    assert!(tags_with_trails >= 12, "churn trace covers most tags");

    // ---- SnapshotAt: bit-identical to every SnapshotSink emission ----
    let emissions = snapshot_sink.emissions();
    assert!(emissions.len() > 100, "every-epoch cadence on a long trace");
    for (i, (time, relation)) in emissions.iter().enumerate() {
        let at = if i + 1 == emissions.len() {
            Epoch(u64::MAX) // the final (possibly flush) relation
        } else {
            Epoch(*time as u64)
        };
        let rows = store.snapshot_at(at);
        assert_eq!(relation.len(), rows.len(), "snapshot arity at t={time}");
        for ((tag, loc), row) in relation.iter().zip(&rows) {
            assert_eq!(*tag, row.tag, "snapshot tag order at t={time}");
            assert_eq!(loc.x.to_bits(), row.location.x.to_bits(), "x at t={time}");
            assert_eq!(loc.y.to_bits(), row.location.y.to_bits(), "y at t={time}");
            assert_eq!(loc.z.to_bits(), row.location.z.to_bits(), "z at t={time}");
        }
    }
}
