//! Regression test for the store under population churn
//! (`tag_churn_trace`: 4 mid-stream arrivals, tags 1 and 5 depart —
//! the GroundTruth-tombstone scenario from the accuracy library).
//!
//! The contract: with a finite `snapshot_staleness`, a departed tag
//! must drop out of `SnapshotAt` for epochs sufficiently far past its
//! last event, while staying **fully answerable** via `Trail` (and
//! `CurrentLocation`). Without staleness, the store
//! reports last-known-location forever — the `SnapshotSink`-identical
//! default that the pin tests rely on.

use rfid_core::{FilterConfig, InferenceEngine};
use rfid_model::{ConeSensor, JointModel, ModelParams};
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_sim::scenario;
use rfid_stream::pipeline::sinks::StoreSink;
use rfid_stream::{Epoch, Pipeline, TagId};
use std::sync::{Arc, RwLock};

/// Tags the scenario departs mid-stream (see
/// `rfid_sim::scenario::tag_churn_trace`).
const DEPARTED: [TagId; 2] = [TagId(1), TagId(5)];

/// Runs the engine over the churn trace through the pipeline into a
/// store with the given config.
fn ingest_churn(cfg: StoreConfig) -> Arc<RwLock<EventStore>> {
    let sc = scenario::tag_churn_trace(4004);
    let mut fcfg = FilterConfig::full_default();
    fcfg.particles_per_object = 150;
    fcfg.report_delay_epochs = 30;
    let model = JointModel::with_sensor(
        ConeSensor::paper_default(),
        ModelParams::default_warehouse(),
    );
    let engine = InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), fcfg)
        .expect("valid config");
    let store = Arc::new(RwLock::new(EventStore::new(cfg)));
    let mut pipeline = Pipeline::new(
        sc.trace.epoch_len,
        engine,
        StoreSink::new(Arc::clone(&store)),
    );
    pipeline.run_to_completion(&mut sc.trace.stream());
    store
}

#[test]
fn departed_tags_age_out_of_snapshots_but_keep_their_trails() {
    // pass 1, unlimited store: learn where the departed tags' event
    // streams actually end, so the staleness bound is not guessed
    let probe = ingest_churn(StoreConfig::default());
    let (final_epoch, last_event, full_trails) = {
        let probe = probe.read().unwrap();
        let final_epoch = probe.latest_epoch();
        let last_event: Vec<u64> = DEPARTED
            .iter()
            .map(|&tag| {
                let trail = probe.trail(tag, Epoch(0), Epoch(u64::MAX));
                assert!(!trail.is_empty(), "{tag} must have pre-departure events");
                trail.last().unwrap().event.epoch.0
            })
            .collect();
        let full_trails: Vec<usize> = DEPARTED
            .iter()
            .map(|&tag| probe.trail(tag, Epoch(0), Epoch(u64::MAX)).len())
            .collect();
        (final_epoch, last_event, full_trails)
    };
    let last_max = *last_event.iter().max().unwrap();
    let gap = final_epoch - last_max;
    assert!(
        gap >= 2,
        "departure must precede end of trace by enough to age out (gap {gap})"
    );
    let staleness = (gap / 2).max(1);

    // pass 2: same trace, staleness configured
    let store = ingest_churn(
        StoreConfig::default()
            .with_segment_epochs(32)
            .with_snapshot_staleness(staleness),
    );
    let store = store.read().unwrap();

    for (i, &tag) in DEPARTED.iter().enumerate() {
        // while its events are fresh, the tag is in the snapshot…
        let fresh: Vec<TagId> = store
            .snapshot_at(Epoch(last_event[i]))
            .iter()
            .map(|r| r.tag)
            .collect();
        assert!(fresh.contains(&tag), "{tag} missing while fresh");
        // …for later epochs it has dropped out…
        let late: Vec<TagId> = store
            .snapshot_at(Epoch(final_epoch))
            .iter()
            .map(|r| r.tag)
            .collect();
        assert!(
            !late.contains(&tag),
            "{tag} departed at epoch {} but still in the epoch-{final_epoch} snapshot",
            last_event[i]
        );
        // …while its full trail stays answerable
        let trail = store.trail(tag, Epoch(0), Epoch(u64::MAX));
        assert_eq!(trail.len(), full_trails[i], "{tag} trail truncated");
        assert_eq!(trail.last().unwrap().event.epoch.0, last_event[i]);
        // and CurrentLocation still reports the last known fix
        let current = store.current_location(tag).expect("last known location");
        assert_eq!(current.epoch.0, last_event[i]);
    }

    // live tags (the engine keeps reporting them) stay in the final
    // snapshot — staleness must not age out the whole relation
    let late = store.snapshot_at(Epoch(final_epoch));
    assert!(
        !late.is_empty(),
        "live tags must survive the staleness filter"
    );
    assert!(late.iter().all(|r| !DEPARTED.contains(&r.tag)));
}
