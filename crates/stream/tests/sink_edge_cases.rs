//! Edge-case contracts of the query sinks — the behaviors the serving
//! layer's `EventStore` is pinned bit-identical against (see
//! `crates/serve/tests/store_pin_sinks.rs`): an empty event stream, a
//! tag that departs (tombstone) mid-window, and duplicate events
//! inside one epoch.

use rfid_geom::Point3;
use rfid_stream::pipeline::sinks::{SnapshotSink, TrailSink};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};

fn ev(epoch: u64, tag: u64, x: f64, y: f64) -> LocationEvent {
    LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, y, 0.0))
}

#[test]
fn trail_sink_on_empty_stream() {
    let mut s = TrailSink::new(3);
    s.on_finish();
    assert_eq!(s.num_tags(), 0);
    assert_eq!(s.trail(TagId(0)).count(), 0);
    assert!(s.latest(TagId(0)).is_none());
}

#[test]
fn snapshot_sink_on_empty_stream_emits_one_empty_relation() {
    // even a stream with zero events must produce a (vacuous) final
    // snapshot, so downstream consumers always see >= 1 emission
    let mut s = SnapshotSink::new(5);
    s.on_finish();
    assert_eq!(s.emissions().len(), 1);
    assert_eq!(s.emissions()[0].0, 0.0);
    assert!(s.emissions()[0].1.is_empty());

    // epochs completing without events: cadence emissions are empty,
    // and no duplicate final snapshot is appended
    let mut s = SnapshotSink::new(1);
    s.on_epoch_complete(Epoch(0));
    s.on_epoch_complete(Epoch(1));
    s.on_finish();
    assert_eq!(s.emissions().len(), 2);
    assert!(s.emissions().iter().all(|(_, r)| r.is_empty()));
}

#[test]
fn departed_tag_tombstone_mid_window() {
    // tag 2 departs (its events stop) after epoch 2; tag 1 reports on
    let mut trail = TrailSink::new(4);
    let mut snap = SnapshotSink::new(1);
    for e in 0..8u64 {
        let mut events = vec![ev(e, 1, e as f64, 0.0)];
        if e <= 2 {
            events.push(ev(e, 2, -1.0, e as f64));
        }
        for event in &events {
            trail.on_event(event);
            snap.on_event(event);
        }
        trail.on_epoch_complete(Epoch(e));
        snap.on_epoch_complete(Epoch(e));
    }
    trail.on_finish();
    snap.on_finish();

    // the trail window retains the departed tag's last rows untouched
    let t2: Vec<u64> = trail.trail(TagId(2)).map(|(e, _)| e.0).collect();
    assert_eq!(t2, vec![0, 1, 2], "tombstoned tag keeps its history");
    assert_eq!(trail.latest(TagId(2)).unwrap().0, Epoch(2));
    // while the live tag's window slid on
    let t1: Vec<u64> = trail.trail(TagId(1)).map(|(e, _)| e.0).collect();
    assert_eq!(t1, vec![4, 5, 6, 7]);

    // the snapshot relation reports last-known-location forever —
    // this is the documented sink contract (the serving store's
    // `snapshot_staleness` exists precisely because of it)
    let (_, last) = snap.emissions().last().unwrap();
    let tag2 = last.iter().find(|(t, _)| *t == TagId(2)).unwrap();
    assert_eq!(tag2.1.y, 2.0, "frozen at its last report");
    assert_eq!(last.len(), 2);
}

#[test]
fn duplicate_events_in_one_epoch() {
    let mut trail = TrailSink::new(8);
    let mut snap = SnapshotSink::new(1);
    // two reports of tag 1 inside epoch 0 (e.g. merged worker streams),
    // arriving in stream order
    for event in [ev(0, 1, 1.0, 0.0), ev(0, 1, 2.0, 0.0)] {
        trail.on_event(&event);
        snap.on_event(&event);
    }
    trail.on_epoch_complete(Epoch(0));
    snap.on_epoch_complete(Epoch(0));
    trail.on_finish();
    snap.on_finish();

    // the trail keeps both rows, in arrival order
    let rows: Vec<f64> = trail.trail(TagId(1)).map(|(_, p)| p.x).collect();
    assert_eq!(rows, vec![1.0, 2.0]);
    // the snapshot keeps the last arrival
    assert_eq!(snap.emissions().len(), 1);
    let relation = &snap.emissions()[0].1;
    assert_eq!(relation.len(), 1);
    assert_eq!(relation[0].1.x, 2.0);
}

#[test]
fn trail_window_eviction_returns_displaced_row() {
    // the row-window contract the trail sink sits on: pushing past n
    // evicts oldest-first, per partition
    let mut s = TrailSink::new(1);
    s.on_event(&ev(0, 1, 1.0, 0.0));
    s.on_event(&ev(5, 1, 2.0, 0.0));
    s.on_event(&ev(3, 2, 9.0, 0.0));
    assert_eq!(s.trail(TagId(1)).count(), 1);
    assert_eq!(s.latest(TagId(1)).unwrap().0, Epoch(5));
    assert_eq!(s.latest(TagId(2)).unwrap().0, Epoch(3));
    assert_eq!(s.num_tags(), 2);
}
