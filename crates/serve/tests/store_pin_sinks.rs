//! Pins `EventStore` answers **bit-identical** to the in-process
//! `TrailSink`/`SnapshotSink` on the same event streams — including
//! the edge cases the sinks themselves are tested for: an empty
//! stream, a tag going silent (tombstone) mid-window, and duplicate
//! events inside one epoch.
//!
//! The root `tests/serving_queries.rs` pins the same contract on a
//! real engine trace with ingestion running concurrently; this suite
//! keeps the contract debuggable on hand-built streams.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rfid_geom::Point3;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_stream::pipeline::sinks::{SnapshotSink, TrailSink};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};

fn ev(epoch: u64, tag: u64, x: f64, y: f64) -> LocationEvent {
    LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, y, 0.0))
}

/// One hand-built stream: events grouped per completed epoch, plus an
/// end-of-stream flush batch (delivered after the last completion).
struct Replay {
    epochs: Vec<(u64, Vec<LocationEvent>)>,
    flush: Vec<LocationEvent>,
}

/// Replays the stream into all three consumers exactly as the pipeline
/// would (events, then the epoch completion; flush events, then
/// finish), and pins the store's Trail/SnapshotAt answers to the
/// sinks' outputs bit-for-bit.
fn assert_store_matches_sinks(replay: &Replay) {
    let mut trail = TrailSink::new(1 << 20);
    let mut snap = SnapshotSink::new(1);
    let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
    let mut tags: Vec<TagId> = Vec::new();

    for (epoch, events) in &replay.epochs {
        for e in events {
            trail.on_event(e);
            snap.on_event(e);
            store.on_event(e);
            tags.push(e.tag);
        }
        trail.on_epoch_complete(Epoch(*epoch));
        snap.on_epoch_complete(Epoch(*epoch));
        store.on_epoch_complete(Epoch(*epoch));
    }
    for e in &replay.flush {
        trail.on_event(e);
        snap.on_event(e);
        store.on_event(e);
        tags.push(e.tag);
    }
    trail.on_finish();
    snap.on_finish();
    store.on_finish();
    tags.sort_unstable();
    tags.dedup();

    // Trail: the store's full-range trail per tag must equal the
    // sink's retained rows, element-wise, bit-for-bit
    for &tag in &tags {
        let from_sink: Vec<(Epoch, Point3)> = trail.trail(tag).copied().collect();
        let from_store: Vec<(Epoch, Point3)> = store
            .trail(tag, Epoch(0), Epoch(u64::MAX))
            .into_iter()
            .map(|s| (s.event.epoch, s.event.location))
            .collect();
        assert_eq!(from_sink.len(), from_store.len(), "trail length of {tag}");
        for (i, (a, b)) in from_sink.iter().zip(&from_store).enumerate() {
            assert_eq!(a.0, b.0, "trail epoch {i} of {tag}");
            assert_eq!(a.1.x.to_bits(), b.1.x.to_bits(), "trail x {i} of {tag}");
            assert_eq!(a.1.y.to_bits(), b.1.y.to_bits(), "trail y {i} of {tag}");
            assert_eq!(a.1.z.to_bits(), b.1.z.to_bits(), "trail z {i} of {tag}");
        }
    }
    assert_eq!(trail.num_tags(), tags.len());

    // SnapshotAt: every cadence emission of the sink must equal the
    // store's answer at that epoch; the final emission (which may be
    // the flush snapshot) must equal the store's current relation
    let emissions = snap.emissions();
    assert!(!emissions.is_empty(), "every-epoch sink always emits");
    for (i, (time, relation)) in emissions.iter().enumerate() {
        let at = if i + 1 == emissions.len() {
            Epoch(u64::MAX) // the post-stream relation
        } else {
            Epoch(*time as u64)
        };
        let rows = store.snapshot_at(at);
        assert_eq!(
            relation.len(),
            rows.len(),
            "snapshot arity at emission {i} (t={time})"
        );
        for ((tag_a, loc_a), row) in relation.iter().zip(&rows) {
            assert_eq!(*tag_a, row.tag, "snapshot tag order at emission {i}");
            assert_eq!(loc_a.x.to_bits(), row.location.x.to_bits());
            assert_eq!(loc_a.y.to_bits(), row.location.y.to_bits());
            assert_eq!(loc_a.z.to_bits(), row.location.z.to_bits());
        }
    }
}

#[test]
fn empty_stream_matches_sinks() {
    // no events at all — and no completed epochs either
    assert_store_matches_sinks(&Replay {
        epochs: vec![],
        flush: vec![],
    });
    // completed epochs with zero events
    assert_store_matches_sinks(&Replay {
        epochs: vec![(0, vec![]), (1, vec![]), (2, vec![])],
        flush: vec![],
    });
}

#[test]
fn tombstoned_tag_matches_sinks() {
    // tag 2 departs (goes silent) after epoch 2; tag 1 keeps
    // reporting — the sinks report tag 2's last location forever, and
    // with default (unlimited-staleness) config so does the store
    let epochs = (0..10u64)
        .map(|e| {
            let mut evs = vec![ev(e, 1, e as f64, 0.0)];
            if e <= 2 {
                evs.push(ev(e, 2, -1.0, e as f64));
            }
            (e, evs)
        })
        .collect();
    assert_store_matches_sinks(&Replay {
        epochs,
        flush: vec![],
    });
}

#[test]
fn duplicate_events_in_one_epoch_match_sinks() {
    // the same tag reports twice in epoch 1 (e.g. merged worker
    // streams); last arrival wins the snapshot, the trail keeps both
    assert_store_matches_sinks(&Replay {
        epochs: vec![
            (0, vec![ev(0, 1, 0.5, 0.5)]),
            (1, vec![ev(1, 1, 1.0, 0.0), ev(1, 1, 2.0, 0.0)]),
            (2, vec![ev(2, 2, 3.0, 3.0)]),
        ],
        flush: vec![],
    });
}

#[test]
fn delayed_flush_events_match_sinks() {
    // events delivered by the end-of-stream flush carry old epochs —
    // the store must index them by arrival, as the sinks do
    assert_store_matches_sinks(&Replay {
        epochs: vec![
            (0, vec![ev(0, 1, 1.0, 1.0)]),
            (1, vec![]),
            (2, vec![ev(2, 2, 2.0, 2.0)]),
        ],
        flush: vec![ev(1, 1, 9.0, 9.0), ev(2, 3, 4.0, 4.0)],
    });
}

#[test]
fn randomized_streams_match_sinks() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..25 {
        let num_epochs = rng.gen_range(1..30u64);
        let num_tags = rng.gen_range(1..8u64);
        let epochs: Vec<(u64, Vec<LocationEvent>)> = (0..num_epochs)
            .map(|e| {
                let n = rng.gen_range(0..4usize);
                let evs = (0..n)
                    .map(|_| {
                        ev(
                            e,
                            rng.gen_range(0..num_tags),
                            rng.gen_range(-10.0..10.0),
                            rng.gen_range(-10.0..10.0),
                        )
                    })
                    .collect();
                (e, evs)
            })
            .collect();
        let flush = (0..rng.gen_range(0..3usize))
            .map(|_| {
                ev(
                    rng.gen_range(0..num_epochs),
                    rng.gen_range(0..num_tags),
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                )
            })
            .collect();
        let replay = Replay { epochs, flush };
        assert_store_matches_sinks(&replay);
        let _ = case;
    }
}
