//! Integration coverage for the stream operators (`window`, `groupby`,
//! `istream`, `rstream`) driven by *real* engine event streams — not
//! hand-built tuples — both directly and as composed pipeline sinks.

use rfid_repro::prelude::*;
use rfid_repro::sim::scenario;
use rfid_repro::stream::operators::{group_sum, having, ChangeDetector, RangeWindow};
use rfid_repro::stream::pipeline::sinks::{
    FireCodeSink, LocationChangeSink, SnapshotSink, TrailSink,
};
use rfid_repro::stream::queries::SquareFtArea;
use rfid_repro::stream::Pipeline;

/// Runs the full engine over a small dense scenario through the
/// streaming pipeline, fanning the cleaned events into every operator
/// sink at once, and returns the collector plus the sinks.
type SinkStack = (
    Vec<LocationEvent>,
    (
        LocationChangeSink,
        (FireCodeSink<fn(TagId) -> f64>, (TrailSink, SnapshotSink)),
    ),
);

fn run_dense_scenario() -> (scenario::Scenario, SinkStack) {
    let sc = scenario::small_trace(16, 4, 301);
    let mut cfg = FilterConfig::full_default();
    cfg.particles_per_object = 400;
    let engine = InferenceEngine::new(
        JointModel::new(ModelParams::default_warehouse()),
        sc.layout.clone(),
        sc.trace.shelf_tags.clone(),
        cfg,
    )
    .unwrap();
    let weight: fn(TagId) -> f64 = |_| 110.0;
    let sinks: SinkStack = (
        Vec::new(),
        (
            LocationChangeSink::new(0.1),
            (
                FireCodeSink::new(sc.trace.epoch_len, 5.0, weight, 200.0),
                (TrailSink::new(3), SnapshotSink::new(50)),
            ),
        ),
    );
    let mut pipeline = Pipeline::new(sc.trace.epoch_len, engine, sinks);
    pipeline.run_to_completion(&mut sc.trace.stream());
    let (_, sinks, stats) = pipeline.into_parts();
    assert!(stats.epochs > 0);
    (sc, sinks)
}

#[test]
fn operator_sinks_compose_on_real_event_streams() {
    let (_sc, (events, (changes, (fire, (trail, snapshots))))) = run_dense_scenario();
    assert!(!events.is_empty(), "engine produced no events");

    // istream (LocationChangeQuery): stationary objects with one event
    // each fire exactly once
    assert_eq!(changes.updates().len(), 16);
    assert_eq!(changes.query().num_tags(), 16);

    // window (PartitionedRowWindow): trails bounded at n, latest agrees
    // with the last event of each tag
    assert_eq!(trail.num_tags(), 16);
    for e in &events {
        assert!(trail.trail(e.tag).count() <= 3);
    }
    let last_of_first = events.iter().rfind(|e| e.tag == events[0].tag).unwrap();
    let (latest_epoch, latest_loc) = trail.latest(events[0].tag).copied().unwrap();
    assert_eq!(latest_epoch, last_of_first.epoch);
    assert_eq!(latest_loc.x.to_bits(), last_of_first.location.x.to_bits());

    // groupby + having (FireCodeQuery): 16 objects packed 2 per square
    // foot at 110 lb each => violations must fire somewhere on the shelf
    assert!(
        !fire.violations().is_empty(),
        "densely packed shelf must violate the fire code"
    );
    for (_, area, total) in fire.violations() {
        assert!((1..=2).contains(&area.x), "violation off-shelf at {area:?}");
        assert!(*total > 200.0);
    }

    // rstream (SnapshotSink): snapshots were taken, relations are
    // sorted by tag, and the last one holds every reported tag
    assert!(!snapshots.emissions().is_empty());
    let (_, last_relation) = snapshots.emissions().last().unwrap();
    assert_eq!(last_relation.len(), 16);
    for w in last_relation.windows(2) {
        assert!(w[0].0 < w[1].0, "snapshot relation must be tag-sorted");
    }
}

#[test]
fn range_window_and_groupby_on_real_events() {
    // drive the raw operators by hand with a real cleaned event stream
    let (sc, (events, _)) = run_dense_scenario();

    // RangeWindow: replay the events through a 5-second window,
    // checking the eviction invariant at every step
    let mut w: RangeWindow<TagId> = RangeWindow::new(5.0);
    for e in &events {
        let t = e.epoch.0 as f64 * sc.trace.epoch_len;
        w.push(t, e.tag);
        assert!(w.iter().all(|(time, _)| *time >= w.watermark() - 5.0));
    }
    // advancing far past the end empties it
    let end = events.last().unwrap().epoch.0 as f64 + 100.0;
    w.advance(end);
    assert!(w.is_empty());

    // group_sum/having over the final event per tag: every occupied
    // square-foot cell sums its objects' weights
    let mut last: std::collections::BTreeMap<TagId, Point3> = Default::default();
    for e in &events {
        last.insert(e.tag, e.location);
    }
    let groups = group_sum(
        last.iter().map(|(t, p)| (*t, SquareFtArea::of(p))),
        |(_, a)| *a,
        |_| 110.0,
    );
    let total: f64 = groups.values().sum();
    assert!((total - 16.0 * 110.0).abs() < 1e-9, "weights conserved");
    let over = having(groups, |v| v > 200.0);
    assert!(!over.is_empty(), "some cell must hold >= 2 objects");

    // istream (ChangeDetector) generically over the real stream:
    // emission count matches manual change tracking
    let mut det: ChangeDetector<TagId, (i64, i64)> = ChangeDetector::new();
    let mut fired = 0;
    for e in &events {
        let cell = SquareFtArea::of(&e.location);
        if det.push(e.tag, (cell.x, cell.y)).is_some() {
            fired += 1;
        }
    }
    assert!(fired >= 16, "every tag fires at least once");
}
