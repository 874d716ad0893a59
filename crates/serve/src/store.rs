//! The embedded event store: a per-tag-indexed in-memory log of the
//! pipeline's cleaned event stream, answering historical trail and
//! point-in-time snapshot queries.
//!
//! ## Time model
//!
//! The store indexes by **arrival epoch**: the epoch whose completion
//! delivered the event to the sinks. An event pushed between the
//! completions of epochs `E-1` and `E` carries arrival `E`; events
//! delivered by the end-of-stream flush arrive *after* the last
//! completed epoch and carry arrival `last + 1`. Snapshot queries are
//! therefore "what did the system know when epoch `E` completed" —
//! exactly the relation [`SnapshotSink`] emits at its evaluation
//! instants, which is what makes the bit-identical-to-sinks contract
//! (pinned in `tests/store_pin_sinks.rs` and the root
//! `tests/serving_queries.rs`) possible even though the engine emits
//! delayed reports whose *own* epoch lags the delivery epoch.
//!
//! ## Layout
//!
//! Events are kept in one vector in arrival order (arrival epochs never
//! decrease along it), plus a per-tag index of each tag's positions in
//! ascending order. A snapshot at `E` binary-searches the vector for
//! the first event that arrived after `E` and takes, for each tag, its
//! last position before that cut: O(tags · log events). A trail walks
//! the tag's own positions; a current location is the tag's last one.
//!
//! The store keeps every event it is given, so every query is
//! answerable and none can fail; its memory grows with the stream.
//!
//! [`SnapshotSink`]: rfid_stream::pipeline::sinks::SnapshotSink

use rfid_geom::Point3;
use rfid_obs::{Counter, Gauge};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};
use std::collections::BTreeMap;

/// Store knobs. The default (unlimited snapshot staleness) makes every
/// query bit-identical to the in-process sinks; serving deployments
/// make churned tags age out of snapshots with
/// [`StoreConfig::snapshot_staleness`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// The fsync cadence of a `DurableStore`'s log: one fsync per this
    /// many arrival epochs (>= 1; 0 is refused at open). The in-memory
    /// store does not read it.
    pub segment_epochs: u64,
    /// A tag appears in `SnapshotAt(e)` only if its latest event (as
    /// of `e`) has an event epoch within this many epochs of `e`.
    /// `None` reports last-known-location forever — the
    /// [`SnapshotSink`]-identical semantics. Finite staleness is the
    /// churn fix: a departed tag stops producing events, so it drops
    /// out of later snapshots while staying answerable via `Trail`.
    ///
    /// [`SnapshotSink`]: rfid_stream::pipeline::sinks::SnapshotSink
    pub snapshot_staleness: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_epochs: 64,
            snapshot_staleness: None,
        }
    }
}

impl StoreConfig {
    /// Default config with a log fsync width (>= 1).
    pub fn with_segment_epochs(mut self, width: u64) -> Self {
        assert!(width >= 1, "segment width must be >= 1 epoch");
        self.segment_epochs = width;
        self
    }

    /// Ages tags out of snapshots `epochs` after their last event.
    pub fn with_snapshot_staleness(mut self, epochs: u64) -> Self {
        self.snapshot_staleness = Some(epochs);
        self
    }
}

/// One event as stored: the pipeline event plus its global arrival
/// sequence number and arrival epoch (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredEvent {
    /// Global arrival sequence number (0-based, gap-free).
    pub seq: u64,
    /// Arrival epoch: the completed epoch that delivered this event.
    pub arrival: u64,
    /// The event itself (its `epoch` field may lag `arrival` — the
    /// engine emits delayed reports).
    pub event: LocationEvent,
}

/// One row of a snapshot/containment/current-location answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationRow {
    pub tag: TagId,
    /// The epoch of the event backing this row (not the query epoch).
    pub epoch: Epoch,
    pub location: Point3,
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Events held: every event the store was given.
    pub events_live: u64,
    /// Always 0: the store drops no event. Kept for the callers that
    /// read it.
    pub events_compacted: u64,
    /// Always 0: the store has no segments. Kept for the callers that
    /// read it.
    pub segments: usize,
    /// Distinct tags ever seen.
    pub tags: usize,
}

/// The store's handles into the process-wide metrics registry.
/// Counters record increments at the mutation sites; the gauges track
/// current levels. A cloned store shares the same handles — the
/// registry aggregates process-wide, not per-instance.
#[derive(Debug, Clone)]
struct StoreMetrics {
    events: Counter,
    tags: Gauge,
}

impl Default for StoreMetrics {
    fn default() -> Self {
        let reg = rfid_obs::global();
        Self {
            events: reg.counter("store_events_total"),
            tags: reg.gauge("store_tags"),
        }
    }
}

/// The arrival clock shared by the store, the hub's sink and the
/// write-ahead log: an event is stamped with the epoch that was open
/// when it was delivered, so a `PUSH` epoch names a store state and
/// replaying the log re-derives every stamp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArrivalClock(Option<u64>);

impl ArrivalClock {
    /// The arrival epoch the next delivered event is stamped with.
    pub(crate) fn next(&self) -> u64 {
        match self.0 {
            // between completions of E-1 and E, deliveries belong to E;
            // after the final completion, flush deliveries get last + 1,
            // and after a completion of u64::MAX they stay at u64::MAX,
            // so arrival epochs never decrease
            Some(e) => e.saturating_add(1),
            None => 0,
        }
    }

    /// Marks `epoch` complete and returns the highest completed epoch
    /// (a completion never moves the clock back).
    pub(crate) fn complete(&mut self, epoch: Epoch) -> u64 {
        let e = self.0.map_or(epoch.0, |prev| prev.max(epoch.0));
        self.0 = Some(e);
        e
    }

    /// Highest completed epoch (`None` before the first).
    pub(crate) fn last(&self) -> Option<u64> {
        self.0
    }
}

/// The embedded event store (see the module docs). Feed it from a
/// pipeline via `rfid_stream::pipeline::sinks::StoreSink`, or push
/// events directly through its [`EventSink`] impl.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    /// [`StoreConfig::snapshot_staleness`].
    staleness: Option<u64>,
    /// Every event in arrival order; `seq` is the position, and arrival
    /// epochs never decrease along it.
    events: Vec<StoredEvent>,
    /// Each tag's positions in `events`, ascending.
    by_tag: BTreeMap<TagId, Vec<usize>>,
    clock: ArrivalClock,
    finished: bool,
    metrics: StoreMetrics,
}

impl EventStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        Self {
            staleness: cfg.snapshot_staleness,
            ..Self::default()
        }
    }

    /// Highest epoch the store has completed (0 before the first).
    pub fn latest_epoch(&self) -> u64 {
        self.clock.last().unwrap_or(0)
    }

    /// True once the feeding stream signalled end-of-stream.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            events_live: self.events.len() as u64,
            events_compacted: 0,
            segments: 0,
            tags: self.by_tag.len(),
        }
    }

    /// Ingests one event (the [`EventSink::on_event`] body). Returns
    /// the event as stored — its assigned sequence number and arrival
    /// stamp — so durability layers can mirror the stamping exactly.
    pub fn push(&mut self, event: &LocationEvent) -> StoredEvent {
        let stored = StoredEvent {
            seq: self.events.len() as u64,
            arrival: self.clock.next(),
            event: *event,
        };
        self.by_tag
            .entry(event.tag)
            .or_default()
            .push(self.events.len());
        self.events.push(stored);
        self.metrics.events.inc();
        stored
    }

    /// Marks epoch `epoch` complete (the
    /// [`EventSink::on_epoch_complete`] body): advances the arrival
    /// clock.
    pub fn complete_epoch(&mut self, epoch: Epoch) {
        self.clock.complete(epoch);
        self.metrics.tags.set(self.by_tag.len() as u64);
    }

    /// Marks end of stream.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// The latest-location relation as the system knew it when `epoch`
    /// completed, sorted by tag — the historical twin of
    /// `SnapshotSink`'s emissions. Epochs at or past the newest data
    /// answer with the current relation.
    pub fn snapshot_at(&self, epoch: Epoch) -> Vec<LocationRow> {
        self.snapshot_events(epoch)
            .into_iter()
            .map(row_of)
            .collect()
    }

    /// The rows of [`EventStore::snapshot_at`]`(at)` whose backing
    /// event **arrived** after epoch `since` completed — the
    /// incremental refresh for a client already holding the snapshot
    /// at `since`.
    pub(crate) fn snapshot_delta(&self, at: Epoch, since: Epoch) -> Vec<LocationRow> {
        self.snapshot_events(at)
            .into_iter()
            .filter(|s| s.arrival > since.0)
            .map(row_of)
            .collect()
    }

    /// The stored events backing the snapshot relation at `epoch`
    /// (staleness applied), sorted by tag.
    fn snapshot_events(&self, epoch: Epoch) -> Vec<StoredEvent> {
        // the first event that arrived after `epoch` completed
        let cut = self.events.partition_point(|s| s.arrival <= epoch.0);
        // clamp the staleness reference so querying far past the end
        // of data does not age every tag out
        let at = epoch.0.min(self.clock.next());
        self.by_tag
            .values()
            .filter_map(|positions| {
                let before = positions.partition_point(|&p| p < cut);
                before.checked_sub(1).map(|i| self.events[positions[i]])
            })
            .filter(|s| {
                self.staleness
                    .is_none_or(|k| s.event.epoch.0.saturating_add(k) >= at)
            })
            .collect()
    }

    /// Every event of `tag` whose **event epoch** lies in `[from, to]`,
    /// in arrival order — the historical twin of `TrailSink`.
    pub fn trail(&self, tag: TagId, from: Epoch, to: Epoch) -> Vec<StoredEvent> {
        self.positions(tag)
            .iter()
            .map(|&p| self.events[p])
            .filter(|s| (from..=to).contains(&s.event.epoch))
            .collect()
    }

    /// Every event in arrival/sequence order — the durability layer's
    /// view for digest checks and re-export.
    pub fn events(&self) -> impl Iterator<Item = &StoredEvent> + '_ {
        self.events.iter()
    }

    /// The last known location of `tag` (regardless of staleness —
    /// the caller sees the backing epoch and judges freshness).
    pub fn current_location(&self, tag: TagId) -> Option<LocationRow> {
        let &last = self.positions(tag).last()?;
        Some(row_of(self.events[last]))
    }

    fn positions(&self, tag: TagId) -> &[usize] {
        self.by_tag.get(&tag).map_or(&[], Vec::as_slice)
    }

    /// Snapshot rows at `epoch` whose XY location falls inside the
    /// axis-aligned region `[x0, x1] × [y0, y1]` — "what is in this
    /// shelf region", historically.
    pub(crate) fn containment_at(
        &self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        epoch: Epoch,
    ) -> Vec<LocationRow> {
        let mut rows = self.snapshot_at(epoch);
        rows.retain(|r| {
            r.location.x >= x0 && r.location.x <= x1 && r.location.y >= y0 && r.location.y <= y1
        });
        rows
    }
}

fn row_of(s: StoredEvent) -> LocationRow {
    LocationRow {
        tag: s.event.tag,
        epoch: s.event.epoch,
        location: s.event.location,
    }
}

impl EventSink for EventStore {
    fn on_event(&mut self, event: &LocationEvent) {
        self.push(event);
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.complete_epoch(epoch);
    }

    fn on_finish(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(epoch: u64, tag: u64, x: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, 0.0, 0.0))
    }

    /// Replays `n` epochs; tag 1 reports every epoch, tag 2 only on
    /// even epochs.
    fn feed(store: &mut EventStore, n: u64) {
        for e in 0..n {
            store.push(&ev(e, 1, e as f64));
            if e % 2 == 0 {
                store.push(&ev(e, 2, -(e as f64)));
            }
            store.complete_epoch(Epoch(e));
        }
        store.finish();
    }

    #[test]
    fn snapshot_tracks_history_point_in_time() {
        let mut store = EventStore::new(StoreConfig::default());
        feed(&mut store, 20);
        let rows = store.snapshot_at(Epoch(7));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tag, TagId(1));
        assert_eq!(rows[0].epoch, Epoch(7));
        assert_eq!(rows[0].location.x, 7.0);
        assert_eq!(rows[1].tag, TagId(2));
        assert_eq!(rows[1].epoch, Epoch(6), "tag 2 reports on even epochs");
        // far-future query answers with the current relation
        let now = store.snapshot_at(Epoch(1_000));
        assert_eq!(now[0].epoch, Epoch(19));
        assert_eq!(now[1].epoch, Epoch(18));
        // an epoch completed before anything arrived answers empty
        let mut empty_q = EventStore::new(StoreConfig::default());
        empty_q.complete_epoch(Epoch(0));
        empty_q.push(&ev(1, 1, 0.0)); // arrives during epoch 1
        empty_q.complete_epoch(Epoch(1));
        assert!(empty_q.snapshot_at(Epoch(0)).is_empty());
        assert_eq!(empty_q.snapshot_at(Epoch(1)).len(), 1);
    }

    #[test]
    fn snapshot_uses_arrival_not_event_epoch() {
        let mut store = EventStore::new(StoreConfig::default());
        store.push(&ev(0, 1, 1.0));
        store.complete_epoch(Epoch(0));
        // a delayed report: event epoch 0, delivered during epoch 9
        for e in 1..9 {
            store.complete_epoch(Epoch(e));
        }
        store.push(&ev(0, 1, 42.0));
        store.complete_epoch(Epoch(9));
        store.finish();
        // at epoch 5 the delayed report had not arrived yet
        assert_eq!(store.snapshot_at(Epoch(5))[0].location.x, 1.0);
        // once it arrives it supersedes, even with an older event epoch
        assert_eq!(store.snapshot_at(Epoch(9))[0].location.x, 42.0);
    }

    #[test]
    fn trail_filters_by_event_epoch_range() {
        let mut store = EventStore::new(StoreConfig::default());
        feed(&mut store, 20);
        let t = store.trail(TagId(2), Epoch(4), Epoch(9));
        let epochs: Vec<u64> = t.iter().map(|s| s.event.epoch.0).collect();
        assert_eq!(epochs, vec![4, 6, 8]);
        assert!(store.trail(TagId(9), Epoch(0), Epoch(100)).is_empty());
        // arrival order within an epoch is preserved (duplicates)
        let mut dup = EventStore::new(StoreConfig::default());
        dup.push(&ev(0, 7, 1.0));
        dup.push(&ev(0, 7, 2.0));
        dup.complete_epoch(Epoch(0));
        let t = dup.trail(TagId(7), Epoch(0), Epoch(0));
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].event.location.x, t[1].event.location.x), (1.0, 2.0));
        assert!(t[0].seq < t[1].seq);
    }

    #[test]
    fn staleness_drops_silent_tags_from_snapshots() {
        let cfg = StoreConfig::default().with_snapshot_staleness(3);
        let mut store = EventStore::new(cfg);
        // tag 2 departs after epoch 5; tag 1 keeps reporting
        for e in 0..20u64 {
            store.push(&ev(e, 1, e as f64));
            if e <= 5 {
                store.push(&ev(e, 2, 9.0));
            }
            store.complete_epoch(Epoch(e));
        }
        store.finish();
        // while fresh, tag 2 is present…
        let early: Vec<_> = store.snapshot_at(Epoch(6)).iter().map(|r| r.tag).collect();
        assert_eq!(early, vec![TagId(1), TagId(2)]);
        // …later it ages out of the snapshot…
        let late: Vec<_> = store.snapshot_at(Epoch(12)).iter().map(|r| r.tag).collect();
        assert_eq!(late, vec![TagId(1)]);
        // …but stays fully answerable via trail and current-location
        assert_eq!(store.trail(TagId(2), Epoch(0), Epoch(20)).len(), 6);
        assert_eq!(store.current_location(TagId(2)).unwrap().epoch, Epoch(5));
    }

    #[test]
    fn snapshot_delta_returns_only_newer_arrivals() {
        let mut store = EventStore::new(StoreConfig::default());
        feed(&mut store, 20);
        // between epochs 7 and 11: tag 1 re-reported (epoch 11), tag 2
        // re-reported (epoch 10) — both arrive after 7
        let delta = store.snapshot_delta(Epoch(11), Epoch(7));
        assert_eq!(delta.len(), 2);
        // between 10 and 11 only tag 1 moved (tag 2 reports on evens)
        let delta = store.snapshot_delta(Epoch(11), Epoch(10));
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].tag, TagId(1));
        assert_eq!(delta[0].epoch, Epoch(11));
        // since == at: nothing changed
        assert!(store.snapshot_delta(Epoch(11), Epoch(11)).is_empty());
        // delta ∪ unchanged rows reconstructs the full snapshot
        let full = store.snapshot_at(Epoch(11));
        let delta = store.snapshot_delta(Epoch(11), Epoch(7));
        assert!(delta.iter().all(|d| full.contains(d)));
    }

    #[test]
    fn containment_filters_by_region() {
        let mut store = EventStore::new(StoreConfig::default());
        store.push(&ev(0, 1, 1.0));
        store.push(&ev(0, 2, 5.0));
        store.complete_epoch(Epoch(0));
        let rows = store.containment_at(0.0, -1.0, 2.0, 1.0, Epoch(0));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tag, TagId(1));
    }

    #[test]
    fn flush_events_arrive_after_the_last_epoch() {
        let mut store = EventStore::new(StoreConfig::default());
        store.push(&ev(0, 1, 1.0));
        store.complete_epoch(Epoch(0));
        // end-of-stream flush delivers a delayed report
        store.push(&ev(0, 2, 2.0));
        store.finish();
        // the epoch-0 snapshot does not see the flush event…
        assert_eq!(store.snapshot_at(Epoch(0)).len(), 1);
        // …the post-stream relation does
        assert_eq!(store.snapshot_at(Epoch(1)).len(), 2);
        assert_eq!(store.current_location(TagId(2)).unwrap().location.x, 2.0);
        assert!(store.is_finished());
        // an event pushed after `finish` is in the post-stream relation
        // too, as `current_location` already reports it
        store.push(&ev(0, 3, 3.0));
        assert_eq!(store.snapshot_at(Epoch(1)).len(), 3);
        assert_eq!(store.snapshot_at(Epoch(100)).len(), 3);
    }

    #[test]
    fn deliveries_after_a_completion_of_u64_max_stay_at_u64_max() {
        let mut store = EventStore::new(StoreConfig::default().with_snapshot_staleness(2));
        store.push(&ev(0, 1, 1.0));
        store.complete_epoch(Epoch(u64::MAX - 1));
        assert_eq!(store.push(&ev(u64::MAX - 1, 2, 2.0)).arrival, u64::MAX);
        store.complete_epoch(Epoch(u64::MAX));
        assert_eq!(store.latest_epoch(), u64::MAX);
        assert_eq!(store.push(&ev(u64::MAX, 3, 3.0)).arrival, u64::MAX);
        assert_eq!(store.push(&ev(u64::MAX, 1, 4.0)).arrival, u64::MAX);
        // arrival order holds, so the cut at u64::MAX sees every event
        // and the stale first sighting of tag 1 has been replaced
        let arrivals: Vec<u64> = store.events().map(|s| s.arrival).collect();
        assert_eq!(arrivals, [0, u64::MAX, u64::MAX, u64::MAX]);
        let rows = store.snapshot_at(Epoch(u64::MAX));
        let tags: Vec<u64> = rows.iter().map(|r| r.tag.0).collect();
        assert_eq!(tags, [1, 2, 3]);
        assert_eq!(rows[0].location.x, 4.0);
        assert_eq!(store.snapshot_at(Epoch(u64::MAX - 2)).len(), 0);
    }
}
