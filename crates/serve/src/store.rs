//! The embedded event store: a segmented, per-tag-indexed in-memory
//! log of the pipeline's cleaned event stream, answering historical
//! trail and point-in-time snapshot queries.
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
//! Events land in fixed-width **segments** of `segment_epochs` arrival
//! epochs. Each segment keeps its events in arrival order plus a
//! per-tag index; a segment is sealed when arrivals pass its end, at
//! which point it records the cumulative latest-location-per-tag
//! relation as of its last epoch — the **snapshot index**. A snapshot
//! query binary-searches the sealed segments (O(log segments)), takes
//! the preceding cumulative snapshot, and replays at most one
//! segment's events, instead of walking the whole history.
//!
//! The store keeps every event it is given, so every query is
//! answerable and none can fail; its memory grows with the stream.
//!
//! [`SnapshotSink`]: rfid_stream::pipeline::sinks::SnapshotSink

use rfid_geom::Point3;
use rfid_obs::{Counter, Gauge};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};
use std::collections::BTreeMap;

/// Store knobs. The defaults (64-epoch segments, unlimited snapshot
/// staleness) make every query bit-identical to the in-process sinks;
/// serving deployments make churned tags age out of snapshots with
/// [`StoreConfig::snapshot_staleness`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Arrival-epoch width of one segment (>= 1). Smaller segments
    /// mean finer-grained snapshot indexing, at one cumulative
    /// relation clone per segment.
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
    /// Default config with a segment width (>= 1).
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
    /// Segments, the open tail included.
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
    segments: Gauge,
    tags: Gauge,
}

impl Default for StoreMetrics {
    fn default() -> Self {
        let reg = rfid_obs::global();
        Self {
            events: reg.counter("store_events_total"),
            segments: reg.gauge("store_segments"),
            tags: reg.gauge("store_tags"),
        }
    }
}

/// The arrival clock shared by the store, the hub's sink and the
/// segment log: an event is stamped with the epoch that was open when
/// it was delivered, so a `PUSH` epoch names a store state and replaying
/// the log re-derives every stamp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArrivalClock(Option<u64>);

impl ArrivalClock {
    /// The arrival epoch the next delivered event is stamped with.
    pub(crate) fn next(&self) -> u64 {
        match self.0 {
            // between completions of E-1 and E, deliveries belong to E;
            // after the final completion, flush deliveries get last + 1
            Some(e) => e + 1,
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

#[derive(Debug, Clone)]
struct Segment {
    /// First arrival epoch covered (inclusive), aligned to the width.
    start: u64,
    /// Last arrival epoch covered (inclusive).
    end: u64,
    /// Events in arrival order.
    events: Vec<StoredEvent>,
    /// Per-tag index into `events` (positions are ascending, so a
    /// tag's history inside one segment stays in arrival order).
    by_tag: BTreeMap<TagId, Vec<u32>>,
    /// Cumulative latest-event-per-tag relation as of `end`; present
    /// once the segment is sealed.
    snapshot: Option<BTreeMap<TagId, StoredEvent>>,
}

impl Segment {
    fn new(start: u64, width: u64) -> Self {
        Self {
            start,
            end: start + (width - 1),
            events: Vec::new(),
            by_tag: BTreeMap::new(),
            snapshot: None,
        }
    }

    fn push(&mut self, stored: StoredEvent) {
        debug_assert!(stored.arrival >= self.start && stored.arrival <= self.end);
        let idx = self.events.len() as u32;
        self.by_tag.entry(stored.event.tag).or_default().push(idx);
        self.events.push(stored);
    }
}

/// The embedded event store (see the module docs). Feed it from a
/// pipeline via `rfid_stream::pipeline::sinks::StoreSink`, or push
/// events directly through its [`EventSink`] impl.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    cfg: StoreConfig,
    /// Closed + open segments, ascending by `start`. The back segment
    /// is the open tail (unsealed).
    segments: Vec<Segment>,
    /// Latest event per tag over the whole stream.
    current: BTreeMap<TagId, StoredEvent>,
    next_seq: u64,
    clock: ArrivalClock,
    finished: bool,
    metrics: StoreMetrics,
}

impl EventStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> Self {
        assert!(cfg.segment_epochs >= 1, "segment width must be >= 1");
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
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
            events_live: self.segments.iter().map(|s| s.events.len() as u64).sum(),
            events_compacted: 0,
            segments: self.segments.len(),
            tags: self.current.len(),
        }
    }

    /// Ingests one event (the [`EventSink::on_event`] body). Returns
    /// the event as stored — its assigned sequence number and arrival
    /// stamp — so durability layers can mirror the stamping exactly.
    pub fn push(&mut self, event: &LocationEvent) -> StoredEvent {
        let arrival = self.clock.next();
        let stored = StoredEvent {
            seq: self.next_seq,
            arrival,
            event: *event,
        };
        self.next_seq += 1;
        let width = self.cfg.segment_epochs;
        let needs_new = match self.segments.last() {
            Some(tail) => arrival > tail.end,
            None => true,
        };
        if needs_new {
            self.seal_tail();
            let start = (arrival / width) * width;
            self.segments.push(Segment::new(start, width));
        }
        self.segments
            .last_mut()
            .expect("tail segment exists")
            .push(stored);
        self.current.insert(event.tag, stored);
        self.metrics.events.inc();
        stored
    }

    /// Marks epoch `epoch` complete (the
    /// [`EventSink::on_epoch_complete`] body): advances the arrival
    /// clock and seals the tail segment once arrivals pass it.
    pub fn complete_epoch(&mut self, epoch: Epoch) {
        let e = self.clock.complete(epoch);
        if self.segments.last().is_some_and(|tail| e >= tail.end) {
            self.seal_tail();
        }
        self.metrics.segments.set(self.segments.len() as u64);
        self.metrics.tags.set(self.current.len() as u64);
    }

    /// Marks end of stream.
    pub fn finish(&mut self) {
        self.finished = true;
        self.seal_tail();
    }

    fn seal_tail(&mut self) {
        if let Some(tail) = self.segments.last_mut() {
            if tail.snapshot.is_none() {
                tail.snapshot = Some(self.current.clone());
            }
        }
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
        let e = epoch.0;
        // the last segment whose range starts at or before e
        let idx = self.segments.partition_point(|s| s.start <= e);
        if idx == 0 {
            // before the first segment: the empty pre-stream relation
            return Vec::new();
        }
        let seg = &self.segments[idx - 1];
        if e >= seg.end {
            if let Some(snap) = &seg.snapshot {
                return self.relation_events(snap, e);
            }
            // open tail and e at/past its end: everything so far
            return self.relation_events(&self.current, e);
        }
        // inside `seg`: previous cumulative state + this segment's
        // arrivals up to e
        let mut state: BTreeMap<TagId, StoredEvent> = match idx {
            1 => BTreeMap::new(),
            _ => self.segments[idx - 2]
                .snapshot
                .clone()
                .expect("non-tail segments are sealed"),
        };
        for stored in &seg.events {
            if stored.arrival > e {
                break;
            }
            state.insert(stored.event.tag, *stored);
        }
        self.relation_events(&state, e)
    }

    fn relation_events(&self, state: &BTreeMap<TagId, StoredEvent>, at: u64) -> Vec<StoredEvent> {
        // clamp the staleness reference so querying far past the end
        // of data does not age every tag out
        let at = at.min(self.clock.next());
        state
            .values()
            .filter(|s| {
                self.cfg
                    .snapshot_staleness
                    .is_none_or(|k| s.event.epoch.0.saturating_add(k) >= at)
            })
            .copied()
            .collect()
    }

    /// Every event of `tag` whose **event epoch** lies in `[from, to]`,
    /// in arrival order — the historical twin of `TrailSink`.
    pub fn trail(&self, tag: TagId, from: Epoch, to: Epoch) -> Vec<StoredEvent> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if let Some(idxs) = seg.by_tag.get(&tag) {
                for &i in idxs {
                    let stored = seg.events[i as usize];
                    if stored.event.epoch >= from && stored.event.epoch <= to {
                        out.push(stored);
                    }
                }
            }
        }
        out
    }

    /// Every event in arrival/sequence order — the durability layer's
    /// view for digest checks and re-export.
    pub fn events(&self) -> impl Iterator<Item = &StoredEvent> + '_ {
        self.segments.iter().flat_map(|s| s.events.iter())
    }

    /// The last known location of `tag` (regardless of staleness —
    /// the caller sees the backing epoch and judges freshness).
    pub fn current_location(&self, tag: TagId) -> Option<LocationRow> {
        self.current.get(&tag).map(|s| LocationRow {
            tag: s.event.tag,
            epoch: s.event.epoch,
            location: s.event.location,
        })
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
        let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
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
        let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
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
        let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
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
        let cfg = StoreConfig::default()
            .with_segment_epochs(4)
            .with_snapshot_staleness(3);
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
        let mut store = EventStore::new(StoreConfig::default().with_segment_epochs(4));
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
    }
}
