//! [`EventSink`] adapters for the CQL-like operators and the paper's
//! example queries, so they compose directly onto the pipeline's event
//! stream instead of being driven by hand-written loops.
//!
//! * [`TrailSink`] — `[Partition By tag Row n]`;
//! * [`SnapshotSink`] — `Rstream` of the latest-location relation;
//! * [`LocationChangeSink`] — query 1, `Istream` over a row-1 partition
//!   ([`LocationChangeQuery`]);
//! * [`FireCodeSink`] — query 2, windowed `Group By ... Having`
//!   ([`FireCodeQuery`]), evaluated at every completed epoch;
//! * [`StoreSink`] — shares any sink behind `Arc<RwLock<_>>` so a
//!   serving layer (e.g. `rfid_serve`'s `EventStore`) can answer
//!   queries concurrently with live ingestion.
//!
//! Fan one stream into several sinks with the tuple impl:
//! `(collector, (LocationChangeSink::new(..), FireCodeSink::new(..)))`.

use super::EventSink;
use crate::epoch::Epoch;
use crate::event::{LocationEvent, TagId};
use crate::operators::{PartitionedRowWindow, Rstream};
use crate::queries::{FireCodeQuery, LocationChangeQuery, SquareFtArea};
use rfid_geom::Point3;
use std::sync::{Arc, RwLock};

/// `EventStream [Partition By tag_id Row n]` as a sink: keeps the `n`
/// most recent `(epoch, location)` rows per tag.
#[derive(Debug, Clone)]
pub struct TrailSink {
    window: PartitionedRowWindow<TagId, (Epoch, Point3)>,
}

impl TrailSink {
    /// Keeps the last `n >= 1` reports per tag.
    pub fn new(n: usize) -> Self {
        Self {
            window: PartitionedRowWindow::new(n),
        }
    }

    /// The retained trail of a tag, oldest first.
    pub fn trail(&self, tag: TagId) -> impl Iterator<Item = &(Epoch, Point3)> {
        self.window.partition(&tag)
    }

    /// The most recent report of a tag.
    pub fn latest(&self, tag: TagId) -> Option<&(Epoch, Point3)> {
        self.window.latest(&tag)
    }

    /// Number of tags seen.
    pub fn num_tags(&self) -> usize {
        self.window.num_partitions()
    }
}

impl EventSink for TrailSink {
    fn on_event(&mut self, event: &LocationEvent) {
        self.window.push(event.tag, (event.epoch, event.location));
    }
}

/// `Rstream` over the latest-location relation: at every `every`-th
/// completed epoch, emits the full `(tag, location)` relation (sorted
/// by tag for determinism) into an emission log.
#[derive(Debug, Clone)]
pub struct SnapshotSink {
    latest: PartitionedRowWindow<TagId, Point3>,
    output: Rstream<(TagId, Point3)>,
    every: u64,
    last_epoch: Option<Epoch>,
    /// Events arrived since the last snapshot (so the final snapshot
    /// is skipped when it would duplicate the last cadence one).
    dirty: bool,
}

impl SnapshotSink {
    /// Snapshots the relation every `every >= 1` epochs, plus a final
    /// snapshot at end of stream when flush-time events arrived after
    /// the last cadence snapshot.
    pub fn new(every: u64) -> Self {
        assert!(every >= 1, "snapshot cadence must be >= 1 epoch");
        Self {
            latest: PartitionedRowWindow::new(1),
            output: Rstream::new(),
            every,
            last_epoch: None,
            dirty: false,
        }
    }

    /// The emission log: one `(time, relation)` entry per snapshot.
    pub fn emissions(&self) -> &[(f64, Vec<(TagId, Point3)>)] {
        self.output.emissions()
    }

    fn snapshot(&mut self, time: f64) {
        let mut relation: Vec<(TagId, Point3)> = self
            .latest
            .iter_latest()
            .map(|(tag, loc)| (*tag, *loc))
            .collect();
        relation.sort_by_key(|(tag, _)| *tag);
        self.output.emit(time, relation);
        self.dirty = false;
    }
}

impl EventSink for SnapshotSink {
    fn on_event(&mut self, event: &LocationEvent) {
        self.latest.push(event.tag, event.location);
        self.dirty = true;
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.last_epoch = Some(epoch);
        if epoch.0 % self.every == 0 {
            self.snapshot(epoch.0 as f64);
        }
    }

    fn on_finish(&mut self) {
        if self.dirty || self.output.emissions().is_empty() {
            let time = self.last_epoch.map(|e| e.0 as f64).unwrap_or(0.0);
            self.snapshot(time);
        }
    }
}

/// Adapts a shared `Arc<RwLock<S>>` sink so the pipeline can feed a
/// store that other threads query concurrently: the pipeline thread
/// takes the write lock per delivery, readers (e.g. a TCP query
/// server) take read locks between deliveries. The adapter is the
/// bridge between live ingestion and the serving layer —
/// `rfid_serve::store::EventStore` implements [`EventSink`] exactly so it can
/// sit behind this.
#[derive(Debug)]
pub struct StoreSink<S> {
    shared: Arc<RwLock<S>>,
}

impl<S> StoreSink<S> {
    /// Wraps a shared sink.
    pub fn new(shared: Arc<RwLock<S>>) -> Self {
        Self { shared }
    }

    /// Another handle to the shared sink (for query threads).
    pub fn handle(&self) -> Arc<RwLock<S>> {
        Arc::clone(&self.shared)
    }
}

impl<S> Clone for StoreSink<S> {
    fn clone(&self) -> Self {
        Self::new(self.handle())
    }
}

impl<S: EventSink> EventSink for StoreSink<S> {
    fn on_event(&mut self, event: &LocationEvent) {
        self.shared
            .write()
            .expect("shared sink lock poisoned")
            .on_event(event);
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.shared
            .write()
            .expect("shared sink lock poisoned")
            .on_epoch_complete(epoch);
    }

    fn on_finish(&mut self) {
        self.shared
            .write()
            .expect("shared sink lock poisoned")
            .on_finish();
    }
}

/// One fired location update of query 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocationUpdate {
    pub epoch: Epoch,
    pub tag: TagId,
    pub location: Point3,
}

/// Query 1 (`Istream` location changes) as a sink: records every
/// update the query fires.
#[derive(Debug, Clone)]
pub struct LocationChangeSink {
    query: LocationChangeQuery,
    updates: Vec<LocationUpdate>,
}

impl LocationChangeSink {
    /// Creates the sink with a movement threshold in feet.
    pub fn new(threshold: f64) -> Self {
        Self {
            query: LocationChangeQuery::new(threshold),
            updates: Vec::new(),
        }
    }

    /// Every update fired so far, in stream order.
    pub fn updates(&self) -> &[LocationUpdate] {
        &self.updates
    }

    /// The underlying query (last locations, tag count).
    pub fn query(&self) -> &LocationChangeQuery {
        &self.query
    }
}

impl EventSink for LocationChangeSink {
    fn on_event(&mut self, event: &LocationEvent) {
        if let Some((tag, location)) = self.query.push(event) {
            self.updates.push(LocationUpdate {
                epoch: event.epoch,
                tag,
                location,
            });
        }
    }
}

/// One fire-code violation: `(time, area, total pounds)`.
pub(crate) type FireCodeViolation = (f64, SquareFtArea, f64);

/// Query 2 (windowed weight-per-square-foot) as a sink: feeds every
/// event into the window and evaluates the query once per completed
/// epoch — the stream-relation-stream cycle at epoch granularity.
pub struct FireCodeSink<W: Fn(TagId) -> f64> {
    query: FireCodeQuery<W>,
    epoch_len: f64,
    violations: Vec<FireCodeViolation>,
    /// Latest event time fed to the window (the evaluation instant for
    /// the final flush).
    last_time: f64,
    /// Events arrived since the last evaluation (so end-of-stream
    /// flush events still get evaluated).
    dirty: bool,
}

impl<W: Fn(TagId) -> f64> FireCodeSink<W> {
    /// Creates the sink. `epoch_len` converts epochs to the query's
    /// wall-clock seconds; `window_seconds`, `weight_fn`, and `limit`
    /// are the query parameters (the paper uses 5 s and 200 lb).
    pub fn new(epoch_len: f64, window_seconds: f64, weight_fn: W, limit: f64) -> Self {
        assert!(epoch_len > 0.0);
        Self {
            query: FireCodeQuery::new(window_seconds, weight_fn, limit),
            epoch_len,
            violations: Vec::new(),
            last_time: 0.0,
            dirty: false,
        }
    }

    /// Every violation reported so far (an area re-fires at each
    /// evaluation instant while it stays over the limit).
    pub fn violations(&self) -> &[FireCodeViolation] {
        &self.violations
    }

    /// The underlying query (emission log).
    pub fn query(&self) -> &FireCodeQuery<W> {
        &self.query
    }
}

impl<W: Fn(TagId) -> f64> EventSink for FireCodeSink<W> {
    fn on_event(&mut self, event: &LocationEvent) {
        let time = event.epoch.0 as f64 * self.epoch_len;
        self.query.push(time, event);
        self.last_time = self.last_time.max(time);
        self.dirty = true;
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        let time = epoch.0 as f64 * self.epoch_len;
        self.last_time = self.last_time.max(time);
        for (area, total) in self.query.evaluate(time) {
            self.violations.push((time, area, total));
        }
        self.dirty = false;
    }

    fn on_finish(&mut self) {
        // events delivered by the end-of-stream flush arrive after the
        // last completed epoch; give them their evaluation instant
        if self.dirty {
            let time = self.last_time;
            for (area, total) in self.query.evaluate(time) {
                self.violations.push((time, area, total));
            }
            self.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(epoch: u64, tag: u64, x: f64, y: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, y, 0.0))
    }

    #[test]
    fn store_sink_shares_a_locked_sink() {
        let shared = Arc::new(RwLock::new(Vec::<LocationEvent>::new()));
        let mut sink = StoreSink::new(Arc::clone(&shared));
        sink.on_event(&event(0, 1, 1.0, 2.0));
        sink.on_epoch_complete(Epoch(0));
        sink.on_finish();
        // a reader on another handle sees the delivery
        let handle = sink.handle();
        assert_eq!(handle.read().unwrap().len(), 1);
        assert_eq!(shared.read().unwrap()[0].tag, TagId(1));
    }

    #[test]
    fn trail_sink_keeps_last_n() {
        let mut s = TrailSink::new(2);
        s.on_event(&event(0, 1, 0.0, 0.0));
        s.on_event(&event(1, 1, 0.0, 1.0));
        s.on_event(&event(2, 1, 0.0, 2.0));
        assert_eq!(s.trail(TagId(1)).count(), 2);
        assert_eq!(s.latest(TagId(1)).unwrap().0, Epoch(2));
        assert_eq!(s.num_tags(), 1);
    }

    #[test]
    fn snapshot_sink_emits_sorted_relation() {
        let mut s = SnapshotSink::new(2);
        s.on_event(&event(0, 5, 1.0, 1.0));
        s.on_event(&event(0, 2, 2.0, 2.0));
        s.on_epoch_complete(Epoch(0));
        s.on_epoch_complete(Epoch(1)); // off-cadence: no emission
        s.on_event(&event(2, 5, 9.0, 9.0));
        s.on_epoch_complete(Epoch(2));
        let em = s.emissions();
        assert_eq!(em.len(), 2);
        let tags: Vec<u64> = em[0].1.iter().map(|(t, _)| t.0).collect();
        assert_eq!(tags, vec![2, 5], "relation sorted by tag");
        // the second snapshot sees tag 5's newest location
        assert_eq!(em[1].1.iter().find(|(t, _)| t.0 == 5).unwrap().1.x, 9.0);
    }

    #[test]
    fn snapshot_sink_final_emit_skipped_when_nothing_changed() {
        let mut s = SnapshotSink::new(1);
        s.on_event(&event(0, 1, 1.0, 1.0));
        s.on_epoch_complete(Epoch(0)); // cadence snapshot covers everything
        s.on_finish();
        assert_eq!(s.emissions().len(), 1, "no duplicate final snapshot");
        // but flush-time events after the last cadence snapshot do emit
        let mut s = SnapshotSink::new(1);
        s.on_event(&event(0, 1, 1.0, 1.0));
        s.on_epoch_complete(Epoch(0));
        s.on_event(&event(0, 2, 2.0, 2.0)); // finalize-flush event
        s.on_finish();
        assert_eq!(s.emissions().len(), 2);
        assert_eq!(s.emissions()[1].1.len(), 2);
    }

    #[test]
    fn location_change_sink_records_updates() {
        let mut s = LocationChangeSink::new(0.1);
        s.on_event(&event(0, 1, 0.0, 0.0));
        s.on_event(&event(1, 1, 0.0, 0.05)); // jitter: suppressed
        s.on_event(&event(2, 1, 0.0, 1.0)); // real move
        assert_eq!(s.updates().len(), 2);
        assert_eq!(s.updates()[1].epoch, Epoch(2));
        assert_eq!(s.query().num_tags(), 1);
    }

    #[test]
    fn fire_code_sink_fires_on_epoch_completion() {
        let mut s = FireCodeSink::new(1.0, 5.0, |_| 150.0, 200.0);
        s.on_event(&event(0, 1, 3.2, 3.3));
        s.on_event(&event(0, 2, 3.8, 3.9));
        assert!(s.violations().is_empty(), "no evaluation before epoch end");
        s.on_epoch_complete(Epoch(0));
        assert_eq!(s.violations().len(), 1);
        let (time, area, total) = s.violations()[0];
        assert_eq!(time, 0.0);
        assert_eq!(area, SquareFtArea { x: 3, y: 3 });
        assert!((total - 300.0).abs() < 1e-12);
    }

    #[test]
    fn fire_code_sink_evaluates_flush_time_events() {
        // both events arrive in the end-of-stream flush (after the
        // last on_epoch_complete): on_finish must still evaluate them
        let mut s = FireCodeSink::new(1.0, 5.0, |_| 150.0, 200.0);
        s.on_epoch_complete(Epoch(3));
        assert!(s.violations().is_empty());
        s.on_event(&event(3, 1, 3.2, 3.3));
        s.on_event(&event(3, 2, 3.8, 3.9));
        s.on_finish();
        assert_eq!(s.violations().len(), 1, "flush events must be evaluated");
        assert_eq!(s.violations()[0].0, 3.0);
        // idempotent: a second finish adds nothing
        s.on_finish();
        assert_eq!(s.violations().len(), 1);
    }
}
