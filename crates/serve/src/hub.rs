//! The subscription hub: fan-out of committed location changes to
//! push subscribers.
//!
//! The hub sits beside the [`EventStore`] on the ingestion path. The
//! pipeline fans its event stream into both via the sink tuple —
//!
//! ```text
//! pipeline ─► (StoreSink(store), hub.sink()) ─► per-subscription queues
//! ```
//!
//! [`HubSink`] runs a [`LocationChangeQuery`] (threshold 0.0 — the
//! exact `Istream` semantics of `LocationChangeSink`) over the stream
//! and, at every completed epoch, commits the fired changes as one
//! delta per subscription whose [`SubscriptionFilter`] matches. Deltas are stamped with the
//! **arrival epoch** under the same convention as the store (events
//! delivered between the completions of `E-1` and `E` arrive at `E`;
//! end-of-stream flush events arrive at `last + 1`), so a `PUSH`
//! frame's epoch names exactly the store state that contains its rows.
//!
//! ## Backpressure
//!
//! Every subscription owns a **bounded** queue of pending frames. A
//! subscriber that stops draining (slow socket, stalled client) gets
//! its oldest pending frames dropped — never an unbounded buffer —
//! and the dropped row count accumulates into a lag counter. The next
//! successful poll delivers exactly one [`Frame::Lagged`] carrying the
//! count before any newer frames: one notice per overflow run, in the
//! stream position where the gap actually is.
//!
//! A subscription registered with a [`Waker`] (the server's) is woken
//! after every commit that queues to it, with no hub lock held.
//!
//! [`EventStore`]: crate::store::EventStore
//! [`LocationChangeQuery`]: rfid_stream::queries::LocationChangeQuery

use crate::query::{Frame, SubscriptionFilter};
use crate::store::{ArrivalClock, LocationRow};
use rfid_stream::pipeline::sinks::LocationUpdate;
use rfid_stream::queries::LocationChangeQuery;
use rfid_stream::{Epoch, EventSink, LocationEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::task::Waker;

/// The hub's one knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HubConfig {
    /// Per-subscription queue capacity in frames (>= 1). When a
    /// subscriber falls this many committed deltas behind, its oldest
    /// frames are dropped and counted into a `LAGGED` notice.
    pub queue_frames: usize,
}

/// Movement threshold in feet for the hub's change query: 0.0 fires on
/// every reported movement (and the first report of each tag), which
/// is what makes a subscription's pushes equal
/// `LocationChangeSink::new(0.0)` over the same stream.
const CHANGE_THRESHOLD_FT: f64 = 0.0;

impl Default for HubConfig {
    fn default() -> Self {
        Self { queue_frames: 64 }
    }
}

impl HubConfig {
    /// Default config with a queue capacity (>= 1 frame).
    pub fn with_queue_frames(mut self, frames: usize) -> Self {
        assert!(frames >= 1, "subscription queues hold at least 1 frame");
        self.queue_frames = frames;
        self
    }
}

/// One committed delta pending delivery to one subscription.
#[derive(Debug, Clone, PartialEq)]
struct PendingPush {
    epoch: u64,
    rows: Vec<LocationRow>,
}

#[derive(Debug)]
struct SubQueue {
    frames: VecDeque<PendingPush>,
    /// Rows dropped since the last delivered frame; reported as one
    /// `LAGGED` on the next poll.
    pending_lagged: u64,
    /// Total rows ever dropped (observability).
    dropped_total: u64,
    closed: bool,
}

#[derive(Debug)]
struct SubEntry {
    filter: SubscriptionFilter,
    queue: Arc<Mutex<SubQueue>>,
    waker: Option<Waker>,
}

/// The hub's registry handles: enqueued frames, dropped rows, and
/// overflow runs (one per `LAGGED` notice owed).
#[derive(Debug)]
struct HubMetrics {
    delivered: rfid_obs::Counter,
    dropped: rfid_obs::Counter,
    lagged: rfid_obs::Counter,
}

impl Default for HubMetrics {
    fn default() -> Self {
        let reg = rfid_obs::global();
        Self {
            delivered: reg.counter("hub_delivered_total"),
            dropped: reg.counter("hub_dropped_total"),
            lagged: reg.counter("hub_lagged_total"),
        }
    }
}

#[derive(Debug, Default)]
struct HubShared {
    subs: Mutex<Vec<SubEntry>>,
    metrics: HubMetrics,
}

/// The shared hub: subscriptions register here, [`HubSink`] commits
/// deltas into it. Cheap to clone (an `Arc` handle).
#[derive(Debug, Clone, Default)]
pub struct SubscriptionHub {
    cfg: HubConfig,
    shared: Arc<HubShared>,
}

impl SubscriptionHub {
    /// A hub with the given knobs.
    pub fn new(cfg: HubConfig) -> Self {
        assert!(cfg.queue_frames >= 1);
        Self {
            cfg,
            shared: Arc::default(),
        }
    }

    /// The configuration the hub was built with.
    pub fn config(&self) -> &HubConfig {
        &self.cfg
    }

    /// The ingestion-side sink. Compose it into the pipeline's sink
    /// tuple next to the store, e.g.
    /// `(StoreSink::new(store), hub.sink())`.
    pub fn sink(&self) -> HubSink {
        HubSink {
            query: LocationChangeQuery::new(CHANGE_THRESHOLD_FT),
            pending: Vec::new(),
            clock: ArrivalClock::default(),
            hub: self.clone(),
        }
    }

    /// Registers a subscription under `id` (in the wire protocol: the
    /// id of the `SUBSCRIBE` request). The handle is the consumption
    /// side; the server cancels it when its connection closes, and a
    /// handle dropped without that leaves the registration until the
    /// hub prunes it on a later commit.
    pub fn subscribe(&self, id: u64, filter: SubscriptionFilter) -> SubscriptionHandle {
        self.subscribe_waking(id, filter, None)
    }

    /// [`SubscriptionHub::subscribe`], woken through `waker` after
    /// every commit that queues to the subscription.
    pub(crate) fn subscribe_waking(
        &self,
        id: u64,
        filter: SubscriptionFilter,
        waker: Option<Waker>,
    ) -> SubscriptionHandle {
        let queue = Arc::new(Mutex::new(SubQueue {
            frames: VecDeque::with_capacity(self.cfg.queue_frames),
            pending_lagged: 0,
            dropped_total: 0,
            closed: false,
        }));
        crate::lock::mutex_recover(self.shared.subs.lock()).push(SubEntry {
            filter,
            queue: Arc::clone(&queue),
            waker,
        });
        SubscriptionHandle { id, queue }
    }

    /// Live subscriptions (cancelled ones disappear after the next
    /// commit prunes them).
    pub fn subscriber_count(&self) -> usize {
        crate::lock::mutex_recover(self.shared.subs.lock()).len()
    }

    /// Rows dropped so far across the live subscriptions (each one's
    /// [`SubscriptionHandle::dropped_rows`]) — this hub's own figure,
    /// where `hub_dropped_total` sums every hub in the process.
    pub fn dropped_rows(&self) -> u64 {
        crate::lock::mutex_recover(self.shared.subs.lock())
            .iter()
            .map(|sub| crate::lock::mutex_recover(sub.queue.lock()).dropped_total)
            .sum()
    }

    /// Fans one committed delta out to every matching subscription,
    /// prunes cancelled ones, then wakes the consumers it queued to.
    fn commit(&self, epoch: u64, updates: &[LocationUpdate]) {
        if updates.is_empty() {
            return;
        }
        let mut woken = Vec::new();
        crate::lock::mutex_recover(self.shared.subs.lock()).retain(|sub| {
            let mut q = crate::lock::mutex_recover(sub.queue.lock());
            if q.closed {
                return false;
            }
            let rows: Vec<LocationRow> = updates
                .iter()
                .filter(|u| sub.filter.matches(u))
                .map(|u| LocationRow {
                    tag: u.tag,
                    epoch: u.epoch,
                    location: u.location,
                })
                .collect();
            if rows.is_empty() {
                return true;
            }
            while q.frames.len() >= self.cfg.queue_frames {
                let dropped = q.frames.pop_front().expect("non-empty queue");
                if q.pending_lagged == 0 {
                    // a fresh overflow run: exactly one LAGGED notice
                    // will be owed, so count runs, not drops
                    self.shared.metrics.lagged.inc();
                }
                q.pending_lagged += dropped.rows.len() as u64;
                q.dropped_total += dropped.rows.len() as u64;
                self.shared.metrics.dropped.add(dropped.rows.len() as u64);
            }
            q.frames.push_back(PendingPush { epoch, rows });
            self.shared.metrics.delivered.inc();
            woken.extend(sub.waker.clone());
            true
        });
        // with no lock held: a waker takes its consumer's lock, under
        // which the consumer polls and subscribes
        for waker in woken {
            waker.wake();
        }
    }
}

/// The consumption side of one subscription: the connection (or an
/// in-process consumer) polls it for the next outbound frame.
#[derive(Debug, Clone)]
pub struct SubscriptionHandle {
    id: u64,
    queue: Arc<Mutex<SubQueue>>,
}

impl SubscriptionHandle {
    /// The subscription id (echoed on every frame).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The next outbound frame, if any: exactly one
    /// [`Frame::Lagged`] per overflow run (delivered before the frames
    /// that survived the drops), otherwise the oldest pending
    /// [`Frame::Push`].
    pub fn poll(&self) -> Option<Frame> {
        let mut q = crate::lock::mutex_recover(self.queue.lock());
        if q.pending_lagged > 0 {
            let dropped = std::mem::take(&mut q.pending_lagged);
            return Some(Frame::Lagged {
                id: self.id,
                dropped,
            });
        }
        q.frames.pop_front().map(|p| Frame::Push {
            id: self.id,
            epoch: p.epoch,
            rows: p.rows,
        })
    }

    /// Total rows dropped over the subscription's lifetime.
    pub fn dropped_rows(&self) -> u64 {
        crate::lock::mutex_recover(self.queue.lock()).dropped_total
    }

    /// Cancels the subscription: no further frames are queued and the
    /// hub forgets it on its next commit.
    pub(crate) fn cancel(&self) {
        let mut q = crate::lock::mutex_recover(self.queue.lock());
        q.closed = true;
        q.frames.clear();
        q.pending_lagged = 0;
    }
}

/// The hub's [`EventSink`]: runs the change query on the ingestion
/// thread and commits fired updates at every epoch completion, stamped
/// with the store's arrival-epoch convention.
#[derive(Debug)]
pub struct HubSink {
    query: LocationChangeQuery,
    /// Updates fired since the last commit; all share the same arrival
    /// stamp (the arrival clock only advances on completion).
    pending: Vec<LocationUpdate>,
    clock: ArrivalClock,
    hub: SubscriptionHub,
}

impl HubSink {
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let arrival = self.clock.next();
        let pending = std::mem::take(&mut self.pending);
        self.hub.commit(arrival, &pending);
    }
}

impl EventSink for HubSink {
    fn on_event(&mut self, event: &LocationEvent) {
        if let Some((tag, location)) = self.query.push(event) {
            self.pending.push(LocationUpdate {
                epoch: event.epoch,
                tag,
                location,
            });
        }
    }

    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.flush();
        self.clock.complete(epoch);
    }

    fn on_finish(&mut self) {
        // flush-time updates arrive after the last completed epoch
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;
    use rfid_stream::TagId;

    fn ev(epoch: u64, tag: u64, x: f64) -> LocationEvent {
        LocationEvent::new(Epoch(epoch), TagId(tag), Point3::new(x, 0.0, 0.0))
    }

    #[test]
    fn push_frames_carry_arrival_epochs_and_match_filters() {
        let hub = SubscriptionHub::new(HubConfig::default());
        let all = hub.subscribe(1, SubscriptionFilter::All);
        let tag2 = hub.subscribe(2, SubscriptionFilter::Tags(vec![TagId(2)]));
        let west = hub.subscribe(
            3,
            SubscriptionFilter::Region {
                x0: 0.0,
                y0: -1.0,
                x1: 2.0,
                y1: 1.0,
            },
        );
        let mut sink = hub.sink();
        sink.on_event(&ev(0, 1, 1.0));
        sink.on_event(&ev(0, 2, 5.0));
        sink.on_epoch_complete(Epoch(0));
        sink.on_event(&ev(1, 2, 6.0));
        sink.on_epoch_complete(Epoch(1));

        // ALL: one frame per committed epoch, arrival-stamped
        let Some(Frame::Push {
            id: 1,
            epoch: 0,
            rows,
        }) = all.poll()
        else {
            panic!("expected epoch-0 push");
        };
        assert_eq!(rows.len(), 2);
        let Some(Frame::Push { epoch: 1, rows, .. }) = all.poll() else {
            panic!("expected epoch-1 push");
        };
        assert_eq!(rows.len(), 1);
        assert!(all.poll().is_none());

        // tag filter sees only tag 2's changes
        let Some(Frame::Push { id: 2, rows, .. }) = tag2.poll() else {
            panic!("expected tag-2 push");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tag, TagId(2));
        assert!(tag2.poll().is_some(), "tag 2 moved again in epoch 1");

        // region filter sees only the in-region change
        let Some(Frame::Push { id: 3, rows, .. }) = west.poll() else {
            panic!("expected region push");
        };
        assert_eq!(rows[0].tag, TagId(1));
        assert!(west.poll().is_none());
    }

    #[test]
    fn flush_updates_arrive_after_the_last_epoch() {
        let hub = SubscriptionHub::new(HubConfig::default());
        let sub = hub.subscribe(1, SubscriptionFilter::All);
        let mut sink = hub.sink();
        sink.on_event(&ev(0, 1, 1.0));
        sink.on_epoch_complete(Epoch(0));
        sink.on_event(&ev(0, 2, 2.0)); // end-of-stream flush delivery
        sink.on_finish();
        assert!(matches!(sub.poll(), Some(Frame::Push { epoch: 0, .. })));
        // the flush delta is stamped last + 1, like the store
        assert!(matches!(sub.poll(), Some(Frame::Push { epoch: 1, .. })));
    }

    #[test]
    fn lagged_fires_exactly_once_per_overflow_run() {
        let hub = SubscriptionHub::new(HubConfig::default().with_queue_frames(2));
        let sub = hub.subscribe(7, SubscriptionFilter::All);
        let mut sink = hub.sink();
        // 5 committed single-row deltas into a 2-frame queue: the
        // oldest 3 drop
        for e in 0..5u64 {
            sink.on_event(&ev(e, 1, e as f64 * 10.0));
            sink.on_epoch_complete(Epoch(e));
        }
        assert_eq!(
            sub.poll(),
            Some(Frame::Lagged { id: 7, dropped: 3 }),
            "one LAGGED for the whole run, before surviving frames"
        );
        assert!(matches!(sub.poll(), Some(Frame::Push { epoch: 3, .. })));
        assert!(matches!(sub.poll(), Some(Frame::Push { epoch: 4, .. })));
        assert!(sub.poll().is_none());
        assert_eq!(sub.dropped_rows(), 3);

        // a second overflow run gets its own single notice
        for e in 5..10u64 {
            sink.on_event(&ev(e, 1, e as f64 * 10.0));
            sink.on_epoch_complete(Epoch(e));
        }
        assert_eq!(sub.poll(), Some(Frame::Lagged { id: 7, dropped: 3 }));
        // draining in time produces no further notices
        assert!(matches!(sub.poll(), Some(Frame::Push { .. })));
        assert!(matches!(sub.poll(), Some(Frame::Push { .. })));
        assert!(sub.poll().is_none());
    }

    #[test]
    fn cancel_stops_delivery_and_hub_prunes() {
        let hub = SubscriptionHub::new(HubConfig::default());
        let sub = hub.subscribe(1, SubscriptionFilter::All);
        let mut sink = hub.sink();
        sink.on_event(&ev(0, 1, 1.0));
        sink.on_epoch_complete(Epoch(0));
        assert_eq!(hub.subscriber_count(), 1);
        sub.cancel();
        assert!(sub.poll().is_none(), "cancel clears pending frames");
        sink.on_event(&ev(1, 1, 9.0));
        sink.on_epoch_complete(Epoch(1));
        assert!(sub.poll().is_none());
        assert_eq!(hub.subscriber_count(), 0, "pruned on commit");
    }
}
