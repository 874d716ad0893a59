//! The event store against a naive model: every delivered event kept in
//! one `Vec`, stamped by the store's arrival rule, and every query
//! answered by a linear scan. Random schedules of `push`,
//! `complete_epoch` (repeated and non-increasing epochs and `u64::MAX`
//! included) and `finish` run through both, over log widths
//! {1, 2, 3, 64} (which the in-memory store does not read) and snapshot
//! staleness off or 0..=8;
//! all five query kinds are asked at epochs before the first
//! completion, at the open arrival epoch, around multiples of the
//! width, past the end and at `u64::MAX`, and every answer must be
//! equal bit for bit.
//!
//! `store_pin_sinks` pins the store to the in-process sinks on the
//! default config; this suite pins the snapshot cut, the per-tag index
//! and the staleness filter, which the sinks do not have.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rfid_geom::Point3;
use rfid_serve::store::{EventStore, LocationRow, StoreConfig, StoredEvent};
use rfid_serve::{answer, Query, QueryResponse};
use rfid_stream::{Epoch, LocationEvent, TagId};
use std::collections::BTreeMap;

const CASES: u64 = 300;
const TAGS: u64 = 6;

/// The naive model of the store (see the module docs).
#[derive(Default)]
struct Model {
    rows: Vec<StoredEvent>,
    last: Option<u64>,
    staleness: Option<u64>,
}

impl Model {
    fn push(&mut self, event: LocationEvent) {
        let arrival = self.next_arrival();
        let seq = self.rows.len() as u64;
        self.rows.push(StoredEvent {
            seq,
            arrival,
            event,
        });
    }

    fn complete(&mut self, epoch: u64) {
        self.last = Some(self.last.map_or(epoch, |l| l.max(epoch)));
    }

    /// The arrival epoch of the next delivery: 0 before the first
    /// completion, then the highest completed epoch + 1, which stays at
    /// `u64::MAX` once that epoch completed.
    fn next_arrival(&self) -> u64 {
        self.last.map_or(0, |e| e.saturating_add(1))
    }

    /// Latest event per tag that arrived by `at`, sorted by tag, under
    /// the staleness filter clamped to the next arrival epoch.
    fn snapshot(&self, at: u64) -> Vec<StoredEvent> {
        let mut latest = BTreeMap::new();
        for r in self.rows.iter().filter(|r| r.arrival <= at) {
            latest.insert(r.event.tag, *r);
        }
        let clamp = at.min(self.next_arrival());
        let fresh = |r: &StoredEvent| {
            (self.staleness).is_none_or(|k| r.event.epoch.0.saturating_add(k) >= clamp)
        };
        latest.into_values().filter(fresh).collect()
    }

    fn answer(&self, query: &Query) -> QueryResponse {
        let rows: Vec<StoredEvent> = match *query {
            Query::CurrentLocation(tag) => {
                let last = self.rows.iter().rev().find(|r| r.event.tag == tag);
                last.copied().into_iter().collect()
            }
            Query::Trail { tag, from, to } => self
                .rows
                .iter()
                .filter(|r| r.event.tag == tag && (from..=to).contains(&r.event.epoch))
                .copied()
                .collect(),
            Query::SnapshotAt(at) => self.snapshot(at.0),
            Query::SnapshotDelta { at, since } => {
                let mut rows = self.snapshot(at.0);
                rows.retain(|r| r.arrival > since.0);
                rows
            }
            Query::Containment {
                x0,
                y0,
                x1,
                y1,
                epoch,
            } => {
                let mut rows = self.snapshot(epoch.0);
                rows.retain(|r| {
                    let p = r.event.location;
                    p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1
                });
                rows
            }
        };
        QueryResponse::Rows(rows.iter().map(row_of).collect())
    }
}

fn row_of(s: &StoredEvent) -> LocationRow {
    LocationRow {
        tag: s.event.tag,
        epoch: s.event.epoch,
        location: s.event.location,
    }
}

/// `PartialEq` on `f64` equates `-0.0` and `0.0`; equal `Debug` text is
/// equality bit for bit.
fn assert_bits_eq<T: std::fmt::Debug + PartialEq>(got: &T, want: &T, what: &dyn Fn() -> String) {
    assert_eq!(got, want, "{}", what());
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", what());
}

fn coordinate(rng: &mut StdRng) -> f64 {
    const AWKWARD: [f64; 6] = [-0.0, 0.0, 0.1 + 0.2, -1.5, 2.0, 1e300];
    if rng.gen_bool(0.3) {
        AWKWARD[rng.gen_range(0..AWKWARD.len())]
    } else {
        rng.gen_range(-4.0..4.0)
    }
}

/// An event delivered at `arrival`: usually an epoch at or just behind
/// it (the engine's delayed reports), sometimes any earlier epoch or
/// one near `u64::MAX`.
fn event(rng: &mut StdRng, arrival: u64) -> LocationEvent {
    let epoch = match rng.gen_range(0..10) {
        0 => rng.gen_range(0..=arrival.saturating_add(2)),
        1 => u64::MAX - rng.gen_range(0..3),
        _ => arrival.saturating_sub(rng.gen_range(0..4)),
    };
    let tag = TagId(rng.gen_range(0..TAGS));
    let location = Point3::new(coordinate(rng), coordinate(rng), coordinate(rng));
    LocationEvent::new(Epoch(epoch), tag, location)
}

/// The next epoch to complete: mostly the next one, sometimes a repeat,
/// an older epoch, a jump, or `u64::MAX`, the last epoch there is.
fn next_completion(rng: &mut StdRng, last: Option<u64>) -> u64 {
    let Some(last) = last else {
        return rng.gen_range(0..3);
    };
    match rng.gen_range(0..11) {
        0 => last,
        1 => rng.gen_range(0..=last),
        2 => last.saturating_add(rng.gen_range(2..20)),
        3 => u64::MAX,
        _ => last.saturating_add(1),
    }
}

/// Asks both sides every query kind at the interesting epochs.
fn check(
    store: &EventStore,
    model: &Model,
    width: u64,
    rng: &mut StdRng,
    ctx: &dyn Fn() -> String,
) {
    let stored: Vec<StoredEvent> = store.events().copied().collect();
    assert_bits_eq(&stored, &model.rows, &|| {
        format!("{}: stored events", ctx())
    });

    // the next arrival epoch: the open tail, or the flush after finish
    let next = model.next_arrival();
    let mut epochs: Vec<u64> = (0..=next.min(24) + 2).collect();
    epochs.extend([
        next.saturating_sub(1),
        next,
        next.saturating_add(1),
        next.saturating_add(100),
    ]);
    epochs.extend([u64::MAX - 1, u64::MAX]);
    for _ in 0..6 {
        // the epochs around a segment boundary
        let start = rng.gen_range(0..=next.saturating_add(width)) / width * width;
        epochs.extend([
            start.saturating_sub(1),
            start,
            start.saturating_add(width - 1),
        ]);
    }
    epochs.extend((0..6).map(|_| rng.gen_range(0..=next.saturating_add(2))));
    epochs.sort_unstable();
    epochs.dedup();

    let pick = |rng: &mut StdRng| epochs[rng.gen_range(0..epochs.len())];
    let mut queries: Vec<Query> = (0..=TAGS)
        .map(|t| Query::CurrentLocation(TagId(t)))
        .collect();
    for &e in &epochs {
        queries.push(Query::SnapshotAt(Epoch(e)));
        for since in [0, e.saturating_sub(1), e, pick(rng), u64::MAX] {
            queries.push(Query::SnapshotDelta {
                at: Epoch(e),
                since: Epoch(since),
            });
        }
        let (a, b) = (coordinate(rng), coordinate(rng));
        let (c, d) = (coordinate(rng), coordinate(rng));
        for (x0, y0, x1, y1) in [
            (a.min(b), c.min(d), a.max(b), c.max(d)),
            (
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ),
            (0.0, -1.0, -0.0, 1.0),
            (1.0, 1.0, -1.0, -1.0),
        ] {
            queries.push(Query::Containment {
                x0,
                y0,
                x1,
                y1,
                epoch: Epoch(e),
            });
        }
    }
    for t in 0..=TAGS {
        let tag = TagId(t);
        queries.push(Query::Trail {
            tag,
            from: Epoch(0),
            to: Epoch(u64::MAX),
        });
        for _ in 0..4 {
            let (from, to) = (Epoch(pick(rng)), Epoch(pick(rng)));
            queries.push(Query::Trail { tag, from, to });
        }
    }

    for q in &queries {
        assert_bits_eq(&answer(store, q), &model.answer(q), &|| {
            format!("{}: {q:?}", ctx())
        });
    }
}

fn run_case(case: u64) {
    let mut rng = StdRng::seed_from_u64(0x0057_04E0_0000 ^ case);
    let width = [1, 2, 3, 64][rng.gen_range(0..4)];
    let staleness = rng.gen_bool(0.7).then(|| rng.gen_range(0..=8));
    let mut cfg = StoreConfig::default().with_segment_epochs(width);
    if let Some(k) = staleness {
        cfg = cfg.with_snapshot_staleness(k);
    }
    let mut store = EventStore::new(cfg);
    let mut model = Model {
        staleness,
        ..Model::default()
    };
    let ops = rng.gen_range(0..60);
    let mut log: Vec<String> = Vec::new();
    for _ in 0..ops {
        match rng.gen_range(0..20) {
            0..=11 => {
                let ev = event(&mut rng, model.next_arrival());
                log.push(format!(
                    "push({}, {}, {:?})",
                    ev.epoch.0, ev.tag.0, ev.location
                ));
                store.push(&ev);
                model.push(ev);
            }
            12..=18 => {
                let e = next_completion(&mut rng, model.last);
                log.push(format!("complete_epoch({e})"));
                store.complete_epoch(Epoch(e));
                model.complete(e);
            }
            _ => {
                log.push("finish".into());
                store.finish();
                break;
            }
        }
        if rng.gen_bool(0.15) {
            let ctx = || format!("case {case}, width {width}, staleness {staleness:?}, {log:?}");
            check(&store, &model, width, &mut rng, &ctx);
        }
    }
    let ctx = || format!("case {case}, width {width}, staleness {staleness:?}, {log:?}");
    check(&store, &model, width, &mut rng, &ctx);
}

#[test]
fn store_answers_equal_the_naive_model() {
    for case in 0..CASES {
        run_case(case);
    }
}
