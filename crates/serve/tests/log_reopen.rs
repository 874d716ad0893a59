//! The durable store against the in-memory one across reopen and
//! truncation. Random schedules of `push`, `complete_epoch` (repeated
//! and non-increasing epochs included) and `finish` run through a
//! [`DurableStore`] and, uninterrupted, through a plain [`EventStore`],
//! over segment widths {1, 2, 3, 64} and snapshot staleness off or
//! 0..=8:
//!
//! * (a) the durable store is dropped and reopened at a random point,
//!   then fed the rest of the schedule;
//! * (b) the finished log is cut back with
//!   [`SegmentLog::truncate_after_epoch`] at a random completed epoch,
//!   reopened, and re-driven with the calls after the cut, as crash
//!   recovery does.
//!
//! At every reopen the stored events and all five query kinds through
//! [`answer`] must equal the in-memory store fed the same calls, bit
//! for bit. The suite names no file of the log directory, so it holds
//! for any on-disk layout; `live_segments` is pinned by literal on
//! fixed schedules, which is what the benchmark's `wal.seals` counts.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rfid_geom::Point3;
use rfid_serve::store::{EventStore, StoreConfig, StoredEvent};
use rfid_serve::{answer, DurableStore, Query, SegmentLog};
use rfid_stream::{Epoch, EventSink, LocationEvent, TagId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const CASES: u64 = 150;
const TAGS: u64 = 5;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rfid-log-reopen-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One sink call of a schedule.
#[derive(Debug, Clone, Copy)]
enum Call {
    Push(LocationEvent),
    Complete(u64),
    Finish,
}

fn apply(sink: &mut impl EventSink, calls: &[Call]) {
    for call in calls {
        match call {
            Call::Push(ev) => sink.on_event(ev),
            Call::Complete(e) => sink.on_epoch_complete(Epoch(*e)),
            Call::Finish => sink.on_finish(),
        }
    }
}

fn memory_store(cfg: StoreConfig, calls: &[Call]) -> EventStore {
    let mut store = EventStore::new(cfg);
    apply(&mut store, calls);
    store
}

fn coordinate(rng: &mut StdRng) -> f64 {
    const AWKWARD: [f64; 5] = [-0.0, 0.0, 0.1 + 0.2, -1.5, 1e300];
    if rng.gen_bool(0.3) {
        AWKWARD[rng.gen_range(0..AWKWARD.len())]
    } else {
        rng.gen_range(-4.0..4.0)
    }
}

/// A schedule in `store_oracle`'s shape: events at or just behind
/// their arrival epoch (sometimes any earlier epoch or one near
/// `u64::MAX`, some with stats), completions mostly of the next epoch
/// (sometimes a repeat, an older epoch or a jump), and at most one
/// `finish`, which ends it.
fn schedule(rng: &mut StdRng) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut last: Option<u64> = None;
    for _ in 0..rng.gen_range(0..70) {
        match rng.gen_range(0..20) {
            0..=11 => {
                let arrival = last.map_or(0, |e| e + 1);
                let epoch = match rng.gen_range(0..10) {
                    0 => rng.gen_range(0..=arrival + 2),
                    1 => u64::MAX - rng.gen_range(0..3),
                    _ => arrival.saturating_sub(rng.gen_range(0..4)),
                };
                let tag = TagId(rng.gen_range(0..TAGS));
                let at = Point3::new(coordinate(rng), coordinate(rng), coordinate(rng));
                let mut ev = LocationEvent::new(Epoch(epoch), tag, at);
                if rng.gen_bool(0.5) {
                    ev = ev.with_stats(rfid_stream::EventStats {
                        var: [coordinate(rng), coordinate(rng), 0.0],
                        support: coordinate(rng),
                    });
                }
                calls.push(Call::Push(ev));
            }
            12..=18 => {
                let e = match last {
                    None => rng.gen_range(0..3),
                    Some(l) => match rng.gen_range(0..10) {
                        0 => l,
                        1 => rng.gen_range(0..=l),
                        2 => l + rng.gen_range(2..20),
                        _ => l + 1,
                    },
                };
                last = Some(last.map_or(e, |l| l.max(e)));
                calls.push(Call::Complete(e));
            }
            _ => {
                calls.push(Call::Finish);
                break;
            }
        }
    }
    calls
}

/// The stored events and every query kind's answer at the epochs
/// around the clock, as `Debug` text (equal text is equality bit for
/// bit, `-0.0` included).
fn observe(store: &EventStore) -> Vec<String> {
    let stored: Vec<StoredEvent> = store.events().copied().collect();
    let mut seen = vec![
        format!("{stored:?}"),
        format!("finished {}", store.is_finished()),
        format!("latest {}", store.latest_epoch()),
    ];
    let next = store.latest_epoch() + 1;
    let mut epochs: Vec<u64> = (0..=next.min(30) + 1).collect();
    epochs.extend([next + 64, u64::MAX]);
    let mut queries: Vec<Query> = (0..=TAGS)
        .map(|t| Query::CurrentLocation(TagId(t)))
        .collect();
    for &e in &epochs {
        queries.push(Query::SnapshotAt(Epoch(e)));
        for since in [0, e.saturating_sub(1), e / 2] {
            queries.push(Query::SnapshotDelta {
                at: Epoch(e),
                since: Epoch(since),
            });
        }
        queries.push(Query::Containment {
            x0: -1.0,
            y0: f64::NEG_INFINITY,
            x1: 2.0,
            y1: f64::INFINITY,
            epoch: Epoch(e),
        });
    }
    for t in 0..=TAGS {
        for (from, to) in [(0, u64::MAX), (1, 5), (next / 2, next)] {
            queries.push(Query::Trail {
                tag: TagId(t),
                from: Epoch(from),
                to: Epoch(to),
            });
        }
    }
    seen.extend(
        queries
            .iter()
            .map(|q| format!("{q:?} => {:?}", answer(store, q))),
    );
    seen
}

fn assert_same(durable: &DurableStore, cfg: StoreConfig, calls: &[Call], ctx: &dyn Fn() -> String) {
    let want = observe(&memory_store(cfg, calls));
    let got = observe(durable.store());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{}", ctx());
    }
    assert_eq!(got.len(), want.len(), "{}", ctx());
}

fn config(rng: &mut StdRng) -> StoreConfig {
    let width = [1, 2, 3, 64][rng.gen_range(0..4)];
    let cfg = StoreConfig::default().with_segment_epochs(width);
    match rng.gen_bool(0.7) {
        true => cfg.with_snapshot_staleness(rng.gen_range(0..=8)),
        false => cfg,
    }
}

/// (a): drop and reopen at a random point, then finish the schedule.
fn reopen_case(case: u64) {
    let mut rng = StdRng::seed_from_u64(0x0106_0BE7_0000 ^ case);
    let cfg = config(&mut rng);
    let calls = schedule(&mut rng);
    let split = rng.gen_range(0..=calls.len());
    let ctx = || format!("case {case}, {cfg:?}, reopen at {split} of {calls:?}");
    let dir = temp_dir();

    let mut durable = DurableStore::open(&dir, cfg).expect("open");
    apply(&mut durable, &calls[..split]);
    drop(durable);
    let mut durable = DurableStore::open(&dir, cfg).expect("reopen");
    assert_eq!(durable.recovery().truncated_bytes, 0, "{}", ctx());
    assert_same(&durable, cfg, &calls[..split], &ctx);
    apply(&mut durable, &calls[split..]);
    assert_same(&durable, cfg, &calls, &ctx);
    drop(durable);
    let durable = DurableStore::open(&dir, cfg).expect("final reopen");
    assert_same(&durable, cfg, &calls, &ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b): cut the whole log back to a random completed epoch, reopen,
/// re-drive the calls after the cut.
fn truncate_case(case: u64) {
    let mut rng = StdRng::seed_from_u64(0x0C07_0000 ^ case);
    let cfg = config(&mut rng);
    let calls = schedule(&mut rng);
    // a cut lands on the last mark of its epoch; take epochs whose last
    // mark is also the highest completion so far (a checkpoint's epoch)
    let mut high: Option<u64> = None;
    let mut cuts = Vec::new();
    for (i, call) in calls.iter().enumerate() {
        if let Call::Complete(e) = *call {
            high = Some(high.map_or(e, |h| h.max(e)));
            let last_mark = !calls[i + 1..]
                .iter()
                .any(|c| matches!(c, Call::Complete(x) if *x == e));
            if last_mark && high == Some(e) {
                cuts.push((i, e));
            }
        }
    }
    if cuts.is_empty() {
        return;
    }
    let (at, epoch) = cuts[rng.gen_range(0..cuts.len())];
    let ctx = || format!("case {case}, {cfg:?}, cut at epoch {epoch} (call {at}) of {calls:?}");
    let dir = temp_dir();

    let mut durable = DurableStore::open(&dir, cfg).expect("open");
    apply(&mut durable, &calls);
    drop(durable);
    let mut log = SegmentLog::open(&dir, cfg.segment_epochs).expect("open the log");
    log.truncate_after_epoch(Epoch(epoch)).expect("truncate");
    assert_eq!(log.last_completed(), Some(epoch), "{}", ctx());
    drop(log);

    let mut durable = DurableStore::open(&dir, cfg).expect("reopen after the cut");
    assert_same(&durable, cfg, &calls[..=at], &ctx);
    apply(&mut durable, &calls[at + 1..]);
    assert_same(&durable, cfg, &calls, &ctx);
    drop(durable);
    let durable = DurableStore::open(&dir, cfg).expect("final reopen");
    assert_same(&durable, cfg, &calls, &ctx);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reopened_store_equals_the_uninterrupted_one() {
    for case in 0..CASES {
        reopen_case(case);
    }
}

#[test]
fn a_truncated_and_redriven_store_equals_the_uninterrupted_one() {
    for case in 0..CASES {
        truncate_case(case);
    }
}

/// Epochs `from..to` of tag 1 every epoch and tag 2 on evens.
fn feed(d: &mut DurableStore, from: u64, to: u64) {
    for e in from..to {
        let at = Point3::new(e as f64, 0.5, 0.0);
        d.push(&LocationEvent::new(Epoch(e), TagId(1), at)).unwrap();
        if e % 2 == 0 {
            d.push(&LocationEvent::new(Epoch(e), TagId(2), at)).unwrap();
        }
        d.complete_epoch(Epoch(e)).unwrap();
    }
}

fn live_segments(dir: &Path, width: u64) -> usize {
    SegmentLog::open(dir, width).expect("open").live_segments()
}

#[test]
fn live_segments_count_the_width_spans_holding_records() {
    // 19 epochs at width 4 plus finish: spans 0, 4, 8, 12 and 16
    let dir = temp_dir();
    let cfg = StoreConfig::default().with_segment_epochs(4);
    let mut d = DurableStore::open(&dir, cfg).unwrap();
    feed(&mut d, 0, 19);
    d.finish().unwrap();
    assert_eq!(d.log_mut().live_segments(), 5);
    drop(d);
    assert_eq!(live_segments(&dir, 4), 5);
    let _ = std::fs::remove_dir_all(&dir);

    // reopened mid-span, then driven on: the count carries over
    let dir = temp_dir();
    let mut d = DurableStore::open(&dir, cfg).unwrap();
    feed(&mut d, 0, 10);
    assert_eq!(d.log_mut().live_segments(), 3);
    drop(d);
    assert_eq!(live_segments(&dir, 4), 3);
    let mut d = DurableStore::open(&dir, cfg).unwrap();
    feed(&mut d, 10, 19);
    d.finish().unwrap();
    assert_eq!(d.log_mut().live_segments(), 5);
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);

    // width 1, with a jump: one span per epoch that holds a record
    let dir = temp_dir();
    let cfg = StoreConfig::default().with_segment_epochs(1);
    let mut d = DurableStore::open(&dir, cfg).unwrap();
    feed(&mut d, 0, 3);
    d.complete_epoch(Epoch(9)).unwrap();
    feed(&mut d, 10, 12);
    d.finish().unwrap();
    assert_eq!(d.log_mut().live_segments(), 7);
    drop(d);
    assert_eq!(live_segments(&dir, 1), 7);
    let _ = std::fs::remove_dir_all(&dir);
}
