//! Drop accounting of [`StreamSynchronizer`]: the drop-free path
//! (time-ordered sources) is pinned elsewhere (`sync_prop.rs`); these
//! tests drive sources that are out of order *beyond* the skew bound
//! ([`DEFAULT_MAX_SKEW_EPOCHS`]), where drops **do** occur, and items
//! whose time maps to no epoch (NaN, ±∞, 2^64 epochs or more) or
//! reports whose pose is not finite, which are refused. Every loss is
//! surfaced — `late_dropped`, `refused` and `refused_poses` on the
//! synchronizer and in `PipelineStats` — never silent, and a refused
//! item moves no watermark.

use rfid_geom::{Point3, Pose};
use rfid_stream::pipeline::DEFAULT_MAX_SKEW_EPOCHS;
use rfid_stream::StreamItem;
use rfid_stream::{
    Epoch, EpochBatch, LocationEvent, Pipeline, ReaderLocationReport, RfidReading,
    StreamSynchronizer, TagId,
};

fn reading(t: f64, id: u64) -> RfidReading {
    RfidReading {
        time: t,
        tag: TagId(id),
    }
}

fn report(t: f64, y: f64) -> ReaderLocationReport {
    ReaderLocationReport {
        time: t,
        pose: Pose::new(Point3::new(0.0, y, 0.0), 0.0),
    }
}

#[test]
fn reports_beyond_the_skew_bound_are_dropped_and_counted() {
    assert_eq!(DEFAULT_MAX_SKEW_EPOCHS, 4);
    let mut sync = StreamSynchronizer::new(1.0);
    // the reading stream races ahead through epoch 10...
    for e in 0..=10u64 {
        sync.push_reading(reading(e as f64 + 0.5, e));
    }
    // ...forcing epochs 0..6 out despite the absent report stream
    let early = sync.drain_ready();
    assert_eq!(early.len(), 6, "skew bound must emit 10 - 4 epochs");
    assert!(early.iter().all(|b| b.reader_report.is_none()));
    assert_eq!(sync.late_dropped(), 0, "no data has been late yet");

    // the lagging report stream finally delivers epochs 0..=10: the
    // first 6 are late for already-emitted epochs and must be dropped
    // *and counted*; the last 5 still attach to open epochs
    for e in 0..=10u64 {
        sync.push_report(report(e as f64 + 0.1, e as f64));
    }
    assert_eq!(sync.late_dropped(), 6, "every late report is accounted");

    let rest = sync.flush();
    assert_eq!(rest.len(), 5);
    for b in &rest {
        assert!(
            b.reader_report.is_some(),
            "open epoch {:?} should keep its report",
            b.epoch
        );
    }
}

#[test]
fn late_readings_are_dropped_and_counted_too() {
    let mut sync = StreamSynchronizer::new(1.0);
    for e in 0..=8u64 {
        sync.push_report(report(e as f64 + 0.1, e as f64));
    }
    let emitted = sync.drain_ready();
    assert_eq!(emitted.len(), 4); // epochs 0..4 forced out by skew
                                  // readings for emitted epochs arrive now — beyond the bound
    sync.push_reading(reading(0.5, 7));
    sync.push_reading(reading(1.5, 8));
    sync.push_reading(reading(3.5, 9));
    assert_eq!(sync.late_dropped(), 3);
    // the dropped tags never surface in any batch
    let rest = sync.flush();
    for b in emitted.iter().chain(&rest) {
        assert!(b.readings.is_empty(), "dropped reading leaked: {b:?}");
    }
}

/// A trivial stage: one event per reading.
struct Echo;
impl rfid_stream::InferenceStage for Echo {
    fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>) {
        for tag in &batch.readings {
            out.push(LocationEvent::new(batch.epoch, *tag, Point3::origin()));
        }
    }
    fn finalize_into(&mut self, _last_epoch: Epoch, _out: &mut Vec<LocationEvent>) {}
}

#[test]
fn pipeline_surfaces_drop_counts_in_stats() {
    // an adversarial source: all 30 epochs of readings first, then the
    // report stream trailing 30 epochs behind — far beyond the skew
    // bound of 4, so most reports arrive for emitted epochs
    let n = 30u64;
    let mut items: Vec<StreamItem> = (0..n)
        .map(|e| StreamItem::Reading(reading(e as f64 + 0.5, e)))
        .collect();
    items.extend((0..n).map(|e| StreamItem::Report(report(e as f64 + 0.1, e as f64))));

    let mut p = Pipeline::new(1.0, Echo, Vec::<LocationEvent>::new());
    let stats = p.run_to_completion(&mut items.into_iter());

    assert!(
        stats.late_dropped > 0,
        "skew-bound drops must be visible in PipelineStats"
    );
    // exactly the reports older than the skew bound are lost (the
    // reading watermark sits at epoch n-1, so epochs below n-1-skew
    // were emitted before their report arrived)
    assert_eq!(stats.late_dropped, n - 1 - DEFAULT_MAX_SKEW_EPOCHS);
    // no readings were lost: every epoch still echoed its event
    assert_eq!(stats.events, n);
    assert_eq!(p.sink().len() as u64, n);
}

/// Five healthy epochs, one reading and one report each.
fn healthy(sync: &mut StreamSynchronizer) -> Vec<EpochBatch> {
    let mut out = Vec::new();
    for e in 0..5u64 {
        sync.push_report(report(e as f64 + 0.1, e as f64));
        sync.push_reading(reading(e as f64 + 0.5, e));
        out.extend(sync.drain_ready());
    }
    out.extend(sync.flush());
    out
}

#[test]
fn an_infinite_time_is_refused_and_moves_no_watermark() {
    for t in [f64::INFINITY, f64::NEG_INFINITY] {
        let mut sync = StreamSynchronizer::new(1.0);
        sync.push_reading(reading(t, 99));
        sync.push_report(report(t, 99.0));
        assert!(sync.drain_ready().is_empty(), "t = {t} completed an epoch");
        // every later healthy item still lands in its own epoch, and
        // the end-of-stream flush neither panics nor wraps
        let batches = healthy(&mut sync);
        assert_eq!(sync.refused(), 2, "t = {t}");
        assert_eq!(sync.late_dropped(), 0, "t = {t}");
        let epochs: Vec<u64> = batches.iter().map(|b| b.epoch.0).collect();
        assert_eq!(epochs, [0, 1, 2, 3, 4], "t = {t}");
        for b in &batches {
            assert_eq!(b.readings, [TagId(b.epoch.0)]);
            assert_eq!(b.reader_report.unwrap().pos.y, b.epoch.0 as f64);
        }
    }
}

#[test]
fn a_report_with_a_non_finite_pose_is_refused_and_moves_no_watermark() {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for field in 0..4 {
        for v in bad {
            let ctx = format!("field {field} = {v}");
            let mut sync = StreamSynchronizer::new(1.0);
            let mut garbage = report(40.5, 7.0);
            match field {
                0 => garbage.pose.pos.x = v,
                1 => garbage.pose.pos.y = v,
                2 => garbage.pose.pos.z = v,
                _ => garbage.pose.phi = v,
            }
            sync.push_report(garbage);
            sync.push_reading(reading(0.5, 1));
            // had it moved the report watermark to epoch 40, the skew
            // bound would force epoch 0 out now
            assert!(sync.drain_ready().is_empty(), "{ctx}");
            sync.push_report(garbage_free(0.2));
            let batches = sync.flush();
            assert_eq!((sync.refused_poses(), sync.refused()), (1, 0), "{ctx}");
            assert_eq!(sync.late_dropped(), 0, "{ctx}");
            assert_eq!(batches.len(), 1, "{ctx}");
            assert_eq!(batches[0].epoch, Epoch(0), "{ctx}");
            assert_eq!(
                batches[0].reader_report,
                Some(garbage_free(0.2).pose),
                "{ctx}"
            );
        }
    }
}

/// A healthy report at `t`.
fn garbage_free(t: f64) -> ReaderLocationReport {
    report(t, 3.0)
}

#[test]
fn a_nan_time_is_refused_not_placed_in_epoch_zero() {
    let mut sync = StreamSynchronizer::new(1.0);
    sync.push_reading(reading(0.2, 1));
    sync.push_reading(reading(f64::NAN, 2));
    sync.push_report(report(f64::NAN, 7.0));
    sync.push_report(report(0.3, 0.0));
    let batches = sync.flush();
    assert_eq!(sync.refused(), 2);
    assert_eq!(sync.late_dropped(), 0);
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].epoch, Epoch(0));
    assert_eq!(batches[0].readings, [TagId(1)]);
    assert_eq!(batches[0].reader_report.unwrap().pos.y, 0.0);
}

#[test]
fn times_past_the_last_epoch_are_refused() {
    // 2^64 epochs or more have no `u64` epoch; just below still places
    let mut sync = StreamSynchronizer::new(1.0);
    for t in [18_446_744_073_709_551_616.0, 1e300, f64::MAX] {
        sync.push_reading(reading(t, 1));
    }
    assert_eq!(sync.refused(), 3);
    // a tiny epoch length pushes a modest time past the last epoch too
    let mut fine = StreamSynchronizer::new(1e-10);
    fine.push_report(report(1e10, 0.0));
    assert_eq!(fine.refused(), 1);

    let last = 18_446_744_073_709_549_568.0; // 2^64 - 2^11
    sync.push_reading(reading(last, 2));
    assert_eq!(sync.refused(), 3, "the largest f64 below 2^64 places");
    let batches = sync.flush();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].epoch, Epoch(last as u64));
}

#[test]
fn finite_negative_times_still_clamp_to_epoch_zero() {
    let mut sync = StreamSynchronizer::new(1.0);
    sync.push_reading(reading(-3.0, 1));
    sync.push_report(report(-1e300, 0.0));
    let batches = sync.flush();
    assert_eq!(sync.refused(), 0);
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].epoch, Epoch(0));
    assert_eq!(batches[0].readings, [TagId(1)]);
}

#[test]
fn pipeline_surfaces_refusals_apart_from_late_drops() {
    let mut items = vec![
        StreamItem::Reading(reading(f64::INFINITY, 99)),
        StreamItem::Report(report(f64::NAN, 0.0)),
    ];
    for e in 0..5u64 {
        items.push(StreamItem::Report(report(e as f64 + 0.1, e as f64)));
        items.push(StreamItem::Reading(reading(e as f64 + 0.5, e)));
    }
    let refused_before = rfid_obs::global().counter("pipeline_refused_total").get();
    let mut p = Pipeline::new(1.0, Echo, Vec::<LocationEvent>::new());
    let stats = p.run_to_completion(&mut items.into_iter());

    assert_eq!(stats.refused, 2);
    assert_eq!(stats.late_dropped, 0);
    assert_eq!((stats.readings_in, stats.reports_in), (6, 6));
    assert_eq!(stats.epochs, 5);
    assert_eq!(stats.events, 5, "every healthy reading still echoes");
    // the registry mirror carries the same count (no other test in
    // this suite pushes a refused item)
    let refused_after = rfid_obs::global().counter("pipeline_refused_total").get();
    assert_eq!(refused_after - refused_before, 2);
}
