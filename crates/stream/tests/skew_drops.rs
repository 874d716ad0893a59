//! Drop accounting of [`StreamSynchronizer::with_max_skew`]: the
//! drop-free path (time-ordered sources) is pinned elsewhere
//! (`sync_prop.rs`); these tests drive sources that are out of order
//! *beyond* the skew bound, where drops **do** occur, and assert the
//! losses are surfaced — nonzero `late_dropped` on the synchronizer
//! and in `PipelineStats` — never silent.

use rfid_geom::{Point3, Pose};
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
    let mut sync = StreamSynchronizer::new(1.0).with_max_skew(2);
    // the reading stream races ahead through epoch 10...
    for e in 0..=10u64 {
        sync.push_reading(reading(e as f64 + 0.5, e));
    }
    // ...forcing epochs 0..8 out despite the absent report stream
    let early = sync.drain_ready();
    assert_eq!(early.len(), 8, "skew bound must emit 10 - 2 epochs");
    assert!(early.iter().all(|b| b.reader_report.is_none()));
    assert_eq!(sync.late_dropped(), 0, "no data has been late yet");

    // the lagging report stream finally delivers epochs 0..=10: the
    // first 8 are late for already-emitted epochs and must be dropped
    // *and counted*; the last 3 still attach to open epochs
    for e in 0..=10u64 {
        sync.push_report(report(e as f64 + 0.1, e as f64));
    }
    assert_eq!(sync.late_dropped(), 8, "every late report is accounted");

    let rest = sync.flush();
    assert_eq!(rest.len(), 3);
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
    let mut sync = StreamSynchronizer::new(1.0).with_max_skew(1);
    for e in 0..=5u64 {
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
    // report stream trailing 30 epochs behind — far beyond the default
    // skew bound of 4, so most reports arrive for emitted epochs
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
    assert_eq!(
        stats.late_dropped,
        n - 1 - rfid_stream::pipeline::DEFAULT_MAX_SKEW_EPOCHS
    );
    // no readings were lost: every epoch still echoed its event
    assert_eq!(stats.events, n);
    assert_eq!(p.sink().len() as u64, n);
}
