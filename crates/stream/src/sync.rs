//! Low-level synchronization of the two raw streams into epoch batches.
//!
//! "These streams may be slightly out-of-sync in time. In our model,
//! however, a time step (also called an epoch) is fairly coarse-grained
//! ... This allows us to generate synchronized streams via simple
//! low-level processing, such as assigning the same time to RFID
//! readings produced in one epoch and taking average of multiple
//! location updates in an epoch to produce a single update." (§II-A)
//!
//! [`StreamSynchronizer`] implements exactly that, one way, for the
//! streaming pipeline and every batch reference alike: push raw
//! readings and location reports, pull completed [`EpochBatch`]es.
//! [`synchronize`] drains a whole time-ordered source through one.

use crate::epoch::Epoch;
use crate::event::{ReaderLocationReport, RfidReading, TagId};
use crate::pipeline::{ReadingSource, StreamItem, DEFAULT_MAX_SKEW_EPOCHS};
use rfid_geom::{Point3, Pose};
use std::collections::BTreeMap;

/// All observations of one epoch, synchronized.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochBatch {
    pub epoch: Epoch,
    /// Deduplicated tag ids read during the epoch (objects and shelves
    /// mixed; the consumer separates them).
    pub readings: Vec<TagId>,
    /// The averaged reader location report for the epoch, if any report
    /// arrived. Heading is averaged on the unit circle.
    pub reader_report: Option<Pose>,
}

#[derive(Debug, Default, Clone)]
struct PendingEpoch {
    readings: Vec<TagId>,
    // accumulated location reports
    pos_sum: (f64, f64, f64),
    sin_sum: f64,
    cos_sum: f64,
    report_count: usize,
}

impl PendingEpoch {
    fn finish(mut self, epoch: Epoch) -> EpochBatch {
        self.readings.sort_unstable();
        self.readings.dedup();
        let reader_report = if self.report_count > 0 {
            let n = self.report_count as f64;
            let pos = Point3::new(self.pos_sum.0 / n, self.pos_sum.1 / n, self.pos_sum.2 / n);
            let phi = self.sin_sum.atan2(self.cos_sum);
            Some(Pose::new(pos, phi))
        } else {
            None
        };
        EpochBatch {
            epoch,
            readings: self.readings,
            reader_report,
        }
    }
}

/// Times at or past this many epochs have no `u64` epoch (2^64).
const EPOCH_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// Streaming epoch synchronizer.
///
/// Placement: an item at time `t` belongs to epoch `⌊t / epoch_len⌋`
/// (finite negative times clamp to 0). An epoch is emitted once both
/// streams' watermarks (latest time pushed) have passed its end, or
/// once the faster one is more than [`DEFAULT_MAX_SKEW_EPOCHS`] epochs
/// past it, so a silent stream holds few epochs open;
/// [`StreamSynchronizer::flush`] emits the rest. An item for an emitted
/// epoch is dropped ([`StreamSynchronizer::late_dropped`]); one whose
/// time maps to no epoch is refused ([`StreamSynchronizer::refused`]),
/// and so is a report with a NaN or infinite coordinate or heading
/// ([`StreamSynchronizer::refused_poses`]). A refused item moves no
/// watermark. All three are counted.
///
/// For time-ordered input (every trace source here) no item is late:
/// each epoch is emitted whole, as if the trace were grouped at once.
#[derive(Debug)]
pub struct StreamSynchronizer {
    epoch_len: f64,
    pending: BTreeMap<u64, PendingEpoch>,
    /// Watermarks: the latest time seen per input stream.
    reading_watermark: f64,
    report_watermark: f64,
    /// Epochs strictly below this have been emitted.
    emitted_below: u64,
    /// Items that arrived for an already-emitted epoch and were
    /// dropped.
    late_dropped: u64,
    /// Items whose time maps to no epoch.
    refused: u64,
    /// Reports whose pose has a non-finite coordinate or heading.
    refused_poses: u64,
}

impl StreamSynchronizer {
    /// Creates a synchronizer with the given epoch length in seconds
    /// (the paper default is 1.0).
    pub fn new(epoch_len: f64) -> Self {
        assert!(epoch_len > 0.0, "epoch length must be positive");
        Self {
            epoch_len,
            pending: BTreeMap::new(),
            reading_watermark: 0.0,
            report_watermark: 0.0,
            emitted_below: 0,
            late_dropped: 0,
            refused: 0,
            refused_poses: 0,
        }
    }

    /// Number of epochs currently buffered (open, not yet emitted):
    /// after a drain, at most the skew bound plus one however long the
    /// streams run — the pipeline records its high-water mark as the
    /// bounded-memory evidence.
    pub(crate) fn pending_epochs(&self) -> usize {
        self.pending.len()
    }

    /// Items dropped because they arrived for an already-emitted epoch
    /// (skew beyond [`DEFAULT_MAX_SKEW_EPOCHS`], or malformed traces) —
    /// data loss is observable, never silent.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Items refused because their time maps to no epoch: a NaN or
    /// infinite time, or one 2^64 epochs or more past zero.
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Reports refused because a coordinate or the heading is NaN or
    /// infinite: summed into the epoch's average, one would poison the
    /// averaged pose and, through it, the reader filter.
    pub fn refused_poses(&self) -> u64 {
        self.refused_poses
    }

    /// Pushes one raw item of either stream.
    pub fn push(&mut self, item: StreamItem) {
        match item {
            StreamItem::Reading(r) => self.push_reading(r),
            StreamItem::Report(r) => self.push_report(r),
        }
    }

    /// Pushes one raw RFID reading.
    pub fn push_reading(&mut self, r: RfidReading) {
        let Some(e) = self.place(r.time) else {
            return;
        };
        self.pending.entry(e).or_default().readings.push(r.tag);
        self.reading_watermark = self.reading_watermark.max(r.time);
    }

    /// Pushes one raw reader-location report. A report whose pose is
    /// not finite is refused before its time is looked at.
    pub fn push_report(&mut self, r: ReaderLocationReport) {
        let p = r.pose;
        if ![p.pos.x, p.pos.y, p.pos.z, p.phi]
            .iter()
            .all(|v| v.is_finite())
        {
            self.refused_poses += 1;
            return;
        }
        let Some(e) = self.place(r.time) else {
            return;
        };
        let p = self.pending.entry(e).or_default();
        p.pos_sum.0 += r.pose.pos.x;
        p.pos_sum.1 += r.pose.pos.y;
        p.pos_sum.2 += r.pose.pos.z;
        p.sin_sum += r.pose.phi.sin();
        p.cos_sum += r.pose.phi.cos();
        p.report_count += 1;
        self.report_watermark = self.report_watermark.max(r.time);
    }

    /// The still-open epoch an item at time `t` belongs to, or `None`
    /// once the item is counted as refused or late.
    fn place(&mut self, t: f64) -> Option<u64> {
        if !(t.is_finite() && t / self.epoch_len < EPOCH_LIMIT) {
            self.refused += 1;
            return None;
        }
        let e = Epoch::from_seconds(t, self.epoch_len).0;
        if e < self.emitted_below {
            self.late_dropped += 1;
            return None;
        }
        Some(e)
    }

    /// Pops every complete epoch, in order.
    /// Epochs with no data at all are skipped (not fabricated).
    pub fn drain_ready(&mut self) -> Vec<EpochBatch> {
        let mut out = Vec::new();
        self.drain_ready_into(&mut out);
        out
    }

    /// [`StreamSynchronizer::drain_ready`] into a caller-owned buffer,
    /// so a long-running pipeline reuses one allocation. **Appends** to
    /// `out` (does not clear it) — unlike the policy-layer `*_into`
    /// methods, ready batches accumulate across calls until the caller
    /// consumes them.
    pub(crate) fn drain_ready_into(&mut self, out: &mut Vec<EpochBatch>) {
        let slow = self.reading_watermark.min(self.report_watermark);
        let fast = self.reading_watermark.max(self.report_watermark);
        let ready_below = Epoch::from_seconds(slow, self.epoch_len).0.max(
            Epoch::from_seconds(fast, self.epoch_len)
                .0
                .saturating_sub(DEFAULT_MAX_SKEW_EPOCHS),
        );
        while let Some((&e, _)) = self.pending.iter().next() {
            if e >= ready_below {
                break;
            }
            let p = self.pending.remove(&e).expect("key just observed");
            out.push(p.finish(Epoch(e)));
        }
        self.emitted_below = self.emitted_below.max(ready_below);
    }

    /// Emits every remaining epoch (end of trace).
    pub fn flush(&mut self) -> Vec<EpochBatch> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// [`StreamSynchronizer::flush`] into a caller-owned buffer.
    /// **Appends** to `out` (does not clear it).
    pub fn flush_into(&mut self, out: &mut Vec<EpochBatch>) {
        let pending = std::mem::take(&mut self.pending);
        for (e, p) in pending {
            self.emitted_below = self.emitted_below.max(e + 1);
            out.push(p.finish(Epoch(e)));
        }
    }
}

/// Synchronizes a whole source through a fresh [`StreamSynchronizer`]:
/// every item is pushed and the complete epochs drained after it, then
/// the tail is flushed. For a time-ordered source (a trace's
/// `stream()`) nothing is late or refused, so these are the trace's
/// epochs, whole and in order.
pub fn synchronize(mut source: impl ReadingSource, epoch_len: f64) -> Vec<EpochBatch> {
    let mut sync = StreamSynchronizer::new(epoch_len);
    let mut out = Vec::new();
    while let Some(item) = source.next_item() {
        sync.push(item);
        sync.drain_ready_into(&mut out);
    }
    sync.flush_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(t: f64, id: u64) -> StreamItem {
        StreamItem::Reading(RfidReading {
            time: t,
            tag: TagId(id),
        })
    }

    fn report(t: f64, x: f64, y: f64) -> StreamItem {
        StreamItem::Report(ReaderLocationReport {
            time: t,
            pose: Pose::new(Point3::new(x, y, 0.0), 0.0),
        })
    }

    fn sync_all(items: &[StreamItem]) -> Vec<EpochBatch> {
        synchronize(items.iter().copied(), 1.0)
    }

    #[test]
    fn batches_group_by_epoch() {
        let batches = sync_all(&[
            reading(0.1, 1),
            report(0.5, 0.0, 0.0),
            reading(0.7, 2),
            reading(1.2, 3),
            report(1.5, 0.0, 0.1),
        ]);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].epoch, Epoch(0));
        assert_eq!(batches[0].readings, vec![TagId(1), TagId(2)]);
        assert_eq!(batches[1].epoch, Epoch(1));
        assert_eq!(batches[1].readings, vec![TagId(3)]);
    }

    #[test]
    fn duplicate_readings_deduplicated() {
        let batches = sync_all(&[
            reading(0.1, 5),
            reading(0.2, 5),
            reading(0.3, 5),
            report(0.5, 1.0, 2.0),
        ]);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].readings, vec![TagId(5)]);
    }

    #[test]
    fn multiple_reports_averaged() {
        let batches = sync_all(&[
            reading(0.1, 1),
            report(0.2, 0.0, 0.0),
            report(0.8, 1.0, 2.0),
        ]);
        let pose = batches[0].reader_report.unwrap();
        assert!((pose.pos.x - 0.5).abs() < 1e-12);
        assert!((pose.pos.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heading_average_on_circle() {
        // averaging +170° and -170° must give 180°, not 0°.
        let mut sync = StreamSynchronizer::new(1.0);
        let phi1 = 170f64.to_radians();
        let phi2 = -170f64.to_radians();
        sync.push_report(ReaderLocationReport {
            time: 0.1,
            pose: Pose::new(Point3::origin(), phi1),
        });
        sync.push_report(ReaderLocationReport {
            time: 0.2,
            pose: Pose::new(Point3::origin(), phi2),
        });
        let batches = sync.flush();
        let phi = batches[0].reader_report.unwrap().phi;
        assert!((phi.abs() - std::f64::consts::PI).abs() < 1e-9, "phi {phi}");
    }

    #[test]
    fn watermark_holds_back_open_epoch() {
        let mut sync = StreamSynchronizer::new(1.0);
        sync.push(reading(0.5, 1));
        sync.push(report(0.5, 0.0, 0.0));
        // Neither stream has passed epoch 0's end yet.
        assert!(sync.drain_ready().is_empty());
        sync.push(reading(1.1, 2));
        // Reading watermark passed, report watermark has not.
        assert!(sync.drain_ready().is_empty());
        sync.push(report(1.1, 0.0, 0.1));
        let ready = sync.drain_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].epoch, Epoch(0));
    }

    #[test]
    fn late_data_for_emitted_epoch_dropped_and_counted() {
        let mut sync = StreamSynchronizer::new(1.0);
        sync.push(reading(0.5, 1));
        sync.push(report(0.5, 0.0, 0.0));
        sync.push(reading(2.1, 2));
        sync.push(report(2.1, 0.0, 0.0));
        let first = sync.drain_ready();
        assert_eq!(first.len(), 1);
        assert_eq!(sync.late_dropped(), 0);
        // now a reading arrives for the already-emitted epoch 0
        sync.push(reading(0.9, 9));
        assert_eq!(sync.late_dropped(), 1, "the drop must be observable");
        let rest = sync.flush();
        assert!(rest.iter().all(|b| !b.readings.contains(&TagId(9))));
    }

    #[test]
    fn skew_bound_emits_past_a_silent_stream() {
        // reports flow every epoch; readings go silent after epoch 0.
        // The skew bound caps the buffer and emits.
        let bound = DEFAULT_MAX_SKEW_EPOCHS as usize + 1;
        let mut sync = StreamSynchronizer::new(1.0);
        sync.push(reading(0.5, 1));
        for t in 0..10 {
            sync.push(report(t as f64 + 0.1, 0.0, t as f64));
            sync.drain_ready();
            assert!(
                sync.pending_epochs() <= bound,
                "buffer must stay within skew+1: {} at t={t}",
                sync.pending_epochs()
            );
        }
        let rest = sync.flush();
        // every report-bearing epoch was eventually emitted exactly once
        assert!(rest.len() <= bound);
    }

    #[test]
    fn skew_bound_preserves_batches_for_time_ordered_input() {
        // merged-in-time-order input, drained after every push: every
        // epoch comes out whole, exactly as written down
        let mut items = Vec::new();
        for t in 0..20u64 {
            items.push(report(t as f64, 0.0, t as f64));
            items.push(reading(t as f64 + 0.5, t));
        }
        let expect: Vec<EpochBatch> = (0..20u64)
            .map(|t| EpochBatch {
                epoch: Epoch(t),
                readings: vec![TagId(t)],
                reader_report: Some(Pose::new(Point3::new(0.0, t as f64, 0.0), 0.0)),
            })
            .collect();
        assert_eq!(expect, sync_all(&items));
    }

    #[test]
    fn empty_epochs_skipped() {
        let batches = sync_all(&[
            reading(0.1, 1),
            report(0.1, 0.0, 0.0),
            reading(5.1, 2),
            report(5.1, 0.0, 0.0),
        ]);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].epoch, Epoch(0));
        assert_eq!(batches[1].epoch, Epoch(5));
    }

    #[test]
    fn reading_only_epoch_has_no_report() {
        let batches = sync_all(&[reading(0.4, 1)]);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].reader_report.is_none());
    }
}
