//! Low-level synchronization of the two raw streams into epoch batches.
//!
//! "These streams may be slightly out-of-sync in time. In our model,
//! however, a time step (also called an epoch) is fairly coarse-grained
//! ... This allows us to generate synchronized streams via simple
//! low-level processing, such as assigning the same time to RFID
//! readings produced in one epoch and taking average of multiple
//! location updates in an epoch to produce a single update." (§II-A)
//!
//! [`StreamSynchronizer`] implements exactly that: push raw readings and
//! location reports in any interleaving that is non-decreasing in time
//! per stream, and pull completed [`EpochBatch`]es.

use crate::epoch::Epoch;
use crate::event::{ReaderLocationReport, RfidReading, TagId};
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

/// Streaming epoch synchronizer. An epoch is considered *complete* once
/// both input streams have advanced past its end (watermark semantics),
/// or when [`StreamSynchronizer::flush`] is called at end of trace.
///
/// Pure min-watermark semantics buffer without bound while one stream
/// goes silent (e.g. a reader crossing a tag-free stretch produces
/// reports but no readings). [`StreamSynchronizer::with_max_skew`]
/// bounds that: an epoch also completes once the *faster* stream has
/// advanced more than `max_skew` epochs past it. For sources whose
/// merged items arrive in time order (every trace source here), a skew
/// bound never changes the emitted batches — an epoch's items all
/// arrive before either watermark passes the epoch — it only caps the
/// buffer at O(`max_skew`) epochs.
#[derive(Debug)]
pub struct StreamSynchronizer {
    epoch_len: f64,
    pending: BTreeMap<u64, PendingEpoch>,
    /// Watermarks: the latest time seen per input stream.
    reading_watermark: f64,
    report_watermark: f64,
    /// Epochs strictly below this have been emitted.
    emitted_below: u64,
    /// Allowed inter-stream lag in epochs (`None` = unbounded, pure
    /// min-watermark semantics).
    max_skew_epochs: Option<u64>,
    /// Items that arrived for an already-emitted epoch and were
    /// dropped.
    late_dropped: u64,
}

impl StreamSynchronizer {
    /// Creates a synchronizer with the given epoch length in seconds
    /// (the paper default is 1.0) and pure min-watermark semantics.
    pub fn new(epoch_len: f64) -> Self {
        assert!(epoch_len > 0.0, "epoch length must be positive");
        Self {
            epoch_len,
            pending: BTreeMap::new(),
            reading_watermark: 0.0,
            report_watermark: 0.0,
            emitted_below: 0,
            max_skew_epochs: None,
            late_dropped: 0,
        }
    }

    /// Bounds the buffer: epochs more than `epochs` behind the faster
    /// stream's watermark are emitted without waiting for the slower
    /// stream. Items for an already-emitted epoch are dropped, so pick
    /// a bound above the real inter-stream skew (the paper's streams
    /// are "slightly out-of-sync" within an epoch or two).
    pub fn with_max_skew(mut self, epochs: u64) -> Self {
        self.max_skew_epochs = Some(epochs);
        self
    }

    /// The configured epoch length in seconds.
    pub fn epoch_len(&self) -> f64 {
        self.epoch_len
    }

    /// Number of epochs currently buffered (open, not yet emitted).
    /// Under watermark semantics this is bounded by the stream skew in
    /// epochs, independent of how long the streams run — the pipeline
    /// records its high-water mark as the bounded-memory evidence.
    pub(crate) fn pending_epochs(&self) -> usize {
        self.pending.len()
    }

    /// Items dropped because they arrived for an already-emitted epoch
    /// (late data beyond the skew bound, or malformed traces). A
    /// nonzero count means the stream skew exceeded
    /// [`StreamSynchronizer::with_max_skew`]'s bound — data loss is
    /// observable, never silent.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Pushes one raw RFID reading.
    pub fn push_reading(&mut self, r: RfidReading) {
        let e = Epoch::from_seconds(r.time, self.epoch_len).0;
        if e < self.emitted_below {
            // Late data for an already-emitted epoch is dropped (and
            // counted); the paper's epochs are coarse enough that this
            // only happens with malformed traces or skew beyond the
            // configured bound.
            self.late_dropped += 1;
            return;
        }
        self.pending.entry(e).or_default().readings.push(r.tag);
        self.reading_watermark = self.reading_watermark.max(r.time);
    }

    /// Pushes one raw reader-location report.
    pub fn push_report(&mut self, r: ReaderLocationReport) {
        let e = Epoch::from_seconds(r.time, self.epoch_len).0;
        if e < self.emitted_below {
            self.late_dropped += 1;
            return;
        }
        let p = self.pending.entry(e).or_default();
        p.pos_sum.0 += r.pose.pos.x;
        p.pos_sum.1 += r.pose.pos.y;
        p.pos_sum.2 += r.pose.pos.z;
        p.sin_sum += r.pose.phi.sin();
        p.cos_sum += r.pose.phi.cos();
        p.report_count += 1;
        self.report_watermark = self.report_watermark.max(r.time);
    }

    /// Pops every epoch that both watermarks have passed, in order.
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
        let watermark = self.reading_watermark.min(self.report_watermark);
        let mut ready_below = Epoch::from_seconds(watermark, self.epoch_len).0;
        if let Some(skew) = self.max_skew_epochs {
            let fast = self.reading_watermark.max(self.report_watermark);
            let by_skew = Epoch::from_seconds(fast, self.epoch_len)
                .0
                .saturating_sub(skew);
            ready_below = ready_below.max(by_skew);
        }
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

/// Convenience: synchronize two complete in-memory traces.
pub fn synchronize_traces(
    readings: &[RfidReading],
    reports: &[ReaderLocationReport],
    epoch_len: f64,
) -> Vec<EpochBatch> {
    let mut sync = StreamSynchronizer::new(epoch_len);
    for r in readings {
        sync.push_reading(*r);
    }
    for r in reports {
        sync.push_report(*r);
    }
    let mut out = sync.drain_ready();
    out.extend(sync.flush());
    out.sort_by_key(|b| b.epoch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(t: f64, id: u64) -> RfidReading {
        RfidReading {
            time: t,
            tag: TagId(id),
        }
    }

    fn report(t: f64, x: f64, y: f64) -> ReaderLocationReport {
        ReaderLocationReport {
            time: t,
            pose: Pose::new(Point3::new(x, y, 0.0), 0.0),
        }
    }

    #[test]
    fn batches_group_by_epoch() {
        let batches = synchronize_traces(
            &[reading(0.1, 1), reading(0.7, 2), reading(1.2, 3)],
            &[report(0.5, 0.0, 0.0), report(1.5, 0.0, 0.1)],
            1.0,
        );
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].epoch, Epoch(0));
        assert_eq!(batches[0].readings, vec![TagId(1), TagId(2)]);
        assert_eq!(batches[1].epoch, Epoch(1));
        assert_eq!(batches[1].readings, vec![TagId(3)]);
    }

    #[test]
    fn duplicate_readings_deduplicated() {
        let batches = synchronize_traces(
            &[reading(0.1, 5), reading(0.2, 5), reading(0.3, 5)],
            &[report(0.5, 1.0, 2.0)],
            1.0,
        );
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].readings, vec![TagId(5)]);
    }

    #[test]
    fn multiple_reports_averaged() {
        let batches = synchronize_traces(
            &[reading(0.1, 1)],
            &[report(0.2, 0.0, 0.0), report(0.8, 1.0, 2.0)],
            1.0,
        );
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
        sync.push_reading(reading(0.5, 1));
        sync.push_report(report(0.5, 0.0, 0.0));
        // Neither stream has passed epoch 0's end yet.
        assert!(sync.drain_ready().is_empty());
        sync.push_reading(reading(1.1, 2));
        // Reading watermark passed, report watermark has not.
        assert!(sync.drain_ready().is_empty());
        sync.push_report(report(1.1, 0.0, 0.1));
        let ready = sync.drain_ready();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].epoch, Epoch(0));
    }

    #[test]
    fn late_data_for_emitted_epoch_dropped_and_counted() {
        let mut sync = StreamSynchronizer::new(1.0);
        sync.push_reading(reading(0.5, 1));
        sync.push_report(report(0.5, 0.0, 0.0));
        sync.push_reading(reading(2.1, 2));
        sync.push_report(report(2.1, 0.0, 0.0));
        let first = sync.drain_ready();
        assert_eq!(first.len(), 1);
        assert_eq!(sync.late_dropped(), 0);
        // now a reading arrives for the already-emitted epoch 0
        sync.push_reading(reading(0.9, 9));
        assert_eq!(sync.late_dropped(), 1, "the drop must be observable");
        let rest = sync.flush();
        assert!(rest.iter().all(|b| !b.readings.contains(&TagId(9))));
    }

    #[test]
    fn skew_bound_emits_past_a_silent_stream() {
        // reports flow every epoch; readings go silent after epoch 0.
        // Pure min-watermark semantics would buffer forever; the skew
        // bound caps the buffer and emits.
        let mut sync = StreamSynchronizer::new(1.0).with_max_skew(3);
        sync.push_reading(reading(0.5, 1));
        for t in 0..10 {
            sync.push_report(report(t as f64 + 0.1, 0.0, t as f64));
            sync.drain_ready();
            assert!(
                sync.pending_epochs() <= 4,
                "buffer must stay within skew+1: {} at t={t}",
                sync.pending_epochs()
            );
        }
        let rest = sync.flush();
        // every report-bearing epoch was eventually emitted exactly once
        assert!(rest.len() <= 4);
    }

    #[test]
    fn skew_bound_preserves_batches_for_time_ordered_input() {
        // merged-in-time-order input: the bounded synchronizer must
        // produce exactly the batches of the unbounded one-shot helper
        let readings: Vec<_> = (0..20).map(|t| reading(t as f64 + 0.5, t)).collect();
        let reports: Vec<_> = (0..20).map(|t| report(t as f64, 0.0, t as f64)).collect();
        let expect = synchronize_traces(&readings, &reports, 1.0);

        let mut sync = StreamSynchronizer::new(1.0).with_max_skew(2);
        let mut got = Vec::new();
        let (mut ri, mut pi) = (0usize, 0usize);
        while ri < readings.len() || pi < reports.len() {
            let tr = readings.get(ri).map(|r| r.time).unwrap_or(f64::INFINITY);
            let tp = reports.get(pi).map(|r| r.time).unwrap_or(f64::INFINITY);
            if tr <= tp {
                sync.push_reading(readings[ri]);
                ri += 1;
            } else {
                sync.push_report(reports[pi]);
                pi += 1;
            }
            got.extend(sync.drain_ready());
        }
        got.extend(sync.flush());
        assert_eq!(expect, got);
    }

    #[test]
    fn empty_epochs_skipped() {
        let batches = synchronize_traces(
            &[reading(0.1, 1), reading(5.1, 2)],
            &[report(0.1, 0.0, 0.0), report(5.1, 0.0, 0.0)],
            1.0,
        );
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].epoch, Epoch(0));
        assert_eq!(batches[1].epoch, Epoch(5));
    }

    #[test]
    fn reading_only_epoch_has_no_report() {
        let batches = synchronize_traces(&[reading(0.4, 1)], &[], 1.0);
        assert_eq!(batches.len(), 1);
        assert!(batches[0].reader_report.is_none());
    }
}
