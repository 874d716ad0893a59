//! The staged streaming pipeline: source → synchronizer → inference →
//! sinks.
//!
//! The paper frames inference as an *online* operation over unbounded
//! streams: readings and reader-location reports arrive continuously
//! and events must be emitted incrementally (§II-A). This module wires
//! the existing pieces into that shape:
//!
//! ```text
//! raw readings ──┐
//!                ├─► StreamSynchronizer ─► EpochBatch ─► InferenceStage ─► LocationEvent ─► EventSink(s)
//! reports  ──────┘    (watermarks,           (one           (engine,          (operators,
//!                      bounded buffer)        epoch)          baselines)        queries, logs)
//! ```
//!
//! * a [`ReadingSource`] produces the interleaved raw items one at a
//!   time — no whole-trace `Vec` is ever required;
//! * the [`Pipeline`] pushes them through a [`StreamSynchronizer`],
//!   draining each epoch as soon as it is complete — the same
//!   synchronizer, under the same skew bound, that [`crate::synchronize`]
//!   drives for every batch reference, so the two differ only in the
//!   driver;
//! * each completed [`EpochBatch`] is handed to an [`InferenceStage`]
//!   (the engine), whose events are routed into an [`EventSink`];
//! * [`PipelineStats`] records the high-water marks of every internal
//!   buffer, so bounded memory is a *measured* property: the
//!   synchronizer holds O(open epochs) regardless of trace length.
//!
//! Sinks compose: see [`sinks`] for adapters that turn the CQL-like
//! operators and the paper's two queries into [`EventSink`]s, and the
//! tuple impl for fan-out.

pub mod sinks;

use crate::epoch::Epoch;
use crate::event::{LocationEvent, ReaderLocationReport, RfidReading};
use crate::sync::{EpochBatch, StreamSynchronizer};

/// One raw input item: the union of the two §II-A streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamItem {
    /// An RFID reading `(time, tag_id)`.
    Reading(RfidReading),
    /// A reader location report `(time, pose)`.
    Report(ReaderLocationReport),
}

/// An incremental producer of raw stream items. Implemented for every
/// `Iterator<Item = StreamItem>`, so any merge of the two raw streams
/// (e.g. `rfid_sim`'s trace sources) plugs in directly.
pub trait ReadingSource {
    /// The next raw item, or `None` at end of stream.
    fn next_item(&mut self) -> Option<StreamItem>;
}

impl<I: Iterator<Item = StreamItem>> ReadingSource for I {
    fn next_item(&mut self) -> Option<StreamItem> {
        self.next()
    }
}

/// The inference stage of the pipeline: epoch batches in, location
/// events out. Implemented by `rfid_core`'s engine (and the baselines),
/// kept as a trait here so the stream crate stays independent of the
/// inference crates.
pub trait InferenceStage {
    /// Processes one synchronized epoch batch, appending the events due
    /// this epoch to `out` (which the pipeline reuses across epochs).
    fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>);
    /// Flushes pending reports at end of stream.
    fn finalize_into(&mut self, last_epoch: Epoch, out: &mut Vec<LocationEvent>);

    /// [`InferenceStage::process_batch_into`] into a fresh `Vec`.
    fn process_batch(&mut self, batch: &EpochBatch) -> Vec<LocationEvent> {
        let mut out = Vec::new();
        self.process_batch_into(batch, &mut out);
        out
    }

    /// [`InferenceStage::finalize_into`] into a fresh `Vec`.
    fn finalize(&mut self, last_epoch: Epoch) -> Vec<LocationEvent> {
        let mut out = Vec::new();
        self.finalize_into(last_epoch, &mut out);
        out
    }
}

/// A consumer of the cleaned event stream. All methods but
/// [`EventSink::on_event`] have defaults, so simple sinks stay simple.
pub trait EventSink {
    /// Called for every emitted event, in stream order.
    fn on_event(&mut self, event: &LocationEvent);
    /// Called after all of `epoch`'s events were delivered — the
    /// evaluation instant for relation-style operators (`Rstream`).
    fn on_epoch_complete(&mut self, _epoch: Epoch) {}
    /// Called once, after the final flush.
    fn on_finish(&mut self) {}
}

/// Collecting sink: the cleaned stream as a `Vec`.
impl EventSink for Vec<LocationEvent> {
    fn on_event(&mut self, event: &LocationEvent) {
        self.push(*event);
    }
}

/// Fan-out: one event stream feeding two sinks (nest tuples for more).
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    fn on_event(&mut self, event: &LocationEvent) {
        self.0.on_event(event);
        self.1.on_event(event);
    }
    fn on_epoch_complete(&mut self, epoch: Epoch) {
        self.0.on_epoch_complete(epoch);
        self.1.on_epoch_complete(epoch);
    }
    fn on_finish(&mut self) {
        self.0.on_finish();
        self.1.on_finish();
    }
}

/// Counters and buffer high-water marks of one pipeline run. The
/// `*_high_water` fields are the bounded-memory evidence: they depend
/// on the number of *concurrently open* epochs, not on trace length.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Raw readings pushed into the synchronizer.
    pub readings_in: u64,
    /// Raw reader-location reports pushed into the synchronizer.
    pub reports_in: u64,
    /// Epoch batches handed to the inference stage.
    pub epochs: u64,
    /// Deduplicated per-epoch readings processed by the stage (the
    /// denominator of readings/sec throughput, matching the batch API).
    pub batch_readings: u64,
    /// Events delivered to the sink.
    pub events: u64,
    /// Items dropped by the synchronizer because they arrived for an
    /// already-emitted epoch — stream skew beyond
    /// [`DEFAULT_MAX_SKEW_EPOCHS`]. Zero for every in-order source;
    /// nonzero makes data loss visible instead of silent.
    pub late_dropped: u64,
    /// Items refused by the synchronizer because their time maps to no
    /// epoch (NaN, infinite, or 2^64 epochs or more).
    pub refused: u64,
    /// Reports refused by the synchronizer because a coordinate or the
    /// heading is NaN or infinite.
    pub refused_poses: u64,
    /// Most epochs ever buffered inside the synchronizer at once.
    pub sync_pending_high_water: usize,
    /// Most drained-but-unprocessed batches ever held at once.
    pub batch_buffer_high_water: usize,
    /// Largest per-epoch event batch handed to the sink.
    pub event_buffer_high_water: usize,
}

/// Registry handles mirroring [`PipelineStats`] (see `rfid_obs`):
/// counters for the flow totals, ratcheting gauges for the buffer
/// high-water marks. Handles are registered once at pipeline
/// construction; per-batch mirroring is a handful of relaxed atomic
/// adds.
#[derive(Debug)]
struct PipelineMetrics {
    last: PipelineStats,
    readings: rfid_obs::Counter,
    reports: rfid_obs::Counter,
    epochs: rfid_obs::Counter,
    batch_readings: rfid_obs::Counter,
    events: rfid_obs::Counter,
    late_dropped: rfid_obs::Counter,
    refused: rfid_obs::Counter,
    refused_poses: rfid_obs::Counter,
    sync_pending_hw: rfid_obs::Gauge,
    batch_buffer_hw: rfid_obs::Gauge,
    event_buffer_hw: rfid_obs::Gauge,
}

impl PipelineMetrics {
    fn registered() -> Self {
        let r = rfid_obs::global();
        Self {
            last: PipelineStats::default(),
            readings: r.counter("pipeline_readings_total"),
            reports: r.counter("pipeline_reports_total"),
            epochs: r.counter("pipeline_epochs_total"),
            batch_readings: r.counter("pipeline_batch_readings_total"),
            events: r.counter("pipeline_events_total"),
            late_dropped: r.counter("pipeline_late_dropped_total"),
            refused: r.counter("pipeline_refused_total"),
            refused_poses: r.counter("pipeline_refused_poses_total"),
            sync_pending_hw: r.gauge("pipeline_sync_pending_high_water"),
            batch_buffer_hw: r.gauge("pipeline_batch_buffer_high_water"),
            event_buffer_hw: r.gauge("pipeline_event_buffer_high_water"),
        }
    }

    /// Records the progress since the last observation.
    fn observe(&mut self, stats: &PipelineStats) {
        let last = self.last;
        self.last = *stats;
        self.readings.add(stats.readings_in - last.readings_in);
        self.reports.add(stats.reports_in - last.reports_in);
        self.epochs.add(stats.epochs - last.epochs);
        self.batch_readings
            .add(stats.batch_readings - last.batch_readings);
        self.events.add(stats.events - last.events);
        self.late_dropped
            .add(stats.late_dropped - last.late_dropped);
        self.refused.add(stats.refused - last.refused);
        self.refused_poses
            .add(stats.refused_poses - last.refused_poses);
        self.sync_pending_hw
            .record_max(stats.sync_pending_high_water as u64);
        self.batch_buffer_hw
            .record_max(stats.batch_buffer_high_water as u64);
        self.event_buffer_hw
            .record_max(stats.event_buffer_high_water as u64);
    }
}

/// The pipeline driver: pulls raw items from a source, synchronizes
/// them into epochs, runs the inference stage, and routes events into
/// the sink — all incrementally, with reused internal buffers.
#[derive(Debug)]
pub struct Pipeline<Stage, Sink> {
    sync: StreamSynchronizer,
    stage: Stage,
    sink: Sink,
    stats: PipelineStats,
    metrics: PipelineMetrics,
    batch_buf: Vec<EpochBatch>,
    event_buf: Vec<LocationEvent>,
    last_epoch: Option<Epoch>,
    finished: bool,
}

/// The synchronizer's skew bound (epochs). The paper's raw streams
/// are "slightly out-of-sync" within an epoch; 4 leaves generous room
/// while keeping the buffer O(1) even when one stream goes silent for
/// thousands of epochs (e.g. a reader crossing a tag-free stretch).
pub const DEFAULT_MAX_SKEW_EPOCHS: u64 = 4;

impl<Stage: InferenceStage, Sink: EventSink> Pipeline<Stage, Sink> {
    /// Creates a pipeline with the given epoch length in seconds.
    pub fn new(epoch_len: f64, stage: Stage, sink: Sink) -> Self {
        Self {
            sync: StreamSynchronizer::new(epoch_len),
            stage,
            sink,
            stats: PipelineStats::default(),
            metrics: PipelineMetrics::registered(),
            batch_buf: Vec::new(),
            event_buf: Vec::new(),
            last_epoch: None,
            finished: false,
        }
    }

    /// Pushes one raw item and processes every epoch it completes.
    pub fn push(&mut self, item: StreamItem) {
        debug_assert!(!self.finished, "push after finish");
        match item {
            StreamItem::Reading(_) => self.stats.readings_in += 1,
            StreamItem::Report(_) => self.stats.reports_in += 1,
        }
        self.sync.push(item);
        self.stats.sync_pending_high_water = self
            .stats
            .sync_pending_high_water
            .max(self.sync.pending_epochs());
        self.stats.late_dropped = self.sync.late_dropped();
        self.stats.refused = self.sync.refused();
        self.stats.refused_poses = self.sync.refused_poses();
        self.sync.drain_ready_into(&mut self.batch_buf);
        self.process_buffered();
    }

    /// Drains a source to exhaustion through [`Pipeline::push`].
    pub fn run<Src: ReadingSource>(&mut self, source: &mut Src) {
        while let Some(item) = source.next_item() {
            self.push(item);
        }
    }

    /// End of stream: flushes the synchronizer, finalizes the stage,
    /// and notifies the sink. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.sync.flush_into(&mut self.batch_buf);
        self.process_buffered();
        let last = self.last_epoch.unwrap_or(Epoch(0));
        self.event_buf.clear();
        self.stage.finalize_into(last, &mut self.event_buf);
        self.route_events();
        self.sink.on_finish();
        self.metrics.observe(&self.stats);
    }

    /// Runs a source to exhaustion and finishes the pipeline, returning
    /// the run's statistics.
    pub fn run_to_completion<Src: ReadingSource>(&mut self, source: &mut Src) -> PipelineStats {
        self.run(source);
        self.finish();
        self.stats
    }

    /// Statistics so far.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The inference stage (e.g. to read engine statistics).
    pub fn stage(&self) -> &Stage {
        &self.stage
    }

    /// The sink (e.g. to read collected events or query output).
    pub fn sink(&self) -> &Sink {
        &self.sink
    }

    /// Decomposes the pipeline after a run.
    pub fn into_parts(self) -> (Stage, Sink, PipelineStats) {
        (self.stage, self.sink, self.stats)
    }

    fn process_buffered(&mut self) {
        self.stats.batch_buffer_high_water =
            self.stats.batch_buffer_high_water.max(self.batch_buf.len());
        if self.batch_buf.is_empty() {
            return;
        }
        // drain without freeing: the buffer is reused every epoch
        for i in 0..self.batch_buf.len() {
            let batch = &self.batch_buf[i];
            self.stats.epochs += 1;
            self.stats.batch_readings += batch.readings.len() as u64;
            self.last_epoch = Some(batch.epoch);
            self.event_buf.clear();
            self.stage.process_batch_into(batch, &mut self.event_buf);
            let epoch = batch.epoch;
            self.route_events();
            self.sink.on_epoch_complete(epoch);
        }
        self.batch_buf.clear();
        self.metrics.observe(&self.stats);
    }

    fn route_events(&mut self) {
        self.stats.event_buffer_high_water =
            self.stats.event_buffer_high_water.max(self.event_buf.len());
        self.stats.events += self.event_buf.len() as u64;
        for e in &self.event_buf {
            self.sink.on_event(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TagId;
    use rfid_geom::{Point3, Pose};

    /// A toy stage: echoes one event per reading in the batch.
    struct Echo;
    impl InferenceStage for Echo {
        fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>) {
            for tag in &batch.readings {
                out.push(LocationEvent::new(batch.epoch, *tag, Point3::origin()));
            }
        }
        fn finalize_into(&mut self, last_epoch: Epoch, out: &mut Vec<LocationEvent>) {
            out.push(LocationEvent::new(last_epoch, TagId(999), Point3::origin()));
        }
    }

    fn items(n: u64) -> Vec<StreamItem> {
        let mut v = Vec::new();
        for t in 0..n {
            let sec = t as f64;
            v.push(StreamItem::Report(ReaderLocationReport {
                time: sec,
                pose: Pose::new(Point3::new(0.0, sec, 0.0), 0.0),
            }));
            v.push(StreamItem::Reading(RfidReading {
                time: sec + 0.5,
                tag: TagId(t),
            }));
        }
        v
    }

    #[test]
    fn pipeline_processes_incrementally_with_bounded_buffers() {
        let mut p = Pipeline::new(1.0, Echo, Vec::new());
        let stats = p.run_to_completion(&mut items(50).into_iter());
        assert_eq!(stats.readings_in, 50);
        assert_eq!(stats.reports_in, 50);
        assert_eq!(stats.epochs, 50);
        // 50 echoes + 1 finalize marker
        assert_eq!(stats.events, 51);
        assert_eq!(p.sink().len(), 51);
        // watermark semantics keep at most the open epochs buffered,
        // independent of the trace length
        assert!(
            stats.sync_pending_high_water <= 2,
            "high water {}",
            stats.sync_pending_high_water
        );
        assert!(stats.batch_buffer_high_water <= 2);
    }

    #[test]
    fn high_water_is_flat_in_trace_length() {
        let run = |n: u64| {
            let mut p = Pipeline::new(1.0, Echo, Vec::new());
            p.run_to_completion(&mut items(n).into_iter())
        };
        let short = run(20);
        let long = run(200);
        assert_eq!(
            short.sync_pending_high_water, long.sync_pending_high_water,
            "synchronizer buffer must not grow with trace length"
        );
        assert_eq!(short.batch_buffer_high_water, long.batch_buffer_high_water);
    }

    #[test]
    fn finish_is_idempotent_and_flushes_tail() {
        let mut p = Pipeline::new(1.0, Echo, Vec::new());
        p.run(&mut items(3).into_iter());
        // the last epoch is still open (watermarks have not passed it)
        let before = p.stats().epochs;
        p.finish();
        p.finish();
        assert!(p.stats().epochs > before, "flush must emit the tail");
        assert_eq!(p.stats().epochs, 3);
        // exactly one finalize marker despite double finish
        let markers = p.sink().iter().filter(|e| e.tag == TagId(999)).count();
        assert_eq!(markers, 1);
    }

    #[test]
    fn tuple_sink_fans_out() {
        let mut p = Pipeline::new(1.0, Echo, (Vec::new(), Vec::new()));
        p.run_to_completion(&mut items(4).into_iter());
        let (a, b) = p.sink();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 5);
    }
}
