//! Incremental [`rfid_stream::ReadingSource`]s over simulated traces.
//!
//! Two ways to feed the streaming pipeline:
//!
//! * [`TraceStream`] — borrows an already-generated [`crate::SimTrace`] and
//!   merges its two raw streams in time order, one item per pull;
//! * [`EpochStreamSource`] — wraps an [`EpochSim`] so the trace is
//!   *generated on demand*, epoch by epoch: nothing is materialized
//!   beyond the current epoch's items, no matter how long the run.
//!
//! Both yield [`StreamItem`]s, so they plug into
//! [`rfid_stream::Pipeline`] directly (every `Iterator<Item =
//! StreamItem>` is a `ReadingSource`).

use crate::generator::EpochSim;
use crate::truth::GroundTruth;
use rand::Rng;
use rfid_model::ReadRateModel;
use rfid_stream::{ReaderLocationReport, RfidReading, StreamItem};
use std::collections::VecDeque;

/// The two raw streams of a [`crate::generator::SimTrace`], merged in
/// time order. Ties go to the reading, matching the push order of
/// `synchronize_traces` within an epoch (report averaging is
/// order-sensitive only *within* the report stream, whose order is
/// preserved).
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    readings: &'a [RfidReading],
    reports: &'a [ReaderLocationReport],
    ri: usize,
    pi: usize,
}

impl<'a> TraceStream<'a> {
    /// Merges the given streams (each must be non-decreasing in time,
    /// which generated traces are by construction).
    pub fn new(readings: &'a [RfidReading], reports: &'a [ReaderLocationReport]) -> Self {
        Self {
            readings,
            reports,
            ri: 0,
            pi: 0,
        }
    }
}

impl Iterator for TraceStream<'_> {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        let next_reading = self.readings.get(self.ri);
        let next_report = self.reports.get(self.pi);
        match (next_reading, next_report) {
            (Some(r), Some(p)) => {
                if r.time <= p.time {
                    self.ri += 1;
                    Some(StreamItem::Reading(*r))
                } else {
                    self.pi += 1;
                    Some(StreamItem::Report(*p))
                }
            }
            (Some(r), None) => {
                self.ri += 1;
                Some(StreamItem::Reading(*r))
            }
            (None, Some(p)) => {
                self.pi += 1;
                Some(StreamItem::Report(*p))
            }
            (None, None) => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.readings.len() - self.ri) + (self.reports.len() - self.pi);
        (n, Some(n))
    }
}

/// A live generative source: generates epochs one at a time as the
/// pipeline consumes items. Within an epoch the report (stamped at the
/// epoch start) precedes the readings (stamped mid-epoch), so the
/// merged order matches [`TraceStream`] over a materialized trace.
#[derive(Debug)]
pub struct EpochStreamSource<S: ReadRateModel, R: Rng> {
    sim: EpochSim<S, R>,
    queue: VecDeque<StreamItem>,
}

impl<S: ReadRateModel, R: Rng> EpochStreamSource<S, R> {
    /// Wraps a simulator positioned at its first epoch.
    pub(crate) fn new(sim: EpochSim<S, R>) -> Self {
        Self {
            sim,
            queue: VecDeque::new(),
        }
    }

    /// The epoch length of the generated streams, in seconds.
    pub fn epoch_len(&self) -> f64 {
        self.sim.epoch_len()
    }

    /// Ground truth generated so far (complete after exhaustion) — for
    /// scoring the pipeline's events after the run.
    pub fn truth(&self) -> &GroundTruth {
        self.sim.truth()
    }
}

impl<S: ReadRateModel, R: Rng> Iterator for EpochStreamSource<S, R> {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        loop {
            if let Some(item) = self.queue.pop_front() {
                return Some(item);
            }
            let out = self.sim.next_epoch()?;
            self.queue.push_back(StreamItem::Report(out.report));
            for r in out.readings {
                self.queue.push_back(StreamItem::Reading(*r));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::layout::WarehouseLayout;
    use crate::trajectory::Trajectory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_geom::Point3;
    use rfid_model::ConeSensor;
    use rfid_stream::TagId;

    type Placements = Vec<(TagId, Point3)>;

    fn setup() -> (WarehouseLayout, Trajectory, Placements, Placements) {
        let layout = WarehouseLayout::linear(1, 10.0, 0.5, 2.0, 0.0);
        let traj = Trajectory::linear_scan(10.0, 0.1);
        let objects: Vec<(TagId, Point3)> = layout
            .object_slots(10)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (TagId(i as u64), p))
            .collect();
        let shelves = layout.shelf_tags(4);
        (layout, traj, objects, shelves)
    }

    #[test]
    fn trace_stream_yields_every_item_in_time_order() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator::new(ConeSensor::paper_default());
        let mut rng = StdRng::seed_from_u64(12);
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        let items: Vec<StreamItem> = trace.stream().collect();
        assert_eq!(items.len(), trace.readings.len() + trace.reports.len());
        let mut last = f64::NEG_INFINITY;
        for item in &items {
            let t = match item {
                StreamItem::Reading(r) => r.time,
                StreamItem::Report(p) => p.time,
            };
            assert!(t >= last, "out of order: {t} after {last}");
            last = t;
        }
    }

    #[test]
    fn live_source_reproduces_the_materialized_trace() {
        // same seed: the streamed items must be exactly the merged
        // materialized trace, and the truth must match
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator::new(ConeSensor::paper_default());
        let mut rng = StdRng::seed_from_u64(13);
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        let live = gen.stream(&traj, &objects, &shelves, &[], StdRng::seed_from_u64(13));
        let live_items: Vec<StreamItem> = live.collect();
        let merged: Vec<StreamItem> = trace.stream().collect();
        assert_eq!(live_items.len(), merged.len());
        for (a, b) in live_items.iter().zip(&merged) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn live_source_accumulates_truth() {
        let (_, traj, objects, shelves) = setup();
        let gen = TraceGenerator::new(ConeSensor::paper_default());
        let mut live = gen.stream(&traj, &objects, &shelves, &[], StdRng::seed_from_u64(14));
        while live.next().is_some() {}
        assert_eq!(live.truth().num_epochs(), traj.num_steps() + 1);
        assert_eq!(live.truth().num_objects(), 10);
    }
}
