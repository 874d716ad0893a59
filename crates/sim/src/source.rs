//! Incremental [`rfid_stream::ReadingSource`] over a simulated trace.
//!
//! [`TraceStream`] borrows an already-generated [`crate::SimTrace`] and
//! merges its two raw streams in time order, one item per pull. It
//! yields [`StreamItem`]s, so it plugs into [`rfid_stream::Pipeline`]
//! directly (every `Iterator<Item = StreamItem>` is a
//! `ReadingSource`).

use rfid_stream::{ReaderLocationReport, RfidReading, StreamItem};

/// The two raw streams of a [`crate::generator::SimTrace`], merged in
/// time order. Ties go to the reading, and each stream keeps its own
/// order (report averaging is order-sensitive only *within* the report
/// stream), so no item is ever late for the synchronizer:
/// [`crate::generator::SimTrace::epoch_batches`] is this stream,
/// synchronized.
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
}
