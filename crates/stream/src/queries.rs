//! The paper's two example queries (§II-B), runnable against the
//! cleaned event stream.
//!
//! Both queries "require reliable knowledge of the object location,
//! which is unavailable without processing and transforming the raw
//! data streams" — they are the demonstration that the inference
//! engine's output is readily queriable.

use crate::event::{LocationEvent, TagId};
use crate::operators::{group_sum, having, ChangeDetector, RangeWindow, Rstream};
use rfid_geom::Point3;
use std::collections::BTreeMap;

/// Query 1 — location updates:
///
/// ```text
/// Select Istream(E.tag_id, E.(x, y, z))
/// From EventStream E [Partition By tag_id Row 1]
/// ```
///
/// Emits `(tag, location)` whenever a tag's most recent location moved
/// by more than `threshold` feet from its previously-reported one
/// (threshold 0 reproduces exact CQL semantics; a small positive value
/// suppresses estimator jitter).
#[derive(Debug, Clone)]
pub struct LocationChangeQuery {
    detector: ChangeDetector<TagId, Point3>,
    threshold: f64,
}

impl LocationChangeQuery {
    /// Creates the query with a movement threshold in feet.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0);
        Self {
            detector: ChangeDetector::new(),
            threshold,
        }
    }

    /// Feeds one event; returns the output tuple if the query fires.
    pub fn push(&mut self, event: &LocationEvent) -> Option<(TagId, Point3)> {
        let th = self.threshold;
        self.detector
            .push_with(event.tag, event.location, move |prev, new| {
                prev.dist(new) <= th
            })
            .map(|loc| (event.tag, loc))
    }

    /// Number of distinct tags reported so far.
    pub fn num_tags(&self) -> usize {
        self.detector.num_partitions()
    }
}

/// A square-foot area identifier: the integer-floored `(x, y)` cell of
/// a location — the paper's `SquareFtArea(E.(x, y, z))` function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SquareFtArea {
    pub x: i64,
    pub y: i64,
}

impl SquareFtArea {
    /// The cell containing `p`.
    pub fn of(p: &Point3) -> Self {
        Self {
            x: p.x.floor() as i64,
            y: p.y.floor() as i64,
        }
    }
}

/// Query 2 — fire-code violations:
///
/// ```text
/// Select Rstream(E2.area, sum(E2.weight))
/// From (Select Rstream(*, SquareFtArea(E.(x,y,z)) As area,
///                         Weight(E.tag_id) As weight)
///       From EventStream E [Now]) E2 [Range 5 seconds]
/// Group By E2.area
/// Having sum(E2.weight) > 200 pounds
/// ```
///
/// The inner query annotates each event with its square-foot area and
/// object weight; the outer query sums weights per area over a 5-second
/// window and reports areas exceeding the limit.
pub struct FireCodeQuery<W: Fn(TagId) -> f64> {
    window: RangeWindow<(TagId, SquareFtArea, f64)>,
    weight_fn: W,
    limit: f64,
    output: Rstream<(SquareFtArea, f64)>,
}

impl<W: Fn(TagId) -> f64> FireCodeQuery<W> {
    /// Creates the query with a window length in seconds, a weight
    /// lookup (the paper's `Weight(E.tag_id)` function), and the limit
    /// in pounds (200 in the paper).
    pub fn new(window_seconds: f64, weight_fn: W, limit: f64) -> Self {
        Self {
            window: RangeWindow::new(window_seconds),
            weight_fn,
            limit,
            output: Rstream::new(),
        }
    }

    /// Feeds one event at wall-clock `time` seconds.
    pub fn push(&mut self, time: f64, event: &LocationEvent) {
        let area = SquareFtArea::of(&event.location);
        let weight = (self.weight_fn)(event.tag);
        self.window.push(time, (event.tag, area, weight));
    }

    /// Evaluates the query at `time`: returns every `(area, total)`
    /// whose summed weight exceeds the limit, and records the emission.
    ///
    /// Within the window, an object contributes its weight once per
    /// area (the most recent report wins) — summing duplicates would
    /// double-count stationary objects re-reported within the window.
    pub fn evaluate(&mut self, time: f64) -> Vec<(SquareFtArea, f64)> {
        self.window.advance(time);
        // newest report per tag wins
        let mut latest: BTreeMap<TagId, (SquareFtArea, f64)> = BTreeMap::new();
        for (_, (tag, area, weight)) in self.window.iter() {
            latest.insert(*tag, (*area, *weight));
        }
        let groups = group_sum(latest.into_values(), |(a, _)| *a, |(_, w)| *w);
        let limit = self.limit;
        let violations: Vec<(SquareFtArea, f64)> =
            having(groups, |v| v > limit).into_iter().collect();
        self.output.emit(time, violations.clone());
        violations
    }

    /// The emission log (one entry per [`FireCodeQuery::evaluate`] call).
    pub fn emissions(&self) -> &[(f64, Vec<(SquareFtArea, f64)>)] {
        self.output.emissions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Epoch;

    fn event(tag: u64, x: f64, y: f64) -> LocationEvent {
        LocationEvent::new(Epoch(0), TagId(tag), Point3::new(x, y, 0.0))
    }

    #[test]
    fn location_query_emits_on_first_and_change() {
        let mut q = LocationChangeQuery::new(0.1);
        assert!(q.push(&event(1, 0.0, 0.0)).is_some());
        assert!(q.push(&event(1, 0.05, 0.0)).is_none()); // jitter suppressed
        assert!(q.push(&event(1, 0.5, 0.0)).is_some()); // real move
        assert_eq!(q.num_tags(), 1);
    }

    #[test]
    fn location_query_zero_threshold_is_exact() {
        let mut q = LocationChangeQuery::new(0.0);
        assert!(q.push(&event(1, 1.0, 1.0)).is_some());
        assert!(q.push(&event(1, 1.0, 1.0)).is_none());
        assert!(q.push(&event(1, 1.0, 1.0000001)).is_some());
    }

    #[test]
    fn square_ft_area_floors() {
        assert_eq!(
            SquareFtArea::of(&Point3::new(1.7, -0.3, 0.0)),
            SquareFtArea { x: 1, y: -1 }
        );
    }

    #[test]
    fn fire_code_detects_violation() {
        // two 150-lb objects in the same square foot: 300 > 200
        let mut q = FireCodeQuery::new(5.0, |_| 150.0, 200.0);
        q.push(0.0, &event(1, 3.2, 3.3));
        q.push(1.0, &event(2, 3.8, 3.9));
        let v = q.evaluate(1.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, SquareFtArea { x: 3, y: 3 });
        assert!((v[0].1 - 300.0).abs() < 1e-12);
    }

    #[test]
    fn fire_code_objects_in_different_cells_no_violation() {
        let mut q = FireCodeQuery::new(5.0, |_| 150.0, 200.0);
        q.push(0.0, &event(1, 3.2, 3.3));
        q.push(1.0, &event(2, 10.0, 3.9));
        assert!(q.evaluate(1.0).is_empty());
    }

    #[test]
    fn fire_code_window_expiry_clears_violation() {
        let mut q = FireCodeQuery::new(5.0, |_| 150.0, 200.0);
        q.push(0.0, &event(1, 3.2, 3.3));
        q.push(0.0, &event(2, 3.8, 3.9));
        assert_eq!(q.evaluate(0.0).len(), 1);
        // ten seconds later both reports expired
        assert!(q.evaluate(10.0).is_empty());
        assert_eq!(q.emissions().len(), 2);
    }

    #[test]
    fn fire_code_dedups_repeated_reports_of_same_object() {
        // one object reported five times within the window must count once
        let mut q = FireCodeQuery::new(5.0, |_| 250.0, 200.0);
        for i in 0..5 {
            q.push(i as f64 * 0.5, &event(1, 3.2, 3.3));
        }
        let v = q.evaluate(2.5);
        assert_eq!(v.len(), 1);
        assert!((v[0].1 - 250.0).abs() < 1e-12, "got {}", v[0].1);
    }

    #[test]
    fn fire_code_object_moving_between_cells_counts_in_latest() {
        let mut q = FireCodeQuery::new(5.0, |_| 250.0, 200.0);
        q.push(0.0, &event(1, 3.5, 3.5));
        q.push(1.0, &event(1, 8.5, 8.5)); // moved
        let v = q.evaluate(1.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, SquareFtArea { x: 8, y: 8 });
    }
}
