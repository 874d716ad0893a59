//! Ground truth for error measurement.
//!
//! Records the true reader pose per epoch and each object's true
//! location over time (as a change list, since objects move rarely).
//! Departures are tombstones in the same list: an object that leaves
//! the warehouse has no true location from that epoch on, and any
//! event reported for it is a phantom.

use rfid_geom::{Point3, Pose};
use rfid_stream::{Epoch, TagId};
use std::collections::BTreeMap;

/// Per-object location history: `(epoch_from, location)` entries sorted
/// by epoch; the location holds until the next entry. `None` entries
/// are departure tombstones (the object is absent until it re-arrives).
#[derive(Debug, Clone, Default)]
struct ObjectHistory {
    changes: Vec<(Epoch, Option<Point3>)>,
}

impl ObjectHistory {
    fn at(&self, epoch: Epoch) -> Option<Point3> {
        // Last change at or before `epoch`. Same-epoch duplicates (a
        // relocation and a departure recorded in one epoch) resolve to
        // the latest entry in insertion order — binary_search would
        // land on an arbitrary one of the duplicates.
        let i = self.changes.partition_point(|(e, _)| *e <= epoch);
        if i == 0 {
            None
        } else {
            self.changes[i - 1].1
        }
    }
}

/// The complete ground truth of a generated trace.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    reader: Vec<(Epoch, Pose)>,
    objects: BTreeMap<TagId, ObjectHistory>,
}

impl GroundTruth {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the true reader pose of an epoch (must be pushed in
    /// epoch order).
    pub(crate) fn push_reader(&mut self, epoch: Epoch, pose: Pose) {
        debug_assert!(self.reader.last().is_none_or(|(e, _)| *e < epoch));
        self.reader.push((epoch, pose));
    }

    /// Records a (re)location of an object effective from `epoch`.
    pub fn set_object(&mut self, tag: TagId, epoch: Epoch, loc: Point3) {
        let h = self.objects.entry(tag).or_default();
        debug_assert!(h.changes.last().is_none_or(|(e, _)| *e <= epoch));
        h.changes.push((epoch, Some(loc)));
    }

    /// Records that an object departed (has no true location) from
    /// `epoch` on. Events reported for it at later epochs score as
    /// phantoms. The object must currently be present: a
    /// tombstone-first history would inflate `num_objects` (the recall
    /// denominator) with an object that never existed.
    pub fn remove_object(&mut self, tag: TagId, epoch: Epoch) {
        let h = self.objects.entry(tag).or_default();
        debug_assert!(
            h.changes.last().is_some_and(|(_, loc)| loc.is_some()),
            "remove_object on an absent object"
        );
        debug_assert!(h.changes.last().is_none_or(|(e, _)| *e <= epoch));
        h.changes.push((epoch, None));
    }

    /// The true reader pose at an epoch.
    pub fn reader_at(&self, epoch: Epoch) -> Option<Pose> {
        match self.reader.binary_search_by_key(&epoch, |(e, _)| *e) {
            Ok(i) => Some(self.reader[i].1),
            Err(_) => None,
        }
    }

    /// The true location of an object at an epoch (`None` before it
    /// first appears).
    pub fn object_at(&self, tag: TagId, epoch: Epoch) -> Option<Point3> {
        self.objects.get(&tag).and_then(|h| h.at(epoch))
    }

    /// All tracked object tags (including ones that have departed).
    pub fn object_tags(&self) -> impl Iterator<Item = TagId> + '_ {
        self.objects.keys().copied()
    }

    /// The raw change list of an object: `(epoch_from, location)`
    /// entries in epoch order, `None` marking a departure.
    pub fn object_changes(&self, tag: TagId) -> impl Iterator<Item = (Epoch, Option<Point3>)> + '_ {
        self.objects
            .get(&tag)
            .into_iter()
            .flat_map(|h| h.changes.iter().copied())
    }

    /// Every *relocation*: a new location recorded for an object that
    /// already had one (a move, or a re-arrival after a departure).
    /// The initial placement does not count, and neither does an entry
    /// superseded by a later change in the *same* epoch (it was never
    /// observable — [`GroundTruth::object_at`] resolves same-epoch
    /// duplicates to the last entry). Yields
    /// `(tag, epoch, new_location)` in (tag, epoch) order — the ground
    /// truth a change-detection-delay metric scores against.
    pub fn relocations(&self) -> impl Iterator<Item = (TagId, Epoch, Point3)> + '_ {
        self.objects.iter().flat_map(|(tag, h)| {
            h.changes
                .iter()
                .enumerate()
                .filter_map(move |(i, (e, loc))| {
                    let last_at_epoch = h.changes.get(i + 1).is_none_or(|(next, _)| *next != *e);
                    match (i, loc, last_at_epoch) {
                        (0, _, _) | (_, None, _) | (_, _, false) => None,
                        (_, Some(p), true) => Some((*tag, *e, *p)),
                    }
                })
        })
    }

    /// Number of tracked objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of recorded reader epochs.
    pub fn num_epochs(&self) -> usize {
        self.reader.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_lookup_exact() {
        let mut g = GroundTruth::new();
        g.push_reader(Epoch(0), Pose::identity());
        g.push_reader(Epoch(1), Pose::new(Point3::new(0.0, 0.1, 0.0), 0.0));
        assert!(g.reader_at(Epoch(1)).is_some());
        assert!(g.reader_at(Epoch(5)).is_none());
        assert_eq!(g.num_epochs(), 2);
    }

    #[test]
    fn object_history_holds_until_change() {
        let mut g = GroundTruth::new();
        let tag = TagId(3);
        g.set_object(tag, Epoch(0), Point3::new(1.0, 1.0, 0.0));
        g.set_object(tag, Epoch(10), Point3::new(5.0, 5.0, 0.0));
        assert_eq!(g.object_at(tag, Epoch(0)).unwrap().x, 1.0);
        assert_eq!(g.object_at(tag, Epoch(9)).unwrap().x, 1.0);
        assert_eq!(g.object_at(tag, Epoch(10)).unwrap().x, 5.0);
        assert_eq!(g.object_at(tag, Epoch(99)).unwrap().x, 5.0);
    }

    #[test]
    fn unknown_object_is_none() {
        let g = GroundTruth::new();
        assert!(g.object_at(TagId(9), Epoch(0)).is_none());
        assert_eq!(g.num_objects(), 0);
    }

    #[test]
    fn before_first_appearance_is_none() {
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(5), Point3::origin());
        assert!(g.object_at(TagId(1), Epoch(4)).is_none());
        assert!(g.object_at(TagId(1), Epoch(5)).is_some());
    }

    #[test]
    fn departure_tombstone_ends_presence() {
        let mut g = GroundTruth::new();
        let tag = TagId(7);
        g.set_object(tag, Epoch(0), Point3::new(1.0, 2.0, 0.0));
        g.remove_object(tag, Epoch(10));
        assert!(g.object_at(tag, Epoch(9)).is_some());
        assert!(g.object_at(tag, Epoch(10)).is_none());
        assert!(g.object_at(tag, Epoch(500)).is_none());
        // re-arrival after a departure
        g.set_object(tag, Epoch(20), Point3::new(3.0, 4.0, 0.0));
        assert_eq!(g.object_at(tag, Epoch(25)).unwrap().x, 3.0);
        // the tag is still tracked (it existed at some epoch)
        assert_eq!(g.num_objects(), 1);
    }

    #[test]
    fn same_epoch_move_then_departure_resolves_to_departure() {
        // a MovementEvent and a ChurnEvent::Depart can share an epoch:
        // the later entry (the tombstone) must win at that epoch
        let mut g = GroundTruth::new();
        let tag = TagId(4);
        g.set_object(tag, Epoch(0), Point3::origin());
        g.set_object(tag, Epoch(5), Point3::new(0.0, 3.0, 0.0));
        g.remove_object(tag, Epoch(5));
        assert!(g.object_at(tag, Epoch(4)).is_some());
        assert!(g.object_at(tag, Epoch(5)).is_none());
        assert!(g.object_at(tag, Epoch(6)).is_none());
        // and the reverse order: a re-arrival in the departure's epoch
        let tag2 = TagId(5);
        g.set_object(tag2, Epoch(0), Point3::origin());
        g.remove_object(tag2, Epoch(7));
        g.set_object(tag2, Epoch(7), Point3::new(0.0, 9.0, 0.0));
        assert_eq!(g.object_at(tag2, Epoch(7)).unwrap().y, 9.0);
    }

    #[test]
    fn relocations_skip_initial_placements_and_tombstones() {
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(0), Point3::origin()); // initial
        g.set_object(TagId(1), Epoch(8), Point3::new(0.0, 5.0, 0.0)); // move
        g.remove_object(TagId(1), Epoch(12)); // departure
        g.set_object(TagId(1), Epoch(20), Point3::new(0.0, 9.0, 0.0)); // re-arrival
        g.set_object(TagId(2), Epoch(15), Point3::origin()); // late arrival, no move
        let r: Vec<_> = g.relocations().collect();
        assert_eq!(
            r,
            vec![
                (TagId(1), Epoch(8), Point3::new(0.0, 5.0, 0.0)),
                (TagId(1), Epoch(20), Point3::new(0.0, 9.0, 0.0)),
            ]
        );
        assert_eq!(g.object_changes(TagId(1)).count(), 4);
        assert_eq!(g.object_changes(TagId(9)).count(), 0);
    }

    #[test]
    fn relocations_skip_moves_superseded_in_the_same_epoch() {
        // a move immediately tombstoned in its own epoch was never
        // observable: it must not inflate the change-detection total
        let mut g = GroundTruth::new();
        g.set_object(TagId(1), Epoch(0), Point3::origin());
        g.set_object(TagId(1), Epoch(5), Point3::new(0.0, 3.0, 0.0));
        g.remove_object(TagId(1), Epoch(5));
        assert_eq!(g.relocations().count(), 0);
        // a same-epoch double move keeps only the observable (last) one
        g.set_object(TagId(1), Epoch(9), Point3::new(0.0, 4.0, 0.0));
        g.set_object(TagId(1), Epoch(9), Point3::new(0.0, 6.0, 0.0));
        let r: Vec<_> = g.relocations().collect();
        assert_eq!(r, vec![(TagId(1), Epoch(9), Point3::new(0.0, 6.0, 0.0))]);
    }
}
