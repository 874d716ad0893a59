//! The `uniform` baseline of §V-B: "uniformly randomly samples an
//! object's location over the overlapping area of the sensor model and
//! the shelf. This baseline is used as a bound on the worst-case
//! inference error."
//!
//! Being the worst-case bound, the estimate is a *single* uniform
//! sample over `read range ∩ shelf`, drawn at one of the tag's reading
//! epochs (reservoir-sampled so every reading is equally likely to be
//! the one used). Averaging the samples would smuggle smoothing into
//! the bound. Events are emitted when a tag stops being read for
//! `scope_gap` epochs (and at end of trace).

use crate::common::{nearest_shelf, sample_range_shelf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_geom::{Aabb, Point3};
use rfid_stream::{Epoch, EpochBatch, EventStats, InferenceStage, LocationEvent, TagId};
use std::collections::{BTreeMap, BTreeSet};

/// The uniform-sampling baseline.
pub struct UniformBaseline {
    read_range: f64,
    shelves: Vec<Aabb>,
    scope_gap: u64,
    /// Per tag: (reservoir sample, #readings seen, last read, in scope).
    tags: BTreeMap<TagId, (Point3, usize, Epoch, bool)>,
    ignored: BTreeSet<TagId>,
    rng: StdRng,
}

impl UniformBaseline {
    /// Creates the baseline with the sensor read range and shelf area;
    /// `ignored` lists non-object (reference) tags.
    pub fn new(
        read_range: f64,
        shelves: Vec<Aabb>,
        ignored: impl IntoIterator<Item = TagId>,
        seed: u64,
    ) -> Self {
        assert!(!shelves.is_empty());
        Self {
            read_range,
            shelves,
            scope_gap: 20,
            tags: BTreeMap::new(),
            ignored: ignored.into_iter().collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of tags seen.
    pub fn num_tags(&self) -> usize {
        self.tags.len()
    }
}

impl InferenceStage for UniformBaseline {
    /// Processes one epoch batch; appends events for tags that left
    /// scope, sorted by tag.
    fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>) {
        let epoch = batch.epoch;
        let before = out.len();
        if let Some(rep) = batch.reader_report {
            for tag in &batch.readings {
                if self.ignored.contains(tag) {
                    continue;
                }
                let shelf = nearest_shelf(&self.shelves, &rep);
                let sample = sample_range_shelf(&rep.pos, self.read_range, shelf, &mut self.rng);
                let entry = self
                    .tags
                    .entry(*tag)
                    .or_insert_with(|| (sample, 0, epoch, true));
                // reservoir of size one over the tag's readings
                entry.1 += 1;
                if entry.1 == 1 || self.rng.gen_range(0..entry.1) == 0 {
                    entry.0 = sample;
                }
                entry.2 = epoch;
                entry.3 = true;
            }
        }
        // flush tags that have gone silent
        for (tag, (sample, count, last_read, in_scope)) in self.tags.iter_mut() {
            if *in_scope && epoch.since(*last_read) > self.scope_gap {
                *in_scope = false;
                out.push(
                    LocationEvent::new(epoch, *tag, *sample).with_stats(EventStats {
                        var: [0.0; 3],
                        support: *count as f64,
                    }),
                );
                *count = 0;
            }
        }
        out[before..].sort_by_key(|e| e.tag);
    }

    /// Flushes all pending tags.
    fn finalize_into(&mut self, last_epoch: Epoch, out: &mut Vec<LocationEvent>) {
        let before = out.len();
        for (tag, (sample, count, _, in_scope)) in self.tags.iter_mut() {
            if *in_scope {
                *in_scope = false;
                out.push(
                    LocationEvent::new(last_epoch, *tag, *sample).with_stats(EventStats {
                        var: [0.0; 3],
                        support: *count as f64,
                    }),
                );
                *count = 0;
            }
        }
        out[before..].sort_by_key(|e| e.tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Pose;

    fn shelf() -> Aabb {
        Aabb::new(Point3::new(1.7, 0.0, 0.0), Point3::new(2.4, 20.0, 0.0))
    }

    fn batch(epoch: u64, reader_y: f64, tags: &[u64]) -> EpochBatch {
        EpochBatch {
            epoch: Epoch(epoch),
            readings: tags.iter().map(|t| TagId(*t)).collect(),
            reader_report: Some(Pose::new(Point3::new(0.0, reader_y, 0.0), 0.0)),
        }
    }

    #[test]
    fn estimates_lie_on_shelf() {
        let mut u = UniformBaseline::new(4.0, vec![shelf()], [], 1);
        for t in 0..10u64 {
            u.process_batch(&batch(t, 3.0 + 0.1 * t as f64, &[7]));
        }
        let events = u.finalize(Epoch(10));
        assert_eq!(events.len(), 1);
        assert!(shelf().contains(&events[0].location));
    }

    #[test]
    fn single_sample_spreads_over_shelf_depth() {
        // The estimate is one uniform sample: across seeds, x errors
        // relative to the shelf front average about half the depth —
        // the "strictly half of the shelf size in x" the paper notes.
        let mut sum = 0.0;
        let n = 200;
        for seed in 0..n {
            let mut u = UniformBaseline::new(6.0, vec![shelf()], [], seed);
            for t in 0..20u64 {
                u.process_batch(&batch(t, 3.0, &[7]));
            }
            let events = u.finalize(Epoch(20));
            sum += (events[0].location.x - 1.7).abs(); // tag at shelf front
        }
        let mean = sum / n as f64;
        // shelf depth 0.7 => expected mean error ~0.35
        assert!((mean - 0.35).abs() < 0.08, "mean x error {mean}");
    }

    #[test]
    fn scope_gap_emits_intermediate_event() {
        let mut u = UniformBaseline::new(4.0, vec![shelf()], [], 3);
        let mut events = Vec::new();
        for t in 0..5u64 {
            events.extend(u.process_batch(&batch(t, 3.0, &[7])));
        }
        for t in 5..40u64 {
            events.extend(u.process_batch(&batch(t, 3.0, &[])));
        }
        assert_eq!(events.len(), 1, "event on leaving scope");
        assert_eq!(u.finalize(Epoch(40)).len(), 0, "nothing left to flush");
    }

    #[test]
    fn ignored_tags_skipped() {
        let mut u = UniformBaseline::new(4.0, vec![shelf()], [TagId(9)], 4);
        u.process_batch(&batch(0, 3.0, &[9]));
        assert_eq!(u.num_tags(), 0);
    }
}
