//! The simulated lab deployment of §V-C.
//!
//! The paper's rig: "two parallel shelves (assumed to be along the y
//! axis), containing 80 EPC Gen2 Class 1 tags spaced four inches apart.
//! Each shelf has five evenly-spaced reference tags whose true positions
//! are known. ... a bi-static antenna connected to a ThingMagic Mercury5
//! RFID reader on an iRobot Create robot ... programmed to scan one row
//! of tags and turn around to scan the other, at a speed of .1 foot/sec
//! with readings performed once per second. The robot computed its
//! location using dead reckoning, with error in reported location up to
//! 1 foot away from its true location."
//!
//! We reproduce that rig as a generative process (see DESIGN.md §5):
//! the antenna is the [`SphericalSensor`] whose read rate depends on the
//! reader timeout (250/500/750 ms), and dead reckoning accumulates
//! drift along the direction of travel.

use crate::generator::{SimTrace, TraceGenerator};
use crate::layout::{WarehouseLayout, SHELF_TAG_BASE};
use crate::noise::{DeadReckoning, ReportNoise};
use crate::trajectory::Trajectory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_geom::{Aabb, Point3, Vec3};
use rfid_model::{MultiBoxPrior, SphericalSensor};
use rfid_stream::TagId;

/// Tags per shelf row (80 total across the two rows).
pub(crate) const TAGS_PER_ROW: usize = 40;
/// Tag spacing: four inches, in feet.
pub(crate) const TAG_SPACING: f64 = 4.0 / 12.0;
/// Reference (known-position) tags per shelf.
pub(crate) const REFERENCE_TAGS_PER_ROW: usize = 5;
/// Distance from the robot aisle to each shelf row, feet.
pub(crate) const ROW_STANDOFF: f64 = 1.5;

/// The lab world: two parallel rows of tags and the scan plan.
#[derive(Debug, Clone)]
pub struct LabDeployment {
    /// Object tags with true locations (row A then row B).
    pub objects: Vec<(TagId, Point3)>,
    /// Reference tags with known locations.
    pub reference_tags: Vec<(TagId, Point3)>,
    /// The robot's scan plan: up row A, turn, down row B.
    pub trajectory: Trajectory,
    /// A layout wrapping the two rows (serves as the location prior).
    pub layout: WarehouseLayout,
}

impl LabDeployment {
    /// Builds the standard §V-C rig.
    pub fn standard() -> Self {
        let row_len = TAGS_PER_ROW as f64 * TAG_SPACING;
        // Row A at x = +standoff, row B at x = -standoff. The layout
        // type models shelves at positive x; for the prior we use a
        // single layout spanning both rows' y-range with a widened
        // tolerance — sampling restricted per-row is handled by the
        // imagined-shelf boxes below.
        let layout = WarehouseLayout::linear(
            1,
            row_len,
            2.0 * ROW_STANDOFF + 1.0,
            -ROW_STANDOFF - 0.5,
            0.0,
        );

        let mut objects = Vec::new();
        let mut reference_tags = Vec::new();
        let mut ref_id = SHELF_TAG_BASE;
        for (row, x) in [(0usize, ROW_STANDOFF), (1usize, -ROW_STANDOFF)] {
            // reference tags: five evenly spaced along the row
            for i in 0..REFERENCE_TAGS_PER_ROW {
                let y = (i as f64 + 0.5) * row_len / REFERENCE_TAGS_PER_ROW as f64;
                reference_tags.push((TagId(ref_id), Point3::new(x, y, 0.0)));
                ref_id += 1;
            }
            // object tags: forty spaced 4 in apart
            for i in 0..TAGS_PER_ROW {
                let id = (row * TAGS_PER_ROW + i) as u64;
                let y = (i as f64 + 0.5) * TAG_SPACING;
                objects.push((TagId(id), Point3::new(x, y, 0.0)));
            }
        }

        let trajectory = Trajectory::lab_two_rows(row_len, 0.1, 10);
        Self {
            objects,
            reference_tags,
            trajectory,
            layout,
        }
    }

    /// Generates a trace at the given reader timeout (250/500/750 ms in
    /// the paper's sweep).
    pub fn generate(&self, timeout_ms: u32, seed: u64) -> SimTrace {
        let gen = TraceGenerator {
            report_noise: ReportNoise::DeadReckoning(DeadReckoning::lab_default()),
            motion_sigma: Vec3::new(0.005, 0.01, 0.0),
            ..TraceGenerator::new(SphericalSensor::for_timeout_ms(timeout_ms))
        };
        let mut rng = StdRng::seed_from_u64(seed);
        gen.generate(
            &self.layout,
            &self.trajectory,
            &self.objects,
            &self.reference_tags,
            &[],
            &mut rng,
        )
    }

    /// The "imagined shelf" sampling restriction of Fig. 6(b): a box
    /// around shelf row `row` (0 = +x row, 1 = -x row). The small shelf
    /// is 0.66 ft deep (in x) by the row length; the large one 2.6 ft
    /// deep. Both are 4 ft longer than strictly needed in y, matching
    /// the paper's `0.66x4ft` / `2.6x4ft` footprint per scan segment.
    pub fn imagined_shelf(&self, row: usize, small: bool) -> Aabb {
        let depth = if small { 0.66 } else { 2.6 };
        let row_len = TAGS_PER_ROW as f64 * TAG_SPACING;
        // The imagined shelf starts at the tag line (the shelf face the
        // tags sit on) and extends *away* from the aisle — the tags are
        // at its front edge. This is why the paper's uniform/SMURF x
        // error is "strictly half of the shelf size in x".
        if row == 0 {
            Aabb::new(
                Point3::new(ROW_STANDOFF, -0.3, 0.0),
                Point3::new(ROW_STANDOFF + depth, row_len + 0.3, 0.0),
            )
        } else {
            Aabb::new(
                Point3::new(-ROW_STANDOFF - depth, -0.3, 0.0),
                Point3::new(-ROW_STANDOFF, row_len + 0.3, 0.0),
            )
        }
    }

    /// Which row an object tag belongs to.
    pub fn row_of(&self, tag: TagId) -> usize {
        (tag.0 as usize) / TAGS_PER_ROW
    }

    /// The legal object space of the lab: two bands, one around each
    /// shelf row face. This is the location prior our system uses
    /// ("shelf information helps restrict the area for location
    /// sampling in all three algorithms").
    pub fn prior(&self) -> MultiBoxPrior {
        let row_len = TAGS_PER_ROW as f64 * TAG_SPACING;
        let band = 0.3;
        MultiBoxPrior::new(vec![
            Aabb::new(
                Point3::new(ROW_STANDOFF - band, -0.3, 0.0),
                Point3::new(ROW_STANDOFF + band, row_len + 0.3, 0.0),
            ),
            Aabb::new(
                Point3::new(-ROW_STANDOFF - band, -0.3, 0.0),
                Point3::new(-ROW_STANDOFF + band, row_len + 0.3, 0.0),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_stream::Epoch;

    #[test]
    fn standard_rig_has_80_tags_and_10_references() {
        let lab = LabDeployment::standard();
        assert_eq!(lab.objects.len(), 80);
        assert_eq!(lab.reference_tags.len(), 10);
        // spacing exactly four inches within a row
        let d = lab.objects[1].1.y - lab.objects[0].1.y;
        assert!((d - TAG_SPACING).abs() < 1e-12);
    }

    #[test]
    fn rows_sit_on_opposite_sides() {
        let lab = LabDeployment::standard();
        assert!(lab.objects[0].1.x > 0.0);
        assert!(lab.objects[TAGS_PER_ROW].1.x < 0.0);
        assert_eq!(lab.row_of(TagId(0)), 0);
        assert_eq!(lab.row_of(TagId(45)), 1);
    }

    #[test]
    fn trace_reads_both_rows() {
        let lab = LabDeployment::standard();
        let trace = lab.generate(500, 42);
        let mut rows_seen = [false, false];
        for r in &trace.readings {
            if r.tag.0 < 2 * TAGS_PER_ROW as u64 {
                rows_seen[lab.row_of(r.tag)] = true;
            }
        }
        assert!(rows_seen[0] && rows_seen[1], "rows seen: {rows_seen:?}");
    }

    #[test]
    fn dead_reckoning_error_reaches_feet_scale() {
        let lab = LabDeployment::standard();
        let trace = lab.generate(500, 43);
        let mut max_err: f64 = 0.0;
        for rep in &trace.reports {
            let e = Epoch::from_seconds(rep.time, trace.epoch_len);
            if let Some(t) = trace.truth.reader_at(e) {
                max_err = max_err.max(rep.pose.pos.dist(&t.pos));
            }
        }
        assert!(
            max_err > 0.2 && max_err <= 1.0 + 1e-9,
            "max reported-location error {max_err}"
        );
    }

    #[test]
    fn longer_timeout_reads_more() {
        let lab = LabDeployment::standard();
        let short = lab.generate(250, 44);
        let long = lab.generate(750, 44);
        assert!(long.num_readings() > short.num_readings());
    }

    #[test]
    fn imagined_shelves_contain_their_rows() {
        let lab = LabDeployment::standard();
        let ss = lab.imagined_shelf(0, true);
        let ls = lab.imagined_shelf(0, false);
        for (tag, loc) in &lab.objects {
            if lab.row_of(*tag) == 0 {
                assert!(ss.contains(loc), "SS misses {loc:?}");
                assert!(ls.contains(loc));
            } else {
                assert!(!ss.contains(loc));
            }
        }
        // LS is wider in x than SS
        assert!((ls.max.x - ls.min.x) > (ss.max.x - ss.min.x));
    }
}
