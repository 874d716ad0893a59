//! Canned scenarios matching each experiment of the paper's §V.
//!
//! Every figure's workload is a function here, so the bench harness and
//! the tests agree on exactly what was generated. All scenarios use the
//! §V-A defaults unless the experiment sweeps them: cone sensor with
//! RR_major = 100%, read frequency once per epoch, motion noise σ = .01,
//! sensing noise σ = .01, reader speed 0.1 ft per epoch.

use crate::generator::{mix64, ChurnEvent, ChurnKind, MovementEvent, SimTrace, TraceGenerator};
use crate::layout::WarehouseLayout;
use crate::noise::ReportNoise;
use crate::trajectory::Trajectory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_geom::{Point3, Vec3};
use rfid_model::ConeSensor;
use rfid_stream::{Epoch, TagId};

/// A scenario bundles the generated trace with the layout that produced
/// it (inference needs the layout as its location prior).
#[derive(Debug, Clone)]
pub struct Scenario {
    pub layout: WarehouseLayout,
    pub trace: SimTrace,
}

/// Default object spacing on the shelf face, feet.
pub(crate) const OBJECT_SPACING: f64 = 0.5;

fn objects_on(layout: &WarehouseLayout, n: usize) -> Vec<(TagId, Point3)> {
    layout
        .object_slots(n)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (TagId(i as u64), p))
        .collect()
}

/// The basic small trace used by the calibration experiments
/// (Fig. 5(e)): `num_objects` object tags and `num_shelf_tags` shelf
/// tags on a single scan.
pub fn small_trace(num_objects: usize, num_shelf_tags: usize, seed: u64) -> Scenario {
    let layout = WarehouseLayout::for_objects(num_objects.max(8), OBJECT_SPACING);
    let objects = objects_on(&layout, num_objects);
    let shelf_tags = layout.shelf_tags(num_shelf_tags.max(1));
    let shelf_tags: Vec<_> = shelf_tags.into_iter().take(num_shelf_tags).collect();
    let traj = Trajectory::linear_scan(layout.total_length(), 0.1);
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    Scenario { layout, trace }
}

/// Fig. 5(f): vary the read rate in the major detection range
/// (100% down to 50%), 16 object tags + 4 shelf tags.
pub fn read_rate_trace(rr_major: f64, seed: u64) -> Scenario {
    let layout = WarehouseLayout::for_objects(16, OBJECT_SPACING);
    let objects = objects_on(&layout, 16);
    let shelf_tags: Vec<_> = layout.shelf_tags(4).into_iter().take(4).collect();
    let traj = Trajectory::linear_scan(layout.total_length(), 0.1);
    let gen = TraceGenerator::new(ConeSensor::with_rr_major(rr_major));
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    Scenario { layout, trace }
}

/// Fig. 5(g): systematic reader-location error `mu_y` with random noise
/// `sigma_y`, 16 object tags + 4 shelf tags.
pub fn location_noise_trace(mu_y: f64, sigma_y: f64, seed: u64) -> Scenario {
    let layout = WarehouseLayout::for_objects(16, OBJECT_SPACING);
    let objects = objects_on(&layout, 16);
    let shelf_tags: Vec<_> = layout.shelf_tags(4).into_iter().take(4).collect();
    let traj = Trajectory::linear_scan(layout.total_length(), 0.1);
    let gen = TraceGenerator {
        report_noise: ReportNoise::Gaussian {
            mu: Vec3::new(0.0, mu_y, 0.0),
            sigma: Vec3::new(0.01, sigma_y, 0.0),
        },
        ..TraceGenerator::new(ConeSensor::paper_default())
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    Scenario { layout, trace }
}

/// The tag moved by [`moving_object_trace`].
pub const MOVED_TAG: TagId = TagId(2);

/// Fig. 5(h): one object ([`MOVED_TAG`]) moves `distance` feet along
/// the shelf after `move_after` epochs; the scan is long enough to
/// observe both before and after (two rounds).
pub fn moving_object_trace(distance: f64, move_after: u64, seed: u64) -> Scenario {
    // a long enough run that the object is re-scanned after it moves
    let num_objects = 16;
    let layout = WarehouseLayout::for_objects(num_objects, 2.0);
    let objects = objects_on(&layout, num_objects);
    let shelf_tags: Vec<_> = layout.shelf_tags(4).into_iter().take(4).collect();
    let traj = Trajectory::rounds_scan(layout.total_length(), 0.1, 2);
    // move object 2 `distance` feet down the shelf (wrapping at the end)
    let mover = objects[2];
    let total = layout.total_length();
    let new_y = (mover.1.y + distance) % total;
    let movements = [MovementEvent {
        epoch: Epoch(move_after),
        tag: mover.0,
        new_location: Point3::new(mover.1.x, new_y, mover.1.z),
    }];
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &movements, &mut rng);
    Scenario { layout, trace }
}

/// Fig. 5(i)/(j): the scalability workload — `num_objects` from 10 to
/// 20,000, two rounds of scan of a large warehouse. The reader moves
/// faster (0.5 ft/epoch) than the small traces so that the 20,000-object
/// run stays tractable; tags are spaced 0.5 ft apart, and one shelf tag
/// is placed every 20 ft.
pub fn scalability_trace(num_objects: usize, seed: u64) -> Scenario {
    endurance_trace(num_objects, 2, seed)
}

/// The scalability workload with a configurable number of scan rounds:
/// same warehouse, same reader speed, `rounds`× the epochs (and
/// readings). Used to demonstrate that the streaming pipeline's buffer
/// high-water marks are flat in trace *length* — a 10× longer run must
/// not buffer more.
pub fn endurance_trace(num_objects: usize, rounds: usize, seed: u64) -> Scenario {
    let layout = WarehouseLayout::for_objects(num_objects, OBJECT_SPACING);
    let objects = objects_on(&layout, num_objects);
    let per_shelf = 2usize;
    let shelf_tags = layout.shelf_tags(per_shelf);
    let traj = Trajectory::rounds_scan(layout.total_length(), 0.5, rounds);
    let gen = TraceGenerator {
        culling_range: Some(6.0),
        ..TraceGenerator::new(ConeSensor::paper_default())
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    Scenario { layout, trace }
}

// ---------------------------------------------------------------------
// Adversarial scenario library
// ---------------------------------------------------------------------
//
// The paper's §V workloads above are near-benign: a steady reader, a
// fixed population, clean interleavings. The generators below stress
// the regimes the accuracy matrix (`experiments -- accuracy`) scores
// all three systems on — every one carries exact ground truth, so
// event precision/recall/F1 and change-detection delay are measurable,
// not eyeballed.

/// Deterministic keep/drop draw for reading-thinning scenarios, keyed
/// by `(salt, epoch, tag)` so thinning is independent of generation
/// order and reproducible per seed.
fn thin_uniform(salt: u64, epoch: u64, tag: u64) -> f64 {
    let h = mix64(
        salt ^ mix64(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ mix64(tag.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Tag churn with arrivals and departures over a two-round scan:
/// 12 of 16 objects are present from the start, 4 arrive just as the
/// second round begins (so only round two can see them), and 2 of the
/// originals depart after their round-one events are out (so a system
/// that keeps reporting them emits phantoms). Ground truth carries the
/// arrival epochs and departure tombstones exactly.
pub fn tag_churn_trace(seed: u64) -> Scenario {
    let layout = WarehouseLayout::for_objects(16, OBJECT_SPACING);
    let slots = layout.object_slots(16);
    let initial: Vec<(TagId, Point3)> = slots
        .iter()
        .take(12)
        .enumerate()
        .map(|(i, p)| (TagId(i as u64), *p))
        .collect();
    let shelf_tags: Vec<_> = layout.shelf_tags(4).into_iter().take(4).collect();
    let total = layout.total_length();
    let round = (total / 0.1).ceil() as u64; // epochs per scan round
    let mut churn: Vec<ChurnEvent> = (12..16)
        .map(|i| ChurnEvent {
            epoch: Epoch(round + 2),
            tag: TagId(i as u64),
            kind: ChurnKind::Arrive(slots[i]),
        })
        .collect();
    for tag in [1u64, 5] {
        churn.push(ChurnEvent {
            epoch: Epoch(round + 15),
            tag: TagId(tag),
            kind: ChurnKind::Depart,
        });
    }
    let traj = Trajectory::rounds_scan(total, 0.1, 2);
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let trace =
        gen.generate_with_churn(&layout, &traj, &initial, &shelf_tags, &[], &churn, &mut rng);
    Scenario { layout, trace }
}

/// Reader dropout windows: the RFID reading stream vanishes entirely
/// during two scheduled windows (antenna fault / RF interference)
/// while location reports keep flowing. Objects scanned only inside a
/// window are never read at all.
pub fn reader_dropout_trace(seed: u64) -> Scenario {
    let mut sc = read_rate_trace(1.0, seed);
    let windows = [(20u64, 32u64), (48, 60)];
    let epoch_len = sc.trace.epoch_len;
    sc.trace.readings.retain(|r| {
        let e = Epoch::from_seconds(r.time, epoch_len).0;
        !windows.iter().any(|&(lo, hi)| e >= lo && e < hi)
    });
    sc
}

/// Bursty read-rate collapse: alternating 15-epoch windows of the full
/// read rate and a collapsed (~20%) effective rate — congestion that
/// comes and goes. The inference model still assumes the full-rate
/// sensor, so its negative-information reasoning is miscalibrated in
/// the collapsed windows.
pub fn bursty_read_rate_trace(seed: u64) -> Scenario {
    let mut sc = read_rate_trace(1.0, seed);
    let epoch_len = sc.trace.epoch_len;
    let salt = mix64(seed ^ 0xb0b5_7e11);
    sc.trace.readings.retain(|r| {
        let e = Epoch::from_seconds(r.time, epoch_len).0;
        let collapsed = (e / 15) % 2 == 1;
        !collapsed || thin_uniform(salt, e, r.tag.0) < 0.2
    });
    sc
}

/// Dense-shelf confusion: 32 objects packed at 0.2 ft spacing — well
/// inside the sensor's lateral uncertainty, so single readings cannot
/// disambiguate neighbors and only accumulated evidence separates
/// them.
pub fn dense_shelf_trace(seed: u64) -> Scenario {
    let layout = WarehouseLayout::for_objects(32, 0.2);
    let objects = objects_on(&layout, 32);
    let shelf_tags: Vec<_> = layout.shelf_tags(4).into_iter().take(4).collect();
    let traj = Trajectory::linear_scan(layout.total_length(), 0.1);
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    Scenario { layout, trace }
}

/// Conveyor-style continuous motion: every object drifts 0.4 ft along
/// the shelf every 20 epochs (wrapping at the end of the run) for the
/// whole two-round scan — location estimates go stale the moment they
/// are formed. Ground truth records every step of the drift.
pub fn conveyor_trace(seed: u64) -> Scenario {
    let num_objects = 12;
    let layout = WarehouseLayout::for_objects(num_objects, 1.0);
    let objects = objects_on(&layout, num_objects);
    let shelf_tags: Vec<_> = layout.shelf_tags(4).into_iter().take(4).collect();
    let total = layout.total_length();
    let traj = Trajectory::rounds_scan(total, 0.1, 2);
    let epochs = traj.num_steps() as u64;
    let mut movements = Vec::new();
    let step = 0.4;
    for (k, e) in (20..epochs).step_by(20).enumerate() {
        for (tag, p) in &objects {
            let new_y = (p.y + step * (k as f64 + 1.0)) % total;
            movements.push(MovementEvent {
                epoch: Epoch(e),
                tag: *tag,
                new_location: Point3::new(p.x, new_y, p.z),
            });
        }
    }
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &movements, &mut rng);
    Scenario { layout, trace }
}

/// Multi-room warehouse with cross-room handoff: two 8 ft rooms
/// separated by a 12 ft shelf-free aisle. The reader scans room one,
/// crosses the gap (120 epochs of reports with no readings — the
/// reading watermark stalls and only the synchronizer's skew bound
/// keeps the buffer flat), then picks up room two's population.
pub fn multi_room_trace(seed: u64) -> Scenario {
    let layout = WarehouseLayout::rooms(&[(0.0, 8.0), (20.0, 8.0)], 0.5, 2.0, 0.0);
    let objects: Vec<(TagId, Point3)> = layout
        .object_slots_per_shelf(8)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (TagId(i as u64), p))
        .collect();
    let shelf_tags = layout.shelf_tags(2);
    let traj = Trajectory::linear_scan(28.0, 0.1);
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    Scenario { layout, trace }
}

/// Cold start mid-stream: inference joins a scan already in progress —
/// the first 30 epochs of *both* raw streams are never delivered, so
/// the engine has no warm-up, no early shelf-tag sightings, and some
/// objects were passed before it ever came up.
pub fn cold_start_trace(seed: u64) -> Scenario {
    let mut sc = read_rate_trace(1.0, seed);
    let cut = 30.0 * sc.trace.epoch_len;
    sc.trace.readings.retain(|r| r.time >= cut);
    sc.trace.reports.retain(|r| r.time >= cut);
    sc
}

/// Skewed/silent stream interleavings: two tiny rooms at the ends of a
/// 42 ft run (a ~300-epoch reading silence in between), with every
/// location report delayed by 0.6 s — inside its epoch, but now
/// *behind* the readings it used to precede, so the synchronizer sees
/// the adversarial interleaving rather than the generation order.
pub fn silent_stream_trace(seed: u64) -> Scenario {
    let layout = WarehouseLayout::rooms(&[(0.0, 6.0), (36.0, 6.0)], 0.5, 2.0, 0.0);
    let objects: Vec<(TagId, Point3)> = layout
        .object_slots_per_shelf(6)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (TagId(i as u64), p))
        .collect();
    let shelf_tags = layout.shelf_tags(2);
    let traj = Trajectory::linear_scan(42.0, 0.1);
    let gen = TraceGenerator::new(ConeSensor::paper_default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = gen.generate(&layout, &traj, &objects, &shelf_tags, &[], &mut rng);
    for rep in &mut trace.reports {
        rep.time += 0.6 * trace.epoch_len;
    }
    Scenario { layout, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_trace_reads_objects_and_shelves() {
        let s = small_trace(10, 4, 1);
        assert_eq!(s.trace.object_tags.len(), 10);
        assert_eq!(s.trace.shelf_tags.len(), 4);
        assert!(s.trace.num_readings() > 50);
    }

    #[test]
    fn read_rate_scales_reading_count() {
        let full = read_rate_trace(1.0, 2);
        let half = read_rate_trace(0.5, 2);
        assert!(half.trace.num_readings() < full.trace.num_readings());
    }

    #[test]
    fn location_noise_biases_reports() {
        let s = location_noise_trace(1.0, 0.01, 3);
        // mean report error along y should be ~1.0
        let mut err = 0.0;
        let mut n = 0;
        for rep in &s.trace.reports {
            let e = Epoch::from_seconds(rep.time, s.trace.epoch_len);
            if let Some(truth) = s.trace.truth.reader_at(e) {
                err += rep.pose.pos.y - truth.pos.y;
                n += 1;
            }
        }
        let mean = err / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean y bias {mean}");
    }

    #[test]
    fn moving_object_trace_moves_exactly_one() {
        let s = moving_object_trace(6.0, 100, 4);
        let mut moved = 0;
        for tag in s.trace.truth.object_tags().collect::<Vec<_>>() {
            let a = s.trace.truth.object_at(tag, Epoch(0)).unwrap();
            let b = s.trace.truth.object_at(tag, Epoch(10_000)).unwrap();
            if a.dist(&b) > 1e-9 {
                moved += 1;
                assert!((a.dist(&b) - 6.0).abs() < 1e-9, "moved {}", a.dist(&b));
            }
        }
        assert_eq!(moved, 1);
    }

    #[test]
    fn endurance_trace_scales_epochs_with_rounds() {
        let short = endurance_trace(20, 2, 6);
        let long = endurance_trace(20, 20, 6);
        let se = short.trace.truth.num_epochs();
        let le = long.trace.truth.num_epochs();
        assert!(
            le > 9 * se && le < 11 * se,
            "10x rounds should give ~10x epochs: {se} vs {le}"
        );
        assert!(long.trace.num_readings() > 5 * short.trace.num_readings());
    }

    #[test]
    fn churn_trace_arrivals_and_departures_in_truth() {
        let s = tag_churn_trace(11);
        assert_eq!(s.trace.object_tags.len(), 16);
        let round = (s.layout.total_length() / 0.1).ceil() as u64;
        // arrivals absent in round one, present in round two
        assert!(s.trace.truth.object_at(TagId(13), Epoch(round)).is_none());
        assert!(s
            .trace
            .truth
            .object_at(TagId(13), Epoch(round + 2))
            .is_some());
        // departures leave tombstones
        assert!(s
            .trace
            .truth
            .object_at(TagId(5), Epoch(round + 20))
            .is_none());
        assert!(s.trace.truth.object_at(TagId(5), Epoch(0)).is_some());
        // arrivals actually get read in round two
        assert!(s.trace.readings.iter().any(|r| r.tag == TagId(13)));
    }

    #[test]
    fn dropout_trace_has_silent_windows() {
        let base = read_rate_trace(1.0, 12);
        let s = reader_dropout_trace(12);
        assert!(s.trace.num_readings() < base.trace.num_readings());
        let el = s.trace.epoch_len;
        for r in &s.trace.readings {
            let e = Epoch::from_seconds(r.time, el).0;
            assert!(
                !(20..32).contains(&e) && !(48..60).contains(&e),
                "epoch {e}"
            );
        }
        // reports untouched
        assert_eq!(s.trace.reports.len(), base.trace.reports.len());
    }

    #[test]
    fn bursty_trace_thins_only_collapsed_windows() {
        let base = read_rate_trace(1.0, 13);
        let s = bursty_read_rate_trace(13);
        let el = s.trace.epoch_len;
        let count = |t: &SimTrace, pred: &dyn Fn(u64) -> bool| {
            t.readings
                .iter()
                .filter(|r| pred(Epoch::from_seconds(r.time, el).0))
                .count()
        };
        let full_w = |e: u64| (e / 15) % 2 == 0;
        let coll_w = |e: u64| (e / 15) % 2 == 1;
        assert_eq!(count(&s.trace, &full_w), count(&base.trace, &full_w));
        let (kept, orig) = (count(&s.trace, &coll_w), count(&base.trace, &coll_w));
        assert!(
            kept * 2 < orig,
            "collapsed windows should lose most readings: {kept}/{orig}"
        );
        assert!(kept > 0, "thinning must be probabilistic, not total");
    }

    #[test]
    fn dense_shelf_packs_objects_tight() {
        let s = dense_shelf_trace(14);
        assert_eq!(s.trace.object_tags.len(), 32);
        let a = s.trace.truth.object_at(TagId(0), Epoch(0)).unwrap();
        let b = s.trace.truth.object_at(TagId(1), Epoch(0)).unwrap();
        assert!((a.dist(&b) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn conveyor_trace_moves_everything_repeatedly() {
        let s = conveyor_trace(15);
        let moves: Vec<_> = s.trace.truth.relocations().collect();
        // every object relocates multiple times
        for tag in s.trace.truth.object_tags().collect::<Vec<_>>() {
            let n = moves.iter().filter(|(t, _, _)| *t == tag).count();
            assert!(n >= 5, "{tag} moved only {n} times");
        }
        // drift is monotone between wraps
        let y0 = s.trace.truth.object_at(TagId(0), Epoch(19)).unwrap().y;
        let y1 = s.trace.truth.object_at(TagId(0), Epoch(21)).unwrap().y;
        assert!((y1 - y0 - 0.4).abs() < 1e-9, "{y0} -> {y1}");
    }

    #[test]
    fn multi_room_trace_reading_gap() {
        let s = multi_room_trace(16);
        assert_eq!(s.layout.shelves().len(), 2);
        let el = s.trace.epoch_len;
        // no readings while the reader crosses the aisle interior
        // (rooms end at y=8 and start at y=20; cone range is 4 ft)
        let gap_epochs = |r: f64| (120u64..160).contains(&((r / el) as u64));
        assert!(!s.trace.readings.iter().any(|r| gap_epochs(r.time)));
        // both rooms produce readings
        assert!(s.trace.readings.iter().any(|r| r.time < 100.0));
        assert!(s.trace.readings.iter().any(|r| r.time > 200.0));
    }

    #[test]
    fn cold_start_trace_drops_both_stream_heads() {
        let s = cold_start_trace(17);
        assert!(s.trace.readings.iter().all(|r| r.time >= 30.0));
        assert!(s.trace.reports.iter().all(|r| r.time >= 30.0));
        assert!(!s.trace.reports.is_empty());
        // truth still covers the undelivered head
        assert!(s.trace.truth.reader_at(Epoch(0)).is_some());
    }

    #[test]
    fn silent_stream_trace_skews_reports_behind_readings() {
        let s = silent_stream_trace(18);
        // reports stay in their epoch but now trail the readings
        for rep in &s.trace.reports {
            let frac = rep.time / s.trace.epoch_len - (rep.time / s.trace.epoch_len).floor();
            assert!((frac - 0.6).abs() < 1e-6, "frac {frac}");
        }
        // long mid-trace reading silence
        let mut times: Vec<f64> = s.trace.readings.iter().map(|r| r.time).collect();
        times.sort_by(|a, b| a.total_cmp(b));
        let max_gap = times.windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
        assert!(max_gap > 200.0, "silence only {max_gap} s");
    }

    #[test]
    fn scalability_trace_large_counts() {
        let s = scalability_trace(1000, 5);
        assert_eq!(s.trace.object_tags.len(), 1000);
        assert!(s.trace.num_readings() > 1000);
        // two rounds: the trajectory ends back near the start
        let last = s
            .trace
            .truth
            .reader_at(Epoch((s.trace.truth.num_epochs() - 1) as u64))
            .unwrap();
        assert!(last.pos.y.abs() < 3.0, "end y {}", last.pos.y);
    }
}
