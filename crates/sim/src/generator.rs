//! The trace generator: turns (layout, trajectory, sensor, noise) into
//! the two raw streams of §II-A plus ground truth.
//!
//! Per epoch, the simulated reader advances by the trajectory step plus
//! motion noise ("it travels about 0.1 foot, stops, senses its current
//! location and reads objects on the current shelf with added noise, and
//! sends both its sensed location and the RFID readings"). Every tag —
//! object or shelf — is read with the probability given by the
//! ground-truth sensor model at its true distance and angle.

use crate::layout::WarehouseLayout;
use crate::noise::{ReportNoise, Reporter};
use crate::source::TraceStream;
use crate::trajectory::Trajectory;
use crate::truth::GroundTruth;
use rand::Rng;
use rfid_geom::{standard_normal, Point3, Pose, Vec3};
use rfid_model::ReadRateModel;
use rfid_stream::{
    synchronize_traces, Epoch, EpochBatch, ReaderLocationReport, RfidReading, TagId,
};

/// A scheduled object relocation (the Fig. 5(h) experiment moves "a
/// case of objects" after a time interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovementEvent {
    /// Epoch at which the object assumes its new location.
    pub epoch: Epoch,
    pub tag: TagId,
    pub new_location: Point3,
}

/// A scheduled population change: a tag arriving in (or departing from)
/// the warehouse mid-trace. Unlike [`MovementEvent`], churn changes
/// *which* tags exist: an arrived tag starts being read and enters the
/// ground truth at its epoch; a departed tag stops being read and its
/// truth records a tombstone (so post-departure events score as
/// phantoms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChurnEvent {
    /// Epoch at which the change takes effect.
    pub epoch: Epoch,
    pub tag: TagId,
    pub kind: ChurnKind,
}

/// What a [`ChurnEvent`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ChurnKind {
    /// The tag appears at this location (relocates it if already
    /// present).
    Arrive(Point3),
    /// The tag leaves the warehouse (no-op if absent).
    Depart,
}

/// A complete generated trace: the two raw streams plus everything an
/// experiment needs to score inference output against.
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// The RFID reading stream `(time, tag_id)`.
    pub readings: Vec<RfidReading>,
    /// The reader location stream `(time, pose)`.
    pub reports: Vec<ReaderLocationReport>,
    /// True reader poses and object locations.
    pub truth: GroundTruth,
    /// Shelf (reference) tags with their known locations.
    pub shelf_tags: Vec<(TagId, Point3)>,
    /// The object tags present in the world (read or not).
    pub object_tags: Vec<TagId>,
    /// Epoch length in seconds.
    pub epoch_len: f64,
}

impl SimTrace {
    /// Synchronizes the raw streams into epoch batches (what the
    /// inference engine's *batch* API consumes). The streaming pipeline
    /// does not need this materialized `Vec`; use
    /// [`SimTrace::stream`] instead.
    pub fn epoch_batches(&self) -> Vec<EpochBatch> {
        synchronize_traces(&self.readings, &self.reports, self.epoch_len)
    }

    /// The trace as an incremental [`rfid_stream::ReadingSource`]: the
    /// two raw streams merged in time order, one item at a time.
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream::new(&self.readings, &self.reports)
    }

    /// Total number of raw RFID readings in the trace.
    pub fn num_readings(&self) -> usize {
        self.readings.len()
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform `f64` in `[0, 1)` derived from a counter tuple. Read
/// Bernoullis use this instead of the shared RNG stream so that the
/// outcome for a given (trace seed, epoch, tag, attempt) is identical
/// whether or not spatial culling skipped other tags first.
#[inline]
fn hash_uniform(seed: u64, epoch: u64, tag: u64, attempt: u32) -> f64 {
    let h = mix64(
        seed ^ mix64(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ mix64(tag.wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
            ^ (attempt as u64).wrapping_mul(0x1656_67b1_9e37_79f9),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Configurable generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator<S: ReadRateModel> {
    /// The ground-truth sensor shape (cone for §V-A, spherical for §V-C).
    pub sensor: S,
    /// Reader motion noise std per axis (the true `Σ_m` of the world).
    pub motion_sigma: Vec3,
    /// Location reporting noise regime.
    pub report_noise: ReportNoise,
    /// Epoch length in seconds (paper default 1.0).
    pub epoch_len: f64,
    /// Read attempts per epoch (paper's read frequency RF; default 1).
    pub reads_per_epoch: u32,
    /// When set, only tags within this y-distance of the reader are
    /// offered to the sensor model each epoch. Must be at least the
    /// sensor's maximum detection range; everything farther has zero
    /// read probability anyway. This makes 20,000-object traces
    /// generable in seconds instead of hours.
    pub culling_range: Option<f64>,
}

impl<S: ReadRateModel> TraceGenerator<S> {
    /// A generator with the paper's §V-A defaults around the given
    /// ground-truth sensor.
    pub fn new(sensor: S) -> Self {
        Self {
            sensor,
            motion_sigma: Vec3::new(0.01, 0.01, 0.0),
            epoch_len: 1.0,
            reads_per_epoch: 1,
            report_noise: ReportNoise::Gaussian {
                mu: Vec3::zero(),
                sigma: Vec3::new(0.01, 0.01, 0.0),
            },
            culling_range: None,
        }
    }

    /// Runs the generative process to completion, materializing the
    /// whole trace ([`SimTrace::stream`] replays it item by item).
    ///
    /// * `layout` supplies shelf geometry (used only for bookkeeping
    ///   here; the tag positions passed in are authoritative),
    /// * `trajectory` the intended motion,
    /// * `objects` the object tags and their initial true locations,
    /// * `shelf_tags` the reference tags with known locations,
    /// * `movements` scheduled relocations (may be empty).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        layout: &WarehouseLayout,
        trajectory: &Trajectory,
        objects: &[(TagId, Point3)],
        shelf_tags: &[(TagId, Point3)],
        movements: &[MovementEvent],
        rng: &mut R,
    ) -> SimTrace
    where
        S: Clone,
    {
        self.generate_with_churn(layout, trajectory, objects, shelf_tags, movements, &[], rng)
    }

    /// [`TraceGenerator::generate`] with scheduled population churn:
    /// `churn` arrivals join the world (and the ground truth) at their
    /// epoch, departures leave a truth tombstone and stop being read.
    #[allow(clippy::too_many_arguments)] // flat generator knobs, mirrors `generate`
    pub(crate) fn generate_with_churn<R: Rng + ?Sized>(
        &self,
        layout: &WarehouseLayout,
        trajectory: &Trajectory,
        objects: &[(TagId, Point3)],
        shelf_tags: &[(TagId, Point3)],
        movements: &[MovementEvent],
        churn: &[ChurnEvent],
        rng: &mut R,
    ) -> SimTrace
    where
        S: Clone,
    {
        let _ = layout; // geometry is already baked into tag positions
        let mut sim = EpochSim::new(
            self.clone(),
            trajectory,
            objects,
            shelf_tags,
            movements,
            rng,
        )
        .with_churn(churn);
        let mut readings = Vec::new();
        let mut reports = Vec::new();
        while let Some(out) = sim.next_epoch() {
            reports.push(out.report);
            readings.extend_from_slice(out.readings);
        }
        debug_assert_eq!(sim.truth().num_epochs(), trajectory.num_steps() + 1);
        let epoch_len = self.epoch_len;
        // object_tags covers everything that ever existed: the initial
        // population plus churn arrivals
        let mut object_tags: Vec<TagId> = objects.iter().map(|(t, _)| *t).collect();
        for c in churn {
            if matches!(c.kind, ChurnKind::Arrive(_)) && !object_tags.contains(&c.tag) {
                object_tags.push(c.tag);
            }
        }
        SimTrace {
            readings,
            reports,
            truth: sim.into_truth(),
            shelf_tags: shelf_tags.to_vec(),
            object_tags,
            epoch_len,
        }
    }
}

/// One generated epoch: the averaged-out report plus this epoch's raw
/// readings (borrowed from the simulator's reusable buffer).
#[derive(Debug)]
pub(crate) struct EpochOutput<'a> {
    pub report: ReaderLocationReport,
    pub readings: &'a [RfidReading],
}

/// The generative process, one epoch at a time: the loop
/// [`TraceGenerator::generate_with_churn`] drives to materialize a
/// trace, reusing one readings buffer across epochs.
#[derive(Debug)]
pub(crate) struct EpochSim<S: ReadRateModel, R: Rng> {
    gen: TraceGenerator<S>,
    steps: Vec<crate::trajectory::Step>,
    object_locs: Vec<(TagId, Point3)>,
    shelf_tags: Vec<(TagId, Point3)>,
    movements: Vec<MovementEvent>,
    next_move: usize,
    churn: Vec<ChurnEvent>,
    next_churn: usize,
    /// Sorted-by-y view of all tags for windowed read attempts;
    /// rebuilt on (rare) object movements.
    sorted_tags: Option<Vec<(f64, TagId, Point3)>>,
    reporter: Reporter,
    truth: GroundTruth,
    pose: Pose,
    read_seed: u64,
    /// Next epoch to generate; `steps.len() + 1` when exhausted.
    t: usize,
    readings_buf: Vec<RfidReading>,
    rng: R,
}

impl<S: ReadRateModel, R: Rng> EpochSim<S, R> {
    /// Sets up the simulation (this draws the read seed from `rng`).
    pub(crate) fn new(
        gen: TraceGenerator<S>,
        trajectory: &Trajectory,
        objects: &[(TagId, Point3)],
        shelf_tags: &[(TagId, Point3)],
        movements: &[MovementEvent],
        mut rng: R,
    ) -> Self {
        let mut truth = GroundTruth::new();
        let object_locs: Vec<(TagId, Point3)> = objects.to_vec();
        for (tag, loc) in &object_locs {
            truth.set_object(*tag, Epoch(0), *loc);
        }
        let reporter = Reporter::new(gen.report_noise);
        let read_seed: u64 = rng.gen();
        let pose = Pose::new(trajectory.start_pos, trajectory.start_phi);
        let mut movements: Vec<MovementEvent> = movements.to_vec();
        movements.sort_by_key(|m| m.epoch);
        let sorted_tags = gen
            .culling_range
            .map(|_| Self::build_sorted(&object_locs, shelf_tags));
        Self {
            gen,
            steps: trajectory.steps().to_vec(),
            object_locs,
            shelf_tags: shelf_tags.to_vec(),
            movements,
            next_move: 0,
            churn: Vec::new(),
            next_churn: 0,
            sorted_tags,
            reporter,
            truth,
            pose,
            read_seed,
            t: 0,
            readings_buf: Vec::new(),
            rng,
        }
    }

    /// Attaches scheduled population churn (sorted by epoch). Must be
    /// called before the first [`EpochSim::next_epoch`].
    pub(crate) fn with_churn(mut self, churn: &[ChurnEvent]) -> Self {
        debug_assert_eq!(self.t, 0, "churn must be attached before simulation starts");
        self.churn = churn.to_vec();
        self.churn.sort_by_key(|c| c.epoch);
        self
    }

    fn build_sorted(
        objs: &[(TagId, Point3)],
        shelf_tags: &[(TagId, Point3)],
    ) -> Vec<(f64, TagId, Point3)> {
        let mut v: Vec<(f64, TagId, Point3)> = objs
            .iter()
            .chain(shelf_tags.iter())
            .map(|(t, p)| (p.y, *t, *p))
            .collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        v
    }

    /// Ground truth accumulated so far (complete once the simulation is
    /// exhausted).
    pub(crate) fn truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// Consumes the simulator, returning the accumulated ground truth.
    pub(crate) fn into_truth(self) -> GroundTruth {
        self.truth
    }

    /// Generates the next epoch, or `None` when the trajectory is
    /// exhausted.
    pub(crate) fn next_epoch(&mut self) -> Option<EpochOutput<'_>> {
        if self.t > self.steps.len() {
            return None;
        }
        let epoch = Epoch(self.t as u64);
        // 1. advance the reader (epoch 0 is the start pose)
        if let Some(s) = (self.t > 0).then(|| self.steps[self.t - 1]) {
            let noise = Vec3::new(
                self.gen.motion_sigma.x * standard_normal(&mut self.rng),
                self.gen.motion_sigma.y * standard_normal(&mut self.rng),
                self.gen.motion_sigma.z * standard_normal(&mut self.rng),
            );
            self.pose = Pose::new(self.pose.pos + s.delta + noise, self.pose.phi + s.dphi);
        }
        self.t += 1;
        let pose = self.pose;
        self.truth.push_reader(epoch, pose);

        // 2. apply scheduled object movements effective this epoch
        let mut moved = false;
        while self.next_move < self.movements.len() && self.movements[self.next_move].epoch <= epoch
        {
            let m = self.movements[self.next_move];
            if let Some(slot) = self.object_locs.iter_mut().find(|(tag, _)| *tag == m.tag) {
                slot.1 = m.new_location;
                self.truth.set_object(m.tag, epoch, m.new_location);
                moved = true;
            }
            self.next_move += 1;
        }
        // 2b. apply scheduled population churn effective this epoch
        while self.next_churn < self.churn.len() && self.churn[self.next_churn].epoch <= epoch {
            let c = self.churn[self.next_churn];
            match c.kind {
                ChurnKind::Arrive(loc) => {
                    match self.object_locs.iter_mut().find(|(tag, _)| *tag == c.tag) {
                        Some(slot) => slot.1 = loc,
                        None => self.object_locs.push((c.tag, loc)),
                    }
                    self.truth.set_object(c.tag, epoch, loc);
                    moved = true;
                }
                ChurnKind::Depart => {
                    let before = self.object_locs.len();
                    self.object_locs.retain(|(tag, _)| *tag != c.tag);
                    if self.object_locs.len() != before {
                        self.truth.remove_object(c.tag, epoch);
                        moved = true;
                    }
                }
            }
            self.next_churn += 1;
        }
        if moved {
            if let Some(s) = self.sorted_tags.as_mut() {
                *s = Self::build_sorted(&self.object_locs, &self.shelf_tags);
            }
        }

        // 3. report the sensed reader location
        let reported = self.reporter.report(&pose, &mut self.rng);
        let t_sec = epoch.0 as f64 * self.gen.epoch_len;
        let report = ReaderLocationReport {
            time: t_sec,
            pose: reported,
        };

        // 4. read tags (objects and shelves alike)
        self.readings_buf.clear();
        let sensor = &self.gen.sensor;
        let read_seed = self.read_seed;
        let read_time = t_sec + 0.5 * self.gen.epoch_len;
        let readings = &mut self.readings_buf;
        let attempt = |tag: TagId, loc: &Point3, k: u32, readings: &mut Vec<RfidReading>| {
            let p = sensor.p_read(&pose, loc);
            if p > 0.0 && hash_uniform(read_seed, epoch.0, tag.0, k) < p {
                readings.push(RfidReading {
                    time: read_time,
                    tag,
                });
            }
        };
        for k in 0..self.gen.reads_per_epoch {
            match (&self.sorted_tags, self.gen.culling_range) {
                (Some(sorted), Some(range)) => {
                    // |y_tag - y_reader| > range implies distance >
                    // range, so the skipped tags are unreadable.
                    let lo = sorted.partition_point(|(y, _, _)| *y < pose.pos.y - range);
                    for (_, tag, loc) in sorted[lo..]
                        .iter()
                        .take_while(|(y, _, _)| *y <= pose.pos.y + range)
                    {
                        attempt(*tag, loc, k, readings);
                    }
                }
                _ => {
                    for (tag, loc) in self.object_locs.iter().chain(self.shelf_tags.iter()) {
                        attempt(*tag, loc, k, readings);
                    }
                }
            }
        }

        Some(EpochOutput {
            report,
            readings: &self.readings_buf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_model::ConeSensor;

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
    fn perfect_sensor_reads_every_object_during_scan() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator {
            report_noise: ReportNoise::None,
            motion_sigma: Vec3::zero(),
            ..TraceGenerator::new(ConeSensor::paper_default())
        };
        let mut rng = StdRng::seed_from_u64(1);
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        // every object tag appears at least once: the cone passes over all
        let mut seen: Vec<u64> = trace.readings.iter().map(|r| r.tag.0).collect();
        seen.sort_unstable();
        seen.dedup();
        for (tag, _) in &objects {
            assert!(seen.contains(&tag.0), "object {tag} never read");
        }
    }

    #[test]
    fn zero_read_rate_produces_no_readings() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator::new(ConeSensor::with_rr_major(0.0));
        let mut rng = StdRng::seed_from_u64(2);
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        assert_eq!(trace.num_readings(), 0);
        // but reports still flow
        assert_eq!(trace.reports.len(), traj.num_steps() + 1);
    }

    #[test]
    fn truth_records_every_epoch() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator::new(ConeSensor::paper_default());
        let mut rng = StdRng::seed_from_u64(3);
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        assert_eq!(trace.truth.num_epochs(), traj.num_steps() + 1);
        assert_eq!(trace.truth.num_objects(), 10);
    }

    #[test]
    fn movements_change_truth_and_readings() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator {
            report_noise: ReportNoise::None,
            ..TraceGenerator::new(ConeSensor::paper_default())
        };
        let mut rng = StdRng::seed_from_u64(4);
        let moved_to = Point3::new(2.0, 9.5, 0.0);
        let movements = [MovementEvent {
            epoch: Epoch(5),
            tag: TagId(0),
            new_location: moved_to,
        }];
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &movements, &mut rng);
        assert_eq!(trace.truth.object_at(TagId(0), Epoch(4)).unwrap().y, 0.5);
        assert_eq!(trace.truth.object_at(TagId(0), Epoch(5)).unwrap(), moved_to);
    }

    #[test]
    fn epoch_batches_synchronize() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator::new(ConeSensor::paper_default());
        let mut rng = StdRng::seed_from_u64(5);
        let trace = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        let batches = trace.epoch_batches();
        assert!(!batches.is_empty());
        // every batch carries a reader report (reports are per-epoch)
        assert!(batches.iter().all(|b| b.reader_report.is_some()));
        // batches are in epoch order
        for w in batches.windows(2) {
            assert!(w[0].epoch < w[1].epoch);
        }
    }

    #[test]
    fn lower_rr_reads_less() {
        let (layout, traj, objects, shelves) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let full = TraceGenerator::new(ConeSensor::paper_default()).generate(
            &layout,
            &traj,
            &objects,
            &shelves,
            &[],
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(6);
        let half = TraceGenerator::new(ConeSensor::with_rr_major(0.5)).generate(
            &layout,
            &traj,
            &objects,
            &shelves,
            &[],
            &mut rng,
        );
        assert!(half.num_readings() < full.num_readings());
    }

    #[test]
    fn culling_does_not_change_the_trace() {
        // With the same seed, windowed generation must produce the
        // identical reading stream as the exhaustive scan: skipped tags
        // had zero read probability, and read Bernoullis are
        // counter-hashed per (epoch, tag), not drawn from a shared
        // stream, so iteration order cannot matter.
        let (layout, traj, objects, shelves) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let full = TraceGenerator::new(ConeSensor::paper_default()).generate(
            &layout,
            &traj,
            &objects,
            &shelves,
            &[],
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let culled = TraceGenerator {
            culling_range: Some(5.0),
            ..TraceGenerator::new(ConeSensor::paper_default())
        }
        .generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        // same multiset of readings (ordering within an epoch may differ)
        let norm = |t: &SimTrace| {
            let mut v: Vec<(u64, u64)> = t
                .readings
                .iter()
                .map(|r| ((r.time * 1000.0) as u64, r.tag.0))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&full), norm(&culled));
    }

    #[test]
    fn churn_controls_readability_and_truth() {
        let (layout, traj, objects, shelves) = setup();
        let gen = TraceGenerator {
            report_noise: ReportNoise::None,
            ..TraceGenerator::new(ConeSensor::paper_default())
        };
        let mut rng = StdRng::seed_from_u64(8);
        // tag 0 departs early; tag 50 arrives mid-scan near the far end
        let churn = [
            ChurnEvent {
                epoch: Epoch(3),
                tag: TagId(0),
                kind: ChurnKind::Depart,
            },
            ChurnEvent {
                epoch: Epoch(40),
                tag: TagId(50),
                kind: ChurnKind::Arrive(Point3::new(2.0, 9.0, 0.0)),
            },
        ];
        let trace =
            gen.generate_with_churn(&layout, &traj, &objects, &shelves, &[], &churn, &mut rng);
        // departed tag: truth absent after the tombstone, no late reads
        assert!(trace.truth.object_at(TagId(0), Epoch(2)).is_some());
        assert!(trace.truth.object_at(TagId(0), Epoch(3)).is_none());
        let epoch_of = |t: f64| Epoch::from_seconds(t, trace.epoch_len);
        assert!(trace
            .readings
            .iter()
            .all(|r| r.tag != TagId(0) || epoch_of(r.time) < Epoch(3)));
        // arrived tag: in truth from epoch 40, read only afterwards
        assert!(trace.truth.object_at(TagId(50), Epoch(39)).is_none());
        assert_eq!(trace.truth.object_at(TagId(50), Epoch(40)).unwrap().y, 9.0);
        let arrived_reads = trace.readings.iter().filter(|r| r.tag == TagId(50)).count();
        assert!(arrived_reads > 0, "arrival was never read");
        assert!(trace
            .readings
            .iter()
            .all(|r| r.tag != TagId(50) || epoch_of(r.time) >= Epoch(40)));
        // the arrival joins object_tags
        assert!(trace.object_tags.contains(&TagId(50)));
        assert_eq!(trace.object_tags.len(), 11);
    }

    #[test]
    fn churn_with_culling_matches_unculled() {
        let (layout, traj, objects, shelves) = setup();
        let churn = [
            ChurnEvent {
                epoch: Epoch(10),
                tag: TagId(2),
                kind: ChurnKind::Depart,
            },
            ChurnEvent {
                epoch: Epoch(30),
                tag: TagId(60),
                kind: ChurnKind::Arrive(Point3::new(2.0, 7.5, 0.0)),
            },
        ];
        let mut rng = StdRng::seed_from_u64(10);
        let full = TraceGenerator::new(ConeSensor::paper_default()).generate_with_churn(
            &layout,
            &traj,
            &objects,
            &shelves,
            &[],
            &churn,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(10);
        let culled = TraceGenerator {
            culling_range: Some(5.0),
            ..TraceGenerator::new(ConeSensor::paper_default())
        }
        .generate_with_churn(&layout, &traj, &objects, &shelves, &[], &churn, &mut rng);
        let norm = |t: &SimTrace| {
            let mut v: Vec<(u64, u64)> = t
                .readings
                .iter()
                .map(|r| ((r.time * 1000.0) as u64, r.tag.0))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(norm(&full), norm(&culled));
    }

    #[test]
    fn reads_per_epoch_multiplies_attempts() {
        let (layout, traj, objects, shelves) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let gen = TraceGenerator {
            reads_per_epoch: 4,
            ..TraceGenerator::new(ConeSensor::with_rr_major(0.3))
        };
        let multi = gen.generate(&layout, &traj, &objects, &shelves, &[], &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let single = TraceGenerator::new(ConeSensor::with_rr_major(0.3)).generate(
            &layout,
            &traj,
            &objects,
            &shelves,
            &[],
            &mut rng,
        );
        assert!(multi.num_readings() > single.num_readings());
    }
}
