//! The inference engine: raw epoch batches in, location events out.
//!
//! The engine's [`InferenceStage::process_batch_into`] runs one epoch
//! of §IV's filter as the composition of crate-private stage methods,
//! timed as three stages:
//!
//! 1. **ingestion** (`InferenceEngine::ingest`): split the epoch's
//!    readings into shelf evidence and object reads
//!    (`split_readings`), then update the reader filter;
//! 2. **inference** (`InferenceEngine::infer`): build the sorted
//!    active set — Case 1, the objects read; Case 2, the objects the
//!    spatial index recorded nearby *and* some reader particle can see
//!    ([`crate::Reach`]: exact, so only for a sensor with a hard edge)
//!    — which is the step queue; run the per-object updates, and
//!    record the sensing region;
//! 3. **emission**: emit the events the output policy has due
//!    (`emit_due`), resample the reader (`resample_reader`), re-point
//!    the active objects' dead ancestor pointers with a caller-supplied
//!    draw (`remap_active`; here the engine RNG), and run the
//!    compression sweep;
//!
//! and then publishes the epoch (`publish`: the epoch count and stage
//! times into [`EngineStats`], the registry mirror, the slow-epoch
//! trace). A
//! [`cluster`] head and its workers call these same methods; they add
//! only the routing, the shipped rows and the head's draw replay.
//!
//! # Execution model
//!
//! The engine owns one object map and steps the epoch's objects one
//! after another on the calling thread, in **tag order**. An object's
//! record holds everything the engine schedules for it: its belief,
//! its output-policy scope and its compression due epoch. The emit
//! stage, the end-of-trace flush and the compression sweep are each one
//! pass over the map. There is one path and no execution option; the
//! hot path is **allocation-free in steady state**:
//!
//! * every buffer the per-object step needs lives in reusable scratch
//!   owned by the engine ([`crate::StepScratch`]);
//! * [`ObjectFilter::step_fused`] computes the joint probabilities
//!   once per step (one `exp` per particle) and resamples in place;
//! * each object's step draws from its own RNG stream seeded from
//!   `(config.seed, tag, epoch)`, and its reader support is staged in a
//!   row that is merged into the reader after the step — so an object's
//!   step does not depend on which engine runs it.
//!
//! That last property is what the one way of using more cores rests
//! on: [`cluster`] splits whole engines by `tag % N` across processes
//! and merges every cross-worker effect in global tag order, and the
//! event stream is **bit-identical for every cluster size and across
//! checkpoint restarts**.

pub mod checkpoint;
pub mod cluster;

use crate::compression::CompressedBelief;
use crate::config::{
    FilterConfig, ReaderMode, DECOMPRESSED_PARTICLES, INIT_CONE_HALF_ANGLE,
    INIT_RANGE_OVERESTIMATE, MAX_INIT_RANGE, RESAMPLE_ESS_FRAC, RESPAWN_DISTANCE,
    SMALL_MOVE_DISTANCE,
};
use crate::error::ConfigError;
use crate::exec::{self, StepScratch};
use crate::factored::{ObjectFilter, ReaderFilter, ReaderRemap, ReaderTables};
use crate::output::Scope;
use crate::spatial_hook::{sensing_box, Reach};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_geom::{Point3, Pose};
use rfid_model::{JointModel, LocationPrior, ReadRateModel};
use rfid_spatial::RegionIndex;
use rfid_stream::{Epoch, EpochBatch, EventStats, InferenceStage, LocationEvent, TagId};
use std::collections::HashMap;
use std::time::Instant;

/// One object's belief representation. A dormant object's compressed
/// belief sits in the object map itself, so it sets the size of every
/// map entry; an active filter owns its particle columns on the heap
/// anyway and is boxed, one pointer wide.
#[derive(Debug, Clone)]
enum Belief {
    Active(Box<ObjectFilter>),
    Compressed(CompressedBelief),
}

#[derive(Debug, Clone)]
struct ObjectState {
    belief: Belief,
    last_estimate: (Point3, [f64; 3]),
    /// The output policy's schedule for this object (§II-A).
    scope: Scope,
    /// Epoch at which the compression sweep compresses this object
    /// (0 = no check scheduled): `idle_epochs` after its last *read*,
    /// set by every read (Case-2 activity does not reset the clock).
    compression_due: u64,
}

/// Counters exposed for tests, benchmarks, and EXPERIMENTS.md tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub epochs: u64,
    pub readings: u64,
    /// Total object-filter updates across all epochs (the quantity the
    /// spatial index is meant to shrink).
    pub object_updates: u64,
    pub events_emitted: u64,
    pub object_resamples: u64,
    pub reader_resamples: u64,
    pub compressions: u64,
    pub decompressions: u64,
    pub half_respawns: u64,
    pub full_reinits: u64,
    /// Microseconds spent in the ingest stage (reader update) across
    /// all epochs. Timing counters are process-local measurements, not
    /// filter state: checkpoints neither save nor restore them.
    pub ingest_us: u64,
    /// Microseconds spent in the infer stage (object steps).
    pub infer_us: u64,
    /// Microseconds spent in the emit stage (output policy).
    pub emit_us: u64,
}

/// Mirrors [`EngineStats`] onto the global metrics registry (see
/// `rfid_obs`): every struct counter doubles as a scrapeable metric,
/// and the stage timers feed per-epoch latency histograms. Handles
/// are registered once at engine construction; [`EngineMetrics::observe`]
/// then only performs relaxed atomic adds — lock-free, allocation-free,
/// RNG-free, so instrumentation cannot perturb inference.
#[derive(Debug)]
struct EngineMetrics {
    last: EngineStats,
    epochs: rfid_obs::Counter,
    readings: rfid_obs::Counter,
    object_updates: rfid_obs::Counter,
    events_emitted: rfid_obs::Counter,
    object_resamples: rfid_obs::Counter,
    reader_resamples: rfid_obs::Counter,
    compressions: rfid_obs::Counter,
    decompressions: rfid_obs::Counter,
    half_respawns: rfid_obs::Counter,
    full_reinits: rfid_obs::Counter,
    /// Case-2 candidates the pre-pass dropped because no reader
    /// particle could see them. Not an [`EngineStats`] field (the
    /// checkpoint carries that struct): [`InferenceEngine::infer`] is
    /// its one write site.
    out_of_reach: rfid_obs::Counter,
    ingest_us: rfid_obs::Histogram,
    infer_us: rfid_obs::Histogram,
    emit_us: rfid_obs::Histogram,
}

impl EngineMetrics {
    fn registered() -> Self {
        let r = rfid_obs::global();
        Self {
            last: EngineStats::default(),
            epochs: r.counter("engine_epochs_total"),
            readings: r.counter("engine_readings_total"),
            object_updates: r.counter("engine_object_updates_total"),
            events_emitted: r.counter("engine_events_total"),
            object_resamples: r.counter("engine_object_resamples_total"),
            reader_resamples: r.counter("engine_reader_resamples_total"),
            compressions: r.counter("engine_compressions_total"),
            decompressions: r.counter("engine_decompressions_total"),
            half_respawns: r.counter("engine_half_respawns_total"),
            full_reinits: r.counter("engine_full_reinits_total"),
            out_of_reach: r.counter("engine_out_of_reach_total"),
            ingest_us: r.histogram("engine_ingest_us"),
            infer_us: r.histogram("engine_infer_us"),
            emit_us: r.histogram("engine_emit_us"),
        }
    }

    /// Records the progress since the last observation. The exact
    /// `u64` stage micros added to [`EngineStats`] are recorded into
    /// the histograms, so `engine_ingest_us_sum` equals
    /// `EngineStats::ingest_us` at every observation point — the
    /// registry-vs-stats agreement `tests/serving_telemetry.rs`
    /// checks.
    fn observe(&mut self, stats: &EngineStats) {
        let (now, last) = (*stats, self.last);
        if now == last {
            return;
        }
        self.last = now;
        self.epochs.add(now.epochs - last.epochs);
        self.readings.add(now.readings - last.readings);
        self.object_updates
            .add(now.object_updates - last.object_updates);
        self.events_emitted
            .add(now.events_emitted - last.events_emitted);
        self.object_resamples
            .add(now.object_resamples - last.object_resamples);
        self.reader_resamples
            .add(now.reader_resamples - last.reader_resamples);
        self.compressions.add(now.compressions - last.compressions);
        self.decompressions
            .add(now.decompressions - last.decompressions);
        self.half_respawns
            .add(now.half_respawns - last.half_respawns);
        self.full_reinits.add(now.full_reinits - last.full_reinits);
        if now.epochs > last.epochs {
            self.ingest_us.record(now.ingest_us - last.ingest_us);
            self.infer_us.record(now.infer_us - last.infer_us);
            self.emit_us.record(now.emit_us - last.emit_us);
        }
    }
}

/// Statistic deltas produced by one object step, added to
/// [`EngineStats`] after the step.
#[derive(Debug, Clone, Copy, Default)]
struct StepDelta {
    resampled: bool,
    decompressed: bool,
    full_reinit: bool,
    half_respawn: bool,
}

/// One queued per-object update: built during the epoch pre-pass,
/// executed in queue (= tag) order.
#[derive(Debug)]
struct StepTask {
    tag: TagId,
    read: bool,
}

/// The three timed stages of an epoch, in order; each indexes
/// `InferenceEngine::epoch_us`.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Ingest,
    Infer,
    Emit,
}

/// The read-only environment one object step runs against.
struct StepCtx<'a, P, S> {
    model: &'a JointModel<S>,
    prior: &'a P,
    config: &'a FilterConfig,
    range_over: f64,
    /// Posterior-mean reader position this epoch (for re-detection).
    reader_pos: Point3,
    /// The reader's sampling CDF, weights and heading trig, built once
    /// per epoch (the reader is frozen while objects step) and shared
    /// by every pointer refresh, cone initialization, respawn and
    /// object step.
    reader_tables: &'a ReaderTables,
    epoch: Epoch,
    stamp: u64,
}

/// The end-to-end inference engine, generic over the location prior
/// and the sensor model (logistic by default; a ground-truth sensor
/// shape can be plugged in for oracle experiments).
pub struct InferenceEngine<P: LocationPrior, S: ReadRateModel = rfid_model::LogisticSensorModel> {
    model: JointModel<S>,
    config: FilterConfig,
    prior: P,
    shelf_tags: Vec<(TagId, Point3)>,
    shelf_ids: std::collections::BTreeSet<TagId>,
    reader: Option<ReaderFilter>,
    objects: HashMap<TagId, ObjectState>,
    /// The sensing-region index (§IV-C), when `use_spatial_index` is
    /// on: each epoch's sensing box with the objects that had a
    /// particle in it.
    index: Option<RegionIndex<TagId>>,
    rng: StdRng,
    stats: EngineStats,
    /// Registry handles mirroring [`EngineStats`] (see
    /// [`EngineMetrics`]); one delta baseline per engine instance, so
    /// each increment is recorded exactly once, whichever caller
    /// publishes (the engine itself, or a cluster worker). A cluster
    /// head never publishes.
    metrics: EngineMetrics,
    /// Overestimated sensor range used for initialization cones,
    /// sensing boxes, and re-detection thresholds.
    range_over: f64,
    last_report: Option<Pose>,
    // --- reusable per-epoch scratch (allocation-free steady state) ---
    /// Sorted object tags read this epoch.
    object_read: Vec<TagId>,
    /// Sorted active set (Cases 1–2) of the current epoch.
    active: Vec<TagId>,
    /// Sorted shelf tags read this epoch.
    shelf_read: Vec<TagId>,
    /// Shelf observations relevant to the reader update.
    shelf_obs: Vec<(Point3, bool)>,
    /// Spatial-index candidates of the current epoch.
    candidates: Vec<TagId>,
    /// Active objects with a particle in the sensing box.
    members: Vec<TagId>,
    /// Due tags of the emission stage, sorted.
    due: Vec<TagId>,
    /// Per-object update queue for the current epoch (tag order).
    steps: Vec<StepTask>,
    /// Step buffers (joint probabilities, resample counts).
    scratch: StepScratch,
    /// The compression sweep's weighted cloud.
    cloud: Vec<(f64, Point3)>,
    /// The current step's staged reader support: one dense
    /// `reader.len()`-sized row, merged into the reader filter after
    /// each step.
    staged_support: Vec<f64>,
    /// Per-reader-particle tables of the current epoch (reused
    /// buffers; see [`ReaderFilter::tables_into`]).
    reader_tables: ReaderTables,
    /// When set, [`InferenceEngine::run_steps`] records each task's
    /// staged reader-support row (in task order) instead of only
    /// merging it locally. Cluster workers enable this to ship the rows
    /// to the head, which merges them in global tag order across all
    /// workers (see [`cluster`]).
    support_tee: Option<Vec<(TagId, Vec<f64>)>>,
    /// Microseconds per [`Stage`] of the epoch in progress, moved into
    /// [`EngineStats`] when the epoch is published.
    epoch_us: [u64; 3],
}

impl<P: LocationPrior, S: ReadRateModel> InferenceEngine<P, S> {
    /// Builds an engine. `shelf_tags` are the reference tags with known
    /// locations; every other tag id encountered is treated as an
    /// object.
    pub fn new(
        model: JointModel<S>,
        prior: P,
        shelf_tags: Vec<(TagId, Point3)>,
        config: FilterConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let range_over =
            (model.sensor.detection_range(0.02) * INIT_RANGE_OVERESTIMATE).min(MAX_INIT_RANGE);
        let shelf_ids = shelf_tags.iter().map(|(t, _)| *t).collect();
        let index = config.use_spatial_index.then(RegionIndex::new);
        Ok(Self {
            model,
            prior,
            shelf_ids,
            shelf_tags,
            reader: None,
            objects: HashMap::new(),
            index,
            rng: StdRng::seed_from_u64(config.seed),
            stats: EngineStats::default(),
            metrics: EngineMetrics::registered(),
            range_over,
            last_report: None,
            object_read: Vec::new(),
            active: Vec::new(),
            shelf_read: Vec::new(),
            shelf_obs: Vec::new(),
            candidates: Vec::new(),
            members: Vec::new(),
            due: Vec::new(),
            steps: Vec::new(),
            scratch: StepScratch::default(),
            cloud: Vec::new(),
            staged_support: Vec::new(),
            reader_tables: ReaderTables::default(),
            support_tee: None,
            epoch_us: [0; 3],
            config,
        })
    }

    /// The engine's statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The current posterior-mean reader pose (`None` before the first
    /// batch).
    pub fn reader_estimate(&self) -> Option<Pose> {
        self.reader.as_ref().map(|r| r.estimate())
    }

    /// The current location estimate of an object.
    pub fn object_estimate(&self, tag: TagId) -> Option<(Point3, [f64; 3])> {
        self.objects.get(&tag).map(|s| s.last_estimate)
    }

    /// Tags of all objects the engine tracks.
    pub fn tracked_objects(&self) -> impl Iterator<Item = TagId> + '_ {
        self.objects.keys().copied()
    }

    /// Objects with a compression check scheduled (diagnostics): at
    /// most one per tracked tag, however long the engine runs.
    pub fn cooldown_entries(&self) -> usize {
        self.objects
            .values()
            .filter(|s| s.compression_due != 0)
            .count()
    }

    /// Number of objects currently in compressed representation.
    pub fn num_compressed(&self) -> usize {
        self.objects
            .values()
            .filter(|s| matches!(s.belief, Belief::Compressed(_)))
            .count()
    }

    /// Reader particles (exposed for the EM learner's E-step).
    pub fn reader_particles(&self) -> Option<&[crate::particle::ReaderParticle]> {
        self.reader.as_ref().map(|r| r.particles())
    }

    /// Object particle columns of a tag, when its belief is active.
    pub fn object_particles(&self, tag: TagId) -> Option<&crate::particle::ParticleSoa> {
        match self.objects.get(&tag).map(|s| &s.belief) {
            Some(Belief::Active(f)) => Some(f.soa()),
            _ => None,
        }
    }

    /// Rough memory footprint of the belief state, in bytes. Tracks the
    /// paper's claim that compression keeps memory small: an active
    /// object counts its particle columns, a compressed one
    /// `size_of::<CompressedBelief>()` (80 bytes: the mean, the
    /// covariance's lower triangle and the epoch), and the reader its
    /// particles. It excludes the object map's own entries and the
    /// sensing-region index, which gains one region every epoch and
    /// never drops one.
    pub fn memory_bytes(&self) -> usize {
        let mut total = 0usize;
        for s in self.objects.values() {
            total += match &s.belief {
                Belief::Active(f) => f.soa().approx_bytes(),
                Belief::Compressed(_) => std::mem::size_of::<CompressedBelief>(),
            };
        }
        if let Some(r) = &self.reader {
            total += r.len() * std::mem::size_of::<crate::particle::ReaderParticle>();
        }
        total
    }

    // ------------------------------------------------------------------
    // stage 1: ingestion
    // ------------------------------------------------------------------

    /// Counts the readings and splits them into sorted, deduplicated
    /// shelf reads and object reads.
    fn split_readings(&mut self, readings: &[TagId]) {
        self.stats.readings += readings.len() as u64;
        self.shelf_read.clear();
        self.object_read.clear();
        for tag in readings {
            if self.shelf_ids.contains(tag) {
                self.shelf_read.push(*tag);
            } else {
                self.object_read.push(*tag);
            }
        }
        self.shelf_read.sort_unstable();
        self.shelf_read.dedup();
        self.object_read.sort_unstable();
        self.object_read.dedup();
    }

    /// Splits the epoch's readings, then updates the reader filter with
    /// the report and the shelf reads. Returns the posterior reader
    /// estimate the rest of the epoch runs against.
    fn ingest(&mut self, batch: &EpochBatch) -> Pose {
        self.split_readings(&batch.readings);
        self.update_reader(batch.reader_report.as_ref());
        self.reader
            .as_ref()
            .expect("reader initialized above")
            .estimate()
    }

    // ------------------------------------------------------------------
    // stage 2: inference
    // ------------------------------------------------------------------

    /// Builds the active set, runs the per-object updates and records
    /// the sensing region.
    fn infer(&mut self, epoch: Epoch, reader_est: &Pose) {
        let stamp = epoch.0;
        let sensing_box = sensing_box(self.range_over, reader_est);

        // --- active set (Cases 1 and 2), in tag order ----------------
        self.active.clear();
        self.active.extend_from_slice(&self.object_read);
        match &self.index {
            Some(index) => {
                self.candidates.clear();
                index.query_objects_into(&sensing_box, &mut self.candidates);
                // an object recurs in every overlapping region: look
                // each one up once
                self.candidates.sort_unstable();
                self.candidates.dedup();
                // candidates may be stale; only keep known objects
                for tag in &self.candidates {
                    if self.objects.contains_key(tag) {
                        self.active.push(*tag);
                    }
                }
            }
            // no index: every known object is processed (Cases 1-4)
            None => self.active.extend(self.objects.keys().copied()),
        }
        self.active.sort_unstable();
        self.active.dedup();

        // one build serves the reach test below and every pointer
        // refresh / init / respawn / step this epoch — the reader is
        // frozen while objects step
        if !self.active.is_empty() {
            let reader = self.reader.as_ref().expect("reader initialized");
            reader.tables_into(&mut self.reader_tables);
        }
        // Case 2 has two halves: recorded nearby (the candidates), and
        // within some reader particle's reach. The second is decidable
        // only for a sensor with a hard edge, and lives with the index:
        // without it every object is stepped, as the paper's
        // un-enhanced filter does.
        let reach = match (&self.index, self.model.sensor.hard_edge()) {
            (Some(_), Some(edge)) if !self.active.is_empty() => {
                Some(Reach::new(&self.reader_tables, edge))
            }
            _ => None,
        };

        // --- pre-pass: the misses nobody steps -----------------------
        self.steps.clear();
        let mut kept = 0;
        for i in 0..self.active.len() {
            let tag = self.active[i];
            let read = self.object_read.binary_search(&tag).is_ok();
            let mut step = true;
            if !read {
                match self.objects.get(&tag).map(|s| &s.belief) {
                    // "when a compressed object has its tag read again,
                    // we ... decompress" (§IV-D): a compressed Case-2
                    // object stays compressed — a miss carries almost
                    // no information about a belief that already
                    // stabilized, and decompressing for it would thrash.
                    Some(Belief::Compressed(_)) => step = false,
                    // a miss no reader particle could have turned into
                    // a read adds exactly 0.0 to every log weight: the
                    // object leaves the active set itself, so that the
                    // remap loops (here and in the cluster worker) and
                    // the recorded region see what was stepped
                    Some(Belief::Active(f))
                        if reach.is_some_and(|r| r.cannot_see(f.xy_bounds())) =>
                    {
                        continue;
                    }
                    _ => {}
                }
            }
            self.active[kept] = tag;
            kept += 1;
            if step {
                self.steps.push(StepTask { tag, read });
            }
        }
        self.metrics
            .out_of_reach
            .add((self.active.len() - kept) as u64);
        self.active.truncate(kept);

        // --- per-object updates ---------------------------------------
        self.run_steps(epoch, stamp, reader_est.pos);

        // --- record the sensing region -------------------------------
        if self.index.is_some() {
            self.members.clear();
            for tag in &self.active {
                if let Some(ObjectState {
                    belief: Belief::Active(f),
                    ..
                }) = self.objects.get(tag)
                {
                    if f.any_particle_in(&sensing_box) {
                        self.members.push(*tag);
                    }
                }
            }
            if let Some(index) = self.index.as_mut() {
                index.insert_region(sensing_box, self.members.drain(..));
            }
        }
    }

    // ------------------------------------------------------------------
    // stage 3: emission
    // ------------------------------------------------------------------

    /// Emits the events the output policy has due this epoch. They
    /// precede the reader resample, so they are final here.
    fn emit_due(&mut self, epoch: Epoch, events: &mut Vec<LocationEvent>) {
        self.emit_due_events(epoch, self.config.report_delay_epochs, events);
    }

    /// The instrumented reader resample (filter mode only): returns the
    /// remap when the ESS test fired. Draws from the engine RNG.
    fn resample_reader(&mut self) -> Option<ReaderRemap> {
        if self.config.reader_mode != ReaderMode::Filter {
            return None;
        }
        let remap = self
            .reader
            .as_mut()
            .expect("reader exists")
            .maybe_resample(RESAMPLE_ESS_FRAC, &mut self.rng)?;
        self.stats.reader_resamples += 1;
        Some(remap)
    }

    /// Realigns the reader pointers of the objects stepped this epoch
    /// after a reader resample, in tag order; untouched objects refresh
    /// on activation. `draw` supplies each dead pointer's replacement,
    /// in particle order, and is handed the engine RNG: one process
    /// draws [`replacement_draw`] from it, a cluster worker returns the
    /// head's replayed values. Either way the order is part of the
    /// determinism contract.
    fn remap_active(&mut self, remap: &ReaderRemap, mut draw: impl FnMut(&mut StdRng) -> u32) {
        for tag in &self.active {
            if let Some(ObjectState {
                belief: Belief::Active(f),
                ..
            }) = self.objects.get_mut(tag)
            {
                f.apply_reader_remap_with(remap, || draw(&mut self.rng));
            }
        }
    }

    /// Emits, in tag order, an event for every object whose scope
    /// `Scope::take_due` finds due at `epoch` after `report_delay`
    /// epochs (0 flushes every unreported pass), and counts them.
    fn emit_due_events(
        &mut self,
        epoch: Epoch,
        report_delay: u64,
        events: &mut Vec<LocationEvent>,
    ) {
        self.due.clear();
        for (tag, s) in self.objects.iter_mut() {
            if s.scope.take_due(epoch, report_delay) {
                self.due.push(*tag);
            }
        }
        self.due.sort_unstable();
        for tag in &self.due {
            events.push(self.make_event(epoch, *tag, &self.objects[tag]));
        }
        self.stats.events_emitted += self.due.len() as u64;
    }

    // ------------------------------------------------------------------
    // stage timing and publication
    // ------------------------------------------------------------------

    /// Runs `stage` and adds its wall time to the epoch in progress.
    fn timed<R>(&mut self, stage: Stage, run: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let out = run(self);
        self.epoch_us[stage as usize] += start.elapsed().as_micros() as u64;
        out
    }

    /// Publishes the epoch: counts it, moves its stage times into
    /// [`EngineStats`], mirrors the stats onto the registry (one stage
    /// histogram sample per epoch, whoever else observes in between),
    /// and records the epoch in the slow-span ring when it crossed the
    /// threshold.
    fn publish(&mut self, epoch: Epoch) {
        self.stats.epochs += 1;
        let us = std::mem::take(&mut self.epoch_us);
        let [ingest_us, infer_us, emit_us] = us;
        self.stats.ingest_us += ingest_us;
        self.stats.infer_us += infer_us;
        self.stats.emit_us += emit_us;
        self.metrics.observe(&self.stats);
        let slow = rfid_obs::trace().slow_epoch_us();
        if slow > 0 {
            let total = ingest_us + infer_us + emit_us;
            if total >= slow {
                let mut entry = rfid_obs::TraceEntry::new("slow_epoch", total);
                entry.what = "ingest/infer/emit";
                entry.epoch = epoch.0;
                entry.detail = us;
                rfid_obs::trace().record(entry);
            }
        }
    }

    // ------------------------------------------------------------------

    fn make_event(&self, epoch: Epoch, tag: TagId, s: &ObjectState) -> LocationEvent {
        let (loc, var) = s.last_estimate;
        let support = match &s.belief {
            Belief::Active(f) => f.object_ess(),
            Belief::Compressed(_) => DECOMPRESSED_PARTICLES as f64,
        };
        LocationEvent::new(epoch, tag, loc).with_stats(EventStats { var, support })
    }

    fn update_reader(&mut self, report: Option<&Pose>) {
        match self.config.reader_mode {
            ReaderMode::TrustReports => {
                // "motion model Off": the reported location is taken as
                // the true location; a single-particle filter carries it.
                let pose = report
                    .copied()
                    .or(self.last_report)
                    .unwrap_or_else(Pose::identity);
                self.reader = Some(ReaderFilter::new(1, pose));
            }
            ReaderMode::Filter => {
                match self.reader.as_mut() {
                    None => {
                        // "the initial reader location R_1 is known":
                        // anchor the filter at the first report.
                        let start = report.copied().unwrap_or_else(Pose::identity);
                        self.reader = Some(ReaderFilter::new(self.config.reader_particles, start));
                        // no prediction on the very first epoch
                    }
                    Some(filter) => {
                        let odom = match (self.last_report, report) {
                            (Some(prev), Some(cur)) => Some(cur.pos - prev.pos),
                            _ => None,
                        };
                        let heading = report.map(|r| r.phi);
                        filter.predict(&self.model, odom, heading, &mut self.rng);
                    }
                }
                // weight with the report and nearby shelf-tag evidence
                let filter = self.reader.as_mut().expect("created above");
                let est = filter.estimate();
                let anchor = report.map(|r| r.pos).unwrap_or(est.pos);
                self.shelf_obs.clear();
                for (tag, loc) in &self.shelf_tags {
                    let read = self.shelf_read.binary_search(tag).is_ok();
                    if read || loc.dist(&anchor) <= 2.0 * self.range_over {
                        self.shelf_obs.push((*loc, read));
                    }
                }
                filter.weight(
                    &self.model,
                    report,
                    self.shelf_obs.iter().map(|(loc, read)| (loc, *read)),
                );
            }
        }
        if let Some(r) = report {
            self.last_report = Some(*r);
        }
    }

    /// Executes the queued per-object updates on the calling thread, in
    /// queue (= tag) order; map entries are mutated in place via
    /// `entry`, no remove/insert churn.
    fn run_steps(&mut self, epoch: Epoch, stamp: u64, reader_pos: Point3) {
        if self.steps.is_empty() {
            return;
        }
        self.stats.object_updates += self.steps.len() as u64;
        let reader = self.reader.as_mut().expect("reader initialized");
        let ctx = StepCtx {
            model: &self.model,
            prior: &self.prior,
            config: &self.config,
            range_over: self.range_over,
            reader_pos,
            reader_tables: &self.reader_tables,
            epoch,
            stamp,
        };
        let scratch = &mut self.scratch;
        let support = &mut self.staged_support;
        support.resize(reader.len(), 0.0);

        for task in &self.steps {
            support.fill(0.0);
            let delta = match self.objects.entry(task.tag) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let state = Some(e.get_mut());
                    step_one(&ctx, reader, task.tag, task.read, state, scratch, support).0
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let (delta, created) =
                        step_one(&ctx, reader, task.tag, task.read, None, scratch, support);
                    v.insert(created.expect("step created a state"));
                    delta
                }
            };
            if let Some(tee) = self.support_tee.as_mut() {
                tee.push((task.tag, support.clone()));
            }
            reader.merge_support(support);
            self.stats.object_resamples += u64::from(delta.resampled);
            self.stats.decompressions += u64::from(delta.decompressed);
            self.stats.full_reinits += u64::from(delta.full_reinit);
            self.stats.half_respawns += u64::from(delta.half_respawn);
        }
    }

    /// Compresses every object whose check is due (`0 < due ≤ epoch`).
    /// Each decision depends only on the object's own belief and the
    /// frozen reader, so the map's order does not matter.
    fn run_compression_sweep(&mut self, epoch: Epoch) {
        if !self.config.compression.enabled {
            return;
        }
        let reader = self.reader.as_ref().expect("reader initialized");
        for state in self.objects.values_mut() {
            if state.compression_due == 0 || state.compression_due > epoch.0 {
                continue;
            }
            state.compression_due = 0;
            // compression_due is only ever last_read + idle_epochs, so
            // a due object has been silent for a full idle period
            debug_assert!(
                epoch.since(state.scope.last_read) >= self.config.compression.idle_epochs
            );
            if let Belief::Active(f) = &state.belief {
                f.weighted_cloud_into(reader, &mut self.scratch, &mut self.cloud);
                // `None` needs a cloud without finite positive weight,
                // which the step's normalization never leaves, or a
                // covariance no ridge factors; such an object stays
                // active until its next read schedules it again
                if let Some(c) = CompressedBelief::compress(&self.cloud, epoch) {
                    state.last_estimate = c.estimate();
                    state.belief = Belief::Compressed(c);
                    self.stats.compressions += 1;
                }
            }
        }
    }
}

/// One per-object update: materialize an active filter (init or
/// decompress), refresh pointers, predict, handle re-detection, then
/// the fused weight/resample/estimate pass. All randomness comes from
/// the task's own `(seed, tag, epoch)` stream and all shared-state
/// effects are staged in `support`/the returned delta.
fn step_one<P: LocationPrior, S: ReadRateModel>(
    ctx: &StepCtx<'_, P, S>,
    reader: &ReaderFilter,
    tag: TagId,
    read: bool,
    state: Option<&mut ObjectState>,
    scratch: &mut StepScratch,
    support: &mut [f64],
) -> (StepDelta, Option<ObjectState>) {
    let mut delta = StepDelta::default();
    let mut rng = exec::task_rng(ctx.config.seed, tag.0, ctx.epoch.0);
    let k = ctx.config.particles_per_object;

    let mut created: Option<ObjectState> = None;
    let fresh = state.is_none();
    let state: &mut ObjectState = match state {
        Some(s) => s,
        None => {
            // first sighting: sensor-model-based initialization,
            // restricted to the legal object space
            let f = ObjectFilter::init_from_cone(
                reader,
                ctx.reader_tables,
                ctx.range_over,
                INIT_CONE_HALF_ANGLE,
                k,
                ctx.stamp,
                Some(ctx.prior),
                scratch,
                &mut rng,
            );
            created.insert(ObjectState {
                // a placeholder: this step's estimate replaces it
                last_estimate: (ctx.reader_pos, [0.0; 3]),
                belief: Belief::Active(Box::new(f)),
                scope: Scope::first_read(ctx.epoch),
                compression_due: 0,
            })
        }
    };
    if read {
        if !fresh {
            state
                .scope
                .on_read(ctx.epoch, ctx.config.report_delay_epochs);
        }
        // the sum saturates: an idle period that cannot elapse
        // (`u64::MAX`, what `CompressionPolicy::disabled` carries) is
        // never due
        if ctx.config.compression.enabled {
            state.compression_due = ctx
                .epoch
                .0
                .saturating_add(ctx.config.compression.idle_epochs);
        }
    }

    if let Belief::Compressed(c) = &state.belief {
        let f = c.decompress(
            DECOMPRESSED_PARTICLES,
            ctx.reader_tables,
            ctx.stamp,
            &mut rng,
        );
        delta.decompressed = true;
        state.belief = Belief::Active(Box::new(f));
    }
    let Belief::Active(f) = &mut state.belief else {
        unreachable!("belief made active above")
    };
    let f: &mut ObjectFilter = f;
    f.refresh_pointers(ctx.reader_tables, ctx.stamp, &mut rng);
    f.predict(ctx.model, ctx.prior, read, &mut rng);

    // §IV-A re-detection handling: compare the current estimate with
    // the location the reading implies (the reader's vicinity). A new
    // object has no previous estimate: its cloud was just drawn there.
    if read && !fresh {
        let est = state.last_estimate.0;
        let gap = est.dist_xy(&ctx.reader_pos);
        if gap > ctx.range_over + RESPAWN_DISTANCE {
            // moved far: discard all old particles, re-create at the
            // new location
            *f = ObjectFilter::init_from_cone(
                reader,
                ctx.reader_tables,
                ctx.range_over,
                INIT_CONE_HALF_ANGLE,
                k,
                ctx.stamp,
                Some(ctx.prior),
                scratch,
                &mut rng,
            );
            delta.full_reinit = true;
        } else if gap > ctx.range_over + SMALL_MOVE_DISTANCE {
            // moved a little: keep half, move half
            f.respawn_half(
                reader,
                ctx.reader_tables,
                ctx.range_over,
                INIT_CONE_HALF_ANGLE,
                Some(ctx.prior),
                scratch,
                &mut rng,
            );
            delta.half_respawn = true;
        }
    }

    let outcome = f.step_fused(
        ctx.model,
        reader,
        ctx.reader_tables,
        read,
        RESAMPLE_ESS_FRAC,
        scratch,
        support,
        &mut rng,
    );
    state.last_estimate = outcome.estimate;
    delta.resampled = outcome.resampled;
    (delta, created)
}

/// The engine-RNG draw that re-points one dead reader-ancestor pointer
/// after a reader resample. The single-process engine draws it inside
/// [`InferenceEngine::remap_active`]; a cluster head replays it for its
/// workers' objects.
fn replacement_draw(rng: &mut StdRng, remap: &ReaderRemap) -> u32 {
    rng.gen_range(0..remap.num_new())
}

/// Runs a stage over a full batch sequence and returns every emitted
/// event (including the final flush). This is
/// the *batch path*, kept as the reference the streaming
/// [`rfid_stream::Pipeline`] is pinned against
/// (`crates/core/tests/determinism.rs`).
pub fn run_engine<St: InferenceStage>(
    stage: &mut St,
    batches: &[EpochBatch],
) -> Vec<LocationEvent> {
    let mut events = Vec::new();
    for b in batches {
        stage.process_batch_into(b, &mut events);
    }
    let last = batches.last().map(|b| b.epoch).unwrap_or(Epoch(0));
    stage.finalize_into(last, &mut events);
    events
}

impl<P: LocationPrior, S: ReadRateModel> InferenceStage for InferenceEngine<P, S> {
    /// One epoch: exactly the composition of the stage methods, timed
    /// as ingest, infer and emit, then the publication.
    fn process_batch_into(&mut self, batch: &EpochBatch, events: &mut Vec<LocationEvent>) {
        let epoch = batch.epoch;
        let reader_est = self.timed(Stage::Ingest, |e| e.ingest(batch));
        self.timed(Stage::Infer, |e| e.infer(epoch, &reader_est));
        self.timed(Stage::Emit, |e| {
            e.emit_due(epoch, events);
            if let Some(remap) = e.resample_reader() {
                e.remap_active(&remap, |rng| replacement_draw(rng, &remap));
            }
            e.run_compression_sweep(epoch);
        });
        self.publish(epoch);
    }

    fn finalize_into(&mut self, last_epoch: Epoch, events: &mut Vec<LocationEvent>) {
        self.emit_due_events(last_epoch, 0, events);
        self.metrics.observe(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Aabb;
    use rfid_model::{BoxPrior, JointModel, ModelParams};
    use rfid_stream::EpochBatch;

    fn prior() -> BoxPrior {
        BoxPrior::new(Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 40.0, 0.0),
        ))
    }

    fn engine(config: FilterConfig) -> InferenceEngine<BoxPrior> {
        let model = JointModel::new(ModelParams::default_warehouse());
        let shelf = vec![
            (TagId(1_000_000), Point3::new(2.0, 2.0, 0.0)),
            (TagId(1_000_001), Point3::new(2.0, 6.0, 0.0)),
        ];
        InferenceEngine::new(model, prior(), shelf, config).unwrap()
    }

    fn batch(epoch: u64, reader_y: f64, tags: &[u64]) -> EpochBatch {
        EpochBatch {
            epoch: Epoch(epoch),
            readings: tags.iter().map(|t| TagId(*t)).collect(),
            reader_report: Some(Pose::new(Point3::new(0.0, reader_y, 0.0), 0.0)),
        }
    }

    #[test]
    fn engine_rejects_bad_config() {
        let model = JointModel::new(ModelParams::default_warehouse());
        let mut cfg = FilterConfig::factored_default();
        cfg.particles_per_object = 0;
        assert!(InferenceEngine::new(model, prior(), vec![], cfg).is_err());
    }

    #[test]
    fn object_estimate_converges_near_truth() {
        // object at (2.0, 3.0); reader scans along y reading it when close
        let mut cfg = FilterConfig::factored_default();
        cfg.particles_per_object = 500;
        cfg.reader_particles = 50;
        cfg.report_delay_epochs = 10;
        let mut e = engine(cfg);
        // reads generated from the same sensor model the engine uses
        use rand::{Rng, SeedableRng};
        // seed chosen to give a typical read sequence under the vendored
        // xoshiro256++ StdRng; unlucky streams can leave ~1.3 ft of error
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let model = JointModel::new(ModelParams::default_warehouse());
        let truth = Point3::new(2.0, 3.0, 0.0);
        let shelf_loc = Point3::new(2.0, 2.0, 0.0);
        let mut events = Vec::new();
        for t in 0..60u64 {
            let y = t as f64 * 0.1;
            let pose = Pose::new(Point3::new(0.0, y, 0.0), 0.0);
            let mut tags = Vec::new();
            if rng.gen::<f64>() < model.sensor.p_read(&pose, &truth) {
                tags.push(7u64);
            }
            if rng.gen::<f64>() < model.sensor.p_read(&pose, &shelf_loc) {
                tags.push(1_000_000);
            }
            events.extend(e.process_batch(&batch(t, y, &tags)));
        }
        events.extend(e.finalize(Epoch(60)));
        let ev: Vec<_> = events.iter().filter(|ev| ev.tag == TagId(7)).collect();
        assert!(!ev.is_empty(), "no event for the object");
        let err = ev[0].location.dist_xy(&truth);
        assert!(
            err < 1.0,
            "estimate too far: {err} ft, at {:?}",
            ev[0].location
        );
        // statistics attached
        assert!(ev[0].stats.is_some());
    }

    #[test]
    fn unread_objects_produce_no_events() {
        let mut cfg = FilterConfig::factored_default();
        cfg.particles_per_object = 100;
        cfg.reader_particles = 20;
        let mut e = engine(cfg);
        for t in 0..20u64 {
            let evs = e.process_batch(&batch(t, t as f64 * 0.1, &[]));
            assert!(evs.is_empty());
        }
        assert!(e.finalize(Epoch(20)).is_empty());
        assert_eq!(e.stats().events_emitted, 0);
    }

    #[test]
    fn spatial_index_reduces_object_updates() {
        use rand::{Rng, SeedableRng};
        let model = JointModel::new(ModelParams::default_warehouse());
        let run = |cfg: FilterConfig| -> (u64, Point3) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            let mut e = engine(cfg);
            // two objects far apart; each read only near its location
            let o7 = Point3::new(2.0, 3.0, 0.0);
            let o8 = Point3::new(2.0, 15.0, 0.0);
            for t in 0..200u64 {
                let y = t as f64 * 0.1;
                let pose = Pose::new(Point3::new(0.0, y, 0.0), 0.0);
                let mut tags = Vec::new();
                if rng.gen::<f64>() < model.sensor.p_read(&pose, &o7) {
                    tags.push(7u64);
                }
                if rng.gen::<f64>() < model.sensor.p_read(&pose, &o8) {
                    tags.push(8u64);
                }
                e.process_batch(&batch(t, y, &tags));
            }
            (
                e.stats().object_updates,
                e.object_estimate(TagId(7)).unwrap().0,
            )
        };
        let mut plain = FilterConfig::factored_default();
        plain.particles_per_object = 200;
        plain.reader_particles = 30;
        let mut indexed = plain;
        indexed.use_spatial_index = true;
        let (updates_plain, est_plain) = run(plain);
        let (updates_indexed, est_indexed) = run(indexed);
        assert!(
            updates_indexed < updates_plain,
            "index should reduce updates: {updates_indexed} vs {updates_plain}"
        );
        // and estimates stay in the same neighborhood
        assert!(est_plain.dist_xy(&est_indexed) < 2.0);
    }

    #[test]
    fn a_passed_object_is_a_candidate_the_cone_engine_does_not_step() {
        // the reader faces +x and walks up the aisle past an object at
        // (2, 3): read while it is in the cone, then a Case-2 candidate
        // for as long as the sensing box overlaps a recorded region.
        // The logistic sensor can always have read it; the cone sensor
        // cannot once every particle is behind the wedge's edge.
        fn updates_after_passing<S: ReadRateModel>(sensor: S) -> (u64, u64) {
            let model = JointModel::with_sensor(sensor, ModelParams::default_warehouse());
            let mut cfg = FilterConfig::indexed_default();
            cfg.particles_per_object = 200;
            cfg.reader_particles = 30;
            let mut e = InferenceEngine::new(model, prior(), vec![], cfg).unwrap();
            let mut at_passing = 0;
            for t in 0..80u64 {
                let y = t as f64 * 0.1;
                let tags: &[u64] = if (y - 3.0).abs() < 0.5 { &[7] } else { &[] };
                e.process_batch(&batch(t, y, tags));
                // 2 ft of standoff × tan 30° = 1.15 ft past the object,
                // plus the cloud's own extent
                if t == 55 {
                    at_passing = e.stats().object_updates;
                }
            }
            (at_passing, e.stats().object_updates)
        }
        let (before, after) = updates_after_passing(rfid_model::ConeSensor::paper_default());
        assert!(before > 0);
        assert_eq!(before, after, "stepped an object no particle could see");
        let logistic =
            rfid_model::LogisticSensorModel::new(ModelParams::default_warehouse().sensor);
        let (before, after) = updates_after_passing(logistic);
        assert!(after > before, "the object was no longer a candidate");
    }

    #[test]
    fn compression_kicks_in_after_idle() {
        let mut cfg = FilterConfig::full_default();
        cfg.particles_per_object = 200;
        cfg.reader_particles = 30;
        cfg.compression.idle_epochs = 5;
        let mut e = engine(cfg);
        for t in 0..40u64 {
            let y = t as f64 * 0.1;
            let mut tags = Vec::new();
            if (y - 1.0).abs() < 1.0 {
                tags.push(7u64);
            }
            e.process_batch(&batch(t, y, &tags));
        }
        assert!(e.stats().compressions >= 1, "stats: {:?}", e.stats());
        assert_eq!(e.num_compressed(), 1);
        // estimate still available after compression
        assert!(e.object_estimate(TagId(7)).is_some());
    }

    #[test]
    fn an_idle_period_that_cannot_elapse_never_compresses() {
        // the factored preset's policy is `disabled()`, whose idle
        // period is u64::MAX: switching it on alone used to overflow
        // the due epoch (debug: panic; release: a due epoch in the
        // past, one compression per sweep)
        let mut cfg = FilterConfig::factored_default();
        cfg.particles_per_object = 200;
        cfg.reader_particles = 30;
        cfg.compression.enabled = true;
        let mut e = engine(cfg);
        for t in 0..40u64 {
            let y = t as f64 * 0.1;
            let tags: &[u64] = if (y - 1.0).abs() < 1.0 { &[7] } else { &[] };
            e.process_batch(&batch(t, y, tags));
        }
        assert_eq!(e.stats().compressions, 0, "stats: {:?}", e.stats());
        assert_eq!(e.cooldown_entries(), 1);
    }

    #[test]
    fn decompression_on_reencounter() {
        let mut cfg = FilterConfig::full_default();
        cfg.particles_per_object = 200;
        cfg.reader_particles = 30;
        cfg.compression.idle_epochs = 5;
        cfg.report_delay_epochs = 5;
        let mut e = engine(cfg);
        // pass 1: read object at y ~ 1
        for t in 0..30u64 {
            let y = t as f64 * 0.1;
            let tags: Vec<u64> = if (y - 1.0).abs() < 1.0 {
                vec![7]
            } else {
                vec![]
            };
            e.process_batch(&batch(t, y, &tags));
        }
        assert!(e.num_compressed() >= 1);
        // pass 2 much later: the reader returns and reads it again
        for t in 100..115u64 {
            let y = 2.0 - (t - 100) as f64 * 0.1;
            let tags: Vec<u64> = if (y - 1.0).abs() < 1.0 {
                vec![7]
            } else {
                vec![]
            };
            e.process_batch(&batch(t, y, &tags));
        }
        assert!(e.stats().decompressions >= 1, "stats: {:?}", e.stats());
        assert_eq!(e.num_compressed(), 0, "counter must track decompression");
    }

    #[test]
    fn trust_reports_mode_runs_without_reader_filter() {
        let mut cfg = FilterConfig::factored_default();
        cfg.reader_mode = ReaderMode::TrustReports;
        cfg.particles_per_object = 200;
        let mut e = engine(cfg);
        for t in 0..30u64 {
            let y = t as f64 * 0.1;
            let tags: Vec<u64> = if (y - 1.0).abs() < 1.0 {
                vec![7]
            } else {
                vec![]
            };
            e.process_batch(&batch(t, y, &tags));
        }
        assert_eq!(e.stats().reader_resamples, 0);
        assert!(e.object_estimate(TagId(7)).is_some());
    }

    #[test]
    fn moved_object_triggers_respawn_or_reinit() {
        let mut cfg = FilterConfig::factored_default();
        cfg.particles_per_object = 300;
        cfg.reader_particles = 30;
        let mut e = engine(cfg);
        // object seen at y ~ 1 first
        for t in 0..25u64 {
            let y = t as f64 * 0.1;
            let tags: Vec<u64> = if (y - 1.0).abs() < 1.0 {
                vec![7]
            } else {
                vec![]
            };
            e.process_batch(&batch(t, y, &tags));
        }
        let before = e.object_estimate(TagId(7)).unwrap().0;
        assert!(before.y < 4.0);
        // then suddenly read when the reader is at y ~ 20 (object moved)
        for t in 25..40u64 {
            let y = 19.0 + (t - 25) as f64 * 0.1;
            e.process_batch(&batch(t, y, &[7]));
        }
        let s = e.stats();
        assert!(
            s.full_reinits + s.half_respawns >= 1,
            "re-detection should trigger respawn: {s:?}"
        );
        let after = e.object_estimate(TagId(7)).unwrap().0;
        assert!(after.y > 15.0, "estimate should follow the move: {after:?}");
    }

    #[test]
    fn memory_shrinks_with_compression() {
        let mut active_cfg = FilterConfig::factored_default();
        active_cfg.particles_per_object = 500;
        active_cfg.reader_particles = 30;
        let mut comp_cfg = active_cfg;
        comp_cfg.compression = crate::config::CompressionPolicy {
            enabled: true,
            idle_epochs: 3,
        };
        let drive = |e: &mut InferenceEngine<BoxPrior>| {
            for t in 0..30u64 {
                let y = t as f64 * 0.1;
                let tags: Vec<u64> = if (y - 1.0).abs() < 1.0 {
                    vec![7]
                } else {
                    vec![]
                };
                e.process_batch(&batch(t, y, &tags));
            }
        };
        let mut ea = engine(active_cfg);
        drive(&mut ea);
        let mut ec = engine(comp_cfg);
        drive(&mut ec);
        assert!(
            ec.memory_bytes() < ea.memory_bytes() / 4,
            "compressed {} vs active {}",
            ec.memory_bytes(),
            ea.memory_bytes()
        );
    }

    /// The compressed belief sets the size of an object-map entry; an
    /// unboxed active filter would make every entry larger again. The
    /// entry also holds the object's output-policy scope (24 bytes, in
    /// place of the 8 of a bare last-read epoch), which no separate
    /// per-tag map repeats.
    #[test]
    fn an_object_map_entry_is_sized_by_the_compressed_belief() {
        use std::mem::size_of;
        assert_eq!(size_of::<Belief>(), 88);
        assert_eq!(size_of::<(TagId, ObjectState)>(), 176);
    }
}
