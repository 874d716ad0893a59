//! Head / worker halves of the multi-process engine cluster.
//!
//! The factorization makes objects independent given the reader, so
//! they can be partitioned by `tag % N` — this module is the one place
//! that partition exists. It splits whole engines across *processes*
//! while keeping the emitted event stream **bit-identical** to the
//! single-process engine. The rule every piece below follows: **merge
//! every cross-worker floating-point effect in global tag order**,
//! never in worker order, which changes with `N`. The obstacle is the
//! reader filter, which globally couples the objects three ways:
//!
//! 1. every object step stages a **support row** that is merged into
//!    the reader's support accumulator in global tag order (f64 sums —
//!    order is part of the contract);
//! 2. the reader **resample** consumes one engine-RNG uniform, and its
//!    target distribution mixes the merged support into the weights;
//! 3. after a resample, each active object's dead ancestor pointers are
//!    re-drawn from the engine RNG, one draw per dead pointer, in
//!    global tag order.
//!
//! The split that preserves all three: a [`ClusterHead`] owns the
//! reader and the engine RNG, and the workers own disjoint `tag % N`
//! slices of the objects. Neither re-implements a stage: both call the
//! engine's own stage methods (see the [`super`] module docs), and add
//! only what a cluster needs — routing the object readings by
//! `tag % N`, teeing support rows and ancestor histograms out of the
//! workers, and the head's replay of the remap draws. Per epoch:
//!
//! * [`ClusterHead::begin_epoch`] runs the engine's ingest stage on the
//!   batch. Its reader update reads only the shelf tags and the report,
//!   so the head's engine-RNG stream is exactly the single-process one.
//!   It routes the object reads to their `tag % num_workers` owners and
//!   broadcasts an [`EpochPlan`]: the post-weight reader particles, the
//!   posterior estimate, whether a resample *will* fire (the reader's
//!   weights are frozen between ingest and the resample decision, so
//!   the ESS test is decidable up front), and each worker's readings.
//!   The head never runs infer: it tracks no object.
//! * each [`ClusterWorker::process_epoch`] installs the reader
//!   snapshot, splits its readings, runs the infer stage over its own
//!   objects (object steps draw only from per-`(seed, tag, epoch)` task
//!   streams, so location does not matter) and the due-event emission,
//!   and returns one [`TaskReport`] per stepped object: the staged
//!   support row, plus — on will-resample epochs — a histogram of the
//!   object's reader-ancestor pointers.
//! * [`ClusterHead::finish_epoch`] k-way-merges the reports by tag
//!   (workers own disjoint residue classes, so the merged order is the
//!   single-process step order), merges the support rows, and runs the
//!   engine's reader-resample stage on its own RNG. When the resample
//!   fires it replays the remap draw sequence — the histograms give each
//!   object's dead-pointer count without shipping the particles — and
//!   returns a [`ResampleDirective`] carrying the remap, the
//!   post-resample reader, and each object's replacement draws.
//! * [`ClusterWorker::apply_resample`] runs the engine's remap stage
//!   with the supplied draws as its draw, swaps in the post-resample
//!   reader, runs the compression sweep, and publishes the epoch.
//!
//! The event stream of an epoch is the tag-ordered concatenation of
//! the workers' due events; a coordinator reconstructs the global
//! order with the same k-way merge (`rfid_stream::wire::merge_by_tag`,
//! which [`ClusterHead::finish_epoch`] uses too). The
//! wire protocol and process topology live in the `rfid-cluster`
//! crate; this module is transport-free so the equivalence can be
//! tested in-process.

use super::*;
use crate::particle::ReaderParticle;

/// Everything a worker needs to run one epoch, broadcast by the head.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    pub epoch: Epoch,
    /// Posterior reader estimate after the head's ingest (sensing box +
    /// re-detection anchor; identical on every worker).
    pub reader_est: Pose,
    /// Whether the reader resample will fire this epoch. Decidable at
    /// broadcast time: the reader weights are frozen between ingest and
    /// the resample decision. Workers collect ancestor histograms only
    /// when set.
    pub will_resample: bool,
    /// Post-weight reader particles of this epoch.
    pub reader: Vec<ReaderParticle>,
    /// Object reads partitioned by owner (`tag % num_workers`), each
    /// sorted and deduplicated.
    pub readings: Vec<Vec<TagId>>,
}

/// One stepped object's contribution to the head's reader update.
#[derive(Debug, Clone)]
pub struct TaskReport {
    pub tag: TagId,
    /// The staged support row (one entry per reader particle).
    pub support: Vec<f64>,
    /// Histogram of the object's post-step reader-ancestor pointers
    /// (empty unless the plan announced a resample).
    pub reader_hist: Vec<u32>,
}

/// The head's reply on epochs where the reader resampled.
#[derive(Debug, Clone)]
pub struct ResampleDirective {
    pub remap: ReaderRemap,
    /// Post-resample reader particles (uniform weights).
    pub reader: Vec<ReaderParticle>,
    /// Replacement draws for dead ancestor pointers, one list per
    /// stepped object in global tag order; each worker consumes its own
    /// tags' lists in particle order.
    pub draws: Vec<(TagId, Vec<u32>)>,
}

/// The cluster's reader-owning half: a full engine that runs the
/// ingest and reader-resample stages only, so it never tracks objects
/// but replays the single-process reader update and RNG stream exactly.
pub struct ClusterHead<P: LocationPrior, S: ReadRateModel = rfid_model::LogisticSensorModel> {
    engine: InferenceEngine<P, S>,
    num_workers: usize,
}

impl<P: LocationPrior, S: ReadRateModel> ClusterHead<P, S> {
    /// Wraps an engine built with the *same* configuration (seed
    /// included) as the single-process reference.
    pub fn new(engine: InferenceEngine<P, S>, num_workers: usize) -> Self {
        assert!(num_workers >= 1, "a cluster has at least one worker");
        Self {
            engine,
            num_workers,
        }
    }

    /// Runs the ingest stage for one epoch and returns the broadcast
    /// plan, with the object reads routed to their `tag % num_workers`
    /// owner.
    pub fn begin_epoch(&mut self, batch: &EpochBatch) -> EpochPlan {
        let e = &mut self.engine;
        let reader_est = e.ingest(batch);
        // the head never publishes: it counts its epochs itself
        e.stats.epochs += 1;
        let mut readings = vec![Vec::new(); self.num_workers];
        for tag in &e.object_read {
            readings[(tag.0 % self.num_workers as u64) as usize].push(*tag);
        }
        let reader = e.reader.as_ref().expect("reader initialized");
        let will_resample =
            e.config.reader_mode == ReaderMode::Filter && reader.resample_due(RESAMPLE_ESS_FRAC);
        EpochPlan {
            epoch: batch.epoch,
            reader_est,
            will_resample,
            reader: reader.particles().to_vec(),
            readings,
        }
    }

    /// Merges the workers' support rows in global tag order and runs
    /// the reader-resample stage. `reports` holds one list per worker,
    /// each sorted by tag (the worker's step order). Returns the
    /// directive iff the plan announced `will_resample`.
    pub fn finish_epoch(&mut self, reports: &[Vec<TaskReport>]) -> Option<ResampleDirective> {
        let e = &mut self.engine;
        // k-way merge by tag: residue classes are disjoint, so this is
        // exactly the single-process global step order
        let mut order: Vec<&TaskReport> = Vec::with_capacity(reports.iter().map(Vec::len).sum());
        rfid_stream::wire::merge_by_tag(reports, |t| t.tag, |t| order.push(t));
        e.stats.object_updates += order.len() as u64;
        let reader = e.reader.as_mut().expect("reader initialized");
        for t in &order {
            reader.merge_support(&t.support);
        }
        let remap = e.resample_reader()?;
        // replay the single-process remap draws: one per dead ancestor
        // pointer, objects in global tag order
        let mut draws = Vec::with_capacity(order.len());
        for t in &order {
            let dead: usize = t
                .reader_hist
                .iter()
                .enumerate()
                .filter(|(r, _)| remap.map(*r as u32).is_none())
                .map(|(_, c)| *c as usize)
                .sum();
            let mut vals = Vec::with_capacity(dead);
            for _ in 0..dead {
                vals.push(replacement_draw(&mut e.rng, &remap));
            }
            draws.push((t.tag, vals));
        }
        let reader = e.reader.as_ref().expect("reader initialized");
        Some(ResampleDirective {
            remap,
            reader: reader.particles().to_vec(),
            draws,
        })
    }

    /// The head engine's statistics (reader resamples, epoch counts;
    /// `object_updates` counts the merged cluster-wide steps).
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }
}

/// One worker's slice of the cluster: a full engine that owns the
/// objects with `tag % num_workers == index` and receives its reader
/// state from the head every epoch.
pub struct ClusterWorker<P: LocationPrior, S: ReadRateModel = rfid_model::LogisticSensorModel> {
    engine: InferenceEngine<P, S>,
}

/// Installs reader particles shipped by the head. Their support starts
/// at zero: the head merges the support rows.
fn install_reader<P: LocationPrior, S: ReadRateModel>(
    e: &mut InferenceEngine<P, S>,
    particles: &[ReaderParticle],
) {
    let support = vec![0.0; particles.len()];
    e.reader = Some(ReaderFilter::from_parts(particles.to_vec(), support, 0));
}

impl<P: LocationPrior, S: ReadRateModel> ClusterWorker<P, S> {
    /// Wraps an engine built with the *same* configuration (seed
    /// included) as the single-process reference. The worker's own
    /// engine RNG is never consumed — all engine-RNG draws happen on
    /// the head.
    pub fn new(engine: InferenceEngine<P, S>) -> Self {
        Self { engine }
    }

    /// Runs one epoch over this worker's partition: installs the
    /// reader snapshot, steps the objects named (or spatially
    /// activated) this epoch, and appends the due events (sorted by
    /// tag). Returns one report per stepped object, in tag order.
    pub fn process_epoch(
        &mut self,
        plan: &EpochPlan,
        index: usize,
        events: &mut Vec<LocationEvent>,
    ) -> Vec<TaskReport> {
        let e = &mut self.engine;
        install_reader(e, &plan.reader);
        // the plan's readings are all objects this worker owns; the
        // head ran the reader update
        e.split_readings(&plan.readings[index]);
        e.support_tee = Some(Vec::new());
        e.timed(Stage::Infer, |e| e.infer(plan.epoch, &plan.reader_est));
        let rows = e.support_tee.take().unwrap_or_default();
        let nr = plan.reader.len();
        let mut reports = Vec::with_capacity(rows.len());
        for (tag, support) in rows {
            let reader_hist = if plan.will_resample {
                let mut hist = vec![0u32; nr];
                let Some(ObjectState {
                    belief: Belief::Active(f),
                    ..
                }) = e.objects.get(&tag)
                else {
                    unreachable!("a stepped object ends the epoch active");
                };
                for &r in &f.soa().reader_idx {
                    hist[r as usize] += 1;
                }
                hist
            } else {
                Vec::new()
            };
            reports.push(TaskReport {
                tag,
                support,
                reader_hist,
            });
        }
        e.timed(Stage::Emit, |e| e.emit_due(plan.epoch, events));
        reports
    }

    /// Completes the epoch after the head's resample decision:
    /// `directive` must be `Some` exactly when the plan announced
    /// `will_resample`. Runs the remap stage with the head's draws,
    /// swaps in the post-resample reader, runs the compression sweep,
    /// and publishes the epoch. The work here and the due events are
    /// timed together as the emit stage; the ingest stage stays at 0
    /// (the head runs the reader update).
    pub fn apply_resample(&mut self, epoch: Epoch, directive: Option<&ResampleDirective>) {
        let e = &mut self.engine;
        e.timed(Stage::Emit, |e| {
            if let Some(d) = directive {
                e.stats.reader_resamples += 1;
                // the directive lists every stepped object in global tag
                // order; this worker's are the ones in its active set,
                // and they take their draws in that same order
                let mine: Vec<u32> = d
                    .draws
                    .iter()
                    .filter(|(tag, _)| e.active.binary_search(tag).is_ok())
                    .flat_map(|(_, vals)| vals.iter().copied())
                    .collect();
                let mut next = mine.into_iter();
                e.remap_active(&d.remap, |_| {
                    next.next()
                        .expect("one replacement draw per dead ancestor pointer")
                });
                debug_assert!(next.next().is_none(), "unconsumed replacement draws");
                install_reader(e, &d.reader);
            }
            e.run_compression_sweep(epoch);
        });
        e.publish(epoch);
    }

    /// Flushes pending reports at end of trace (tag-sorted, like every
    /// per-epoch event list).
    pub fn finalize_into(&mut self, epoch: Epoch, events: &mut Vec<LocationEvent>) {
        self.engine.finalize_into(epoch, events);
    }

    /// The worker engine's statistics (its partition only).
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// Mirrors the worker engine's stats progress onto the global
    /// metrics registry. [`ClusterWorker::apply_resample`] and
    /// [`ClusterWorker::finalize_into`] publish on their own; this is
    /// for a caller that reads the registry mid-epoch.
    pub fn observe_metrics(&mut self) {
        self.engine.metrics.observe(&self.engine.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_model::{ConeSensor, ModelParams};
    use rfid_sim::{scenario, WarehouseLayout};

    fn engine(sc: &scenario::Scenario) -> InferenceEngine<WarehouseLayout, ConeSensor> {
        let model = JointModel::with_sensor(
            ConeSensor::paper_default(),
            ModelParams::default_warehouse(),
        );
        let mut cfg = FilterConfig::full_default();
        cfg.particles_per_object = 120;
        cfg.reader_particles = 40;
        cfg.report_delay_epochs = 20;
        InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
            .expect("valid config")
    }

    #[test]
    fn workers_hold_the_single_process_pointers_after_every_epoch() {
        // the next step re-draws every pointer, so a wrong remap draw
        // shows in the event stream only through a same-epoch
        // compression: compare the pointers themselves
        let sc = scenario::small_trace(10, 4, 2024);
        let mut reference = engine(&sc);
        let mut head = ClusterHead::new(engine(&sc), 2);
        let mut workers = [
            ClusterWorker::new(engine(&sc)),
            ClusterWorker::new(engine(&sc)),
        ];
        let mut remapped = 0;
        for batch in &sc.trace.epoch_batches() {
            reference.process_batch(batch);
            let plan = head.begin_epoch(batch);
            let reports: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(i, w)| w.process_epoch(&plan, i, &mut Vec::new()))
                .collect();
            let directive = head.finish_epoch(&reports);
            if let Some(d) = &directive {
                remapped += d.draws.iter().filter(|(_, v)| !v.is_empty()).count();
            }
            for w in &mut workers {
                w.apply_resample(batch.epoch, directive.as_ref());
            }
            for tag in reference.tracked_objects() {
                let worker = &workers[(tag.0 % 2) as usize].engine;
                assert_eq!(
                    worker.object_particles(tag).map(|s| &s.reader_idx),
                    reference.object_particles(tag).map(|s| &s.reader_idx),
                    "{tag:?} at epoch {}",
                    batch.epoch.0
                );
            }
        }
        assert!(remapped > 0, "no object had a dead ancestor pointer");
    }

    #[test]
    fn the_head_records_no_sensing_region() {
        // the head tracks no object, so it has no region to record
        let sc = scenario::small_trace(6, 4, 5);
        let mut head = ClusterHead::new(engine(&sc), 2);
        let batches = sc.trace.epoch_batches();
        for batch in &batches {
            let plan = head.begin_epoch(batch);
            let reports = vec![Vec::new(); 2];
            let directive = head.finish_epoch(&reports);
            assert_eq!(directive.is_some(), plan.will_resample);
        }
        assert!(batches.len() > 10, "the trace must span epochs");
        assert_eq!(head.stats().epochs, batches.len() as u64);
        let index = head.engine.index.as_ref().expect("the index is on");
        assert_eq!(index.num_regions(), 0);
    }
}
