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
//!    re-drawn from the engine RNG, one `gen_range` per dead pointer,
//!    in global tag order.
//!
//! The split that preserves all three: a [`ClusterHead`] owns the
//! reader and the engine RNG, and the workers own disjoint `tag % N`
//! slices of the objects. Per epoch:
//!
//! * [`ClusterHead::begin_epoch`] runs the reference reader update on a
//!   *stripped* batch (shelf readings + report only — object readings
//!   are partitioned out to their owners), so the head's engine-RNG
//!   stream is exactly the single-process one. It broadcasts an
//!   [`EpochPlan`]: the post-weight reader particles, the posterior
//!   estimate, whether a resample *will* fire (the reader's weights are
//!   frozen between ingest and the resample decision, so the ESS test
//!   is decidable up front), and each worker's readings.
//! * each [`ClusterWorker::process_epoch`] installs the reader
//!   snapshot, steps its own objects (object steps draw only from
//!   per-`(seed, tag, epoch)` task streams, so location does not
//!   matter), emits its due events, and returns one [`TaskReport`] per
//!   stepped object: the staged support row, plus — on will-resample
//!   epochs — a histogram of the object's reader-ancestor pointers.
//! * [`ClusterHead::finish_epoch`] k-way-merges the reports by tag
//!   (workers own disjoint residue classes, so the merged order is the
//!   single-process step order), merges the support rows, and runs the
//!   reference resample on its own RNG. When the resample fires it
//!   replays the remap draw sequence — the histograms give each
//!   object's dead-pointer count without shipping the particles — and
//!   returns a [`ResampleDirective`] carrying the remap, the
//!   post-resample reader, and each object's replacement draws.
//! * [`ClusterWorker::apply_resample`] applies the remap with the
//!   supplied draws (in particle order, exactly as
//!   `ObjectFilter::apply_reader_remap` would have drawn them), swaps
//!   in the post-resample reader, and runs the compression sweep.
//!
//! The event stream of an epoch is the tag-ordered concatenation of
//! the workers' due events; a coordinator reconstructs the global
//! order with the same k-way merge (`rfid_stream::wire::merge_by_tag`,
//! which [`ClusterHead::finish_epoch`] uses too). The
//! wire protocol and process topology live in the `rfid-cluster`
//! crate; this module is transport-free so the equivalence can be
//! tested in-process.

use super::*;
use crate::factored::ReaderRemap;
use crate::particle::ReaderParticle;
use rand::Rng;

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
    /// Object readings partitioned by owner (`tag % num_workers`).
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

/// The cluster's reader-owning half: a full engine fed stripped
/// batches, so it never tracks objects but replays the single-process
/// reader update and RNG stream exactly.
pub struct ClusterHead<P: LocationPrior, S: ReadRateModel = rfid_model::LogisticSensorModel> {
    engine: InferenceEngine<P, S>,
    num_workers: usize,
    /// Reused stripped-batch buffer.
    stripped: EpochBatch,
}

impl<P: LocationPrior, S: ReadRateModel> ClusterHead<P, S> {
    /// Wraps an engine built with the *same* configuration (seed
    /// included) as the single-process reference.
    pub fn new(engine: InferenceEngine<P, S>, num_workers: usize) -> Self {
        assert!(num_workers >= 1, "a cluster has at least one worker");
        Self {
            engine,
            num_workers,
            stripped: EpochBatch {
                epoch: Epoch(0),
                readings: Vec::new(),
                reader_report: None,
            },
        }
    }

    /// Runs the reader update for one epoch and returns the broadcast
    /// plan. Object readings never enter the head's engine; they are
    /// routed to their `tag % num_workers` owner in the plan.
    pub fn begin_epoch(&mut self, batch: &EpochBatch) -> EpochPlan {
        let e = &mut self.engine;
        e.stats.epochs += 1;
        e.stats.readings += batch.readings.len() as u64;
        let mut readings = vec![Vec::new(); self.num_workers];
        self.stripped.epoch = batch.epoch;
        self.stripped.reader_report = batch.reader_report;
        self.stripped.readings.clear();
        for tag in &batch.readings {
            if e.shelf_ids.contains(tag) {
                self.stripped.readings.push(*tag);
            } else {
                readings[(tag.0 % self.num_workers as u64) as usize].push(*tag);
            }
        }
        let reader_est = e.ingest(&self.stripped);
        // a no-object infer: records an empty sensing region, but
        // steps nothing
        e.infer(batch.epoch, &reader_est);
        let reader = e.reader.as_ref().expect("reader initialized");
        let will_resample = e.config.reader_mode == ReaderMode::Filter
            && reader.ess() < e.config.resample_ess_frac * reader.len() as f64;
        EpochPlan {
            epoch: batch.epoch,
            reader_est,
            will_resample,
            reader: reader.particles().to_vec(),
            readings,
        }
    }

    /// Merges the workers' support rows in global tag order and runs
    /// the reference resample decision. `reports` holds one list per
    /// worker, each sorted by tag (the worker's step order). Returns
    /// the directive iff the plan announced `will_resample`.
    pub fn finish_epoch(&mut self, reports: &[Vec<TaskReport>]) -> Option<ResampleDirective> {
        let e = &mut self.engine;
        // k-way merge by tag: residue classes are disjoint, so this is
        // exactly the single-process global step order
        let mut order: Vec<&TaskReport> = Vec::with_capacity(reports.iter().map(Vec::len).sum());
        rfid_stream::wire::merge_by_tag(reports, |t| t.tag, |t| order.push(t));
        e.stats.object_updates += order.len() as u64;
        {
            let reader = e.reader.as_mut().expect("reader initialized");
            for t in &order {
                reader.merge_support(&t.support);
            }
        }
        if e.config.reader_mode != ReaderMode::Filter {
            return None;
        }
        let remap = e
            .reader
            .as_mut()
            .expect("reader initialized")
            .maybe_resample(e.config.resample_ess_frac, &mut e.rng)?;
        e.stats.reader_resamples += 1;
        // replay the single-process remap draw sequence: one gen_range
        // per dead ancestor pointer, objects in global tag order
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
                vals.push(e.rng.gen_range(0..remap.num_new()));
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
        let epoch = plan.epoch;
        let readings = &plan.readings[index];
        e.stats.epochs += 1;
        e.stats.readings += readings.len() as u64;
        let nr = plan.reader.len();
        e.reader = Some(ReaderFilter::from_parts(
            plan.reader.clone(),
            vec![0.0; nr],
            0,
        ));
        // ingest, minus the reader update the head already ran: the
        // plan's readings are all objects this worker owns
        e.shelf_read.clear();
        e.object_read.clear();
        e.object_read.extend_from_slice(readings);
        e.object_read.sort_unstable();
        e.object_read.dedup();
        e.support_tee = Some(Vec::new());
        let t0 = std::time::Instant::now();
        e.infer(epoch, &plan.reader_est);
        e.stats.infer_us += t0.elapsed().as_micros() as u64;
        let rows = e.support_tee.take().unwrap_or_default();
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
        // due events, exactly as the single-process emit stage (events
        // precede the resample there, so they are final already)
        let t0 = std::time::Instant::now();
        e.policy.due_into(epoch, &mut e.due);
        e.emit_due_events(epoch, events);
        e.stats.emit_us += t0.elapsed().as_micros() as u64;
        reports
    }

    /// Completes the epoch after the head's resample decision:
    /// `directive` must be `Some` exactly when the plan announced
    /// `will_resample`. Applies the remap with the head's draws, swaps
    /// in the post-resample reader, then runs the compression sweep.
    /// Timed into `emit_us` with the epoch's due events: together they
    /// are the single-process emit stage. (`ingest_us` stays 0 — the
    /// head runs the reader update.)
    pub fn apply_resample(&mut self, epoch: Epoch, directive: Option<&ResampleDirective>) {
        let t0 = std::time::Instant::now();
        let e = &mut self.engine;
        if let Some(d) = directive {
            e.stats.reader_resamples += 1;
            let by_tag: std::collections::HashMap<TagId, &[u32]> = d
                .draws
                .iter()
                .map(|(tag, vals)| (*tag, vals.as_slice()))
                .collect();
            for i in 0..e.active.len() {
                let tag = e.active[i];
                if let Some(ObjectState {
                    belief: Belief::Active(f),
                    ..
                }) = e.objects.get_mut(&tag)
                {
                    let vals = by_tag.get(&tag).copied().unwrap_or(&[]);
                    let mut next = vals.iter();
                    f.apply_reader_remap_with(&d.remap, || {
                        *next
                            .next()
                            .expect("one replacement draw per dead ancestor pointer")
                    });
                    debug_assert!(next.next().is_none(), "unconsumed replacement draws");
                }
            }
            let nr = d.reader.len();
            e.reader = Some(ReaderFilter::from_parts(d.reader.clone(), vec![0.0; nr], 0));
        }
        e.run_compression_sweep(epoch);
        e.stats.emit_us += t0.elapsed().as_micros() as u64;
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
    /// metrics registry (see [`InferenceEngine::observe_metrics`]).
    pub fn observe_metrics(&mut self) {
        self.engine.observe_metrics();
    }
}
