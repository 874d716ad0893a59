//! The crash-recovery harness: drives an inference engine into a
//! [`DurableStore`] with periodic engine checkpoints, optionally dies
//! at a planned [`FaultPlan`] crash point, and recovers by loading the
//! newest usable checkpoint, truncating the segment log back to its
//! epoch, and re-running the remaining batches.
//!
//! The correctness claim rests on the engine's determinism contract:
//! re-processing batch `E+1` from a checkpoint taken at epoch `E`
//! regenerates *bit-identical* events, so recovery may freely discard
//! everything logged after the checkpoint and replay forward — the
//! final event stream (and its FNV-1a digest) matches an uninterrupted
//! run exactly.
//!
//! ## On-disk layout of a durable run directory
//!
//! ```text
//! <dir>/
//!   engine.ckpt         newest engine checkpoint (atomic rename)
//!   engine.prev.ckpt    the one before it (rotation fallback)
//!   log/                rfid_serve segment log
//!     MANIFEST
//!     segment-*.log
//! ```
//!
//! Checkpoint protocol: every `checkpoint_every` epochs the log is
//! fsynced *first* (so the checkpoint never claims an epoch the log
//! does not durably hold), then `engine.ckpt` is demoted to
//! `engine.prev.ckpt` and the new checkpoint written atomically. A
//! crash between demotion and write loses only the newest checkpoint —
//! recovery falls back to the previous one and replays further.

use crate::fault::FaultPlan;
use crate::golden::event_digest;
use rfid_core::engine::checkpoint::{self, CheckpointError};
use rfid_core::engine::run_engine;
use rfid_core::{FilterConfig, InferenceEngine};
use rfid_model::ConeSensor;
use rfid_serve::store::{EventStore, StoreConfig};
use rfid_serve::{DurableStore, LogError, Recovery, SegmentLog};
use rfid_sim::scenario::Scenario;
use rfid_sim::WarehouseLayout;
use rfid_stream::{Epoch, EpochBatch, InferenceStage, LocationEvent};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name of the newest checkpoint in a run directory.
pub const CHECKPOINT_FILE: &str = "engine.ckpt";
/// File name of the demoted previous checkpoint.
pub const CHECKPOINT_PREV_FILE: &str = "engine.prev.ckpt";
/// Subdirectory holding the segment log.
pub const LOG_SUBDIR: &str = "log";

/// Anything a durable run or recovery can fail on.
#[derive(Debug)]
pub enum HarnessError {
    Io(std::io::Error),
    Log(LogError),
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io(e) => write!(f, "i/o: {e}"),
            HarnessError::Log(e) => write!(f, "segment log: {e}"),
            HarnessError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<std::io::Error> for HarnessError {
    fn from(e: std::io::Error) -> Self {
        HarnessError::Io(e)
    }
}

impl From<LogError> for HarnessError {
    fn from(e: LogError) -> Self {
        HarnessError::Log(e)
    }
}

impl From<CheckpointError> for HarnessError {
    fn from(e: CheckpointError) -> Self {
        HarnessError::Checkpoint(e)
    }
}

/// Knobs of a durable run.
#[derive(Debug, Clone)]
pub struct DurableRunOpts {
    /// Checkpoint cadence in epochs (a checkpoint lands at every epoch
    /// that is a positive multiple of this).
    pub checkpoint_every: u64,
    /// `true`: epoch-triggered fault plans `std::process::abort()` at
    /// the crash point (the child-harness behavior). `false`: the run
    /// returns with [`RunOutcome::completed`] = `false` instead, for
    /// in-process crash tests. Byte-triggered plans always abort —
    /// they fire inside the log layer itself.
    pub abort_on_fault: bool,
}

impl Default for DurableRunOpts {
    fn default() -> Self {
        DurableRunOpts {
            checkpoint_every: 25,
            abort_on_fault: false,
        }
    }
}

/// What a (possibly interrupted) durable run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// `false` if the run stopped at a simulated crash point.
    pub completed: bool,
    /// FNV-1a digest over the stored event stream — only meaningful
    /// (comparable to [`reference_digest`]) when `completed`.
    pub digest: u64,
    /// Events in the store when the run stopped.
    pub events: usize,
    /// Checkpoints written during this run.
    pub checkpoints: usize,
    /// Wall-clock of the batch-processing loop.
    pub drive_elapsed: Duration,
}

/// [`RunOutcome`] plus what recovery had to do to get there.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    pub run: RunOutcome,
    /// Epoch of the checkpoint recovery resumed from (`None`: no
    /// usable checkpoint — deterministic re-run from the beginning).
    pub resumed_from: Option<u64>,
    /// Last epoch the log durably held at recovery time.
    pub last_durable_epoch: Option<u64>,
    /// What the segment log had to repair on open (torn tails,
    /// adopted segments, rebuilt manifest).
    pub log_recovery: Recovery,
    /// Events rebuilt into the store by log replay.
    pub replayed_events: usize,
    /// Wall-clock of recovery itself: log open + truncation + replay
    /// + checkpoint load (excludes the resumed batch loop).
    pub recover_elapsed: Duration,
}

type Engine = InferenceEngine<WarehouseLayout, ConeSensor>;

/// The three golden-trace scenarios (plus `"tiny"`, a fast variant for
/// harness self-tests), with the same pinned configurations the
/// golden-trace digests are committed under. The single definition
/// lives in [`rfid_cluster::scenario`] so the recovery harness and the
/// cluster binaries can never drift apart.
pub use rfid_cluster::scenario::canonical_scenario;

use rfid_cluster::scenario::build_engine;

/// Digest of the event stream an *uninterrupted* run produces — the
/// value every recovered run must reproduce exactly.
pub fn reference_digest(sc: &Scenario, cfg: &FilterConfig) -> u64 {
    let mut engine = build_engine(sc, cfg);
    event_digest(&run_engine(&mut engine, &sc.trace.epoch_batches()))
}

/// Digest over a store's events in sequence order.
pub fn store_digest(store: &EventStore) -> u64 {
    let events: Vec<LocationEvent> = store.events().map(|s| s.event).collect();
    event_digest(&events)
}

fn log_dir(dir: &Path) -> PathBuf {
    dir.join(LOG_SUBDIR)
}

/// Runs a scenario from scratch into `dir` (which must not already
/// hold a run), honoring `plan` if given.
pub fn run_fresh(
    sc: &Scenario,
    cfg: &FilterConfig,
    dir: &Path,
    opts: &DurableRunOpts,
    plan: Option<FaultPlan>,
) -> Result<RunOutcome, HarnessError> {
    std::fs::create_dir_all(dir)?;
    let mut durable = DurableStore::open(&log_dir(dir), StoreConfig::default())?;
    let mut engine = build_engine(sc, cfg);
    drive(&mut engine, sc, None, &mut durable, dir, opts, plan)
}

/// Recovers a crashed run in `dir` and drives it onward (to completion
/// unless `plan` crashes it again) — the restart half of a
/// kill-and-restart cycle. Also valid on a directory holding a
/// *finished* run: recovery replays it and the batch loop is a no-op.
pub fn resume(
    sc: &Scenario,
    cfg: &FilterConfig,
    dir: &Path,
    opts: &DurableRunOpts,
    plan: Option<FaultPlan>,
) -> Result<ResumeOutcome, HarnessError> {
    let t0 = Instant::now();

    // 1. Open the log (this alone repairs torn tails and rebuilds a
    //    missing manifest) and learn the last durable epoch.
    let mut log = SegmentLog::open(&log_dir(dir), StoreConfig::default().segment_epochs)?;
    let last_durable = log.last_completed();
    let log_recovery = log.recovery();

    // 2. Pick the newest checkpoint whose epoch the log durably
    //    covers. An unreadable or torn candidate is skipped, not fatal
    //    — that is what the rotation fallback is for.
    let mut pick: Option<(u64, PathBuf)> = None;
    for name in [CHECKPOINT_FILE, CHECKPOINT_PREV_FILE] {
        let path = dir.join(name);
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let Ok(epoch) = checkpoint::peek_epoch(&bytes) else {
            continue;
        };
        let usable = last_durable.is_some_and(|l| epoch.0 <= l);
        if usable && pick.as_ref().is_none_or(|(e, _)| epoch.0 > *e) {
            pick = Some((epoch.0, path));
        }
    }

    // 3. Reconcile the log with the resume point: everything after the
    //    checkpoint epoch will be regenerated bit-identically, so drop
    //    it. With no usable checkpoint the whole log is regenerated —
    //    drop it wholesale and re-run from the first batch.
    let resume_after = match &pick {
        Some((epoch, _)) => {
            log.truncate_after_epoch(Epoch(*epoch))?;
            drop(log);
            Some(*epoch)
        }
        None => {
            drop(log);
            std::fs::remove_dir_all(log_dir(dir))?;
            None
        }
    };

    // 4. Rebuild the store by replay and the engine from the
    //    checkpoint.
    let mut durable = DurableStore::open(&log_dir(dir), StoreConfig::default())?;
    let replayed_events = durable.store().events().count();
    let mut engine = build_engine(sc, cfg);
    if let Some((epoch, path)) = &pick {
        let restored = engine.load_checkpoint(path)?;
        debug_assert_eq!(restored.0, *epoch);
    }
    let recover_elapsed = t0.elapsed();

    // 5. Drive the remaining batches.
    let run = drive(&mut engine, sc, resume_after, &mut durable, dir, opts, plan)?;
    Ok(ResumeOutcome {
        run,
        resumed_from: resume_after,
        last_durable_epoch: last_durable,
        log_recovery,
        replayed_events,
        recover_elapsed,
    })
}

/// The batch loop shared by fresh and resumed runs. Mirrors
/// [`run_engine`] exactly — per-batch processing in order, one final
/// flush at the last epoch — so the durable event stream is
/// bit-identical to the in-memory reference.
fn drive(
    engine: &mut Engine,
    sc: &Scenario,
    resume_after: Option<u64>,
    durable: &mut DurableStore,
    dir: &Path,
    opts: &DurableRunOpts,
    plan: Option<FaultPlan>,
) -> Result<RunOutcome, HarnessError> {
    let t0 = Instant::now();
    if let Some(fault) = plan.as_ref().and_then(FaultPlan::write_fault) {
        durable.log_mut().arm_fault(fault);
    }

    let batches: Vec<EpochBatch> = sc.trace.epoch_batches();
    let mut buf = Vec::new();
    let mut checkpoints = 0usize;
    let mut crashed = false;
    for batch in &batches {
        if resume_after.is_some_and(|e| batch.epoch.0 <= e) {
            continue;
        }
        buf.clear();
        engine.process_batch_into(batch, &mut buf);
        for event in &buf {
            durable.push(event)?;
        }
        durable.complete_epoch(batch.epoch)?;

        if matches!(plan, Some(FaultPlan::KillAtEpoch(e)) if e == batch.epoch.0) {
            durable.sync()?;
            if opts.abort_on_fault {
                std::process::abort();
            }
            crashed = true;
            break;
        }

        if batch.epoch.0 > 0 && batch.epoch.0 % opts.checkpoint_every == 0 {
            // the log must durably cover the checkpoint's epoch before
            // the checkpoint exists
            durable.sync()?;
            let ckpt = dir.join(CHECKPOINT_FILE);
            let prev = dir.join(CHECKPOINT_PREV_FILE);
            if ckpt.exists() {
                std::fs::rename(&ckpt, &prev)?;
            }
            if matches!(plan, Some(FaultPlan::CheckpointRotationCrash(e)) if e == batch.epoch.0) {
                if opts.abort_on_fault {
                    std::process::abort();
                }
                crashed = true;
                break;
            }
            engine.save_checkpoint(&ckpt, batch.epoch)?;
            checkpoints += 1;
        }
    }

    if !crashed {
        let last = batches.last().map(|b| b.epoch).unwrap_or(Epoch(0));
        buf.clear();
        engine.finalize_into(last, &mut buf);
        for event in &buf {
            durable.push(event)?;
        }
        durable.finish()?;
        durable.sync()?;
    }

    Ok(RunOutcome {
        completed: !crashed,
        digest: store_digest(durable.store()),
        events: durable.store().events().count(),
        checkpoints,
        drive_elapsed: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rfid-recovery-{name}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny() -> (Scenario, FilterConfig) {
        canonical_scenario("tiny").unwrap()
    }

    #[test]
    fn uninterrupted_durable_run_matches_the_reference_digest() {
        let (sc, cfg) = tiny();
        let dir = temp_dir("clean");
        let opts = DurableRunOpts {
            checkpoint_every: 20,
            ..DurableRunOpts::default()
        };
        let out = run_fresh(&sc, &cfg, &dir, &opts, None).unwrap();
        assert!(out.completed);
        assert!(out.checkpoints > 0, "cadence must have fired");
        assert_eq!(out.digest, reference_digest(&sc, &cfg));

        // resuming a finished run truncates back to the newest
        // checkpoint and regenerates the tail — same digest
        let resumed = resume(&sc, &cfg, &dir, &opts, None).unwrap();
        assert!(resumed.run.completed);
        assert_eq!(resumed.run.digest, out.digest);
        assert!(resumed.resumed_from.is_some());
        assert!(resumed.replayed_events <= out.events);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_and_resume_reproduces_the_digest() {
        let (sc, cfg) = tiny();
        let golden = reference_digest(&sc, &cfg);
        let opts = DurableRunOpts {
            checkpoint_every: 15,
            ..DurableRunOpts::default()
        };
        // crash after a checkpoint exists and mid-way between two
        let dir = temp_dir("kill");
        let out = run_fresh(&sc, &cfg, &dir, &opts, Some(FaultPlan::KillAtEpoch(38))).unwrap();
        assert!(!out.completed);
        let resumed = resume(&sc, &cfg, &dir, &opts, None).unwrap();
        assert!(resumed.run.completed);
        assert_eq!(resumed.resumed_from, Some(30), "newest checkpoint <= 38");
        assert_eq!(resumed.last_durable_epoch, Some(38));
        assert_eq!(resumed.run.digest, golden);
        let _ = std::fs::remove_dir_all(&dir);

        // the canonical scenarios: killed half-way, several checkpoints
        // per trace regardless of its length
        for name in ["small_warehouse", "low_read_rate", "moving_object"] {
            let (sc, cfg) = canonical_scenario(name).unwrap();
            let last = sc.trace.epoch_batches().last().unwrap().epoch.0;
            let opts = DurableRunOpts {
                checkpoint_every: (last / 8).max(1),
                ..DurableRunOpts::default()
            };
            let dir = temp_dir(name);
            let plan = Some(FaultPlan::KillAtEpoch(last / 2));
            let out = run_fresh(&sc, &cfg, &dir, &opts, plan).unwrap();
            assert!(
                !out.completed,
                "{name}: kill epoch must be inside the trace"
            );
            let resumed = resume(&sc, &cfg, &dir, &opts, None).unwrap();
            assert!(resumed.run.completed, "{name}");
            assert!(resumed.resumed_from.is_some(), "{name}: no checkpoint used");
            assert_eq!(resumed.run.digest, reference_digest(&sc, &cfg), "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn kill_before_any_checkpoint_recovers_from_scratch() {
        let (sc, cfg) = tiny();
        let golden = reference_digest(&sc, &cfg);
        let opts = DurableRunOpts {
            checkpoint_every: 1000, // never fires
            ..DurableRunOpts::default()
        };
        let dir = temp_dir("scratch");
        let out = run_fresh(&sc, &cfg, &dir, &opts, Some(FaultPlan::KillAtEpoch(7))).unwrap();
        assert!(!out.completed);
        let resumed = resume(&sc, &cfg, &dir, &opts, None).unwrap();
        assert!(resumed.run.completed);
        assert_eq!(resumed.resumed_from, None);
        assert_eq!(resumed.run.digest, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotation_crash_falls_back_to_the_previous_checkpoint() {
        let (sc, cfg) = tiny();
        let golden = reference_digest(&sc, &cfg);
        let opts = DurableRunOpts {
            checkpoint_every: 10,
            ..DurableRunOpts::default()
        };
        let dir = temp_dir("ckpt");
        // dies at epoch 30's checkpoint: engine.ckpt (epoch 20) was
        // demoted to engine.prev.ckpt, the new one never written
        let out = run_fresh(
            &sc,
            &cfg,
            &dir,
            &opts,
            Some(FaultPlan::CheckpointRotationCrash(30)),
        )
        .unwrap();
        assert!(!out.completed);
        assert!(!dir.join(CHECKPOINT_FILE).exists());
        assert!(dir.join(CHECKPOINT_PREV_FILE).exists());
        let resumed = resume(&sc, &cfg, &dir, &opts, None).unwrap();
        assert!(resumed.run.completed);
        assert_eq!(resumed.resumed_from, Some(20), "fallback checkpoint");
        assert_eq!(resumed.run.digest, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chained_crashes_still_converge_to_the_reference() {
        let (sc, cfg) = tiny();
        let golden = reference_digest(&sc, &cfg);
        let opts = DurableRunOpts {
            checkpoint_every: 12,
            ..DurableRunOpts::default()
        };
        let dir = temp_dir("chain");
        let out = run_fresh(&sc, &cfg, &dir, &opts, Some(FaultPlan::KillAtEpoch(20))).unwrap();
        assert!(!out.completed);
        // the restart crashes again, later (the tiny trace ends at 40)
        let mid = resume(&sc, &cfg, &dir, &opts, Some(FaultPlan::KillAtEpoch(39))).unwrap();
        assert!(!mid.run.completed);
        assert_eq!(mid.resumed_from, Some(12));
        let fin = resume(&sc, &cfg, &dir, &opts, None).unwrap();
        assert!(fin.run.completed);
        assert_eq!(fin.resumed_from, Some(36), "checkpoints from both lives");
        assert_eq!(fin.run.digest, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
