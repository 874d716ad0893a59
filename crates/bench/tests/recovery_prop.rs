//! Property sweep over crash points: stop a durable run at a random
//! epoch (simulated in-process kill), optionally mangle the on-disk
//! state the way a real crash or a rotting disk can (torn tail bytes,
//! a deleted log, a flipped bit in the checkpoint's epoch), and
//! recovery must still replay to the **bit-identical** event stream of
//! an uninterrupted run.
//!
//! This is the shotgun to `kill_restart.rs`'s rifle: that test aborts
//! real child processes at a few chosen points; this one sweeps many
//! (crash epoch × checkpoint cadence × mangle) combinations cheaply in
//! one process.

use proptest::prelude::*;
use rfid_bench::fault::FaultPlan;
use rfid_bench::recovery::{
    canonical_scenario, reference_digest, resume, run_fresh, DurableRunOpts, CHECKPOINT_FILE,
    LOG_SUBDIR,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rfid-recovery-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference digest of the `tiny` scenario, computed once for the
/// whole sweep.
fn tiny_golden() -> u64 {
    static GOLDEN: OnceLock<u64> = OnceLock::new();
    *GOLDEN.get_or_init(|| {
        let (sc, cfg) = canonical_scenario("tiny").unwrap();
        reference_digest(&sc, &cfg)
    })
}

/// What to do to the crashed run directory before recovery.
#[derive(Debug, Clone, Copy)]
enum Mangle {
    /// Nothing — the clean-kill case.
    None,
    /// Chop this many bytes off the log (a torn final write the
    /// durability layer never acknowledged).
    TornTail(u64),
    /// Delete the log file (operator damage): no checkpoint is covered
    /// any more, so recovery must re-run from the first batch.
    LogDeleted,
    /// Flip this bit of the newest checkpoint's header epoch (bytes
    /// 20..28), when there is a checkpoint; the checksum must refuse
    /// it and recovery fall back to the rotated one or a full replay.
    FlippedEpoch(u32),
}

/// Mangles the crashed run directory; returns the epoch a flipped
/// checkpoint header now claims.
fn apply(mangle: Mangle, dir: &Path) -> Option<u64> {
    let wal = dir.join(LOG_SUBDIR).join("wal.log");
    match mangle {
        Mangle::None => {}
        Mangle::FlippedEpoch(bit) => {
            let path = dir.join(CHECKPOINT_FILE);
            let mut blob = std::fs::read(&path).ok()?;
            let mut epoch = [0u8; 8];
            epoch.copy_from_slice(&blob[20..28]);
            let flipped = u64::from_le_bytes(epoch) ^ (1 << bit);
            blob[20..28].copy_from_slice(&flipped.to_le_bytes());
            std::fs::write(&path, blob).expect("rewrite checkpoint");
            return Some(flipped);
        }
        Mangle::TornTail(chop) => {
            let len = std::fs::metadata(&wal).expect("stat").len();
            let keep = len.saturating_sub(chop).max(1);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal)
                .expect("open the log");
            f.set_len(keep).expect("chop tail");
        }
        Mangle::LogDeleted => {
            std::fs::remove_file(&wal).expect("remove the log");
        }
    }
    None
}

/// Maps two drawn integers onto a [`Mangle`] (the vendored proptest
/// shim has no `prop_oneof`): 0–1 → clean kill, 2–3 → torn tail of
/// `1 + chop` bytes (up to ~40 reaches into the epoch-complete mark
/// and often the record before it), 4 → deleted log, 5 → one of
/// the epoch's four low bits flipped.
fn pick_mangle(sel: u64, chop: u64) -> Mangle {
    match sel {
        0 | 1 => Mangle::None,
        2 | 3 => Mangle::TornTail(1 + chop),
        4 => Mangle::LogDeleted,
        _ => Mangle::FlippedEpoch((chop % 4) as u32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (crash epoch, checkpoint cadence, mangle) combination
    /// recovers to the reference digest. The tiny trace ends at epoch
    /// 40, so crash epochs cover "before any checkpoint" through
    /// "after the last batch epoch's completion".
    #[test]
    fn any_crash_point_recovers_bit_identically(
        crash_epoch in 0u64..=40,
        every in 5u64..25,
        mangle_sel in 0u64..6,
        chop in 0u64..39,
    ) {
        let mangle = pick_mangle(mangle_sel, chop);
        let (sc, cfg) = canonical_scenario("tiny").unwrap();
        let opts = DurableRunOpts {
            checkpoint_every: every,
            ..DurableRunOpts::default()
        };
        let dir = temp_dir();
        let out = run_fresh(&sc, &cfg, &dir, &opts, Some(FaultPlan::KillAtEpoch(crash_epoch)))
            .expect("fresh run");
        prop_assert!(!out.completed, "kill epoch must be inside the trace");

        let flipped = apply(mangle, &dir);

        let recovered = resume(&sc, &cfg, &dir, &opts, None).expect("recovery");
        prop_assert!(recovered.run.completed);
        prop_assert_eq!(
            recovered.run.digest,
            tiny_golden(),
            "crash at {} (every {}, {:?}) diverged: {:?}",
            crash_epoch,
            every,
            mangle,
            recovered
        );
        // a torn tail must actually have been repaired when we tore one
        if let Mangle::TornTail(_) = mangle {
            prop_assert!(
                recovered.log_recovery.truncated_bytes > 0
                    || recovered.resumed_from.is_none(),
                "torn bytes neither truncated nor outrun by a fresh replay"
            );
        }
        if let Mangle::LogDeleted = mangle {
            prop_assert_eq!(recovered.resumed_from, None);
        }
        if flipped.is_some() {
            prop_assert!(
                recovered.resumed_from != flipped,
                "resumed from the flipped epoch {:?}",
                flipped
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
