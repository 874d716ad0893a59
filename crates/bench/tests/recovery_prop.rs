//! Property sweep over crash points: stop a durable run at a random
//! epoch (simulated in-process kill), optionally mangle the on-disk
//! state the way a real crash or a rotting disk can (torn tail bytes,
//! missing manifest, a flipped bit in the checkpoint's epoch), and
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
    /// Chop this many bytes off the newest live segment file (a torn
    /// final write the durability layer never acknowledged).
    TornTail(u64),
    /// Delete the manifest (crash before the very first commit, or
    /// operator damage); open must rebuild it from the files.
    MissingManifest,
    /// Flip this bit of the newest checkpoint's header epoch (bytes
    /// 20..28), when there is a checkpoint; the checksum must refuse
    /// it and recovery fall back to the rotated one or a full replay.
    FlippedEpoch(u32),
}

/// Mangles the crashed run directory; returns the epoch a flipped
/// checkpoint header now claims.
fn apply(mangle: Mangle, dir: &Path) -> Option<u64> {
    let log = dir.join(LOG_SUBDIR);
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
            // newest live segment = lexically greatest segment-*.log
            // (names are zero-padded)
            let newest = std::fs::read_dir(&log)
                .expect("log dir")
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("segment-") && n.ends_with(".log"))
                })
                .max()
                .expect("at least one segment file");
            let len = std::fs::metadata(&newest).expect("stat").len();
            let keep = len.saturating_sub(chop).max(1);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&newest)
                .expect("open segment");
            f.set_len(keep).expect("chop tail");
        }
        Mangle::MissingManifest => {
            std::fs::remove_file(log.join("MANIFEST")).expect("remove manifest");
        }
    }
    None
}

/// Maps two drawn integers onto a [`Mangle`] (the vendored proptest
/// shim has no `prop_oneof`): 0–1 → clean kill, 2–3 → torn tail of
/// `1 + chop` bytes (up to ~40 reaches into the epoch-complete mark
/// and often the record before it), 4 → missing manifest, 5 → one of
/// the epoch's four low bits flipped.
fn pick_mangle(sel: u64, chop: u64) -> Mangle {
    match sel {
        0 | 1 => Mangle::None,
        2 | 3 => Mangle::TornTail(1 + chop),
        4 => Mangle::MissingManifest,
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
        if let Mangle::MissingManifest = mangle {
            prop_assert!(recovered.log_recovery.rebuilt_manifest);
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
