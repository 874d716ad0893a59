//! Child-process crash harness: runs a canonical scenario into a
//! durable run directory and — if a fault plan is given — actually
//! dies at the crash point (`std::process::abort`), so a parent test
//! can exercise real kill-and-restart cycles from the outside.
//!
//! ```text
//! recovery_harness run <scenario> <dir> <checkpoint_every> [fault]
//! recovery_harness golden <scenario>
//! ```
//!
//! `run` starts fresh when `<dir>` holds no log and otherwise recovers
//! and resumes — so repeating the same command after a crash *is* the
//! restart. On completion it prints one parseable line per fact (a
//! restart that repaired the log adds `truncated-bytes <n>`,
//! `adopted-segments <n>` or `rebuilt-manifest` before the digest):
//!
//! ```text
//! resumed-from <epoch|none>
//! last-durable <epoch|none>
//! replayed-events <n>
//! digest <16-hex>
//! ```
//!
//! `golden` prints only the `digest` line of an uninterrupted
//! in-memory run — the value `run` must converge to.
//!
//! The harness reports facts, not timings: recovery is timed by the
//! benchmark's `durable_patrol` workload (`wall.recover_ms`,
//! `recover.*`, over the same [`rfid_bench::recovery::resume`]).
//!
//! Scenarios: `small_warehouse`, `low_read_rate`, `moving_object`,
//! `tiny` (see [`rfid_bench::recovery::canonical_scenario`]).

use rfid_bench::fault::FaultPlan;
use rfid_bench::recovery::{self, canonical_scenario, DurableRunOpts, HarnessError, ResumeOutcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: recovery_harness run <scenario> <dir> <checkpoint_every> [fault]\n\
         \x20      recovery_harness golden <scenario>\n\
         fault: kill:E | bytes:N | torn:N | ckpt:E"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("golden") => {
            let [_, scenario] = args.as_slice() else {
                return usage();
            };
            let Some((sc, cfg)) = canonical_scenario(scenario) else {
                eprintln!("unknown scenario {scenario:?}");
                return ExitCode::from(2);
            };
            println!("digest {:016x}", recovery::reference_digest(&sc, &cfg));
            ExitCode::SUCCESS
        }
        Some("run") => {
            let (scenario, dir, every, fault) = match args.as_slice() {
                [_, s, d, k] => (s, PathBuf::from(d), k, None),
                [_, s, d, k, f] => (s, PathBuf::from(d), k, Some(f)),
                _ => return usage(),
            };
            let Some((sc, cfg)) = canonical_scenario(scenario) else {
                eprintln!("unknown scenario {scenario:?}");
                return ExitCode::from(2);
            };
            let Ok(checkpoint_every) = every.parse::<u64>() else {
                return usage();
            };
            let plan = match fault.map(|f| f.parse::<FaultPlan>()) {
                None => None,
                Some(Ok(p)) => Some(p),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let opts = DurableRunOpts {
                checkpoint_every,
                abort_on_fault: true,
            };
            match run(&sc, &cfg, &dir, &opts, plan) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("harness error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

fn run(
    sc: &rfid_sim::scenario::Scenario,
    cfg: &rfid_core::FilterConfig,
    dir: &Path,
    opts: &DurableRunOpts,
    plan: Option<FaultPlan>,
) -> Result<(), HarnessError> {
    let fresh = !dir.join(recovery::LOG_SUBDIR).exists();
    if fresh {
        let out = recovery::run_fresh(sc, cfg, dir, opts, plan)?;
        println!("resumed-from none");
        println!("last-durable none");
        println!("replayed-events 0");
        println!("digest {:016x}", out.digest);
    } else {
        let ResumeOutcome {
            run,
            resumed_from,
            last_durable_epoch,
            log_recovery,
            replayed_events,
            ..
        } = recovery::resume(sc, cfg, dir, opts, plan)?;
        match resumed_from {
            Some(e) => println!("resumed-from {e}"),
            None => println!("resumed-from none"),
        }
        match last_durable_epoch {
            Some(e) => println!("last-durable {e}"),
            None => println!("last-durable none"),
        }
        println!("replayed-events {replayed_events}");
        if log_recovery.truncated_bytes > 0 {
            println!("truncated-bytes {}", log_recovery.truncated_bytes);
        }
        if log_recovery.adopted_segments > 0 {
            println!("adopted-segments {}", log_recovery.adopted_segments);
        }
        if log_recovery.rebuilt_manifest {
            println!("rebuilt-manifest");
        }
        println!("digest {:016x}", run.digest);
    }
    Ok(())
}
