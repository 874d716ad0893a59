//! Fault plans for the crash-recovery harness: a small, string-encodable
//! description of *where* a durable run should die.
//!
//! The encoding exists so a parent test can pass a crash point to the
//! `recovery_harness` child binary through `argv` and sweep crash
//! points from the outside:
//!
//! | encoding   | meaning                                                        |
//! |------------|----------------------------------------------------------------|
//! | `kill:E`   | abort right after epoch `E` is durably complete                |
//! | `bytes:N`  | abort before the log write that would cross byte `N`           |
//! | `torn:N`   | write a *partial* record across byte `N`, then abort           |
//! | `ckpt:E`   | crash mid-checkpoint-rotation at epoch `E` (old checkpoint     |
//! |            | already demoted, new one never written)                        |
//!
//! `kill` and `ckpt` are driven by the run loop in
//! [`crate::recovery`]; `bytes` and `torn` arm a
//! [`rfid_serve::WriteFault`] inside the segment log itself, so the
//! abort happens in the middle of the durability layer's own I/O.

use std::fmt;
use std::str::FromStr;

/// One planned crash point in a durable run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Abort immediately after `complete_epoch(E)` + fsync. The log is
    /// consistent and ends exactly at `E`; recovery must lose nothing.
    KillAtEpoch(u64),
    /// Abort before the record write whose bytes would cross offset
    /// `N` within the current segment file (clean record boundary).
    KillAfterBytes(u64),
    /// Write a partial record across offset `N`, fsync the garbage,
    /// then abort — the classic torn tail recovery must truncate.
    TornWrite(u64),
    /// At checkpoint epoch `E`: demote `engine.ckpt` to
    /// `engine.prev.ckpt`, then abort before writing the new
    /// checkpoint. Recovery must fall back to the *previous*
    /// checkpoint and replay further forward.
    CheckpointRotationCrash(u64),
}

impl FaultPlan {
    /// The [`rfid_serve::WriteFault`] to arm on the segment log, if
    /// this plan is byte-triggered.
    pub(crate) fn write_fault(&self) -> Option<rfid_serve::WriteFault> {
        match self {
            FaultPlan::KillAfterBytes(n) => Some(rfid_serve::WriteFault {
                after_bytes: *n,
                torn: false,
            }),
            FaultPlan::TornWrite(n) => Some(rfid_serve::WriteFault {
                after_bytes: *n,
                torn: true,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlan::KillAtEpoch(e) => write!(f, "kill:{e}"),
            FaultPlan::KillAfterBytes(n) => write!(f, "bytes:{n}"),
            FaultPlan::TornWrite(n) => write!(f, "torn:{n}"),
            FaultPlan::CheckpointRotationCrash(e) => write!(f, "ckpt:{e}"),
        }
    }
}

/// A malformed fault-plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError(pub String);

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault plan {:?} (expected kill:E, bytes:N, torn:N, or ckpt:E)",
            self.0
        )
    }
}

impl std::error::Error for ParseFaultError {}

impl FromStr for FaultPlan {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseFaultError(s.to_string());
        let (kind, value) = s.split_once(':').ok_or_else(bad)?;
        let value: u64 = value.parse().map_err(|_| bad())?;
        match kind {
            "kill" => Ok(FaultPlan::KillAtEpoch(value)),
            "bytes" => Ok(FaultPlan::KillAfterBytes(value)),
            "torn" => Ok(FaultPlan::TornWrite(value)),
            "ckpt" => Ok(FaultPlan::CheckpointRotationCrash(value)),
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trips() {
        for plan in [
            FaultPlan::KillAtEpoch(42),
            FaultPlan::KillAfterBytes(9000),
            FaultPlan::TornWrite(512),
            FaultPlan::CheckpointRotationCrash(96),
        ] {
            let s = plan.to_string();
            assert_eq!(s.parse::<FaultPlan>().unwrap(), plan);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        for s in ["", "kill", "kill:", "kill:x", "boom:3", "torn:-1"] {
            assert!(s.parse::<FaultPlan>().is_err(), "accepted {s:?}");
        }
    }

    #[test]
    fn byte_plans_arm_the_log_fault() {
        let f = FaultPlan::TornWrite(100).write_fault().unwrap();
        assert!(f.torn);
        assert_eq!(f.after_bytes, 100);
        assert!(FaultPlan::KillAtEpoch(3).write_fault().is_none());
    }
}
