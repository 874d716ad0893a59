//! The output policy of §II-A.
//!
//! "To avoid fluctuating values in the output, our system outputs an
//! event for an object only at particular points: for example, within x
//! seconds after an object was read, upon completion of a shelf scan,
//! or upon completion of a full area scan." The evaluation uses
//! "60 seconds after an object came into the scope of the reader during
//! the current scan".
//!
//! [`OutputPolicy`] tracks per-object scope entry and due times. An
//! object *enters scope* when it is read after a long silence (a new
//! scan pass); it becomes *due* `report_delay` epochs later, or at
//! trace end, whichever comes first.

use rfid_stream::{Epoch, TagId};
use std::collections::HashMap;

/// Scope bookkeeping for one object.
#[derive(Debug, Clone, Copy)]
struct ScopeState {
    entered: Epoch,
    last_read: Epoch,
    reported: bool,
}

/// The event-emission policy.
#[derive(Debug, Clone)]
pub(crate) struct OutputPolicy {
    report_delay: u64,
    /// A read after this many silent epochs starts a new scan pass.
    pass_gap: u64,
    states: HashMap<TagId, ScopeState>,
}

impl OutputPolicy {
    /// Creates the policy: events are due `report_delay` epochs after
    /// scope entry; a read after `pass_gap` silent epochs counts as a
    /// new pass (and allows re-reporting).
    pub(crate) fn new(report_delay: u64, pass_gap: u64) -> Self {
        Self {
            report_delay,
            pass_gap,
            states: HashMap::new(),
        }
    }

    /// Records that `tag` was read at `epoch`. Returns true when this
    /// read started a new pass (useful for diagnostics).
    pub(crate) fn on_read(&mut self, tag: TagId, epoch: Epoch) -> bool {
        match self.states.get_mut(&tag) {
            Some(s) => {
                let new_pass = epoch.since(s.last_read) > self.pass_gap;
                s.last_read = epoch;
                if new_pass {
                    s.entered = epoch;
                    s.reported = false;
                }
                new_pass
            }
            None => {
                self.states.insert(
                    tag,
                    ScopeState {
                        entered: epoch,
                        last_read: epoch,
                        reported: false,
                    },
                );
                true
            }
        }
    }

    /// Objects whose report is due at `epoch` (entered scope exactly
    /// `report_delay` epochs ago, not yet reported this pass). Marks
    /// them reported.
    pub(crate) fn due(&mut self, epoch: Epoch) -> Vec<TagId> {
        let mut out = Vec::new();
        self.due_into(epoch, &mut out);
        out
    }

    /// [`OutputPolicy::due`] into a caller-owned buffer (cleared first),
    /// sorted by tag.
    pub(crate) fn due_into(&mut self, epoch: Epoch, out: &mut Vec<TagId>) {
        out.clear();
        for (tag, s) in self.states.iter_mut() {
            if !s.reported && epoch.since(s.entered) >= self.report_delay {
                s.reported = true;
                out.push(*tag);
            }
        }
        out.sort_unstable();
    }

    /// Objects still unreported (end-of-trace flush). Marks them
    /// reported.
    pub(crate) fn flush(&mut self) -> Vec<TagId> {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        out
    }

    /// [`OutputPolicy::flush`] into a caller-owned buffer (cleared
    /// first), sorted by tag.
    pub(crate) fn flush_into(&mut self, out: &mut Vec<TagId>) {
        out.clear();
        for (tag, s) in self.states.iter_mut() {
            if !s.reported {
                s.reported = true;
                out.push(*tag);
            }
        }
        out.sort_unstable();
    }

    /// Checkpoint view of the per-object scope states as
    /// `(tag, entered, last_read, reported)` rows, sorted by tag.
    pub(crate) fn snapshot_states(&self) -> Vec<(TagId, Epoch, Epoch, bool)> {
        let mut rows: Vec<_> = self
            .states
            .iter()
            .map(|(tag, s)| (*tag, s.entered, s.last_read, s.reported))
            .collect();
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }

    /// Replaces the per-object scope states with checkpointed rows
    /// (the inverse of [`snapshot_states`](Self::snapshot_states)).
    pub(crate) fn restore_states<I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = (TagId, Epoch, Epoch, bool)>,
    {
        self.states.clear();
        for (tag, entered, last_read, reported) in rows {
            self.states.insert(
                tag,
                ScopeState {
                    entered,
                    last_read,
                    reported,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_enters_scope() {
        let mut p = OutputPolicy::new(60, 120);
        assert!(p.on_read(TagId(1), Epoch(5)));
        assert_eq!(
            p.snapshot_states(),
            vec![(TagId(1), Epoch(5), Epoch(5), false)]
        );
    }

    #[test]
    fn due_fires_after_delay_once() {
        let mut p = OutputPolicy::new(60, 120);
        p.on_read(TagId(1), Epoch(0));
        assert!(p.due(Epoch(59)).is_empty());
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
        assert!(p.due(Epoch(61)).is_empty(), "must not double-report");
    }

    #[test]
    fn continued_reads_do_not_restart_the_clock() {
        let mut p = OutputPolicy::new(60, 120);
        p.on_read(TagId(1), Epoch(0));
        for e in 1..50 {
            assert!(!p.on_read(TagId(1), Epoch(e)));
        }
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
    }

    #[test]
    fn new_pass_after_gap_allows_rereport() {
        let mut p = OutputPolicy::new(60, 120);
        p.on_read(TagId(1), Epoch(0));
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
        // long silence, then read again: new pass
        assert!(p.on_read(TagId(1), Epoch(300)));
        assert!(p.due(Epoch(310)).is_empty());
        assert_eq!(p.due(Epoch(360)), vec![TagId(1)]);
    }

    #[test]
    fn flush_reports_pending_only() {
        let mut p = OutputPolicy::new(60, 120);
        p.on_read(TagId(1), Epoch(0));
        p.on_read(TagId(2), Epoch(10));
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
        assert_eq!(p.flush(), vec![TagId(2)]);
        assert!(p.flush().is_empty());
    }

    #[test]
    fn due_is_sorted_and_complete() {
        let mut p = OutputPolicy::new(10, 120);
        p.on_read(TagId(3), Epoch(0));
        p.on_read(TagId(1), Epoch(0));
        p.on_read(TagId(2), Epoch(0));
        assert_eq!(p.due(Epoch(10)), vec![TagId(1), TagId(2), TagId(3)]);
    }
}
