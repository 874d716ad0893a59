//! The output policy of §II-A.
//!
//! "To avoid fluctuating values in the output, our system outputs an
//! event for an object only at particular points: for example, within x
//! seconds after an object was read, upon completion of a shelf scan,
//! or upon completion of a full area scan." The evaluation uses
//! "60 seconds after an object came into the scope of the reader during
//! the current scan".
//!
//! A [`Scope`] is one object's place in that schedule, and holds the
//! rule. An object *enters scope* when it is read after a long silence
//! (a new scan pass: more than twice the report delay); it becomes
//! *due* `report_delay` epochs later, or at trace end, whichever comes
//! first. The inference engine keeps each object's `Scope` in its
//! object map; [`OutputPolicy`] is the basic filter's map of them.

use rfid_stream::{Epoch, TagId};
use std::collections::HashMap;

/// One object's scope: when its current pass began, when it was last
/// read, and whether the pass's event has gone out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scope {
    pub(crate) entered: Epoch,
    pub(crate) last_read: Epoch,
    pub(crate) reported: bool,
}

impl Scope {
    /// The scope an object enters on its first read.
    pub(crate) fn first_read(epoch: Epoch) -> Self {
        Self {
            entered: epoch,
            last_read: epoch,
            reported: false,
        }
    }

    /// Records a read at `epoch`. A read after more than
    /// `2 × report_delay` silent epochs starts a new pass, which may be
    /// reported again; returns whether it did.
    pub(crate) fn on_read(&mut self, epoch: Epoch, report_delay: u64) -> bool {
        let new_pass = epoch.since(self.last_read) > report_delay.saturating_mul(2);
        self.last_read = epoch;
        if new_pass {
            self.entered = epoch;
            self.reported = false;
        }
        new_pass
    }

    /// Whether the pass's event is due at `epoch`: at least
    /// `report_delay` epochs after scope entry and not yet reported.
    /// Marks it reported. A delay of 0 is the end-of-trace flush:
    /// every unreported pass is due.
    pub(crate) fn take_due(&mut self, epoch: Epoch, report_delay: u64) -> bool {
        let due = !self.reported && epoch.since(self.entered) >= report_delay;
        self.reported |= due;
        due
    }
}

/// The basic filter's scopes, by tag.
#[derive(Debug, Clone)]
pub(crate) struct OutputPolicy {
    report_delay: u64,
    scopes: HashMap<TagId, Scope>,
}

impl OutputPolicy {
    /// Creates the policy: events are due `report_delay` epochs after
    /// scope entry.
    pub(crate) fn new(report_delay: u64) -> Self {
        Self {
            report_delay,
            scopes: HashMap::new(),
        }
    }

    /// Records that `tag` was read at `epoch`.
    pub(crate) fn on_read(&mut self, tag: TagId, epoch: Epoch) {
        match self.scopes.get_mut(&tag) {
            Some(s) => {
                s.on_read(epoch, self.report_delay);
            }
            None => {
                self.scopes.insert(tag, Scope::first_read(epoch));
            }
        }
    }

    /// Objects whose report is due at `epoch`, sorted by tag. Marks
    /// them reported.
    pub(crate) fn due(&mut self, epoch: Epoch) -> Vec<TagId> {
        self.take_due(epoch, self.report_delay)
    }

    /// Objects still unreported (end-of-trace flush), sorted by tag.
    /// Marks them reported.
    pub(crate) fn flush(&mut self, epoch: Epoch) -> Vec<TagId> {
        self.take_due(epoch, 0)
    }

    fn take_due(&mut self, epoch: Epoch, report_delay: u64) -> Vec<TagId> {
        let mut out: Vec<TagId> = self
            .scopes
            .iter_mut()
            .filter_map(|(tag, s)| s.take_due(epoch, report_delay).then_some(*tag))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_enters_scope() {
        let mut p = OutputPolicy::new(60);
        p.on_read(TagId(1), Epoch(5));
        assert_eq!(
            p.scopes[&TagId(1)],
            Scope {
                entered: Epoch(5),
                last_read: Epoch(5),
                reported: false
            }
        );
    }

    #[test]
    fn due_fires_after_delay_once() {
        let mut p = OutputPolicy::new(60);
        p.on_read(TagId(1), Epoch(0));
        assert!(p.due(Epoch(59)).is_empty());
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
        assert!(p.due(Epoch(61)).is_empty(), "must not double-report");
    }

    #[test]
    fn continued_reads_do_not_restart_the_clock() {
        let mut s = Scope::first_read(Epoch(0));
        for e in 1..50 {
            assert!(!s.on_read(Epoch(e), 60));
        }
        assert!(s.take_due(Epoch(60), 60));
    }

    #[test]
    fn new_pass_after_gap_allows_rereport() {
        let mut p = OutputPolicy::new(60);
        p.on_read(TagId(1), Epoch(0));
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
        // long silence, then read again: new pass
        assert!(p.scopes.get_mut(&TagId(1)).unwrap().on_read(Epoch(300), 60));
        assert!(p.due(Epoch(310)).is_empty());
        assert_eq!(p.due(Epoch(360)), vec![TagId(1)]);
    }

    #[test]
    fn flush_reports_pending_only() {
        let mut p = OutputPolicy::new(60);
        p.on_read(TagId(1), Epoch(0));
        p.on_read(TagId(2), Epoch(10));
        assert_eq!(p.due(Epoch(60)), vec![TagId(1)]);
        assert_eq!(p.flush(Epoch(60)), vec![TagId(2)]);
        assert!(p.flush(Epoch(60)).is_empty());
    }

    #[test]
    fn due_is_sorted_and_complete() {
        let mut p = OutputPolicy::new(10);
        p.on_read(TagId(3), Epoch(0));
        p.on_read(TagId(1), Epoch(0));
        p.on_read(TagId(2), Epoch(0));
        assert_eq!(p.due(Epoch(10)), vec![TagId(1), TagId(2), TagId(3)]);
    }
}
