//! Epochs: the coarse time steps of the model.
//!
//! The paper uses "a fairly coarse-grained" time step, e.g. one second,
//! and synchronizes both raw streams to it. [`Epoch`] is a newtype over
//! the epoch counter; wall-clock seconds convert through an explicit
//! epoch length so tests can use non-unit epochs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A discrete time step index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The first epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// Maps a wall-clock timestamp (seconds) to its epoch under the
    /// given epoch length (seconds). Negative timestamps clamp to 0.
    pub fn from_seconds(t: f64, epoch_len: f64) -> Self {
        debug_assert!(epoch_len > 0.0);
        if t <= 0.0 {
            Epoch(0)
        } else {
            Epoch((t / epoch_len).floor() as u64)
        }
    }

    /// The next epoch.
    #[inline]
    pub fn next(&self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// Number of epochs elapsed since `earlier` (saturating).
    #[inline]
    pub fn since(&self, earlier: Epoch) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Epoch {
    type Output = Epoch;
    #[inline]
    fn add(self, rhs: u64) -> Epoch {
        Epoch(self.0 + rhs)
    }
}

impl AddAssign<u64> for Epoch {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Epoch> for Epoch {
    type Output = i64;
    #[inline]
    fn sub(self, rhs: Epoch) -> i64 {
        self.0 as i64 - rhs.0 as i64
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seconds_floors() {
        assert_eq!(Epoch::from_seconds(0.0, 1.0), Epoch(0));
        assert_eq!(Epoch::from_seconds(0.99, 1.0), Epoch(0));
        assert_eq!(Epoch::from_seconds(1.0, 1.0), Epoch(1));
        assert_eq!(Epoch::from_seconds(2.49, 0.5), Epoch(4));
    }

    #[test]
    fn negative_time_clamps() {
        assert_eq!(Epoch::from_seconds(-3.0, 1.0), Epoch(0));
    }

    #[test]
    fn arithmetic() {
        let e = Epoch(10);
        assert_eq!(e + 5, Epoch(15));
        assert_eq!(e.next(), Epoch(11));
        assert_eq!(Epoch(15) - Epoch(10), 5);
        assert_eq!(Epoch(10) - Epoch(15), -5);
        assert_eq!(Epoch(15).since(Epoch(10)), 5);
        assert_eq!(Epoch(10).since(Epoch(15)), 0);
    }

    #[test]
    fn roundtrip_start() {
        assert_eq!(Epoch::from_seconds(7.3, 1.0), Epoch(7));
    }

    #[test]
    fn display() {
        assert_eq!(Epoch(42).to_string(), "t42");
    }
}
