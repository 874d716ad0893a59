//! `Istream` over a partitioned row-1 window: change detection.
//!
//! The paper's first example query is
//!
//! ```text
//! Select Istream(E.tag_id, E.(x, y, z))
//! From EventStream E [Partition By tag_id Row 1]
//! ```
//!
//! i.e. emit a tuple whenever the most recent location of a tag differs
//! from its previous one. [`ChangeDetector`] implements that pattern
//! generically: it remembers the last value per key and reports
//! insertions that change it.

use std::collections::HashMap;
use std::hash::Hash;

/// Emits values that differ from the previous value of their partition.
#[derive(Debug, Clone, Default)]
pub struct ChangeDetector<K: Eq + Hash + Clone, V: PartialEq + Clone> {
    last: HashMap<K, V>,
}

impl<K: Eq + Hash + Clone, V: PartialEq + Clone> ChangeDetector<K, V> {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self {
            last: HashMap::new(),
        }
    }

    /// Pushes a tuple. Returns `Some(value)` when the partition is new
    /// or the value differs from the stored one (the `Istream` output),
    /// `None` when unchanged.
    pub fn push(&mut self, key: K, value: V) -> Option<V> {
        match self.last.get(&key) {
            Some(prev) if *prev == value => None,
            _ => {
                self.last.insert(key, value.clone());
                Some(value)
            }
        }
    }

    /// Pushes with a custom equivalence, for fuzzy change detection
    /// (e.g. "location changed by more than 0.1 ft"). `same(prev, new)`
    /// returning true suppresses the emission *and keeps the previous
    /// value* as the reference, so drift accumulates until it crosses
    /// the threshold once.
    pub(crate) fn push_with<F>(&mut self, key: K, value: V, same: F) -> Option<V>
    where
        F: Fn(&V, &V) -> bool,
    {
        match self.last.get(&key) {
            Some(prev) if same(prev, &value) => None,
            _ => {
                self.last.insert(key, value.clone());
                Some(value)
            }
        }
    }

    /// The last emitted value of a partition.
    pub fn last(&self, key: &K) -> Option<&V> {
        self.last.get(key)
    }

    /// Number of partitions seen.
    pub(crate) fn num_partitions(&self) -> usize {
        self.last.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_value_always_emits() {
        let mut d = ChangeDetector::new();
        assert_eq!(d.push("a", 1), Some(1));
    }

    #[test]
    fn repeat_suppressed_change_emits() {
        let mut d = ChangeDetector::new();
        d.push("a", 1);
        assert_eq!(d.push("a", 1), None);
        assert_eq!(d.push("a", 2), Some(2));
        assert_eq!(d.push("a", 1), Some(1)); // going back is a change too
    }

    #[test]
    fn partitions_do_not_interfere() {
        let mut d = ChangeDetector::new();
        d.push(1u32, 'x');
        assert_eq!(d.push(2u32, 'x'), Some('x'));
        assert_eq!(d.num_partitions(), 2);
    }

    #[test]
    fn fuzzy_threshold_accumulates_from_reference() {
        let mut d: ChangeDetector<&str, f64> = ChangeDetector::new();
        let same = |a: &f64, b: &f64| (a - b).abs() < 0.5;
        assert_eq!(d.push_with("a", 0.0, same), Some(0.0));
        assert_eq!(d.push_with("a", 0.3, same), None); // within threshold of 0.0
        assert_eq!(d.push_with("a", 0.4, same), None); // still measured from 0.0
        assert_eq!(d.push_with("a", 0.6, same), Some(0.6)); // crossed
        assert_eq!(d.last(&"a"), Some(&0.6));
    }
}
