//! Window operators: partitioned row windows and time-range windows.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// `S [Partition By key Row n]`: for each partition key, the window
/// holds the `n` most recent tuples.
#[derive(Debug, Clone)]
pub(crate) struct PartitionedRowWindow<K: Eq + Hash + Clone, V> {
    n: usize,
    rows: HashMap<K, VecDeque<V>>,
}

impl<K: Eq + Hash + Clone, V> PartitionedRowWindow<K, V> {
    /// Creates a window keeping `n >= 1` rows per partition.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n >= 1, "row window must keep at least one row");
        Self {
            n,
            rows: HashMap::new(),
        }
    }

    /// Inserts a tuple into its partition; returns the tuple evicted to
    /// make room, if any.
    pub(crate) fn push(&mut self, key: K, value: V) -> Option<V> {
        let q = self.rows.entry(key).or_default();
        q.push_back(value);
        if q.len() > self.n {
            q.pop_front()
        } else {
            None
        }
    }

    /// The rows currently held for `key`, oldest first.
    pub(crate) fn partition<'a>(&'a self, key: &K) -> impl Iterator<Item = &'a V> {
        self.rows.get(key).into_iter().flat_map(|q| q.iter())
    }

    /// The most recent row for `key`.
    pub(crate) fn latest(&self, key: &K) -> Option<&V> {
        self.rows.get(key).and_then(|q| q.back())
    }

    /// Number of non-empty partitions.
    pub(crate) fn num_partitions(&self) -> usize {
        self.rows.len()
    }

    /// Iterates over `(key, newest_row)` pairs.
    pub(crate) fn iter_latest(&self) -> impl Iterator<Item = (&K, &V)> {
        self.rows
            .iter()
            .filter_map(|(k, q)| q.back().map(|v| (k, v)))
    }
}

/// `S [Range d]`: holds every tuple whose timestamp lies within the
/// last `d` seconds of the current watermark. `d == 0` gives `[Now]`
/// semantics (only tuples bearing exactly the current timestamp).
#[derive(Debug, Clone)]
pub struct RangeWindow<V> {
    range: f64,
    items: VecDeque<(f64, V)>,
    watermark: f64,
}

impl<V> RangeWindow<V> {
    /// Creates a window of `range` seconds (`0.0` for `[Now]`).
    pub fn new(range: f64) -> Self {
        assert!(range >= 0.0);
        Self {
            range,
            items: VecDeque::new(),
            watermark: f64::NEG_INFINITY,
        }
    }

    /// Inserts a timestamped tuple; timestamps must be non-decreasing.
    /// Advances the watermark and evicts expired tuples.
    pub fn push(&mut self, time: f64, value: V) {
        debug_assert!(
            time >= self.watermark || self.watermark == f64::NEG_INFINITY,
            "out-of-order tuple at {time} behind watermark {}",
            self.watermark
        );
        self.items.push_back((time, value));
        self.advance(time);
    }

    /// Advances the watermark without inserting, evicting expired
    /// tuples (e.g. on a timer tick with no data).
    pub fn advance(&mut self, time: f64) {
        self.watermark = self.watermark.max(time);
        let cutoff = self.watermark - self.range;
        while let Some((t, _)) = self.items.front() {
            if *t < cutoff {
                self.items.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current contents, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(f64, V)> {
        self.items.iter()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The current watermark.
    pub fn watermark(&self) -> f64 {
        self.watermark
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_window_keeps_last_n() {
        let mut w = PartitionedRowWindow::new(2);
        assert_eq!(w.push("a", 1), None);
        assert_eq!(w.push("a", 2), None);
        assert_eq!(w.push("a", 3), Some(1));
        assert_eq!(w.latest(&"a"), Some(&3));
        assert_eq!(w.partition(&"a").count(), 2);
        assert_eq!(w.partition(&"a").copied().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(w.latest(&"b"), None);
    }

    #[test]
    fn row_window_partitions_independent() {
        let mut w = PartitionedRowWindow::new(1);
        w.push(1u32, "x");
        w.push(2u32, "y");
        assert_eq!(w.num_partitions(), 2);
        assert_eq!(w.latest(&1), Some(&"x"));
        assert_eq!(w.latest(&2), Some(&"y"));
        let mut latest: Vec<_> = w.iter_latest().map(|(k, v)| (*k, *v)).collect();
        latest.sort();
        assert_eq!(latest, vec![(1, "x"), (2, "y")]);
    }

    #[test]
    #[should_panic]
    fn row_window_rejects_zero() {
        let _ = PartitionedRowWindow::<u32, u32>::new(0);
    }

    #[test]
    fn range_window_evicts_old() {
        let mut w = RangeWindow::new(5.0);
        w.push(0.0, 'a');
        w.push(3.0, 'b');
        w.push(6.0, 'c');
        // cutoff = 6 - 5 = 1 => 'a' evicted
        let live: Vec<char> = w.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec!['b', 'c']);
    }

    #[test]
    fn range_window_boundary_inclusive() {
        let mut w = RangeWindow::new(5.0);
        w.push(1.0, 'a');
        w.push(6.0, 'b');
        // tuple at exactly watermark - range stays
        assert_eq!(w.len(), 2);
        w.advance(6.000001);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn now_window_keeps_only_current_instant() {
        let mut w = RangeWindow::new(0.0);
        w.push(1.0, 'a');
        w.push(1.0, 'b');
        assert_eq!(w.len(), 2);
        w.push(2.0, 'c');
        let live: Vec<char> = w.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec!['c']);
    }

    #[test]
    fn advance_without_data_evicts() {
        let mut w = RangeWindow::new(2.0);
        w.push(0.0, 1);
        w.advance(10.0);
        assert!(w.is_empty());
        assert_eq!(w.watermark(), 10.0);
    }
}
