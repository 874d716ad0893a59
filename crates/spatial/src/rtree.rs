//! A simplified R\*-tree over axis-aligned bounding boxes.
//!
//! Design follows Beckmann et al. (SIGMOD '90) with the simplifications
//! the paper allows itself ("a simplified R\*-tree"):
//!
//! * `ChooseSubtree` descends by least volume enlargement, breaking ties
//!   by least volume (the classic R-tree criterion; the leaf-level overlap
//!   criterion of the full R\*-tree is skipped).
//! * Node splits use the R\*-tree margin heuristic: choose the split axis
//!   minimizing the summed margins over candidate distributions, then the
//!   distribution minimizing overlap (ties: minimal total volume).
//! * Forced reinsertion is omitted.
//!
//! The tree stores arbitrary payloads `T` at the leaves and supports
//! intersection queries, which is all the sensing-region index needs.

use rfid_geom::Aabb;

/// Maximum number of entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum number of entries per node produced by a split.
const MIN_ENTRIES: usize = 3;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { entries: Vec<(Aabb, T)> },
    Inner { children: Vec<(Aabb, Box<Node<T>>)> },
}

impl<T> Node<T> {
    fn mbr(&self) -> Aabb {
        let mut b = Aabb::empty();
        match self {
            Node::Leaf { entries } => {
                for (a, _) in entries {
                    b = b.union(a);
                }
            }
            Node::Inner { children } => {
                for (a, _) in children {
                    b = b.union(a);
                }
            }
        }
        b
    }

    /// Entry count (used by the invariant checks in tests).
    #[cfg_attr(not(test), allow(dead_code))]
    fn len(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Inner { children } => children.len(),
        }
    }
}

/// An R\*-tree mapping bounding boxes to payloads.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
    height: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
            height: 1,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.root = Node::Leaf {
            entries: Vec::new(),
        };
        self.len = 0;
        self.height = 1;
    }

    /// Inserts a box/payload pair.
    pub fn insert(&mut self, aabb: Aabb, value: T) {
        debug_assert!(!aabb.is_empty(), "cannot index an empty AABB");
        self.len += 1;
        if let Some((left, right)) = insert_rec(&mut self.root, aabb, value) {
            // Root split: grow the tree by one level.
            let old_height = self.height;
            let left_mbr = left.mbr();
            let right_mbr = right.mbr();
            self.root = Node::Inner {
                children: vec![(left_mbr, Box::new(left)), (right_mbr, Box::new(right))],
            };
            self.height = old_height + 1;
        }
    }

    /// Calls `f` for every entry whose box intersects `query`.
    pub(crate) fn for_each_intersecting<'a, F>(&'a self, query: &Aabb, f: &mut F)
    where
        F: FnMut(&'a Aabb, &'a T),
    {
        search_rec(&self.root, query, f);
    }

    /// Collects references to every payload whose box intersects `query`.
    pub fn query<'a>(&'a self, query: &Aabb) -> Vec<&'a T> {
        let mut out = Vec::new();
        self.for_each_intersecting(query, &mut |_, v| out.push(v));
        out
    }

    /// The minimum bounding rectangle of the whole tree
    /// ([`Aabb::empty`] when empty).
    pub fn bounds(&self) -> Aabb {
        self.root.mbr()
    }
}

fn search_rec<'a, T, F>(node: &'a Node<T>, query: &Aabb, f: &mut F)
where
    F: FnMut(&'a Aabb, &'a T),
{
    match node {
        Node::Leaf { entries } => {
            for (a, v) in entries {
                if a.intersects(query) {
                    f(a, v);
                }
            }
        }
        Node::Inner { children } => {
            for (a, c) in children {
                if a.intersects(query) {
                    search_rec(c, query, f);
                }
            }
        }
    }
}

/// Recursive insert; returns `Some((left, right))` when `node` split and
/// the caller must replace it by the two halves.
fn insert_rec<T>(node: &mut Node<T>, aabb: Aabb, value: T) -> Option<(Node<T>, Node<T>)> {
    match node {
        Node::Leaf { entries } => {
            entries.push((aabb, value));
            if entries.len() > MAX_ENTRIES {
                let (l, r) = split_entries(std::mem::take(entries));
                Some((Node::Leaf { entries: l }, Node::Leaf { entries: r }))
            } else {
                None
            }
        }
        Node::Inner { children } => {
            let idx = choose_subtree(children, &aabb);
            let split = insert_rec(&mut children[idx].1, aabb, value);
            // Refresh the MBR of the descended child.
            children[idx].0 = children[idx].1.mbr();
            if let Some((l, r)) = split {
                // Replace the split child by its two halves.
                children.swap_remove(idx);
                let lb = l.mbr();
                let rb = r.mbr();
                children.push((lb, Box::new(l)));
                children.push((rb, Box::new(r)));
                if children.len() > MAX_ENTRIES {
                    let (cl, cr) = split_entries(std::mem::take(children));
                    return Some((Node::Inner { children: cl }, Node::Inner { children: cr }));
                }
            }
            None
        }
    }
}

/// Least-enlargement subtree choice with least-volume tie-break.
fn choose_subtree<T>(children: &[(Aabb, Box<Node<T>>)], aabb: &Aabb) -> usize {
    let mut best = 0;
    let mut best_enl = f64::INFINITY;
    let mut best_vol = f64::INFINITY;
    for (i, (b, _)) in children.iter().enumerate() {
        let enl = b.enlargement(aabb);
        let vol = b.volume();
        if enl < best_enl - 1e-15 || ((enl - best_enl).abs() <= 1e-15 && vol < best_vol) {
            best = i;
            best_enl = enl;
            best_vol = vol;
        }
    }
    best
}

trait HasBox {
    fn bbox(&self) -> &Aabb;
}

impl<T> HasBox for (Aabb, T) {
    fn bbox(&self) -> &Aabb {
        &self.0
    }
}

/// R\*-style split: pick the axis with minimal summed margin over all
/// candidate distributions, then the distribution with minimal overlap
/// (ties: minimal summed volume).
fn split_entries<E: HasBox>(mut entries: Vec<E>) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() > MAX_ENTRIES);
    let n = entries.len();
    let dist_count = n - 2 * MIN_ENTRIES + 1;

    // For each axis, sort by box min and evaluate candidate splits.
    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    for axis in 0..3usize {
        sort_by_axis(&mut entries, axis);
        let mut margin_sum = 0.0;
        for k in 0..dist_count {
            let split_at = MIN_ENTRIES + k;
            let (lb, rb) = group_boxes(&entries, split_at);
            margin_sum += lb.margin() + rb.margin();
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
        }
    }

    sort_by_axis(&mut entries, best_axis);
    let mut best_split = MIN_ENTRIES;
    let mut best_overlap = f64::INFINITY;
    let mut best_vol = f64::INFINITY;
    for k in 0..dist_count {
        let split_at = MIN_ENTRIES + k;
        let (lb, rb) = group_boxes(&entries, split_at);
        let overlap = lb.intersection_volume(&rb);
        let vol = lb.volume() + rb.volume();
        if overlap < best_overlap - 1e-15
            || ((overlap - best_overlap).abs() <= 1e-15 && vol < best_vol)
        {
            best_overlap = overlap;
            best_vol = vol;
            best_split = split_at;
        }
    }

    let right = entries.split_off(best_split);
    (entries, right)
}

fn sort_by_axis<E: HasBox>(entries: &mut [E], axis: usize) {
    entries.sort_by(|a, b| {
        let (ka, kb) = match axis {
            0 => (a.bbox().min.x, b.bbox().min.x),
            1 => (a.bbox().min.y, b.bbox().min.y),
            _ => (a.bbox().min.z, b.bbox().min.z),
        };
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn group_boxes<E: HasBox>(entries: &[E], split_at: usize) -> (Aabb, Aabb) {
    let mut lb = Aabb::empty();
    for e in &entries[..split_at] {
        lb = lb.union(e.bbox());
    }
    let mut rb = Aabb::empty();
    for e in &entries[split_at..] {
        rb = rb.union(e.bbox());
    }
    (lb, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfid_geom::Point3;

    fn cube(x: f64, y: f64, r: f64) -> Aabb {
        Aabb::cube(Point3::new(x, y, 0.0), r)
    }

    #[test]
    fn empty_tree_queries_nothing() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.query(&cube(0.0, 0.0, 100.0)).is_empty());
        assert_eq!(t.height, 1);
    }

    #[test]
    fn single_insert_found() {
        let mut t = RTree::new();
        t.insert(cube(1.0, 1.0, 0.5), 7u32);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query(&cube(1.2, 1.2, 0.5)), vec![&7]);
        assert!(t.query(&cube(10.0, 10.0, 0.5)).is_empty());
    }

    #[test]
    fn split_preserves_all_entries() {
        let mut t = RTree::new();
        for i in 0..50u32 {
            t.insert(cube(i as f64, 0.0, 0.4), i);
        }
        assert_eq!(t.len(), 50);
        assert!(t.height > 1, "tree should have split");
        // every entry individually findable
        for i in 0..50u32 {
            let hits = t.query(&cube(i as f64, 0.0, 0.01));
            assert!(hits.contains(&&i), "entry {i} lost after splits");
        }
        // global query returns everything exactly once
        let mut all: Vec<u32> = t
            .query(&cube(25.0, 0.0, 100.0))
            .into_iter()
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn query_respects_boundaries() {
        let mut t = RTree::new();
        t.insert(
            Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            1u8,
        );
        // touching box counts as intersecting (closed intervals)
        let touching = Aabb::new(Point3::new(1.0, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert_eq!(t.query(&touching).len(), 1);
        let beyond = Aabb::new(Point3::new(1.01, 0.0, 0.0), Point3::new(2.0, 1.0, 1.0));
        assert!(t.query(&beyond).is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut t = RTree::new();
        for i in 0..20 {
            t.insert(cube(i as f64, 0.0, 0.4), i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.height, 1);
        assert!(t.query(&cube(0.0, 0.0, 100.0)).is_empty());
    }

    #[test]
    fn bounds_cover_all_inserted() {
        let mut t = RTree::new();
        t.insert(cube(-5.0, 2.0, 1.0), 0);
        t.insert(cube(9.0, -3.0, 1.0), 1);
        let b = t.bounds();
        assert!(b.contains(&Point3::new(-5.0, 2.0, 0.0)));
        assert!(b.contains(&Point3::new(9.0, -3.0, 0.0)));
    }

    #[test]
    fn node_invariants_after_many_inserts() {
        // All nodes (except possibly the root) must respect entry-count
        // bounds; inner MBRs must contain their children's boxes.
        let mut t = RTree::new();
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..500u32 {
            let x = rng.gen_range(-100.0..100.0);
            let y = rng.gen_range(-100.0..100.0);
            t.insert(cube(x, y, rng.gen_range(0.1..2.0)), i);
        }
        check_invariants(&t.root, true);
        assert_eq!(t.len(), 500);
    }

    fn check_invariants<T>(node: &Node<T>, is_root: bool) {
        if !is_root {
            assert!(node.len() >= MIN_ENTRIES, "underfull node: {}", node.len());
        }
        assert!(node.len() <= MAX_ENTRIES, "overfull node: {}", node.len());
        if let Node::Inner { children } = node {
            for (b, c) in children {
                let child_mbr = c.mbr();
                assert!(
                    b.contains_box(&child_mbr) || child_mbr.is_empty(),
                    "stale MBR"
                );
                check_invariants(c, false);
            }
        }
    }

    /// Brute-force oracle for query correctness.
    fn brute(items: &[(Aabb, u32)], q: &Aabb) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(a, _)| a.intersects(q))
            .map(|(_, i)| *i)
            .collect();
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_bruteforce(seed in 0u64..1000, n in 1usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = RTree::new();
            let mut items = Vec::new();
            for i in 0..n as u32 {
                let b = cube(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0),
                             rng.gen_range(0.1..3.0));
                t.insert(b, i);
                items.push((b, i));
            }
            for _ in 0..10 {
                let q = cube(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0),
                             rng.gen_range(0.1..10.0));
                let mut got: Vec<u32> = t.query(&q).into_iter().copied().collect();
                got.sort_unstable();
                prop_assert_eq!(got, brute(&items, &q));
            }
        }

        #[test]
        fn prop_len_matches_walk(seed in 0u64..1000, n in 0usize..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = RTree::new();
            for i in 0..n as u32 {
                t.insert(cube(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0), 0.5), i);
            }
            // every entry lies under the root's bounds
            prop_assert_eq!(t.query(&t.bounds()).len(), n);
            prop_assert_eq!(t.len(), n);
        }
    }
}
