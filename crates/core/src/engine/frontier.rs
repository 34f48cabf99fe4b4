//! The event frontier: a winner tree over the shards' queue heads.
//!
//! The cluster fires the globally earliest shard event next, ties going
//! to the lowest shard id. Scanning every shard's queue head for it costs
//! O(shards) per event; a winner tree over the cached heads answers it
//! from the root in O(1), and a shard whose queue changed re-plays only
//! its leaf-to-root path, O(log shards). The cluster refreshes exactly the
//! leaves of the shards an event touched (see `Cluster::refresh`); debug
//! builds check every leaf against a fresh scan before each step.

use pascal_sim::SimTime;

/// A tournament over `n` leaves keyed `(head time, leaf index)`. An empty
/// leaf (`None`) loses to every occupied one, so the root is the earliest
/// head with the lowest index among equal times.
#[derive(Debug)]
pub(super) struct WinnerTree {
    /// Cached head per leaf, padded with `None` up to a power of two.
    heads: Vec<Option<SimTime>>,
    /// `winner[node]` for `node` in `1..2 * width`: the winning leaf of
    /// that subtree. Leaves sit at `width + leaf`; the root is node 1.
    winner: Vec<u32>,
}

impl WinnerTree {
    /// A tree of `n` empty leaves.
    pub(super) fn new(n: usize) -> Self {
        let width = n.max(1).next_power_of_two();
        let mut winner = vec![0u32; 2 * width];
        for leaf in 0..width {
            winner[width + leaf] = leaf as u32;
        }
        for node in (1..width).rev() {
            winner[node] = winner[2 * node];
        }
        WinnerTree {
            heads: vec![None; width],
            winner,
        }
    }

    /// The earliest head as `(time, leaf)`, if any leaf is occupied.
    pub(super) fn root(&self) -> Option<(SimTime, usize)> {
        let leaf = self.winner[1] as usize;
        self.heads[leaf].map(|t| (t, leaf))
    }

    /// The cached head of `leaf` (read by the debug shadow-check).
    #[cfg(any(debug_assertions, test))]
    pub(super) fn head(&self, leaf: usize) -> Option<SimTime> {
        self.heads[leaf]
    }

    /// Sets `leaf`'s head and re-plays its path to the root. Returns
    /// whether the head changed (an unchanged head leaves the tree as is).
    pub(super) fn update(&mut self, leaf: usize, head: Option<SimTime>) -> bool {
        if self.heads[leaf] == head {
            return false;
        }
        self.heads[leaf] = head;
        let mut node = (self.heads.len() + leaf) >> 1;
        while node > 0 {
            let (a, b) = (self.winner[2 * node], self.winner[2 * node + 1]);
            self.winner[node] = if self.beats(b, a) { b } else { a };
            node >>= 1;
        }
        true
    }

    /// Whether leaf `a` strictly precedes leaf `b`: earlier head first,
    /// empty last, lower index on ties.
    fn beats(&self, a: u32, b: u32) -> bool {
        match (self.heads[a as usize], self.heads[b as usize]) {
            (Some(ta), Some(tb)) => (ta, a) < (tb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: a linear scan with a strict minimum, so ties go to
    /// the lowest index.
    fn linear_min(heads: &[Option<SimTime>]) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, h) in heads.iter().enumerate() {
            if let Some(t) = *h {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        best
    }

    #[test]
    fn empty_tree_has_no_root() {
        let tree = WinnerTree::new(5);
        assert_eq!(tree.root(), None);
        assert_eq!(WinnerTree::new(1).root(), None);
    }

    #[test]
    fn single_leaf_tree_tracks_its_head() {
        let mut tree = WinnerTree::new(1);
        assert!(tree.update(0, Some(SimTime::from_nanos(7))));
        assert_eq!(tree.root(), Some((SimTime::from_nanos(7), 0)));
        assert!(!tree.update(0, Some(SimTime::from_nanos(7))));
        assert!(tree.update(0, None));
        assert_eq!(tree.root(), None);
    }

    #[test]
    fn ties_go_to_the_lowest_leaf() {
        let mut tree = WinnerTree::new(6);
        let t = SimTime::from_nanos(3);
        for leaf in [5, 2, 4] {
            tree.update(leaf, Some(t));
        }
        assert_eq!(tree.root(), Some((t, 2)));
        tree.update(2, None);
        assert_eq!(tree.root(), Some((t, 4)));
        tree.update(0, Some(SimTime::from_nanos(4)));
        assert_eq!(tree.root(), Some((t, 4)));
        tree.update(0, Some(t));
        assert_eq!(tree.root(), Some((t, 0)));
    }

    proptest! {
        /// After any sequence of leaf updates — drawn from a handful of
        /// times, so ties are common, with empties mixed in — the root
        /// equals a linear minimum in which ties go to the lowest index,
        /// and every cached head equals the last value written.
        #[test]
        fn prop_root_matches_linear_min(
            n in 1usize..70,
            ops in proptest::collection::vec((0usize..1000, 0u64..6), 1..300),
        ) {
            let mut tree = WinnerTree::new(n);
            let mut heads = vec![None; n];
            for (leaf, t) in ops {
                let leaf = leaf % n;
                let head = (t > 0).then(|| SimTime::from_nanos(t));
                prop_assert_eq!(tree.update(leaf, head), heads[leaf] != head);
                heads[leaf] = head;
                prop_assert_eq!(tree.root(), linear_min(&heads));
            }
            for (leaf, head) in heads.iter().enumerate() {
                prop_assert_eq!(tree.head(leaf), *head);
            }
        }
    }
}
