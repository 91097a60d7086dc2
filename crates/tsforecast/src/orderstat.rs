//! Order-statistic multisets: the incremental state behind online QBETS.
//!
//! QBETS queries are order statistics ("the k-th largest of the current
//! stationary segment"), and the paper (§3.3) notes the predictor state must
//! update in milliseconds as price points stream in. Two implementations:
//!
//! * [`TreapMultiset`] — a randomized balanced BST (treap) with subtree
//!   counts, supporting O(log n) insert / remove / k-th / rank over arbitrary
//!   `u64` values. Arena-allocated with an index-based free list; priorities
//!   come from an embedded SplitMix64 so behaviour is deterministic.
//! * [`SortedVecMultiset`] — an O(n)-insert reference implementation used as
//!   a property-test oracle and as the faster choice for tiny segments.

use simrng::{Rng, SplitMix64};

/// Common interface for order-statistic multisets.
pub trait OrderStat {
    /// Inserts one copy of `value`.
    fn insert(&mut self, value: u64);
    /// Removes one copy of `value`; returns whether a copy was present.
    fn remove_one(&mut self, value: u64) -> bool;
    /// Number of stored elements (with multiplicity).
    fn len(&self) -> usize;
    /// Whether the multiset is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `k`-th smallest element, 1-based. `None` if `k == 0 || k > len`.
    fn kth_smallest(&self, k: usize) -> Option<u64>;
    /// The `k`-th largest element, 1-based.
    fn kth_largest(&self, k: usize) -> Option<u64> {
        if k == 0 || k > self.len() {
            return None;
        }
        self.kth_smallest(self.len() - k + 1)
    }
    /// Number of stored elements strictly less than `value`.
    fn rank(&self, value: u64) -> usize;
    /// Removes all elements.
    fn clear(&mut self);
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    value: u64,
    priority: u64,
    left: u32,
    right: u32,
    /// Total elements in this subtree (with multiplicity).
    size: u32,
    /// Multiplicity of `value` at this node.
    count: u32,
}

/// Treap-backed order-statistic multiset.
#[derive(Debug, Clone)]
pub struct TreapMultiset {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    /// Construction seed, kept so [`OrderStat::clear`] can rewind the
    /// priority stream and restore the exact initial state.
    seed: u64,
    rng: SplitMix64,
}

impl Default for TreapMultiset {
    fn default() -> Self {
        Self::new()
    }
}

impl TreapMultiset {
    /// Creates an empty multiset with a fixed internal priority stream.
    pub fn new() -> Self {
        Self::with_seed(0x5EED_0D5E_ED0D_5EED)
    }

    /// Creates an empty multiset whose balancing priorities derive from
    /// `seed` (behaviour is identical; only the tree shape varies).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            seed,
            rng: SplitMix64::new(seed),
        }
    }

    fn size(&self, idx: u32) -> u32 {
        if idx == NIL {
            0
        } else {
            self.nodes[idx as usize].size
        }
    }

    fn update(&mut self, idx: u32) {
        if idx == NIL {
            return;
        }
        let (l, r, c) = {
            let n = &self.nodes[idx as usize];
            (n.left, n.right, n.count)
        };
        self.nodes[idx as usize].size = self.size(l) + self.size(r) + c;
    }

    fn alloc(&mut self, value: u64) -> u32 {
        let priority = self.rng.next_u64();
        let node = Node {
            value,
            priority,
            left: NIL,
            right: NIL,
            size: 1,
            count: 1,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Splits subtree `t` into (< value, >= value).
    fn split(&mut self, t: u32, value: u64) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].value < value {
            let right = self.nodes[t as usize].right;
            let (a, b) = self.split(right, value);
            self.nodes[t as usize].right = a;
            self.update(t);
            (t, b)
        } else {
            let left = self.nodes[t as usize].left;
            let (a, b) = self.split(left, value);
            self.nodes[t as usize].left = b;
            self.update(t);
            (a, t)
        }
    }

    /// Merges subtrees `a` (all values <= those in `b`) and `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].priority > self.nodes[b as usize].priority {
            let ar = self.nodes[a as usize].right;
            let m = self.merge(ar, b);
            self.nodes[a as usize].right = m;
            self.update(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let m = self.merge(a, bl);
            self.nodes[b as usize].left = m;
            self.update(b);
            b
        }
    }

    /// Finds the node index holding `value`, if present.
    fn find(&self, value: u64) -> u32 {
        let mut t = self.root;
        while t != NIL {
            let n = &self.nodes[t as usize];
            t = match value.cmp(&n.value) {
                std::cmp::Ordering::Less => n.left,
                std::cmp::Ordering::Greater => n.right,
                std::cmp::Ordering::Equal => return t,
            };
        }
        NIL
    }

    /// Iterates stored values in ascending order (each repeated by count);
    /// used by tests and by QBETS state snapshots.
    pub fn iter_sorted(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = Vec::new();
        let mut t = self.root;
        while t != NIL || !stack.is_empty() {
            while t != NIL {
                stack.push(t);
                t = self.nodes[t as usize].left;
            }
            let idx = stack.pop().expect("stack nonempty by loop condition");
            let n = &self.nodes[idx as usize];
            for _ in 0..n.count {
                out.push(n.value);
            }
            t = n.right;
        }
        out
    }
}

impl OrderStat for TreapMultiset {
    fn insert(&mut self, value: u64) {
        let existing = self.find(value);
        if existing != NIL {
            self.nodes[existing as usize].count += 1;
            // Fix sizes along the root-to-node path.
            self.repath_sizes(value);
            return;
        }
        let (a, b) = self.split(self.root, value);
        let n = self.alloc(value);
        let ab = self.merge(a, n);
        self.root = self.merge(ab, b);
    }

    fn remove_one(&mut self, value: u64) -> bool {
        let existing = self.find(value);
        if existing == NIL {
            return false;
        }
        if self.nodes[existing as usize].count > 1 {
            self.nodes[existing as usize].count -= 1;
            self.repath_sizes(value);
            return true;
        }
        // Split out the singleton node and merge around it.
        let (a, bc) = self.split(self.root, value);
        let (b, c) = self.split(bc, value + 1);
        debug_assert_eq!(b, existing);
        self.free.push(b);
        self.root = self.merge(a, c);
        true
    }

    fn len(&self) -> usize {
        self.size(self.root) as usize
    }

    fn kth_smallest(&self, k: usize) -> Option<u64> {
        if k == 0 || k > self.len() {
            return None;
        }
        let mut k = k as u32;
        let mut t = self.root;
        loop {
            debug_assert_ne!(t, NIL);
            let n = &self.nodes[t as usize];
            let left = self.size(n.left);
            if k <= left {
                t = n.left;
            } else if k <= left + n.count {
                return Some(n.value);
            } else {
                k -= left + n.count;
                t = n.right;
            }
        }
    }

    fn rank(&self, value: u64) -> usize {
        let mut acc = 0u32;
        let mut t = self.root;
        while t != NIL {
            let n = &self.nodes[t as usize];
            if value <= n.value {
                t = n.left;
            } else {
                acc += self.size(n.left) + n.count;
                t = n.right;
            }
        }
        acc as usize
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        // Rewind the priority stream too: a cleared multiset must be
        // indistinguishable from a fresh one, tree shape included.
        self.rng = SplitMix64::new(self.seed);
    }
}

impl TreapMultiset {
    /// Recomputes `size` along the search path to `value` after an in-place
    /// count change.
    fn repath_sizes(&mut self, value: u64) {
        let mut path = Vec::new();
        let mut t = self.root;
        while t != NIL {
            path.push(t);
            let n = &self.nodes[t as usize];
            t = match value.cmp(&n.value) {
                std::cmp::Ordering::Less => n.left,
                std::cmp::Ordering::Greater => n.right,
                std::cmp::Ordering::Equal => break,
            };
        }
        for &idx in path.iter().rev() {
            self.update(idx);
        }
    }
}

/// Sorted-`Vec` reference multiset: O(n) insert, O(1) k-th.
#[derive(Debug, Clone, Default)]
pub struct SortedVecMultiset {
    values: Vec<u64>,
}

impl SortedVecMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read-only view of the ascending contents.
    pub fn as_slice(&self) -> &[u64] {
        &self.values
    }
}

impl OrderStat for SortedVecMultiset {
    fn insert(&mut self, value: u64) {
        let pos = self.values.partition_point(|&v| v < value);
        self.values.insert(pos, value);
    }

    fn remove_one(&mut self, value: u64) -> bool {
        let pos = self.values.partition_point(|&v| v < value);
        if pos < self.values.len() && self.values[pos] == value {
            self.values.remove(pos);
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn kth_smallest(&self, k: usize) -> Option<u64> {
        if k == 0 || k > self.values.len() {
            None
        } else {
            Some(self.values[k - 1])
        }
    }

    fn rank(&self, value: u64) -> usize {
        self.values.partition_point(|&v| v < value)
    }

    fn clear(&mut self) {
        self.values.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{SeedableFrom, Xoshiro256pp};

    #[test]
    fn empty_set_queries() {
        let t = TreapMultiset::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.kth_smallest(1), None);
        assert_eq!(t.kth_largest(1), None);
        assert_eq!(t.rank(5), 0);
    }

    #[test]
    fn kth_zero_is_none() {
        let mut t = TreapMultiset::new();
        t.insert(1);
        assert_eq!(t.kth_smallest(0), None);
        assert_eq!(t.kth_largest(0), None);
    }

    #[test]
    fn basic_insert_and_order_statistics() {
        let mut t = TreapMultiset::new();
        for v in [5u64, 3, 8, 3, 1, 9, 5, 5] {
            t.insert(v);
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.iter_sorted(), vec![1, 3, 3, 5, 5, 5, 8, 9]);
        assert_eq!(t.kth_smallest(1), Some(1));
        assert_eq!(t.kth_smallest(4), Some(5));
        assert_eq!(t.kth_smallest(8), Some(9));
        assert_eq!(t.kth_largest(1), Some(9));
        assert_eq!(t.kth_largest(2), Some(8));
        assert_eq!(t.kth_largest(3), Some(5));
        assert_eq!(t.rank(5), 3);
        assert_eq!(t.rank(6), 6);
        assert_eq!(t.rank(0), 0);
        assert_eq!(t.rank(100), 8);
    }

    #[test]
    fn remove_handles_multiplicity() {
        let mut t = TreapMultiset::new();
        t.insert(7);
        t.insert(7);
        t.insert(7);
        assert!(t.remove_one(7));
        assert_eq!(t.len(), 2);
        assert!(t.remove_one(7));
        assert!(t.remove_one(7));
        assert!(!t.remove_one(7));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn remove_missing_value_is_noop() {
        let mut t = TreapMultiset::new();
        t.insert(1);
        assert!(!t.remove_one(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut t = TreapMultiset::new();
        for v in 0..100 {
            t.insert(v);
        }
        t.clear();
        assert!(t.is_empty());
        t.insert(42);
        assert_eq!(t.kth_smallest(1), Some(42));
    }

    #[test]
    fn clear_restores_the_exact_initial_state() {
        // Shape-level check: after clear(), the priority stream must be
        // rewound, so re-inserting any sequence reproduces the same tree a
        // fresh multiset would build — node for node.
        fn shape(t: &TreapMultiset, idx: u32) -> String {
            if idx == NIL {
                return ".".into();
            }
            let n = &t.nodes[idx as usize];
            format!(
                "({} v{} c{} {})",
                shape(t, n.left),
                n.value,
                n.count,
                shape(t, n.right)
            )
        }
        let values: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E3779B9) % 97)
            .collect();
        let mut cleared = TreapMultiset::with_seed(4242);
        for v in 0..300u64 {
            cleared.insert(v); // burn through priorities before clearing
        }
        cleared.clear();
        let mut fresh = TreapMultiset::with_seed(4242);
        for &v in &values {
            cleared.insert(v);
            fresh.insert(v);
        }
        assert_eq!(
            shape(&cleared, cleared.root),
            shape(&fresh, fresh.root),
            "cleared multiset must rebuild the same tree as a fresh one"
        );
    }

    #[test]
    fn node_reuse_after_removal() {
        let mut t = TreapMultiset::new();
        for v in 0..50u64 {
            t.insert(v);
        }
        for v in 0..50u64 {
            assert!(t.remove_one(v));
        }
        let arena_before = t.nodes.len();
        for v in 100..150u64 {
            t.insert(v);
        }
        assert_eq!(t.nodes.len(), arena_before, "freed nodes must be reused");
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn large_randomized_against_oracle() {
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let mut treap = TreapMultiset::new();
        let mut oracle = SortedVecMultiset::new();
        for _ in 0..5000 {
            let op = rng.next_below(10);
            if op < 6 {
                let v = rng.next_below(200);
                treap.insert(v);
                oracle.insert(v);
            } else if oracle.len() > 0 {
                let v = rng.next_below(200);
                assert_eq!(treap.remove_one(v), oracle.remove_one(v));
            }
            assert_eq!(treap.len(), oracle.len());
        }
        assert_eq!(treap.iter_sorted(), oracle.as_slice());
        for k in [1usize, 2, oracle.len() / 2, oracle.len()] {
            assert_eq!(treap.kth_smallest(k), oracle.kth_smallest(k));
            assert_eq!(treap.kth_largest(k), oracle.kth_largest(k));
        }
        for v in [0u64, 50, 199, 777] {
            assert_eq!(treap.rank(v), oracle.rank(v));
        }
    }

    #[test]
    fn treap_depth_stays_logarithmic() {
        // With random priorities, expected depth ~ 3 ln n; assert a generous
        // cap to catch degenerate (linear) balancing regressions.
        let mut t = TreapMultiset::new();
        let n = 20_000u64;
        for v in 0..n {
            t.insert(v); // adversarial sorted insertion order
        }
        fn depth(t: &TreapMultiset, idx: u32) -> usize {
            if idx == NIL {
                return 0;
            }
            let n = &t.nodes[idx as usize];
            1 + depth(t, n.left).max(depth(t, n.right))
        }
        let d = depth(&t, t.root);
        let cap = (3.5 * (n as f64).ln()) as usize + 10;
        assert!(d <= cap, "depth {d} exceeds cap {cap}");
    }

    // Randomized property tests on simrng's generators. Each case count
    // mirrors proptest's default (256 cases) and failures print the seed
    // for replay.
    mod props {
        use super::*;

        #[test]
        fn prop_treap_equals_oracle() {
            for case in 0..256u64 {
                let mut rng = Xoshiro256pp::seed_from_u64(0xA11CE ^ case);
                let mut treap = TreapMultiset::new();
                let mut oracle = SortedVecMultiset::new();
                let ops = rng.next_below(300);
                for _ in 0..ops {
                    let op = rng.next_below(2);
                    let v = rng.next_below(64);
                    if op == 0 {
                        treap.insert(v);
                        oracle.insert(v);
                    } else {
                        assert_eq!(treap.remove_one(v), oracle.remove_one(v), "case {case}");
                    }
                }
                assert_eq!(treap.iter_sorted(), oracle.as_slice(), "case {case}");
                for k in 1..=oracle.len() {
                    assert_eq!(
                        treap.kth_smallest(k),
                        oracle.kth_smallest(k),
                        "case {case}, k {k}"
                    );
                }
            }
        }

        #[test]
        fn prop_rank_kth_inverse() {
            for case in 0..256u64 {
                let mut rng = Xoshiro256pp::seed_from_u64(0xB0B ^ case);
                let len = rng.next_below(199) as usize + 1;
                let mut values: Vec<u64> = (0..len).map(|_| rng.next_below(1000)).collect();
                let mut treap = TreapMultiset::new();
                for &v in &values {
                    treap.insert(v);
                }
                values.sort_unstable();
                let k = rng.next_below(len as u64) as usize + 1;
                let kth = treap.kth_smallest(k).unwrap();
                assert_eq!(kth, values[k - 1], "case {case}");
                // rank(kth) < k <= rank(kth + 1)
                assert!(treap.rank(kth) < k, "case {case}");
                assert!(treap.rank(kth + 1) >= k, "case {case}");
            }
        }
    }
}
