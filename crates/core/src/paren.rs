//! Parenthesizations of a chain, represented as binary expression trees —
//! and, for the memoized enumeration engine, as a **span DAG** that shares
//! each distinct sub-tree across every full tree containing it.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A parenthesization of (a contiguous span of) a matrix chain.
///
/// Leaves are matrix indices (zero-based); internal nodes are associations.
/// A chain with `n` matrices admits `Catalan(n - 1)` distinct trees.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParenTree {
    /// The matrix `M_i` (zero-based index `i`).
    Leaf(usize),
    /// The association of two sub-chains.
    Node(Box<ParenTree>, Box<ParenTree>),
}

impl ParenTree {
    /// Combine two trees into an association node.
    #[must_use]
    pub fn node(left: ParenTree, right: ParenTree) -> ParenTree {
        ParenTree::Node(Box::new(left), Box::new(right))
    }

    /// The inclusive span `(first leaf, last leaf)` covered by this tree.
    #[must_use]
    pub fn span(&self) -> (usize, usize) {
        match self {
            ParenTree::Leaf(i) => (*i, *i),
            ParenTree::Node(l, r) => (l.span().0, r.span().1),
        }
    }

    /// Number of leaves.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        let (lo, hi) = self.span();
        hi - lo + 1
    }

    /// Enumerate all parenthesizations of the leaf range `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn enumerate(lo: usize, hi: usize) -> Vec<ParenTree> {
        assert!(lo <= hi, "empty span");
        if lo == hi {
            return vec![ParenTree::Leaf(lo)];
        }
        let mut out = Vec::new();
        for split in lo..hi {
            let lefts = ParenTree::enumerate(lo, split);
            let rights = ParenTree::enumerate(split + 1, hi);
            for l in &lefts {
                for r in &rights {
                    out.push(ParenTree::node(l.clone(), r.clone()));
                }
            }
        }
        out
    }

    /// Left-to-right evaluation of leaves `lo..=hi`:
    /// `(((M_lo M_{lo+1}) M_{lo+2}) ...)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn left_to_right(lo: usize, hi: usize) -> ParenTree {
        assert!(lo <= hi, "empty span");
        let mut tree = ParenTree::Leaf(lo);
        for i in lo + 1..=hi {
            tree = ParenTree::node(tree, ParenTree::Leaf(i));
        }
        tree
    }

    /// Right-to-left evaluation of leaves `lo..=hi`:
    /// `(... (M_{hi-2} (M_{hi-1} M_hi)))`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn right_to_left(lo: usize, hi: usize) -> ParenTree {
        assert!(lo <= hi, "empty span");
        let mut tree = ParenTree::Leaf(hi);
        for i in (lo..hi).rev() {
            tree = ParenTree::node(ParenTree::Leaf(i), tree);
        }
        tree
    }

    /// The fanning-out parenthesization `E_h` for a chain of `n` matrices
    /// (Eq. 4 of the paper): the prefix `M_1 .. M_h` is computed
    /// right-to-left, the suffix `M_{h+1} .. M_n` left-to-right, and the two
    /// partial results are associated last.
    ///
    /// `h` ranges over `0..=n` (size-symbol positions). For `h = 0` the
    /// whole chain is the suffix (pure left-to-right); for `h = n` it is the
    /// prefix (pure right-to-left).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `h > n`.
    #[must_use]
    pub fn fanning_out(n: usize, h: usize) -> ParenTree {
        assert!(n > 0, "empty chain");
        assert!(h <= n, "h out of range");
        if h == 0 {
            return ParenTree::left_to_right(0, n - 1);
        }
        if h == n {
            return ParenTree::right_to_left(0, n - 1);
        }
        let prefix = ParenTree::right_to_left(0, h - 1);
        let suffix = ParenTree::left_to_right(h, n - 1);
        ParenTree::node(prefix, suffix)
    }

    /// The number of distinct parenthesizations of an `n`-matrix chain
    /// (`Catalan(n - 1)`), saturated at `u128::MAX` from `n = 67`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn count(n: usize) -> u128 {
        assert!(n > 0, "empty chain");
        // C_k = (2k)! / (k! (k+1)!) computed iteratively.
        let k = (n - 1) as u128;
        let mut c: u128 = 1;
        for i in 0..k {
            match c.checked_mul(2 * (2 * i + 1)) {
                Some(product) => c = product / (i + 2),
                None => return u128::MAX,
            }
        }
        c
    }
}

impl fmt::Display for ParenTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParenTree::Leaf(i) => write!(f, "M{}", i + 1),
            ParenTree::Node(l, r) => write!(f, "({l} {r})"),
        }
    }
}

/// Index of a node in a [`SpanDag`] arena.
pub type NodeId = usize;

/// Multiply-rotate hasher (the classic `fxhash` recipe) for the span-DAG
/// interner: it hashes small id pairs, which want mixing that costs a
/// couple of cycles instead of a full SipHash permutation.
#[derive(Default)]
pub(crate) struct FxHasher64(u64);

impl FxHasher64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the high bits down: hashbrown derives both its control
        // byte and its bucket index from opposite ends of the word.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
#[derive(Debug, Default, Clone)]
pub(crate) struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher64;

    #[inline]
    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::default()
    }
}

/// Arena entry of one interned sub-tree.
#[derive(Debug, Clone, Copy)]
struct SpanNode {
    /// First leaf of the node's span.
    lo: usize,
    /// Last leaf of the node's span (inclusive).
    hi: usize,
    /// Children for association nodes, `None` for leaves.
    children: Option<(NodeId, NodeId)>,
}

/// The parenthesizations of a chain as a directed acyclic graph of
/// **interned sub-trees**: every distinct parenthesization of a sub-span
/// `(i, j)` exists exactly once, shared by every full tree that contains
/// it.
///
/// The sum of distinct sub-trees over all spans grows far slower than
/// `Catalan(n - 1) × n` — 301 nodes versus 792 per-tree associations for
/// `n = 7` — which is what lets the memoized enumeration engine
/// ([`crate::pool::PoolBuilder`]) lower each sub-span once instead of
/// once per containing tree.
///
/// Node ids are assigned in creation order, so **children always precede
/// their parents**: ascending id order is a topological order of the DAG.
/// Leaves occupy ids `0..n`.
#[derive(Debug)]
pub struct SpanDag {
    n: usize,
    nodes: Vec<SpanNode>,
    /// Association nodes interned by their children (the children ids
    /// uniquely determine the sub-tree).
    interned: HashMap<(NodeId, NodeId), NodeId, FxBuildHasher>,
    /// Per-span enumeration lists in the canonical
    /// [`ParenTree::enumerate`] order, indexed `lo * n + hi` and filled
    /// by [`SpanDag::enumerate_roots`].
    span_lists: Vec<Option<Vec<NodeId>>>,
}

impl SpanDag {
    /// An empty DAG over a chain of `n` matrices; leaves `0..n` are
    /// pre-created with `NodeId == leaf index`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "empty chain");
        let nodes = (0..n)
            .map(|i| SpanNode {
                lo: i,
                hi: i,
                children: None,
            })
            .collect();
        SpanDag {
            n,
            nodes,
            interned: HashMap::default(),
            span_lists: vec![None; n * n],
        }
    }

    /// Slot of span `(lo, hi)` in [`SpanDag::span_lists`].
    fn slot(&self, lo: usize, hi: usize) -> usize {
        lo * self.n + hi
    }

    /// Total number of interned nodes (leaves included).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The inclusive leaf span of a node.
    #[must_use]
    pub fn span(&self, id: NodeId) -> (usize, usize) {
        let node = &self.nodes[id];
        (node.lo, node.hi)
    }

    /// Number of leaves under a node.
    #[must_use]
    pub fn num_leaves(&self, id: NodeId) -> usize {
        let node = &self.nodes[id];
        node.hi - node.lo + 1
    }

    /// The children of an association node, `None` for leaves.
    #[must_use]
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[id].children
    }

    /// Materialize the [`ParenTree`] of a node from the arena. Built on
    /// demand — the DAG itself keeps only spans and children, so
    /// enumeration never pays for deep tree clones.
    #[must_use]
    pub fn tree(&self, id: NodeId) -> ParenTree {
        match self.nodes[id].children {
            None => ParenTree::Leaf(self.nodes[id].lo),
            Some((l, r)) => ParenTree::node(self.tree(l), self.tree(r)),
        }
    }

    /// Intern the association of two already-interned nodes. The spans
    /// must be adjacent (`left.hi + 1 == right.lo`).
    pub fn node(&mut self, left: NodeId, right: NodeId) -> NodeId {
        debug_assert_eq!(
            self.nodes[left].hi + 1,
            self.nodes[right].lo,
            "associated spans must be adjacent"
        );
        if let Some(&id) = self.interned.get(&(left, right)) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(SpanNode {
            lo: self.nodes[left].lo,
            hi: self.nodes[right].hi,
            children: Some((left, right)),
        });
        self.interned.insert((left, right), id);
        id
    }

    /// Intern an explicit [`ParenTree`], sharing every sub-tree already
    /// in the DAG. Returns `None` if the tree is not a well-formed
    /// parenthesization over this chain (leaf out of range, or sibling
    /// spans not adjacent).
    pub fn intern_tree(&mut self, tree: &ParenTree) -> Option<NodeId> {
        match tree {
            ParenTree::Leaf(i) => (*i < self.n).then_some(*i),
            ParenTree::Node(l, r) => {
                let left = self.intern_tree(l)?;
                let right = self.intern_tree(r)?;
                (self.nodes[left].hi + 1 == self.nodes[right].lo).then(|| self.node(left, right))
            }
        }
    }

    /// All parenthesizations of the full chain, as root node ids in
    /// exactly the [`ParenTree::enumerate`] order (split position
    /// ascending, then left sub-trees outer, right sub-trees inner,
    /// recursively). Spans are enumerated bottom-up and memoized, so a
    /// second call is a lookup.
    pub fn enumerate_roots(&mut self) -> Vec<NodeId> {
        for lo in 0..self.n {
            let slot = self.slot(lo, lo);
            if self.span_lists[slot].is_none() {
                self.span_lists[slot] = Some(vec![lo]);
            }
        }
        // Scratch for the (left, right) pairs of one span, collected
        // first so `self.node` can borrow the arena mutably afterwards
        // without cloning the child lists.
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for len in 2..=self.n {
            for lo in 0..=self.n - len {
                let hi = lo + len - 1;
                if self.span_lists[self.slot(lo, hi)].is_some() {
                    continue;
                }
                pairs.clear();
                for split in lo..hi {
                    let lefts = self.span_lists[self.slot(lo, split)]
                        .as_ref()
                        .expect("shorter spans precede longer ones");
                    let rights = self.span_lists[self.slot(split + 1, hi)]
                        .as_ref()
                        .expect("shorter spans precede longer ones");
                    for &l in lefts {
                        for &r in rights {
                            pairs.push((l, r));
                        }
                    }
                }
                let list: Vec<NodeId> = pairs.iter().map(|&(l, r)| self.node(l, r)).collect();
                let slot = self.slot(lo, hi);
                self.span_lists[slot] = Some(list);
            }
        }
        self.span_lists[self.slot(0, self.n - 1)]
            .clone()
            .expect("filled above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn enumeration_counts_are_catalan() {
        for n in 1..=8 {
            let trees = ParenTree::enumerate(0, n - 1);
            assert_eq!(trees.len() as u128, ParenTree::count(n), "n = {n}");
            // All distinct.
            let set: HashSet<_> = trees.iter().collect();
            assert_eq!(set.len(), trees.len());
        }
    }

    #[test]
    fn catalan_values() {
        assert_eq!(ParenTree::count(1), 1);
        assert_eq!(ParenTree::count(2), 1);
        assert_eq!(ParenTree::count(3), 2);
        assert_eq!(ParenTree::count(4), 5);
        assert_eq!(ParenTree::count(5), 14);
        assert_eq!(ParenTree::count(7), 132);
        assert_eq!(ParenTree::count(15), 2_674_440);
    }

    #[test]
    fn catalan_count_is_exact_until_it_saturates() {
        // From n = 67 the intermediate product Catalan(65) * 262 no
        // longer fits in a u128.
        assert_eq!(
            ParenTree::count(66),
            1_440_418_573_150_919_668_872_489_894_243_865_350
        );
        assert_eq!(ParenTree::count(67), u128::MAX);
        assert_eq!(ParenTree::count(200), u128::MAX);
        for n in 2..=300 {
            assert!(ParenTree::count(n) >= ParenTree::count(n - 1), "n = {n}");
        }
    }

    #[test]
    fn spans_are_contiguous() {
        for tree in ParenTree::enumerate(0, 4) {
            assert_eq!(tree.span(), (0, 4));
            assert_eq!(tree.num_leaves(), 5);
        }
    }

    #[test]
    fn left_to_right_shape() {
        let t = ParenTree::left_to_right(0, 3);
        assert_eq!(t.to_string(), "(((M1 M2) M3) M4)");
    }

    #[test]
    fn right_to_left_shape() {
        let t = ParenTree::right_to_left(0, 3);
        assert_eq!(t.to_string(), "(M1 (M2 (M3 M4)))");
    }

    #[test]
    fn fanning_out_matches_eq4() {
        // n = 5, h = 2: ((M1 (M2)) ...) -> prefix (M1 M2) r-to-l, suffix
        // ((M3 M4) M5) l-to-r.
        let t = ParenTree::fanning_out(5, 2);
        assert_eq!(t.to_string(), "((M1 M2) ((M3 M4) M5))");
        let t = ParenTree::fanning_out(5, 0);
        assert_eq!(t.to_string(), "((((M1 M2) M3) M4) M5)");
        let t = ParenTree::fanning_out(5, 5);
        assert_eq!(t.to_string(), "(M1 (M2 (M3 (M4 M5))))");
        let t = ParenTree::fanning_out(5, 3);
        assert_eq!(t.to_string(), "((M1 (M2 M3)) (M4 M5))");
    }

    #[test]
    fn fanning_out_family_size() {
        // n + 1 distinct members for n >= 4, n - 1 for n <= 3 (paper, Sec. V).
        for n in 1..=8usize {
            let set: HashSet<ParenTree> = (0..=n).map(|h| ParenTree::fanning_out(n, h)).collect();
            let expect = if n <= 3 { (n - 1).max(1) } else { n + 1 };
            assert_eq!(set.len(), expect, "n = {n}");
        }
    }

    #[test]
    fn fanning_out_members_are_valid_parenthesizations() {
        let all: HashSet<ParenTree> = ParenTree::enumerate(0, 5).into_iter().collect();
        for h in 0..=6 {
            assert!(all.contains(&ParenTree::fanning_out(6, h)));
        }
    }

    #[test]
    fn dag_roots_match_enumeration_order_exactly() {
        for n in 1..=7 {
            let mut dag = SpanDag::new(n);
            let roots = dag.enumerate_roots();
            let trees = ParenTree::enumerate(0, n - 1);
            assert_eq!(roots.len(), trees.len(), "n = {n}");
            for (id, tree) in roots.iter().zip(&trees) {
                assert_eq!(&dag.tree(*id), tree, "n = {n}");
            }
            // Idempotent: a second enumeration interns nothing new.
            let nodes = dag.num_nodes();
            assert_eq!(dag.enumerate_roots(), roots);
            assert_eq!(dag.num_nodes(), nodes);
        }
    }

    #[test]
    fn dag_shares_subtrees_across_full_trees() {
        // Distinct sub-trees over all spans of n = 7: sum over span
        // lengths L of (n - L + 1) * Catalan(L - 1) = 301, versus
        // 132 trees x 6 associations = 792 without sharing.
        let mut dag = SpanDag::new(7);
        let roots = dag.enumerate_roots();
        assert_eq!(roots.len(), 132);
        assert_eq!(dag.num_nodes(), 301);
        // Children always precede parents (ids are topologically sorted).
        for id in 0..dag.num_nodes() {
            if let Some((l, r)) = dag.children(id) {
                assert!(l < id && r < id);
                let (llo, lhi) = dag.span(l);
                let (rlo, rhi) = dag.span(r);
                assert_eq!(lhi + 1, rlo);
                assert_eq!(dag.span(id), (llo, rhi));
            }
        }
    }

    #[test]
    fn dag_interning_dedupes_explicit_trees() {
        let mut dag = SpanDag::new(5);
        let roots = dag.enumerate_roots();
        let nodes = dag.num_nodes();
        // Every enumerated tree interns back to its existing node.
        for (id, tree) in roots.iter().zip(ParenTree::enumerate(0, 4)) {
            assert_eq!(dag.intern_tree(&tree), Some(*id));
        }
        assert_eq!(dag.num_nodes(), nodes, "no duplicates created");
        // Interning into a fresh DAG builds only the needed sub-trees.
        let mut sparse = SpanDag::new(5);
        let t = ParenTree::left_to_right(0, 4);
        let id = sparse.intern_tree(&t).unwrap();
        assert_eq!(sparse.tree(id), t);
        assert_eq!(sparse.num_nodes(), 5 + 4, "leaves + one spine");
    }

    #[test]
    fn dag_rejects_malformed_trees() {
        let mut dag = SpanDag::new(3);
        // Leaf out of range.
        assert_eq!(dag.intern_tree(&ParenTree::Leaf(3)), None);
        // Sibling spans not adjacent (leaf repeated / gap).
        let twin = ParenTree::node(ParenTree::Leaf(0), ParenTree::Leaf(0));
        assert_eq!(dag.intern_tree(&twin), None);
        let gap = ParenTree::node(ParenTree::Leaf(0), ParenTree::Leaf(2));
        assert_eq!(dag.intern_tree(&gap), None);
        // A valid tree still interns after the rejections.
        assert!(dag.intern_tree(&ParenTree::left_to_right(0, 2)).is_some());
    }
}
