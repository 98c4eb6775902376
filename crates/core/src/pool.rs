//! The memoized enumeration engine: build the variant pool with
//! **per-fragment** instead of **per-tree** work.
//!
//! [`crate::builder::build_variant`] re-lowers every association of every
//! tree from scratch, even though the lowering of a sub-span
//! parenthesization depends only on that span's leaf descriptors — the
//! same `(i, j)` sub-tree is re-derived in every one of the
//! `Catalan(n - 1)` full trees containing it. [`PoolBuilder`] instead:
//!
//! 1. enumerates parenthesizations as a [`SpanDag`] (each distinct
//!    sub-tree interned once per span — 301 nodes instead of 792
//!    per-tree associations for `n = 7`),
//! 2. lowers each DAG node **exactly once** into a `Fragment` — the
//!    association's rewrite/kernel/feature results with span-local
//!    `ValRef`s plus the exact cumulative cost polynomial — and
//! 3. assembles each full variant by walking its root's sub-DAG in the
//!    builder's leftmost-available-first order, splicing fragment steps
//!    with a constant `Temp`-offset renumber.
//!
//! The output is **bit-identical** to per-tree
//! [`build_variant`](crate::builder::build_variant) lowering — same
//! steps, same `ValRef`s, same finalizes, same (exact-rational) cost
//! polynomials, same pool order — pinned by
//! `crates/core/tests/pool_memo.rs`, which calls the per-tree lowering
//! by name as the reference.
//!
//! A [`crate::session::CompileSession`] owns one `PoolBuilder` and reuses
//! its scratch across compiles; the memo is invalidated whenever the
//! session hands it a different interned shape key.

use crate::builder::{
    finalizes_for, leaf_descs, lower_node, BuildError, BuildOptions, Fragment, NodeDesc,
};
use crate::paren::{NodeId, ParenTree, SpanDag};
use crate::variant::{ResultDesc, ValRef, Variant};
use gmc_ir::{EquivClasses, Shape, ShapeId};
use gmc_kernels::finalize_cost_poly;

/// Observability counters for one prepared memo (reset whenever the
/// builder re-targets a different shape).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Interned DAG nodes (leaves included).
    pub nodes: usize,
    /// Fragments lowered since the memo was (re)prepared — each DAG node
    /// is lowered at most once, so this never exceeds `nodes`.
    pub fragments_lowered: usize,
    /// Variants assembled from the shared fragment table.
    pub variants_assembled: usize,
}

/// The memoized enumeration engine (see the [module docs](self)).
///
/// Owned by a [`crate::session::CompileSession`] (one per session, keyed
/// by the session's interned [`ShapeId`]); the free functions create a
/// throwaway builder per call.
#[derive(Debug)]
pub struct PoolBuilder {
    /// Identity of the currently memoized shape: the caller-supplied key
    /// plus the options the fragments were lowered under. `None` means
    /// the memo is empty or was prepared keyless (one-shot use).
    key: Option<(ShapeId, BuildOptions)>,
    /// The shape the memo was prepared for. Checked on the warm path in
    /// addition to `key`: [`ShapeId`]s from different interners can
    /// collide, and a stale memo must never be served for a different
    /// shape.
    shape: Option<Shape>,
    dag: SpanDag,
    /// One slot per DAG node, filled lazily in ascending (topological)
    /// id order. A failed lowering is memoized too: every tree containing
    /// the fragment fails with the same error the per-tree reference
    /// would report.
    frags: Vec<Option<Result<Fragment, BuildError>>>,
    classes: EquivClasses,
    leaves: Vec<NodeDesc>,
    stats: PoolStats,
}

impl Default for PoolBuilder {
    fn default() -> Self {
        PoolBuilder::new()
    }
}

impl PoolBuilder {
    /// An empty builder with no memoized shape.
    #[must_use]
    pub fn new() -> Self {
        PoolBuilder {
            key: None,
            shape: None,
            dag: SpanDag::new(1),
            frags: Vec::new(),
            classes: EquivClasses::new(0),
            leaves: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Counters for the currently memoized shape.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            nodes: self.dag.num_nodes(),
            ..self.stats
        }
    }

    /// Re-target the memo: reuse it if `key` matches the prepared shape,
    /// otherwise rebuild the leaf descriptors and drop every interned
    /// node and fragment. A `None` key never matches (one-shot callers
    /// pay one preparation per call, exactly as before).
    fn prepare(&mut self, key: Option<ShapeId>, shape: &Shape, options: BuildOptions) {
        if let (Some(id), Some(have)) = (key, self.key) {
            if have == (id, options) && self.shape.as_ref() == Some(shape) {
                return;
            }
        }
        self.key = key.map(|id| (id, options));
        self.shape = key.is_some().then(|| shape.clone());
        self.dag = SpanDag::new(shape.len());
        self.frags = vec![None; shape.len()];
        self.classes = shape.size_classes();
        self.leaves = leaf_descs(shape, &self.classes);
        self.stats = PoolStats::default();
    }

    /// Lower every not-yet-lowered DAG node, in ascending id order
    /// (children always precede parents).
    fn lower_pending(&mut self, options: BuildOptions) {
        self.frags.resize(self.dag.num_nodes(), None);
        for id in 0..self.dag.num_nodes() {
            if self.frags[id].is_some() {
                continue;
            }
            let lowered = match self.dag.children(id) {
                None => {
                    let (lo, _) = self.dag.span(id);
                    Ok(Fragment::leaf(self.leaves[lo]))
                }
                // Propagate child errors left-first: the left child's
                // associations are issued before the right's, whose are
                // issued before this node's own — matching which error
                // the per-tree reference surfaces first.
                Some((l, r)) => match (&self.frags[l], &self.frags[r]) {
                    (Some(Err(e)), _) | (_, Some(Err(e))) => Err(e.clone()),
                    (Some(Ok(lf)), Some(Ok(rf))) => lower_node(
                        lf,
                        self.dag.num_leaves(l),
                        rf,
                        self.dag.num_leaves(r),
                        &self.classes,
                        options,
                    ),
                    _ => unreachable!("children lowered before parents"),
                },
            };
            self.stats.fragments_lowered += 1;
            self.frags[id] = Some(lowered);
        }
    }

    /// Splice the flattened steps of `id`'s sub-tree into `out`, with the
    /// sub-tree's span-local `Temp` indices relocated by `base` (the
    /// number of steps issued before this sub-tree in the containing
    /// variant's total order).
    fn emit_steps(&self, id: NodeId, base: usize, out: &mut Vec<crate::variant::Step>) {
        let Some((l, r)) = self.dag.children(id) else {
            return;
        };
        self.emit_steps(l, base, out);
        self.emit_steps(r, base + (self.dag.num_leaves(l) - 1), out);
        let frag = self.fragment(id).expect("emit only over Ok fragments");
        let mut step = frag.step.expect("association node has a step");
        if let ValRef::Temp(t) = step.left {
            step.left = ValRef::Temp(t + base);
        }
        if let ValRef::Temp(t) = step.right {
            step.right = ValRef::Temp(t + base);
        }
        out.push(step);
    }

    fn fragment(&self, id: NodeId) -> Result<&Fragment, BuildError> {
        match &self.frags[id] {
            Some(Ok(f)) => Ok(f),
            Some(Err(e)) => Err(e.clone()),
            None => unreachable!("fragment lowered before assembly"),
        }
    }

    /// Assemble the full variant rooted at `id` from the shared fragment
    /// table: copy + renumber the spliced steps, clone the memoized cost,
    /// and finalize the end result — bit-identical to
    /// [`crate::builder::build_variant`] on the same tree.
    fn assemble(&self, id: NodeId) -> Result<Variant, BuildError> {
        let frag = self.fragment(id)?;
        let n = self.dag.num_leaves(id);
        let mut steps = Vec::with_capacity(n - 1);
        self.emit_steps(id, 0, &mut steps);
        let (finalizes, delivered) = finalizes_for(&frag.result)?;
        let mut cost = frag.cost.clone();
        for fin in &finalizes {
            cost += &finalize_cost_poly(fin.kernel, fin.size_sym);
        }
        Ok(Variant {
            steps,
            finalizes,
            cost,
            paren: self.dag.tree(id),
            result: ResultDesc {
                structure: delivered.structure,
                property: delivered.property,
                rows_sym: delivered.rows,
                cols_sym: delivered.cols,
            },
            num_leaves: n,
        })
    }

    /// Assemble the variants for `roots`, in order; the first failing
    /// root's error wins.
    fn assemble_many(&mut self, roots: &[NodeId]) -> Result<Vec<Variant>, BuildError> {
        self.stats.variants_assembled += roots.len();
        roots.iter().map(|&id| self.assemble(id)).collect()
    }

    /// Build the variant for **every** parenthesization of `shape`, in
    /// [`ParenTree::enumerate`] order, lowering each distinct sub-span
    /// fragment once. `key` identifies the shape across calls (a
    /// session passes its interned [`ShapeId`] so repeat compiles of the
    /// same shape reuse the memo; `None` prepares from scratch).
    ///
    /// The caller is responsible for the `Catalan(n - 1)` pool-size cap —
    /// this method materializes the full pool unconditionally.
    ///
    /// # Errors
    ///
    /// Propagates the same [`BuildError`] per-tree lowering would report
    /// for the first failing tree (unreachable for valid shapes).
    pub fn build_full(
        &mut self,
        key: Option<ShapeId>,
        shape: &Shape,
    ) -> Result<Vec<Variant>, BuildError> {
        self.prepare(key, shape, BuildOptions::default());
        let roots = self.dag.enumerate_roots();
        self.lower_pending(BuildOptions::default());
        self.assemble_many(&roots)
    }

    /// Build the variants for an explicit list of parenthesizations (the
    /// warm-restart restore path), sharing fragments across the trees —
    /// and with any previously memoized pool for the same `key`.
    ///
    /// # Errors
    ///
    /// [`BuildError::TreeShapeMismatch`] for a tree that does not span
    /// the whole chain, otherwise as [`PoolBuilder::build_full`].
    pub fn build_for_trees(
        &mut self,
        key: Option<ShapeId>,
        shape: &Shape,
        trees: &[ParenTree],
    ) -> Result<Vec<Variant>, BuildError> {
        self.prepare(key, shape, BuildOptions::default());
        let full_span = (0, shape.len() - 1);
        let roots: Vec<NodeId> = trees
            .iter()
            .map(|t| {
                if t.span() != full_span {
                    return Err(BuildError::TreeShapeMismatch);
                }
                self.dag.intern_tree(t).ok_or(BuildError::TreeShapeMismatch)
            })
            .collect::<Result<_, _>>()?;
        self.lower_pending(BuildOptions::default());
        self.assemble_many(&roots)
    }
}

/// One-shot convenience for the free functions.
impl PoolBuilder {
    /// [`PoolBuilder::build_full`] through a throwaway builder.
    ///
    /// # Errors
    ///
    /// As [`PoolBuilder::build_full`].
    pub fn full_pool(shape: &Shape) -> Result<Vec<Variant>, BuildError> {
        PoolBuilder::new().build_full(None, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_variant;
    use gmc_ir::{Features, Operand, Property, Structure};

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    #[test]
    fn memoized_pool_is_bit_identical_to_reference_for_n7() {
        let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
        let spd = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
        let shape = Shape::new(vec![g(), l, g(), spd, g(), g().transposed(), g()]).unwrap();
        let trees = ParenTree::enumerate(0, 6);
        let reference: Vec<Variant> = trees
            .iter()
            .map(|t| build_variant(&shape, t).unwrap())
            .collect();
        let mut builder = PoolBuilder::new();
        let pool = builder.build_full(None, &shape).unwrap();
        assert_eq!(pool, reference, "exact Variant equality");
        let stats = builder.stats();
        assert_eq!(stats.nodes, 301, "shared sub-trees");
        assert_eq!(stats.fragments_lowered, 301, "each node lowered once");
        assert_eq!(stats.variants_assembled, 132);
    }

    #[test]
    fn single_matrix_chain_assembles_finalizers() {
        let spd = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
        let shape = Shape::new(vec![spd]).unwrap();
        let pool = PoolBuilder::full_pool(&shape).unwrap();
        let reference = build_variant(&shape, &ParenTree::Leaf(0)).unwrap();
        assert_eq!(pool, vec![reference]);
    }

    #[test]
    fn session_key_reuses_the_memo_across_calls() {
        let shape = Shape::new(vec![g(); 6]).unwrap();
        let key = {
            let mut interner = gmc_ir::ShapeInterner::new();
            interner.intern(&shape)
        };
        let mut builder = PoolBuilder::new();
        let first = builder.build_full(Some(key), &shape).unwrap();
        let lowered = builder.stats().fragments_lowered;
        let again = builder.build_full(Some(key), &shape).unwrap();
        assert_eq!(first, again);
        assert_eq!(
            builder.stats().fragments_lowered,
            lowered,
            "warm rebuild lowers nothing new"
        );
        // A different shape under a different key invalidates the memo.
        let other = Shape::new(vec![g(); 4]).unwrap();
        let other_key = {
            let mut interner = gmc_ir::ShapeInterner::new();
            interner.intern(&other);
            let mut i2 = gmc_ir::ShapeInterner::new();
            i2.intern(&shape);
            i2.intern(&other)
        };
        let pool = builder.build_full(Some(other_key), &other).unwrap();
        assert_eq!(pool.len(), 5);
        assert_eq!(builder.stats().nodes, 4 + 3 + 2 * 2 + 5, "fresh DAG");
    }

    #[test]
    fn explicit_trees_share_fragments_and_validate_spans() {
        let shape = Shape::new(vec![g(); 5]).unwrap();
        let trees = [
            ParenTree::left_to_right(0, 4),
            ParenTree::right_to_left(0, 4),
            ParenTree::left_to_right(0, 4),
        ];
        let mut builder = PoolBuilder::new();
        let got = builder.build_for_trees(None, &shape, &trees).unwrap();
        for (v, t) in got.iter().zip(&trees) {
            assert_eq!(v, &build_variant(&shape, t).unwrap());
        }
        // The duplicate tree re-used its fragments: only two spines.
        assert!(builder.stats().fragments_lowered <= 5 + 4 + 4);
        // A tree over the wrong span is rejected like the reference.
        let short = [ParenTree::left_to_right(0, 3)];
        assert_eq!(
            builder.build_for_trees(None, &shape, &short),
            Err(BuildError::TreeShapeMismatch)
        );
    }
}
