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
//!
//! Above the per-shape memo sits the **cross-shape** fragment store
//! ([`crate::fragcache::FragmentCache`]): the `*_cached` build entry
//! points consult it before lowering each DAG node, so a shape change —
//! which drops the memo — still assembles shared sub-spans from fragments
//! lowered for *other* shapes. The store caches failed lowerings too, and
//! both layers preserve the exact-once contract and bit-identical output.

use crate::builder::{
    finalizes_for, leaf_descs, lower_node, BuildError, BuildOptions, Fragment, NodeDesc,
};
use crate::fragcache::{FragKey, FragmentCache, Frame};
use crate::paren::{NodeId, ParenTree, SpanDag};
use crate::variant::{ResultDesc, ValRef, Variant};
use gmc_ir::{EquivClasses, Shape, ShapeId};
use gmc_kernels::finalize_cost_poly;
use std::sync::Arc;

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

/// A span's store identity, shared by every tree over the span: the
/// symbolic frame, the localized leaf-descriptor run, and the run's
/// content hash.
type SpanIdentity = (Frame, Arc<[NodeDesc]>, u64);

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
    /// would report. Slots are `Arc`ed so a cross-shape cache hit is a
    /// pointer clone rather than a deep fragment copy.
    frags: Vec<Option<Result<Arc<Fragment>, BuildError>>>,
    /// Per-span store identity — the frame, localized descriptor run,
    /// and run content hash shared by **every** tree over the span —
    /// computed lazily (indexed `lo * n + hi`) and reused across the
    /// span's nodes, so keying a node for the cross-shape store is
    /// allocation- and hash-free beyond its first sibling.
    span_ids: Vec<Option<SpanIdentity>>,
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
            span_ids: Vec::new(),
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
        self.span_ids.clear();
        self.span_ids.resize(shape.len() * shape.len(), None);
        self.classes = shape.size_classes();
        self.leaves = leaf_descs(shape, &self.classes);
        self.stats = PoolStats::default();
    }

    /// The cross-shape cache identity of node `id`: its span's descriptor
    /// run and tree renumbered into the span-local frame, plus the frame
    /// itself (chain offset + global symbol per local slot) so a hit from
    /// elsewhere can be relocated. `None` for spans too wide to encode
    /// (> 63 leaves), which simply bypass the store.
    fn span_key(&mut self, id: NodeId, options: BuildOptions) -> Option<(Frame, FragKey)> {
        let (lo, hi) = self.dag.span(id);
        let width = hi - lo + 1;
        if width > 63 {
            return None;
        }
        let slot = lo * self.dag.chain_len() + hi;
        if self.span_ids[slot].is_none() {
            // Local size symbols in first-occurrence order over the
            // span's positions. Sound because `size_classes` merges only
            // adjacent symbols: the partition restricted to `lo..=hi + 1`
            // is fully determined by the span's own operand run.
            let mut syms: Vec<usize> = Vec::with_capacity(width + 1);
            for p in lo..=hi + 1 {
                let g = self.classes.find(p);
                if !syms.contains(&g) {
                    syms.push(g);
                }
            }
            let local = |g: usize| {
                syms.iter()
                    .position(|&s| s == g)
                    .expect("descriptor symbols come from span positions")
            };
            let run: Arc<[NodeDesc]> = (lo..=hi)
                .map(|p| {
                    let mut d = self.leaves[p];
                    d.rows = local(d.rows);
                    d.cols = local(d.cols);
                    d.source = ValRef::Leaf(p - lo);
                    d
                })
                .collect();
            let run_hash = FragKey::hash_run(&run);
            let frame = Frame {
                lo,
                syms: syms.into(),
            };
            self.span_ids[slot] = Some((frame, run, run_hash));
        }
        let (frame, run, run_hash) = self.span_ids[slot].as_ref().expect("filled above");
        let tree = self.dag.code(id);
        Some((
            frame.clone(),
            FragKey::from_hashed(options, tree, run.clone(), *run_hash),
        ))
    }

    /// Lower every not-yet-lowered DAG node, in ascending id order
    /// (children always precede parents), consulting the cross-shape
    /// fragment store (when one is supplied) before lowering each
    /// association node. Leaves are never cached — constructing one is
    /// cheaper than a lookup.
    fn lower_pending(&mut self, options: BuildOptions, mut cache: Option<&mut FragmentCache>) {
        self.frags.resize(self.dag.num_nodes(), None);
        for id in 0..self.dag.num_nodes() {
            if self.frags[id].is_some() {
                continue;
            }
            let lowered = match self.dag.children(id) {
                None => {
                    let (lo, _) = self.dag.span(id);
                    self.stats.fragments_lowered += 1;
                    Ok(Arc::new(Fragment::leaf(self.leaves[lo])))
                }
                Some((l, r)) => {
                    let keyed = match &cache {
                        Some(_) => self.span_key(id, options),
                        None => None,
                    };
                    if let (Some(c), Some((frame, key))) = (cache.as_deref_mut(), keyed.as_ref()) {
                        if let Some(found) = c.lookup(key, frame) {
                            self.frags[id] = Some(found);
                            continue;
                        }
                    }
                    // Propagate child errors left-first: the left child's
                    // associations are issued before the right's, whose
                    // are issued before this node's own — matching which
                    // error the per-tree reference surfaces first.
                    let lowered = match (&self.frags[l], &self.frags[r]) {
                        (Some(Err(e)), _) | (_, Some(Err(e))) => Err(e.clone()),
                        (Some(Ok(lf)), Some(Ok(rf))) => lower_node(
                            lf.as_ref(),
                            self.dag.num_leaves(l),
                            rf.as_ref(),
                            self.dag.num_leaves(r),
                            &self.classes,
                            options,
                        )
                        .map(Arc::new),
                        _ => unreachable!("children lowered before parents"),
                    };
                    self.stats.fragments_lowered += 1;
                    if let (Some(c), Some((frame, key))) = (cache.as_deref_mut(), keyed) {
                        c.insert(key, lowered.as_ref(), &frame);
                    }
                    lowered
                }
            };
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
            Some(Ok(f)) => Ok(f.as_ref()),
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

    /// Assemble the variants for `roots`, in order, splitting the work
    /// across up to `jobs` threads over the read-only fragment table.
    /// Output order and contents are identical for every `jobs` value.
    fn assemble_many(&mut self, roots: &[NodeId], jobs: usize) -> Result<Vec<Variant>, BuildError> {
        self.stats.variants_assembled += roots.len();
        let this = &*self;
        map_collect(roots, jobs, |&id| this.assemble(id))
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
        jobs: usize,
    ) -> Result<Vec<Variant>, BuildError> {
        self.build_full_cached(key, shape, jobs, None)
    }

    /// [`PoolBuilder::build_full`] consulting (and populating) a
    /// cross-shape [`FragmentCache`] for every association node the
    /// per-shape memo has not already lowered. Sessions pass their store
    /// here whenever its capacity is above 0.
    ///
    /// # Errors
    ///
    /// As [`PoolBuilder::build_full`] — cached failures propagate the
    /// identical [`BuildError`] the lowering originally produced.
    pub fn build_full_cached(
        &mut self,
        key: Option<ShapeId>,
        shape: &Shape,
        jobs: usize,
        cache: Option<&mut FragmentCache>,
    ) -> Result<Vec<Variant>, BuildError> {
        self.prepare(key, shape, BuildOptions::default());
        let roots = self.dag.enumerate_roots();
        self.lower_pending(BuildOptions::default(), cache);
        self.assemble_many(&roots, jobs)
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
        jobs: usize,
    ) -> Result<Vec<Variant>, BuildError> {
        self.build_for_trees_cached(key, shape, trees, jobs, None)
    }

    /// [`PoolBuilder::build_for_trees`] consulting (and populating) a
    /// cross-shape [`FragmentCache`] — the warm-restart path uses this so
    /// a snapshot-restored store lets the very first rebuild of a
    /// previously seen shape splice warm fragments.
    ///
    /// # Errors
    ///
    /// As [`PoolBuilder::build_for_trees`].
    pub fn build_for_trees_cached(
        &mut self,
        key: Option<ShapeId>,
        shape: &Shape,
        trees: &[ParenTree],
        jobs: usize,
        cache: Option<&mut FragmentCache>,
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
        self.lower_pending(BuildOptions::default(), cache);
        self.assemble_many(&roots, jobs)
    }
}

/// One-shot convenience for the free functions.
impl PoolBuilder {
    /// [`PoolBuilder::build_full`] through a throwaway builder.
    ///
    /// # Errors
    ///
    /// As [`PoolBuilder::build_full`].
    pub fn full_pool(shape: &Shape, jobs: usize) -> Result<Vec<Variant>, BuildError> {
        PoolBuilder::new().build_full(None, shape, jobs)
    }
}

/// Map `f` over `items` into a `Vec`, fanning the work out across up to
/// `jobs` threads when the `parallel` feature is on and the slice is
/// large enough to amortize thread spawns. Results come back in item
/// order (per-chunk `Vec`s, flattened — no per-element `Option`
/// bookkeeping), and the first `Err` in item order wins, so output is
/// identical for every `jobs` value.
fn map_collect<T, V, E, F>(items: &[T], jobs: usize, f: F) -> Result<Vec<V>, E>
where
    T: Sync,
    V: Send,
    E: Send,
    F: Fn(&T) -> Result<V, E> + Sync,
{
    #[cfg(feature = "parallel")]
    if jobs > 1 && items.len() >= 2 * PAR_MIN_TREES_PER_JOB {
        let jobs = jobs.min(items.len() / PAR_MIN_TREES_PER_JOB).max(1);
        let chunk = items.len().div_ceil(jobs);
        let mut chunks: Vec<Vec<Result<V, E>>> = items
            .chunks(chunk)
            .map(|c| Vec::with_capacity(c.len()))
            .collect();
        rayon::scope(|s| {
            for (ichunk, out) in items.chunks(chunk).zip(chunks.iter_mut()) {
                let f = &f;
                s.spawn(move |_| out.extend(ichunk.iter().map(f)));
            }
        });
        return chunks.into_iter().flatten().collect();
    }
    let _ = jobs;
    items.iter().map(&f).collect()
}

/// Below this many trees per worker, thread spawn overhead dominates
/// (the vendored rayon shim spawns OS threads, not pool tasks).
#[cfg(feature = "parallel")]
const PAR_MIN_TREES_PER_JOB: usize = 16;

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
        let pool = builder.build_full(None, &shape, 1).unwrap();
        assert_eq!(pool, reference, "exact Variant equality");
        let stats = builder.stats();
        assert_eq!(stats.nodes, 301, "shared sub-trees");
        assert_eq!(stats.fragments_lowered, 301, "each node lowered once");
        assert_eq!(stats.variants_assembled, 132);
        // 132 trees engage the parallel assembly's chunking; the output
        // must not depend on the thread budget.
        for jobs in [2, 4] {
            assert_eq!(
                PoolBuilder::full_pool(&shape, jobs).unwrap(),
                reference,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn single_matrix_chain_assembles_finalizers() {
        let spd = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
        let shape = Shape::new(vec![spd]).unwrap();
        let pool = PoolBuilder::full_pool(&shape, 1).unwrap();
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
        let first = builder.build_full(Some(key), &shape, 1).unwrap();
        let lowered = builder.stats().fragments_lowered;
        let again = builder.build_full(Some(key), &shape, 1).unwrap();
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
        let pool = builder.build_full(Some(other_key), &other, 1).unwrap();
        assert_eq!(pool.len(), 5);
        assert_eq!(builder.stats().nodes, 4 + 3 + 2 * 2 + 5, "fresh DAG");
    }

    #[test]
    fn cross_shape_store_skips_relowering_of_shared_spans() {
        let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
        let spd = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
        // Two shapes sharing a 4-operand prefix, differing in the suffix.
        let a = Shape::new(vec![g(), l, g(), spd, g()]).unwrap();
        let b = Shape::new(vec![g(), l, g(), spd, g().transposed(), g()]).unwrap();
        let mut cache = crate::fragcache::FragmentCache::new(1 << 12);
        let mut builder = PoolBuilder::new();
        let pool_a = builder
            .build_full_cached(None, &a, 1, Some(&mut cache))
            .unwrap();
        let pool_b = builder
            .build_full_cached(None, &b, 1, Some(&mut cache))
            .unwrap();
        let hits = cache.stats().hits;
        assert!(hits > 0, "shared prefix spans must hit the store");
        assert!(
            builder.stats().fragments_lowered < builder.stats().nodes,
            "hits skip lowering: {} of {} nodes lowered",
            builder.stats().fragments_lowered,
            builder.stats().nodes
        );
        // Bit-identical to the store-less builds.
        assert_eq!(pool_a, PoolBuilder::new().build_full(None, &a, 1).unwrap());
        assert_eq!(pool_b, PoolBuilder::new().build_full(None, &b, 1).unwrap());
        // Rebuilding shape `a` cold (memo dropped by the `b` build) now
        // hits the store for every association node.
        let pool_a2 = builder
            .build_full_cached(None, &a, 1, Some(&mut cache))
            .unwrap();
        assert_eq!(pool_a2, pool_a);
        assert_eq!(
            builder.stats().fragments_lowered,
            a.len(),
            "only leaves lowered on the warm rebuild"
        );
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
        let got = builder.build_for_trees(None, &shape, &trees, 1).unwrap();
        for (v, t) in got.iter().zip(&trees) {
            assert_eq!(v, &build_variant(&shape, t).unwrap());
        }
        // The duplicate tree re-used its fragments: only two spines.
        assert!(builder.stats().fragments_lowered <= 5 + 4 + 4);
        // A tree over the wrong span is rejected like the reference.
        let short = [ParenTree::left_to_right(0, 3)];
        assert_eq!(
            builder.build_for_trees(None, &shape, &short, 1),
            Err(BuildError::TreeShapeMismatch)
        );
    }
}
