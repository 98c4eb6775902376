//! Dynamic-programming solver for the GMCP with *known* sizes.
//!
//! This is the generalized-matrix-chain analogue of the classical MCP
//! dynamic program (Barthels et al., CGO 2018): for every sub-chain
//! `[i, j]` it keeps, per distinct result descriptor (structure, property,
//! pending operators, stored orientation), the minimum cost of computing
//! that sub-chain. Because feature inference makes the downstream kernel
//! choice depend on the intermediate's features, the DP state must be the
//! descriptor, not just the span.
//!
//! The result equals `min_{A in A} T(A, q)` over the full variant set and
//! is cross-validated against [`crate::enumerate::all_variants`] by tests.
//!
//! Two entry points exist: the free functions [`optimal_cost`] /
//! [`optimal_variant`] (one-shot, allocate their own state), and
//! [`DpSolver`], a long-lived solver for one shape that reuses its
//! descriptor interner, association memo, and state arena across
//! instances — after the first solve, [`DpSolver::optimal_cost`] performs
//! **no allocation**, which is what dispatch loops over many concrete
//! size vectors want. [`crate::session::CompileSession`] keeps one
//! `DpSolver` per compiled shape.
//!
//! # Implementation notes (hot-path layout)
//!
//! The solver is allocation-lean by design, replacing the original
//! `HashMap<DescKey, State>`-per-span formulation (kept in the tests as
//! a cross-check oracle):
//!
//! * descriptors are interned once into dense `u32` ids (`Interner`),
//!   so span tables are flat `Vec`s addressed by slot, not hash maps;
//! * `associate` + `cost_flops` results are memoized per `(left id,
//!   right id)` pair (`AssocMemo`) — sound because the association
//!   outcome depends only on the interned descriptor fields, never on
//!   where a value is stored — which collapses the inner relaxation loop
//!   to table lookups on chains with few distinct descriptors;
//! * per-split candidate lists are iterated in place instead of being
//!   collected into fresh `Vec`s;
//! * backtracking is an explicit work-stack loop, so chain length is not
//!   bounded by the call stack (see the 50-operand regression test).
//!
//! Costs are accumulated in exactly the original order (`(lc + rc) +
//! step`), so the optimum is bit-identical to the reference solver.

use crate::builder::{associate, finalizes_for, leaf_descs, BuildError, NodeDesc};
use crate::variant::{Finalize, ValRef};
use gmc_ir::{EquivClasses, Instance, Property, Shape, Structure};
use gmc_kernels::{cost_flops, finalize_cost_flops, Kernel};
use gmc_linalg::Side;

/// State key: everything about an intermediate that affects downstream
/// decisions (the temp index does not). Only the recipe self-check and
/// the tests' reference solver compare whole keys.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DescKey {
    structure: gmc_ir::Structure,
    property: gmc_ir::Property,
    transposed: bool,
    inverted: bool,
    rows: usize,
    cols: usize,
}

#[cfg(any(test, debug_assertions))]
fn key(d: &NodeDesc) -> DescKey {
    DescKey {
        structure: d.structure,
        property: d.property,
        transposed: d.transposed,
        inverted: d.inverted,
        rows: d.rows,
        cols: d.cols,
    }
}

/// Sentinel slot meaning "child is the single leaf of its span".
const LEAF: u32 = u32::MAX;
/// Sentinel for the slot-scratch table ("descriptor not in this span").
const NO_SLOT: u32 = u32::MAX;

/// Dense descriptor interner: descriptor -> `u32`, with the canonical
/// [`NodeDesc`] kept for `associate`/`finalizes_for` calls.
struct Interner {
    /// Lazily allocated per-feature-key id tables, indexed `rows * nsym +
    /// cols` (symbols are canonical and `< nsym`), so interning is pure
    /// array addressing — no hashing anywhere in the solver's hot loop.
    ids: Vec<Option<Box<[u32]>>>,
    nsym: usize,
    descs: Vec<NodeDesc>,
    /// Feature key (see [`fkey`]) per interned descriptor.
    fkeys: Vec<u16>,
}

const NO_ID: u32 = u32::MAX;

impl Interner {
    fn new(nsym: usize) -> Self {
        Interner {
            ids: (0..FKEYS).map(|_| None).collect(),
            nsym,
            descs: Vec::new(),
            fkeys: Vec::new(),
        }
    }

    fn intern(&mut self, d: NodeDesc) -> u32 {
        let fk = fkey(&d);
        let table = self.ids[fk as usize]
            .get_or_insert_with(|| vec![NO_ID; self.nsym * self.nsym].into_boxed_slice());
        let slot = &mut table[d.rows * self.nsym + d.cols];
        if *slot == NO_ID {
            let id = u32::try_from(self.descs.len()).expect("descriptor space fits u32");
            self.descs.push(d);
            self.fkeys.push(fk);
            *slot = id;
        }
        *slot
    }
}

/// The feature part of a descriptor, as a dense 7-bit key: structure (2),
/// property (2), pending transpose/inversion (1 + 1), and squareness (1).
/// These bits determine everything about an association except the size
/// symbols (see [`AssocMemo`]). Squareness compares canonical symbols
/// directly — every interned descriptor stores canonicalized symbols.
fn fkey(d: &NodeDesc) -> u16 {
    let s = match d.structure {
        Structure::General => 0u16,
        Structure::Symmetric => 1,
        Structure::LowerTri => 2,
        Structure::UpperTri => 3,
    };
    let p = match d.property {
        Property::Singular => 0u16,
        Property::NonSingular => 1,
        Property::Spd => 2,
        Property::Orthogonal => 3,
    };
    s | (p << 2)
        | (u16::from(d.transposed) << 4)
        | (u16::from(d.inverted) << 5)
        | (u16::from(d.rows == d.cols) << 6)
}

/// Number of distinct feature keys.
const FKEYS: usize = 1 << 7;

/// Feature-level memo of the association rewrite.
///
/// `associate`'s control flow — operand swaps, kernel assignment, the
/// `cheap` flag, and structure/property inference — depends only on the
/// *features* of the two descriptors ([`fkey`]): `normalize` and
/// `swap_rewrite` move flags, never size symbols, and the only
/// symbol-dependent inputs are each operand's squareness (folded into the
/// key) and the size triplet. So one `associate` call per feature pair
/// yields a [`Recipe`] from which the result descriptor and step cost for
/// *any* symbol pair are reconstructed with a few array reads; in debug
/// builds every reconstruction is asserted against a direct `associate`
/// call.
struct AssocMemo {
    /// `recipes[fkey_l][fkey_r]`, rows allocated on first use.
    recipes: Vec<Option<Box<[Option<Recipe>; FKEYS]>>>,
}

/// How an association transforms its operands, minus the size symbols.
#[derive(Clone, Copy, Debug)]
struct Recipe {
    /// Final operand order differs from the input order.
    swapped: bool,
    /// Final pending-transpose flags (these select effective dimensions).
    l_trans: bool,
    r_trans: bool,
    kernel: Kernel,
    side: Side,
    cheap: bool,
    res_structure: Structure,
    res_property: Property,
    res_transposed: bool,
    res_inverted: bool,
}

impl Default for AssocMemo {
    fn default() -> Self {
        AssocMemo {
            recipes: (0..FKEYS).map(|_| None).collect(),
        }
    }
}

impl AssocMemo {
    /// `(result id, step flops)` for associating `lid * rid`.
    fn get_or_compute(
        &mut self,
        lid: u32,
        rid: u32,
        interner: &mut Interner,
        classes: &EquivClasses,
        q: &[u64],
    ) -> Result<(u32, f64), BuildError> {
        let (l, r) = (lid as usize, rid as usize);
        let row = interner.fkeys[l] as usize;
        let col = interner.fkeys[r] as usize;
        let recipe = match self.recipes[row].as_ref().and_then(|row| row[col]) {
            Some(recipe) => recipe,
            None => {
                // One associate call per feature pair, with the operands
                // source-tagged so the final order can be read off the step.
                let mut ld = interner.descs[l];
                let mut rd = interner.descs[r];
                ld.source = ValRef::Leaf(0);
                rd.source = ValRef::Leaf(1);
                let (step, result) = associate(ld, rd, classes)?;
                let recipe = Recipe {
                    swapped: step.left == ValRef::Leaf(1),
                    l_trans: step.left_trans,
                    r_trans: step.right_trans,
                    kernel: step.kernel,
                    side: step.side,
                    cheap: step.cheap,
                    res_structure: result.structure,
                    res_property: result.property,
                    res_transposed: result.transposed,
                    res_inverted: result.inverted,
                };
                self.recipes[row].get_or_insert_with(|| Box::new([None; FKEYS]))[col] =
                    Some(recipe);
                recipe
            }
        };

        let (sl, sr) = if recipe.swapped { (r, l) } else { (l, r) };
        let (ld, rd) = (&interner.descs[sl], &interner.descs[sr]);
        let (l_rows, l_cols) = if recipe.l_trans {
            (ld.cols, ld.rows)
        } else {
            (ld.rows, ld.cols)
        };
        let r_cols = if recipe.r_trans { rd.rows } else { rd.cols };
        // Interned symbols are canonical by construction (leaves are
        // canonicalized, results carry triplet components), so no find().
        let triplet = (l_rows, l_cols, r_cols);
        let flops = cost_flops(
            recipe.kernel,
            recipe.side,
            recipe.cheap,
            q[triplet.0],
            q[triplet.1],
            q[triplet.2],
        );
        let result = NodeDesc {
            structure: recipe.res_structure,
            property: recipe.res_property,
            transposed: recipe.res_transposed,
            inverted: recipe.res_inverted,
            rows: triplet.0,
            cols: triplet.2,
            source: ValRef::Temp(usize::MAX),
        };

        #[cfg(debug_assertions)]
        {
            let (step, direct) = associate(interner.descs[l], interner.descs[r], classes)?;
            let (a, b, c) = step.triplet;
            debug_assert_eq!((a, b, c), triplet, "recipe must reproduce the triplet");
            debug_assert_eq!(
                key(&direct),
                key(&result),
                "recipe must reproduce the result"
            );
            debug_assert_eq!(
                cost_flops(step.kernel, step.side, step.cheap, q[a], q[b], q[c]).to_bits(),
                flops.to_bits(),
                "recipe must reproduce the step cost"
            );
        }

        let rid_res = interner.intern(result);
        Ok((rid_res, flops))
    }
}

/// All span states in one structure-of-arrays arena: span `[i, j]` owns
/// the contiguous range `spans[i * n + j]`, and back-pointers address
/// slots *relative* to the child span's range. One arena means the solver
/// performs O(1) allocations total instead of three `Vec`s per span.
#[derive(Default)]
struct StateArena {
    ids: Vec<u32>,
    costs: Vec<f64>,
    /// `(split, left slot, right slot)`; [`LEAF`] slots denote leaf children.
    back: Vec<(u32, u32, u32)>,
    /// `span index -> (start, len)` into the arrays above.
    spans: Vec<(u32, u32)>,
}

impl StateArena {
    fn range(&self, i: usize, j: usize, n: usize) -> (usize, usize) {
        let (start, len) = self.spans[i * n + j];
        (start as usize, len as usize)
    }
}

/// The optimal FLOP count over all variants for `shape` on `instance`.
///
/// Runs in `O(n^3 s^2)` where `s` is the (small) number of distinct
/// descriptor states per span, so it scales to chains far beyond the
/// enumeration limit. One-shot convenience: allocates a fresh
/// [`DpSolver`]; callers that solve the same shape on many instances
/// should hold a `DpSolver` (or a [`crate::session::CompileSession`]) to
/// reuse its arenas.
///
/// # Errors
///
/// Propagates [`BuildError`] (unreachable for valid shapes).
///
/// # Panics
///
/// Panics if `instance` has the wrong number of sizes for `shape`.
pub fn optimal_cost(shape: &Shape, instance: &Instance) -> Result<f64, BuildError> {
    DpSolver::new(shape).optimal_cost(instance)
}

/// The optimal *variant* (and its cost) for `shape` on `instance`: the
/// run-time-search alternative discussed in Sec. I of the paper (as
/// implemented by Linnea for fixed sizes). The DP reconstructs the best
/// parenthesization by backtracking and lowers it with the deterministic
/// Sec. IV builder.
///
/// # Errors
///
/// Propagates [`BuildError`] (unreachable for valid shapes).
///
/// # Panics
///
/// Panics if `instance` has the wrong number of sizes for `shape`.
pub fn optimal_variant(
    shape: &Shape,
    instance: &Instance,
) -> Result<(crate::variant::Variant, f64), BuildError> {
    DpSolver::new(shape).optimal_variant(instance)
}

/// Up to two finalizer steps per descriptor (inverse, then transpose),
/// memoized per interned id so repeated solves cost no allocation.
type FinRecipe = [Option<Finalize>; 2];

/// A reusable DP solver for one shape.
///
/// Owns the descriptor `Interner`, the feature-level `AssocMemo`, the
/// span `StateArena`, and the finalize memo, all of which persist across
/// [`DpSolver::optimal_cost`] calls. The set of descriptors reachable per
/// span depends only on the shape (never on the instance sizes), so after
/// the first solve every table is warm and subsequent solves are
/// allocation-free with costs **bit-identical** to a fresh solver — the
/// relaxation order and summation order do not depend on table warmth.
pub struct DpSolver {
    shape: Shape,
    classes: EquivClasses,
    leaves: Vec<NodeDesc>,
    leaf_ids: Vec<u32>,
    interner: Interner,
    memo: AssocMemo,
    arena: StateArena,
    /// Scratch: desc id -> absolute arena slot in the span being built.
    slot_of: Vec<u32>,
    /// Lazily computed finalizer recipe per interned descriptor id.
    fin_memo: Vec<Option<FinRecipe>>,
    /// Scratch for the final-state totals (cost + finalizers), reduced
    /// with the selection engine's first-strict-minimum helper.
    final_totals: Vec<f64>,
}

impl DpSolver {
    /// A solver for `shape` with cold tables; the first solve warms them.
    #[must_use]
    pub fn new(shape: &Shape) -> Self {
        let classes = shape.size_classes();
        let leaves = leaf_descs(shape, &classes);
        let mut interner = Interner::new(shape.num_sizes());
        let leaf_ids: Vec<u32> = leaves.iter().map(|&d| interner.intern(d)).collect();
        let n = shape.len();
        let mut arena = StateArena::default();
        arena.spans.resize(n * n, (0, 0));
        DpSolver {
            shape: shape.clone(),
            classes,
            leaves,
            leaf_ids,
            interner,
            memo: AssocMemo::default(),
            arena,
            slot_of: Vec::new(),
            fin_memo: Vec::new(),
            final_totals: Vec::new(),
        }
    }

    /// The shape this solver is specialized to.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The optimal FLOP count for `instance` (see [`optimal_cost`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] (unreachable for valid shapes).
    ///
    /// # Panics
    ///
    /// Panics if `instance` has the wrong number of sizes for the shape.
    pub fn optimal_cost(&mut self, instance: &Instance) -> Result<f64, BuildError> {
        if self.shape.len() == 1 {
            return self.leaf_cost(instance);
        }
        self.solve(instance).map(|(_, cost)| cost)
    }

    /// The optimal variant and its cost (see [`optimal_variant`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] (unreachable for valid shapes).
    ///
    /// # Panics
    ///
    /// Panics if `instance` has the wrong number of sizes for the shape.
    pub fn optimal_variant(
        &mut self,
        instance: &Instance,
    ) -> Result<(crate::variant::Variant, f64), BuildError> {
        let (tree, cost) = if self.shape.len() == 1 {
            (crate::paren::ParenTree::Leaf(0), self.leaf_cost(instance)?)
        } else {
            let (min_slot, cost) = self.solve(instance)?;
            (self.backtrack(min_slot), cost)
        };
        let variant = crate::builder::build_variant(&self.shape, &tree)?;
        debug_assert!(
            (variant.flops(instance) - cost).abs() <= 1e-6 * cost.max(1.0),
            "backtracked tree must reproduce the DP cost"
        );
        Ok((variant, cost))
    }

    fn leaf_cost(&self, instance: &Instance) -> Result<f64, BuildError> {
        assert_eq!(
            instance.len(),
            self.shape.num_sizes(),
            "instance length must be n + 1"
        );
        let q = instance.sizes();
        let (finalizes, _) = finalizes_for(&self.leaves[0])?;
        Ok(finalizes
            .iter()
            .map(|f| finalize_cost_flops(f.kernel, q[f.size_sym]))
            .sum())
    }

    /// Finalize cost of the interned descriptor `id` on sizes `q`, through
    /// the per-id recipe memo (summation order matches [`finalizes_for`]).
    fn finalize_cost(&mut self, id: u32, q: &[u64]) -> Result<f64, BuildError> {
        if self.fin_memo.len() < self.interner.descs.len() {
            self.fin_memo.resize(self.interner.descs.len(), None);
        }
        let recipe = match self.fin_memo[id as usize] {
            Some(r) => r,
            None => {
                let (finalizes, _) = finalizes_for(&self.interner.descs[id as usize])?;
                debug_assert!(finalizes.len() <= 2, "at most inverse + transpose");
                let mut r: FinRecipe = [None, None];
                for (dst, f) in r.iter_mut().zip(&finalizes) {
                    *dst = Some(*f);
                }
                self.fin_memo[id as usize] = Some(r);
                r
            }
        };
        Ok(recipe
            .iter()
            .flatten()
            .map(|f| finalize_cost_flops(f.kernel, q[f.size_sym]))
            .sum())
    }

    /// Fill the arena for `instance` and return the winning final-span slot
    /// and total cost. Requires `n > 1`.
    fn solve(&mut self, instance: &Instance) -> Result<(u32, f64), BuildError> {
        assert_eq!(
            instance.len(),
            self.shape.num_sizes(),
            "instance length must be n + 1"
        );
        let n = self.shape.len();
        let q = instance.sizes();

        // Reset the arena (capacity is retained across solves).
        self.arena.ids.clear();
        self.arena.costs.clear();
        self.arena.back.clear();
        self.arena.spans.iter_mut().for_each(|s| *s = (0, 0));

        let DpSolver {
            ref classes,
            ref leaf_ids,
            ref mut interner,
            ref mut memo,
            ref mut arena,
            ref mut slot_of,
            ..
        } = *self;

        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                let start = arena.ids.len();
                for split in i..j {
                    // Left sub-chain [i, split], right [split + 1, j]. Single
                    // leaves are pseudo-states with zero cost.
                    let (l_start, ln, l_leaf) = if split == i {
                        (0, 1, true)
                    } else {
                        let (s0, sl) = arena.range(i, split, n);
                        (s0, sl, false)
                    };
                    let (r_start, rn, r_leaf) = if split + 1 == j {
                        (0, 1, true)
                    } else {
                        let (s0, sl) = arena.range(split + 1, j, n);
                        (s0, sl, false)
                    };
                    for ls in 0..ln {
                        let (lid, lc) = if l_leaf {
                            (leaf_ids[i], 0.0)
                        } else {
                            (arena.ids[l_start + ls], arena.costs[l_start + ls])
                        };
                        let lslot = if l_leaf { LEAF } else { ls as u32 };
                        for rs in 0..rn {
                            let (rid, rc) = if r_leaf {
                                (leaf_ids[j], 0.0)
                            } else {
                                (arena.ids[r_start + rs], arena.costs[r_start + rs])
                            };
                            let rslot = if r_leaf { LEAF } else { rs as u32 };
                            let (res_id, flops) =
                                memo.get_or_compute(lid, rid, interner, classes, q)?;
                            let cost = lc + rc + flops;
                            if slot_of.len() < interner.descs.len() {
                                slot_of.resize(interner.descs.len(), NO_SLOT);
                            }
                            let slot = slot_of[res_id as usize];
                            if slot == NO_SLOT {
                                slot_of[res_id as usize] = arena.ids.len() as u32;
                                arena.ids.push(res_id);
                                arena.costs.push(cost);
                                arena.back.push((split as u32, lslot, rslot));
                            } else if cost < arena.costs[slot as usize] {
                                arena.costs[slot as usize] = cost;
                                arena.back[slot as usize] = (split as u32, lslot, rslot);
                            }
                        }
                    }
                }
                // Reset only the touched scratch entries for the next span.
                for &id in &arena.ids[start..] {
                    slot_of[id as usize] = NO_SLOT;
                }
                arena.spans[i * n + j] = (start as u32, (arena.ids.len() - start) as u32);
            }
        }

        // Pick the best final state including forced finalizers. The
        // per-slot totals fill a reusable scratch vector and the winner
        // is the *first strict minimum* — the same tie-break rule and
        // reduction helper (`simd::argmin_first`) the selection
        // engine's candidate scan uses, identical on every ladder rung.
        let (f0, flen) = self.arena.range(0, n - 1, n);
        let mut totals = std::mem::take(&mut self.final_totals);
        totals.clear();
        for slot in 0..flen {
            let id = self.arena.ids[f0 + slot];
            let extra = self.finalize_cost(id, q)?;
            totals.push(self.arena.costs[f0 + slot] + extra);
        }
        let (min_slot, min) = crate::simd::argmin_first(crate::simd::active_level(), &totals)
            .expect("non-empty chain has final states");
        self.final_totals = totals;
        Ok((min_slot as u32, min))
    }

    /// Reconstruct the winning parenthesization from the filled arena.
    ///
    /// Backtracks iteratively (chain length must not be bounded by the call
    /// stack): an explicit work stack interleaves expansion with combining.
    fn backtrack(&self, min_slot: u32) -> crate::paren::ParenTree {
        use crate::paren::ParenTree;
        let n = self.shape.len();
        enum Task {
            Build { i: usize, j: usize, slot: u32 },
            Combine,
        }
        let mut work = vec![Task::Build {
            i: 0,
            j: n - 1,
            slot: min_slot,
        }];
        let mut built: Vec<ParenTree> = Vec::new();
        while let Some(task) = work.pop() {
            match task {
                Task::Build { i, j, slot } => {
                    if slot == LEAF {
                        built.push(ParenTree::Leaf(i));
                    } else {
                        let (start, _) = self.arena.range(i, j, n);
                        let (split, lslot, rslot) = self.arena.back[start + slot as usize];
                        let split = split as usize;
                        work.push(Task::Combine);
                        work.push(Task::Build {
                            i: split + 1,
                            j,
                            slot: rslot,
                        });
                        work.push(Task::Build {
                            i,
                            j: split,
                            slot: lslot,
                        });
                    }
                }
                Task::Combine => {
                    let right = built.pop().expect("combine has right subtree");
                    let left = built.pop().expect("combine has left subtree");
                    built.push(ParenTree::node(left, right));
                }
            }
        }
        debug_assert_eq!(built.len(), 1);
        built.pop().expect("backtrack yields a tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_variants;
    use gmc_ir::{Features, InstanceSampler, Operand, Property, Structure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// The original HashMap-per-span formulation, kept verbatim as a
    /// cross-check oracle for the flat solver.
    fn optimal_cost_reference(shape: &Shape, instance: &Instance) -> Result<f64, BuildError> {
        assert_eq!(
            instance.len(),
            shape.num_sizes(),
            "instance length must be n + 1"
        );
        let n = shape.len();
        let classes = shape.size_classes();
        let leaves = leaf_descs(shape, &classes);
        let q = instance.sizes();

        /// Back-pointer: the split and the child state keys (`None` = leaf).
        type Back = (usize, Option<DescKey>, Option<DescKey>);
        type State = (NodeDesc, f64, Option<Back>);

        if n == 1 {
            let desc = leaves[0];
            let (finalizes, _) = finalizes_for(&desc)?;
            return Ok(finalizes
                .iter()
                .map(|f| finalize_cost_flops(f.kernel, q[f.size_sym]))
                .sum());
        }

        let mut best: Vec<Vec<HashMap<DescKey, State>>> = vec![Vec::new(); n];
        for (i, row) in best.iter_mut().enumerate() {
            row.resize(n - i - 1, HashMap::new());
        }

        for len in 2..=n {
            for i in 0..=n - len {
                let j = i + len - 1;
                let mut states: HashMap<DescKey, State> = HashMap::new();
                for split in i..j {
                    let left_states: Vec<(NodeDesc, f64, Option<DescKey>)> = if split == i {
                        vec![(leaves[i], 0.0, None)]
                    } else {
                        best[i][split - i - 1]
                            .iter()
                            .map(|(k, &(d, c, _))| (d, c, Some(*k)))
                            .collect()
                    };
                    let right_states: Vec<(NodeDesc, f64, Option<DescKey>)> = if split + 1 == j {
                        vec![(leaves[j], 0.0, None)]
                    } else {
                        best[split + 1][j - split - 2]
                            .iter()
                            .map(|(k, &(d, c, _))| (d, c, Some(*k)))
                            .collect()
                    };
                    for &(ld, lc, lk) in &left_states {
                        for &(rd, rc, rk) in &right_states {
                            let (step, result) = associate(ld, rd, &classes)?;
                            let (a, b, c) = step.triplet;
                            let cost = lc
                                + rc
                                + cost_flops(step.kernel, step.side, step.cheap, q[a], q[b], q[c]);
                            let entry =
                                states
                                    .entry(key(&result))
                                    .or_insert((result, f64::INFINITY, None));
                            if cost < entry.1 {
                                *entry = (result, cost, Some((split, lk, rk)));
                            }
                        }
                    }
                }
                best[i][j - i - 1] = states;
            }
        }

        let mut min = f64::INFINITY;
        for (desc, cost, _) in best[0][n - 2].values() {
            let (finalizes, _) = finalizes_for(desc)?;
            let extra: f64 = finalizes
                .iter()
                .map(|f| finalize_cost_flops(f.kernel, q[f.size_sym]))
                .sum();
            if cost + extra < min {
                min = cost + extra;
            }
        }
        Ok(min)
    }

    fn operands() -> Vec<Operand> {
        Operand::experiment_options()
    }

    #[test]
    fn matches_enumeration_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(99);
        let opts = operands();
        for trial in 0..40 {
            let n = 2 + trial % 5;
            let ops: Vec<Operand> = (0..n)
                .map(|_| opts[rand::Rng::gen_range(&mut rng, 0..opts.len())])
                .collect();
            let shape = match Shape::new(ops) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let sampler = InstanceSampler::new(&shape, 2, 60);
            let inst = sampler.sample(&mut rng);
            let vs = all_variants(&shape).unwrap();
            let enum_min = vs
                .iter()
                .map(|v| v.flops(&inst))
                .fold(f64::INFINITY, f64::min);
            let dp = optimal_cost(&shape, &inst).unwrap();
            let rel = (dp - enum_min).abs() / enum_min.max(1.0);
            assert!(
                rel < 1e-9,
                "shape {} inst {inst}: dp {dp} enum {enum_min}",
                shape
            );
        }
    }

    #[test]
    fn matches_reference_solver_bit_for_bit() {
        // The flat interned solver must reproduce the HashMap reference
        // exactly (same costs, same summation order).
        let mut rng = StdRng::seed_from_u64(1234);
        let opts = operands();
        for trial in 0..60 {
            let n = 2 + trial % 9;
            let ops: Vec<Operand> = (0..n)
                .map(|_| opts[rand::Rng::gen_range(&mut rng, 0..opts.len())])
                .collect();
            let shape = match Shape::new(ops) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let inst = InstanceSampler::new(&shape, 2, 300).sample(&mut rng);
            let fast = optimal_cost(&shape, &inst).unwrap();
            let reference = optimal_cost_reference(&shape, &inst).unwrap();
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "flat vs reference on {shape} {inst}"
            );
        }
    }

    #[test]
    fn classic_mcp_dp() {
        // Standard matrix chain: DP must reproduce the textbook optimum.
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g; 4]).unwrap();
        // q = (10, 100, 5, 50, 1): textbook DP gives the optimal GEMM plan.
        let inst = gmc_ir::Instance::new(vec![10, 100, 5, 50, 1]);
        let dp = optimal_cost(&shape, &inst).unwrap();
        let vs = all_variants(&shape).unwrap();
        let enum_min = vs
            .iter()
            .map(|v| v.flops(&inst))
            .fold(f64::INFINITY, f64::min);
        assert!((dp - enum_min).abs() < 1e-9);
    }

    #[test]
    fn single_matrix_chain() {
        let spd = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
        let shape = Shape::new(vec![spd]).unwrap();
        let inst = gmc_ir::Instance::new(vec![6, 6]);
        // Explicit SPD inverse: m^3.
        assert_eq!(optimal_cost(&shape, &inst).unwrap(), 216.0);
    }

    #[test]
    fn optimal_variant_reproduces_optimal_cost() {
        let mut rng = StdRng::seed_from_u64(321);
        let opts = operands();
        for trial in 0..20 {
            let n = 2 + trial % 5;
            let ops: Vec<Operand> = (0..n)
                .map(|_| opts[rand::Rng::gen_range(&mut rng, 0..opts.len())])
                .collect();
            let shape = match Shape::new(ops) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let inst = InstanceSampler::new(&shape, 2, 400).sample(&mut rng);
            let (variant, cost) = super::optimal_variant(&shape, &inst).unwrap();
            let direct = variant.flops(&inst);
            assert!(
                (direct - cost).abs() <= 1e-9 * cost.max(1.0),
                "variant cost {direct} vs dp {cost} on {shape}"
            );
            assert!((cost - optimal_cost(&shape, &inst).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn scales_to_long_chains() {
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g; 20]).unwrap();
        let sizes: Vec<u64> = (0..21).map(|i| 2 + (i * 37) % 100).collect();
        let inst = gmc_ir::Instance::new(sizes);
        let c = optimal_cost(&shape, &inst).unwrap();
        assert!(c.is_finite() && c > 0.0);
        assert_eq!(
            c.to_bits(),
            optimal_cost_reference(&shape, &inst).unwrap().to_bits()
        );
    }

    #[test]
    fn solver_reuse_is_bit_identical_across_instances() {
        // One DpSolver solving many instances of one shape must reproduce
        // fresh-solver and reference costs exactly: warm tables change
        // nothing about relaxation or summation order.
        let mut rng = StdRng::seed_from_u64(77);
        let opts = operands();
        for trial in 0..10 {
            let n = 2 + trial % 7;
            let ops: Vec<Operand> = (0..n)
                .map(|_| opts[rand::Rng::gen_range(&mut rng, 0..opts.len())])
                .collect();
            let shape = match Shape::new(ops) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let sampler = InstanceSampler::new(&shape, 2, 500);
            let mut solver = DpSolver::new(&shape);
            for _ in 0..8 {
                let inst = sampler.sample(&mut rng);
                let warm = solver.optimal_cost(&inst).unwrap();
                let cold = optimal_cost(&shape, &inst).unwrap();
                let reference = optimal_cost_reference(&shape, &inst).unwrap();
                assert_eq!(warm.to_bits(), cold.to_bits(), "warm vs cold on {shape}");
                assert_eq!(
                    warm.to_bits(),
                    reference.to_bits(),
                    "warm vs ref on {shape}"
                );
            }
        }
    }

    #[test]
    fn solver_variant_reuse_matches_free_function() {
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g; 6]).unwrap();
        let mut solver = DpSolver::new(&shape);
        let mut rng = StdRng::seed_from_u64(3);
        let sampler = InstanceSampler::new(&shape, 2, 300);
        for _ in 0..5 {
            let inst = sampler.sample(&mut rng);
            let (warm_v, warm_c) = solver.optimal_variant(&inst).unwrap();
            let (cold_v, cold_c) = optimal_variant(&shape, &inst).unwrap();
            assert_eq!(warm_v.paren(), cold_v.paren());
            assert_eq!(warm_c.to_bits(), cold_c.to_bits());
        }
    }

    #[test]
    fn fifty_operand_chain_backtracks_iteratively() {
        // Regression for the recursive `rebuild` stack hazard: a 50-operand
        // mixed chain must solve and reconstruct its variant.
        let g = Operand::plain(Features::general());
        let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
        let ops: Vec<Operand> = (0..50).map(|i| if i % 3 == 0 { l } else { g }).collect();
        let shape = Shape::new(ops).unwrap();
        let sizes: Vec<u64> = (0..51).map(|i| 2 + (i * 23) % 80).collect();
        let inst = gmc_ir::Instance::new(sizes);
        let (variant, cost) = optimal_variant(&shape, &inst).unwrap();
        assert!(cost.is_finite() && cost > 0.0);
        assert_eq!(variant.steps().len(), 49);
        assert!((variant.flops(&inst) - cost).abs() <= 1e-9 * cost);
        assert_eq!(
            cost.to_bits(),
            optimal_cost_reference(&shape, &inst).unwrap().to_bits()
        );
    }
}
