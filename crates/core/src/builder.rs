//! From parenthesization to code variant (Sec. IV of the paper).
//!
//! The builder extends the parenthesization's partial order of associations
//! to a total order (leftmost available association first) and then runs
//! four steps per association:
//!
//! 1. **Propagation of inversion** — rewrites like
//!    `M1^{-1} M2^{-1} = (M2 M1)^{-1}` and
//!    `L G^{-1} = (G L^{-1})^{-1}` that avoid expensive solves with general
//!    or symmetric coefficient matrices.
//! 2. **Kernel assignment** — the Fig. 3 lookup tables.
//! 3. **Propagation of transposition** — rewrites like
//!    `L G^T = (G L^T)^T` when the assigned kernel does not support the
//!    transposition pattern.
//! 4. **Inference of features and sizes** — the Fig. 4 lookup tables.

use crate::paren::ParenTree;
use crate::variant::{Finalize, ResultDesc, Step, ValRef, Variant};
use gmc_ir::{EquivClasses, Poly, Property, Shape, Structure};
use gmc_kernels::{
    assign_kernel, cost_poly, finalize_cost_poly, infer_property, infer_structure, AssocOperand,
    FinalizeKernel, Kernel, MappingError,
};
use gmc_linalg::{Side, Triangle};
use std::error::Error;
use std::fmt;

/// Errors from variant construction.
///
/// For a valid [`Shape`] these should be unreachable; they surface bugs in
/// the rewrite pipeline rather than user errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The parenthesization does not cover leaves `0..n`.
    TreeShapeMismatch,
    /// Kernel assignment failed.
    Mapping(MappingError),
    /// The final result carries an inversion but is not invertible.
    UninvertibleResult,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TreeShapeMismatch => {
                write!(f, "parenthesization does not match the chain length")
            }
            BuildError::Mapping(e) => write!(f, "kernel assignment failed: {e}"),
            BuildError::UninvertibleResult => {
                write!(f, "an inversion propagated to a singular end result")
            }
        }
    }
}

impl Error for BuildError {}

impl From<MappingError> for BuildError {
    fn from(e: MappingError) -> Self {
        BuildError::Mapping(e)
    }
}

/// Descriptor of an in-flight value (leaf or intermediate) during lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeDesc {
    /// Stored structure of the materialized value.
    pub structure: Structure,
    /// Property of the value.
    pub property: Property,
    /// Pending logical transposition.
    pub transposed: bool,
    /// Pending logical inversion.
    pub inverted: bool,
    /// Canonical row-size symbol of the stored value.
    pub rows: usize,
    /// Canonical column-size symbol of the stored value.
    pub cols: usize,
    /// Where the stored value lives.
    pub source: ValRef,
}

impl NodeDesc {
    /// Effective structure after the pending transposition.
    fn eff_structure(&self) -> Structure {
        if self.transposed {
            self.structure.transposed()
        } else {
            self.structure
        }
    }

    /// Effective (row, column) symbols after the pending transposition.
    fn eff_dims(&self) -> (usize, usize) {
        if self.transposed {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        }
    }

    /// Stored triangle, if the stored structure is triangular.
    fn stored_tri(&self) -> Option<Triangle> {
        match self.structure {
            Structure::LowerTri => Some(Triangle::Lower),
            Structure::UpperTri => Some(Triangle::Upper),
            _ => None,
        }
    }

    /// Normalization applied before every association (and to leaves):
    /// inversion of an orthogonal value becomes transposition, and
    /// transposition of a symmetric value is dropped.
    fn normalize(mut self) -> Self {
        if self.inverted && self.property == Property::Orthogonal {
            self.inverted = false;
            self.transposed = !self.transposed;
        }
        if self.transposed && self.structure == Structure::Symmetric {
            self.transposed = false;
        }
        self
    }

    fn is_square(&self, classes: &EquivClasses) -> bool {
        classes.same(self.rows, self.cols)
    }
}

/// Optimization switches for variant construction, used by the ablation
/// experiments (`gmc-bench --bin ablation`) to quantify the Sec. IV design
/// choices. Defaults enable everything, matching the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildOptions {
    /// Apply the single-operand inversion-propagation heuristic
    /// (`L G^{-1} = (G L^{-1})^{-1}`, Sec. IV step 1). The mandatory
    /// both-inverted rewrite is always applied — without it some
    /// associations have no kernel at all.
    pub propagate_single_inversion: bool,
    /// Infer structures of intermediate results (Fig. 4). When disabled,
    /// every intermediate is treated as a dense general matrix, so
    /// downstream associations cannot use specialized kernels.
    pub infer_structures: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            propagate_single_inversion: true,
            infer_structures: true,
        }
    }
}

/// Swap the operands of an association, toggling the given flag on both —
/// the unified rewrite of steps 1 and 3:
///
/// * inversion: `A^{-1} B^{-1} -> (B A)^{-1}` and `L G^{-1} -> (G L^{-1})^{-1}`
///   (toggle `inverted`);
/// * transposition: `A B^T -> (B A^T)^T` (toggle `transposed`).
fn swap_rewrite(l: &mut NodeDesc, r: &mut NodeDesc, toggle_inverted: bool) {
    std::mem::swap(l, r);
    if toggle_inverted {
        l.inverted = !l.inverted;
        r.inverted = !r.inverted;
    } else {
        l.transposed = !l.transposed;
        r.transposed = !r.transposed;
    }
}

/// Does the assigned kernel support the current transposition pattern?
///
/// Only the structured/coefficient operand of `SYMM`-, `TRMM`-, and
/// solve-class kernels supports implicit transposition; `GEMM` and
/// `TRTRMM` support it on both operands; symmetric operands never carry a
/// transposition (normalized away).
fn pattern_supported(kernel: Kernel, side: Side, l: &NodeDesc, r: &NodeDesc) -> bool {
    match kernel {
        Kernel::Gemm | Kernel::Trtrmm | Kernel::Sysymm => true,
        Kernel::Symm | Kernel::Trmm | Kernel::Trsymm => {
            // The non-structured operand must be untransposed.
            match side {
                Side::Left => !r.transposed,
                Side::Right => !l.transposed,
            }
        }
        _ => {
            // Solve kernels: the right-hand side must be untransposed.
            match side {
                Side::Left => !r.transposed,
                Side::Right => !l.transposed,
            }
        }
    }
}

/// Lower one association per Sec. IV steps 1–4.
///
/// Returns the kernel-call [`Step`] and the descriptor of its result.
pub(crate) fn associate(
    left: NodeDesc,
    right: NodeDesc,
    classes: &EquivClasses,
) -> Result<(Step, NodeDesc), BuildError> {
    associate_with(left, right, classes, BuildOptions::default())
}

/// [`associate`] with explicit optimization switches.
pub(crate) fn associate_with(
    left: NodeDesc,
    right: NodeDesc,
    classes: &EquivClasses,
    options: BuildOptions,
) -> Result<(Step, NodeDesc), BuildError> {
    let mut l = left.normalize();
    let mut r = right.normalize();
    let mut pending_inverted = false;
    let mut pending_transposed = false;

    // Step 1: propagation of inversion.
    if l.inverted && r.inverted {
        // M1^{-1} M2^{-1} = (M2 M1)^{-1}.
        swap_rewrite(&mut l, &mut r, true);
        pending_inverted = true;
    } else if options.propagate_single_inversion && (l.inverted || r.inverted) {
        let (inv, other) = if l.inverted { (&l, &r) } else { (&r, &l) };
        let inv_is_dense = matches!(
            inv.eff_structure(),
            Structure::General | Structure::Symmetric
        );
        let other_is_cheap_coeff = other.property == Property::Orthogonal
            || (other.eff_structure().is_triangular() && other.property.is_invertible());
        if inv_is_dense && other_is_cheap_coeff {
            // e.g. L G^{-1} = (G L^{-1})^{-1}: swap, toggle inversions,
            // propagate an inversion to the result.
            swap_rewrite(&mut l, &mut r, true);
            pending_inverted = true;
        }
    }
    // The rewrite may have produced an inverted orthogonal operand.
    l = l.normalize();
    r = r.normalize();

    // Step 2: kernel assignment (Fig. 3).
    let mut choice = assign_kernel(
        AssocOperand::new(l.eff_structure(), l.property, l.inverted),
        AssocOperand::new(r.eff_structure(), r.property, r.inverted),
    )?;

    // Step 3: propagation of transposition.
    if !pattern_supported(choice.kernel, choice.side, &l, &r) {
        // A B -> (B^T A^T)^T.
        swap_rewrite(&mut l, &mut r, false);
        pending_transposed = true;
        l = l.normalize();
        r = r.normalize();
        choice = assign_kernel(
            AssocOperand::new(l.eff_structure(), l.property, l.inverted),
            AssocOperand::new(r.eff_structure(), r.property, r.inverted),
        )?;
        debug_assert!(
            pattern_supported(choice.kernel, choice.side, &l, &r),
            "transposition rewrite must yield a supported pattern"
        );
    }

    // The `cheap` flag of two-case cost functions (Table I).
    let cheap = match choice.kernel {
        Kernel::Trtrmm | Kernel::Trtrsv => l.eff_structure() == r.eff_structure(),
        Kernel::Getrsv | Kernel::Potrsv => {
            let rhs_eff = match choice.side {
                Side::Left => r.eff_structure(),
                Side::Right => l.eff_structure(),
            };
            matches!(
                (choice.side, rhs_eff),
                (Side::Left, Structure::LowerTri) | (Side::Right, Structure::UpperTri)
            )
        }
        _ => false,
    };

    // Step 4: inference of features and sizes (Fig. 4).
    let (l_rows, l_cols) = l.eff_dims();
    let (r_rows, r_cols) = r.eff_dims();
    debug_assert!(
        classes.same(l_cols, r_rows),
        "inner dimensions must agree symbolically"
    );
    let triplet = (
        classes.find(l_rows),
        classes.find(l_cols),
        classes.find(r_cols),
    );

    let structure = if options.infer_structures {
        infer_structure(l.eff_structure(), r.eff_structure())
    } else {
        Structure::General
    };
    let property = infer_property(
        l.property,
        l.is_square(classes),
        r.property,
        r.is_square(classes),
    );

    let step = Step {
        left: l.source,
        right: r.source,
        kernel: choice.kernel,
        side: choice.side,
        left_trans: l.transposed,
        right_trans: r.transposed,
        left_tri: l.stored_tri(),
        right_tri: r.stored_tri(),
        cheap,
        triplet,
    };
    let result = NodeDesc {
        structure,
        property,
        transposed: pending_transposed,
        inverted: pending_inverted,
        rows: triplet.0,
        cols: triplet.2,
        // Caller assigns the real temp index.
        source: ValRef::Temp(usize::MAX),
    };
    Ok((step, result))
}

/// Leaf descriptors for a shape's operands, with symbols canonicalized.
pub(crate) fn leaf_descs(shape: &Shape, classes: &EquivClasses) -> Vec<NodeDesc> {
    shape
        .operands()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            // In the chain, op(M_i) has size q_i x q_{i+1}; when the operand
            // is transposed the *stored* matrix therefore has the swapped
            // size q_{i+1} x q_i.
            let (rows, cols) = if op.transposed {
                (classes.find(i + 1), classes.find(i))
            } else {
                (classes.find(i), classes.find(i + 1))
            };
            NodeDesc {
                structure: op.features.structure,
                property: op.features.property,
                transposed: op.transposed,
                inverted: op.inverted,
                rows,
                cols,
                source: ValRef::Leaf(i),
            }
            .normalize()
        })
        .collect()
}

/// Finalizer steps for a pending inversion/transposition on the end result.
pub(crate) fn finalizes_for(desc: &NodeDesc) -> Result<(Vec<Finalize>, NodeDesc), BuildError> {
    let mut out = Vec::new();
    let mut d = desc.normalize();
    if d.inverted {
        if !d.property.is_invertible() {
            return Err(BuildError::UninvertibleResult);
        }
        let kernel = match (d.structure, d.property) {
            (Structure::Symmetric, Property::Spd) => FinalizeKernel::Potri,
            (Structure::Symmetric, _) => FinalizeKernel::Sytri,
            (Structure::LowerTri | Structure::UpperTri, _) => FinalizeKernel::Trtri,
            (Structure::General, _) => FinalizeKernel::Getri,
        };
        out.push(Finalize {
            kernel,
            tri: d.stored_tri(),
            size_sym: d.rows,
        });
        d.inverted = false;
        // Inversion preserves the structures we track.
    }
    if d.transposed {
        out.push(Finalize {
            kernel: FinalizeKernel::Transpose,
            tri: None,
            size_sym: d.rows,
        });
        d.structure = d.structure.transposed();
        std::mem::swap(&mut d.rows, &mut d.cols);
        d.transposed = false;
    }
    Ok((out, d))
}

/// A memoized lowering of one span-DAG node: the node's own association
/// step plus everything needed to splice it into any containing variant.
///
/// `ValRef`s are **span-local**: the flattened steps of the node's
/// sub-tree are numbered `Temp(0)..Temp(s - 2)` for `s` leaves (leaf
/// references stay absolute — a sub-tree of span `(i, j)` always reads
/// leaves `i..=j`, the same in every containing tree). Relocating a
/// fragment into a larger tree is therefore a constant offset added to
/// every `Temp` index.
///
/// This is valid because the builder's leftmost-available-first total
/// order decomposes recursively: for a node with children `L` and `R`,
/// every association in `L` has leftmost leaf `<=` every association in
/// `R`'s, and within an unfinished `L` some association is always ready
/// — so the order is exactly `order(L) ++ order(R) ++ [root]`, and a
/// sub-tree's steps always form one contiguous block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fragment {
    /// The association step closing this node (`None` for leaves), with
    /// span-local operand references; its own local index is
    /// `num_leaves - 2`.
    pub step: Option<Step>,
    /// Exact cumulative FLOP cost of the node's whole sub-tree. [`Poly`]
    /// coefficients are exact rationals, so summing per-fragment instead
    /// of per-step-in-issue-order yields the identical polynomial.
    pub cost: Poly,
    /// Descriptor of the node's result; `source` is span-local
    /// (`Leaf(i)` or `Temp(num_leaves - 2)`).
    pub result: NodeDesc,
}

impl Fragment {
    /// The fragment of a leaf: no step, zero cost, the leaf descriptor.
    pub fn leaf(desc: NodeDesc) -> Fragment {
        Fragment {
            step: None,
            cost: Poly::zero(),
            result: desc,
        }
    }
}

/// Lower the association of two already-lowered fragments (Sec. IV
/// steps 1–4, the body of [`build_variant`]'s loop) into the parent's
/// fragment, renumbering the right child's result into the parent's
/// span-local frame: with `ln`/`rn` leaves under the children, the left
/// child's steps keep indices `0..ln - 1`, the right child's shift up by
/// `ln - 1`, and the new step lands at `ln + rn - 2`.
pub(crate) fn lower_node(
    left: &Fragment,
    left_leaves: usize,
    right: &Fragment,
    right_leaves: usize,
    classes: &EquivClasses,
    options: BuildOptions,
) -> Result<Fragment, BuildError> {
    let nl = left_leaves - 1;
    let nr = right_leaves - 1;
    let l = left.result;
    let mut r = right.result;
    if let ValRef::Temp(t) = r.source {
        r.source = ValRef::Temp(t + nl);
    }
    let (step, mut result) = associate_with(l, r, classes, options)?;
    result.source = ValRef::Temp(nl + nr);
    let mut cost = left.cost.clone();
    cost += &right.cost;
    cost += &cost_poly(
        step.kernel,
        step.side,
        step.cheap,
        step.triplet.0,
        step.triplet.1,
        step.triplet.2,
    );
    Ok(Fragment {
        step: Some(step),
        cost,
        result,
    })
}

/// The total ordering of associations: repeatedly issue the ready
/// association (both children available) whose leftmost leaf is smallest.
fn association_order(tree: &ParenTree) -> Vec<(ParenTree, ParenTree)> {
    // Flatten internal nodes.
    fn collect(tree: &ParenTree, nodes: &mut Vec<(ParenTree, ParenTree)>) {
        if let ParenTree::Node(l, r) = tree {
            collect(l, nodes);
            collect(r, nodes);
            nodes.push((l.as_ref().clone(), r.as_ref().clone()));
        }
    }
    let mut nodes = Vec::new();
    collect(tree, &mut nodes);

    // Simulate readiness: a node is ready when both children are leaves or
    // already-issued nodes.
    let mut issued: Vec<(ParenTree, ParenTree)> = Vec::new();
    let mut done: Vec<ParenTree> = Vec::new();
    let is_avail = |t: &ParenTree, done: &[ParenTree]| match t {
        ParenTree::Leaf(_) => true,
        node => done.contains(node),
    };
    while issued.len() < nodes.len() {
        let next = nodes
            .iter()
            .filter(|(l, r)| {
                let whole = ParenTree::node(l.clone(), r.clone());
                !done.contains(&whole) && is_avail(l, &done) && is_avail(r, &done)
            })
            .min_by_key(|(l, _)| l.span().0)
            .expect("some association is always ready")
            .clone();
        done.push(ParenTree::node(next.0.clone(), next.1.clone()));
        issued.push(next);
    }
    issued
}

/// Construct the deterministic code variant for `paren` (Sec. IV).
///
/// This per-tree lowering is the **reference implementation** (like
/// `optimal_cost_reference` for the DP solver): the memoized enumeration
/// engine ([`crate::pool::PoolBuilder`]) must produce bit-identical
/// variants, which `crates/core/tests/pool_memo.rs` pins. Pool-sized
/// work should go through [`crate::pool::PoolBuilder`] or a session,
/// which lower each distinct sub-span once instead of once per
/// containing tree.
///
/// # Errors
///
/// Returns [`BuildError::TreeShapeMismatch`] if the tree does not span
/// exactly the chain's matrices; other errors indicate invalid shapes.
pub fn build_variant(shape: &Shape, paren: &ParenTree) -> Result<Variant, BuildError> {
    build_variant_with(shape, paren, BuildOptions::default())
}

/// [`build_variant`] with explicit optimization switches (see
/// [`BuildOptions`]); used by the ablation experiments.
///
/// # Errors
///
/// Same as [`build_variant`].
pub fn build_variant_with(
    shape: &Shape,
    paren: &ParenTree,
    options: BuildOptions,
) -> Result<Variant, BuildError> {
    let n = shape.len();
    if paren.span() != (0, n - 1) {
        return Err(BuildError::TreeShapeMismatch);
    }
    let classes = shape.size_classes();
    let leaves = leaf_descs(shape, &classes);

    let mut steps: Vec<Step> = Vec::with_capacity(n.saturating_sub(1));
    let mut cost = Poly::zero();
    // Map from issued subtree to its descriptor.
    let mut descs: Vec<(ParenTree, NodeDesc)> = Vec::new();
    let lookup = |t: &ParenTree, descs: &[(ParenTree, NodeDesc)], leaves: &[NodeDesc]| match t {
        ParenTree::Leaf(i) => leaves[*i],
        node => {
            descs
                .iter()
                .find(|(k, _)| k == node)
                .expect("child issued before parent")
                .1
        }
    };

    for (lt, rt) in association_order(paren) {
        let l = lookup(&lt, &descs, &leaves);
        let r = lookup(&rt, &descs, &leaves);
        let (step, mut result) = associate_with(l, r, &classes, options)?;
        result.source = ValRef::Temp(steps.len());
        cost += &cost_poly(
            step.kernel,
            step.side,
            step.cheap,
            step.triplet.0,
            step.triplet.1,
            step.triplet.2,
        );
        steps.push(step);
        descs.push((ParenTree::node(lt, rt), result));
    }

    let final_desc = if n == 1 {
        leaves[0]
    } else {
        descs.last().expect("n > 1 implies associations").1
    };
    let (finalizes, delivered) = finalizes_for(&final_desc)?;
    for fin in &finalizes {
        cost += &finalize_cost_poly(fin.kernel, fin.size_sym);
    }

    Ok(Variant {
        steps,
        finalizes,
        cost,
        paren: paren.clone(),
        result: ResultDesc {
            structure: delivered.structure,
            property: delivered.property,
            rows_sym: delivered.rows,
            cols_sym: delivered.cols,
        },
        num_leaves: n,
    })
}

/// The left-to-right variant `L` that the paper uses as an in-house point
/// of reference (equal to the fanning-out variant `E_0`).
///
/// # Errors
///
/// Propagates [`build_variant`] errors.
pub fn left_to_right_variant(shape: &Shape) -> Result<Variant, BuildError> {
    build_variant(shape, &ParenTree::left_to_right(0, shape.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_ir::{Features, Instance, Operand};

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    fn g_inv() -> Operand {
        Operand::plain(Features::new(Structure::General, Property::NonSingular)).inverted()
    }

    fn l_ns() -> Operand {
        Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular))
    }

    fn spd() -> Operand {
        Operand::plain(Features::new(Structure::Symmetric, Property::Spd))
    }

    #[test]
    fn plain_mc_uses_gemm_and_classic_cost() {
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let tree = ParenTree::left_to_right(0, 2);
        let v = build_variant(&shape, &tree).unwrap();
        assert_eq!(v.steps().len(), 2);
        assert!(v.steps().iter().all(|s| s.kernel == Kernel::Gemm));
        // (M1 M2) M3 costs 2 q0 q1 q2 + 2 q0 q2 q3.
        let inst = Instance::new(vec![2, 3, 4, 5]);
        assert_eq!(v.flops(&inst), 2.0 * 24.0 + 2.0 * 40.0);
    }

    #[test]
    fn paper_worked_example_inverse_propagation() {
        // X2 := (L1 G2^{-1}) G3 with L1, G2 m x m and G3 m x n.
        // The builder must rewrite L1 G2^{-1} = (G2 L1^{-1})^{-1}:
        //   X1 := G2 L1^{-1} via TRSM (m^3),
        //   X2 := X1^{-1} G3 via GEGESV (2/3 m^3 + 2 m^2 n),
        // for a total of 5/3 m^3 + 2 m^2 n FLOPs.
        let shape = Shape::new(vec![l_ns(), g_inv(), g()]).unwrap();
        let tree = ParenTree::left_to_right(0, 2);
        let v = build_variant(&shape, &tree).unwrap();
        assert_eq!(v.steps().len(), 2);
        assert_eq!(v.steps()[0].kernel, Kernel::Trsm);
        assert_eq!(v.steps()[1].kernel, Kernel::Gegesv);
        // m = 10, n = 7: 5/3 * 1000 + 2 * 100 * 7.
        let inst = Instance::new(vec![10, 10, 10, 7]);
        let want = 5.0 / 3.0 * 1000.0 + 2.0 * 100.0 * 7.0;
        assert!((v.flops(&inst) - want).abs() < 1e-9, "{}", v.flops(&inst));
        assert!(v.finalizes().is_empty());
    }

    #[test]
    fn both_inverted_rewrites_to_product() {
        // G1^{-1} G2^{-1} = (G2 G1)^{-1}: GEMM then a forced explicit
        // inverse on the end result.
        let shape = Shape::new(vec![g_inv(), g_inv()]).unwrap();
        let tree = ParenTree::left_to_right(0, 1);
        let v = build_variant(&shape, &tree).unwrap();
        assert_eq!(v.steps().len(), 1);
        assert_eq!(v.steps()[0].kernel, Kernel::Gemm);
        // Operands swapped: the step's left operand is leaf 1.
        assert_eq!(v.steps()[0].left, ValRef::Leaf(1));
        assert_eq!(v.steps()[0].right, ValRef::Leaf(0));
        assert_eq!(v.finalizes().len(), 1);
        assert_eq!(v.finalizes()[0].kernel, FinalizeKernel::Getri);
        // Cost: 2 m^3 (GEMM) + 2 m^3 (GETRI).
        let inst = Instance::new(vec![5, 5, 5]);
        assert!((v.flops(&inst) - 4.0 * 125.0).abs() < 1e-9);
    }

    #[test]
    fn trmm_transposition_rewrite() {
        // L G^T: TRMM does not support a transposed general operand, so the
        // association becomes (G L^T)^T with a transpose finalizer.
        let shape = Shape::new(vec![l_ns(), g().transposed()]).unwrap();
        let tree = ParenTree::left_to_right(0, 1);
        let v = build_variant(&shape, &tree).unwrap();
        assert_eq!(v.steps().len(), 1);
        let s = v.steps()[0];
        assert_eq!(s.kernel, Kernel::Trmm);
        assert_eq!(s.side, Side::Right);
        assert_eq!(s.left, ValRef::Leaf(1));
        assert!(!s.left_trans, "general operand untransposed after rewrite");
        assert!(s.right_trans, "triangular operand transposed after rewrite");
        assert_eq!(v.finalizes().len(), 1);
        assert_eq!(v.finalizes()[0].kernel, FinalizeKernel::Transpose);
    }

    #[test]
    fn spd_solve_uses_po_kernels() {
        let shape = Shape::new(vec![spd().inverted(), g()]).unwrap();
        let v = build_variant(&shape, &ParenTree::left_to_right(0, 1)).unwrap();
        assert_eq!(v.steps()[0].kernel, Kernel::Pogesv);
        assert_eq!(v.steps()[0].side, Side::Left);
    }

    #[test]
    fn triangular_structure_inferred_through_chain() {
        // L1 L2 stays lower-triangular, and (L1 L2) L3 uses TRTRMM twice
        // with the cheap (same-triangularity) branch.
        let shape = Shape::new(vec![l_ns(), l_ns(), l_ns()]).unwrap();
        let v = build_variant(&shape, &ParenTree::left_to_right(0, 2)).unwrap();
        assert!(v.steps().iter().all(|s| s.kernel == Kernel::Trtrmm));
        assert!(v.steps().iter().all(|s| s.cheap));
        assert_eq!(v.result().structure, Structure::LowerTri);
        assert_eq!(v.result().property, Property::NonSingular);
    }

    #[test]
    fn single_matrix_chain_inverse() {
        let shape = Shape::new(vec![spd().inverted()]).unwrap();
        let v = build_variant(&shape, &ParenTree::Leaf(0)).unwrap();
        assert!(v.steps().is_empty());
        assert_eq!(v.finalizes().len(), 1);
        assert_eq!(v.finalizes()[0].kernel, FinalizeKernel::Potri);
        let inst = Instance::new(vec![4, 4]);
        assert_eq!(v.flops(&inst), 64.0);
    }

    #[test]
    fn association_order_is_leftmost_first() {
        // ((M1 M2) M3) (M4 M5): M1 M2 first, then (..) M3, then M4 M5, then root.
        let tree = ParenTree::node(
            ParenTree::left_to_right(0, 2),
            ParenTree::left_to_right(3, 4),
        );
        let order = association_order(&tree);
        let spans: Vec<(usize, usize)> = order
            .iter()
            .map(|(l, r)| (l.span().0, r.span().1))
            .collect();
        assert_eq!(spans, vec![(0, 1), (0, 2), (3, 4), (0, 4)]);
    }

    #[test]
    fn wrong_tree_rejected() {
        let shape = Shape::new(vec![g(), g()]).unwrap();
        let tree = ParenTree::left_to_right(0, 2);
        assert_eq!(
            build_variant(&shape, &tree),
            Err(BuildError::TreeShapeMismatch)
        );
    }

    #[test]
    fn disabling_inverse_propagation_costs_more() {
        // The Sec. IV worked example again: without the heuristic, the
        // first association must solve a general system (GETRSV) instead of
        // a triangular one (TRSM).
        let shape = Shape::new(vec![l_ns(), g_inv(), g()]).unwrap();
        let tree = ParenTree::left_to_right(0, 2);
        let off = BuildOptions {
            propagate_single_inversion: false,
            infer_structures: true,
        };
        let naive = build_variant_with(&shape, &tree, off).unwrap();
        assert_eq!(naive.steps()[0].kernel, Kernel::Getrsv);
        let smart = build_variant(&shape, &tree).unwrap();
        let inst = Instance::new(vec![10, 10, 10, 7]);
        assert!(naive.flops(&inst) > smart.flops(&inst));
        // 8/3 m^3 + 2 m^2 n for the naive form.
        let want = 8.0 / 3.0 * 1000.0 + 2.0 * 100.0 * 7.0;
        assert!((naive.flops(&inst) - want).abs() < 1e-9);
    }

    #[test]
    fn disabling_structure_inference_loses_specialized_kernels() {
        let shape = Shape::new(vec![l_ns(), l_ns(), l_ns()]).unwrap();
        let off = BuildOptions {
            propagate_single_inversion: true,
            infer_structures: false,
        };
        let v = build_variant_with(&shape, &ParenTree::left_to_right(0, 2), off).unwrap();
        // First association still sees two leaves (TRTRMM), but the second
        // sees a "general" intermediate and degrades to TRMM.
        assert_eq!(v.steps()[0].kernel, Kernel::Trtrmm);
        assert_eq!(v.steps()[1].kernel, Kernel::Trmm);
        let full = build_variant(&shape, &ParenTree::left_to_right(0, 2)).unwrap();
        let inst = Instance::new(vec![9, 9, 9, 9]);
        assert!(v.flops(&inst) > full.flops(&inst));
    }

    #[test]
    fn kalman_like_chain_builds() {
        // G1 G2 G3^T P^{-1}.
        let shape = Shape::new(vec![g(), g(), g().transposed(), spd().inverted()]).unwrap();
        for tree in ParenTree::enumerate(0, 3) {
            let v = build_variant(&shape, &tree).unwrap();
            assert_eq!(v.steps().len(), 3);
            assert!(!v.cost_poly().is_zero());
        }
    }
}
