//! The memoized enumeration engine's contract: for any shape, the
//! span-DAG fragment engine must produce **exactly** the pool the
//! per-tree reference lowering ([`build_variant`], one call per tree)
//! produces — same order, same steps, same `ValRef`s, same finalizes,
//! same (exact-rational) cost polynomials. `Variant` derives `PartialEq` over all of those, so the pin is
//! whole-value equality.

use gmc_core::{build_variant, CompileSession, ParenTree, PoolBuilder, Variant};
use gmc_ir::{Operand, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's ten experiment operands plus transposed forms of every
/// option that admits one, so inversion *and* transposition rewrites
/// (and their interaction with structured operands) all get exercised.
fn operand_options() -> Vec<Operand> {
    let base = Operand::experiment_options();
    let mut out = base.clone();
    for op in base {
        let t = op.transposed();
        if t.is_valid() {
            out.push(t);
        }
    }
    out
}

fn random_shape(rng: &mut StdRng, n: usize) -> Option<Shape> {
    let options = operand_options();
    let ops: Vec<Operand> = (0..n)
        .map(|_| options[rand::Rng::gen_range(rng, 0..options.len())])
        .collect();
    Shape::new(ops).ok()
}

/// The reference pool: one per-tree lowering per parenthesization.
fn per_tree_pool(shape: &Shape, trees: &[ParenTree]) -> Vec<Variant> {
    trees
        .iter()
        .map(|t| build_variant(shape, t).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact pool equality, memoized vs per-tree, across random shapes
    /// with inverted/transposed/structured operands and chain lengths up
    /// to 10.
    #[test]
    fn memoized_pool_equals_naive_pool_exactly(
        n in 1usize..=10,
        shape_seed in 0u64..50_000,
    ) {
        let mut rng = StdRng::seed_from_u64(shape_seed);
        let shape = match random_shape(&mut rng, n) {
            Some(s) => s,
            None => return Ok(()),
        };
        let trees = ParenTree::enumerate(0, n - 1);
        let naive = per_tree_pool(&shape, &trees);
        let memo = PoolBuilder::new().build_for_trees(None, &shape, &trees).unwrap();
        prop_assert_eq!(&naive, &memo);
        // Spot-check the invariants the equality is standing in for.
        for (v, tree) in naive.iter().zip(&trees) {
            prop_assert_eq!(v.paren(), tree);
            prop_assert_eq!(v.steps().len(), n - 1);
        }
    }

    /// A session's pool (memoized, shape-keyed scratch reused across
    /// calls) matches the per-tree pool, including after the session
    /// compiles *other* shapes in between (memo invalidation).
    #[test]
    fn session_pools_survive_memo_invalidation(
        n in 2usize..=7,
        shape_seed in 0u64..50_000,
    ) {
        let mut rng = StdRng::seed_from_u64(shape_seed);
        let (shape, other) = match (random_shape(&mut rng, n), random_shape(&mut rng, 3)) {
            (Some(a), Some(b)) => (a, b),
            _ => return Ok(()),
        };
        let trees = ParenTree::enumerate(0, n - 1);
        let reference = per_tree_pool(&shape, &trees);
        let mut session = CompileSession::new();
        prop_assert_eq!(&session.all_variants(&shape).unwrap(), &reference);
        // Re-target the memo to a different shape, then come back warm.
        let _ = session.all_variants(&other).unwrap();
        prop_assert_eq!(&session.all_variants(&shape).unwrap(), &reference);
        prop_assert_eq!(&session.all_variants(&shape).unwrap(), &reference);
    }
}
