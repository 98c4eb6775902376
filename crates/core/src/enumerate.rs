//! Enumeration of the full variant set `A` for a shape.
//!
//! The pool grows as `Catalan(n - 1)` — 132 variants for `n = 7`, 58 786
//! for `n = 12`, ~2.7 million for `n = 15` — so enumeration is guarded by
//! an explicit variant cap ([`DEFAULT_VARIANT_CAP`], configurable via
//! [`all_variants_capped`] or
//! [`crate::session::CompileSession::set_variant_cap`]). Chains past the
//! cap get a typed [`EnumerateError::PoolTooLarge`] instead of an
//! unbounded allocation blowup; use [`crate::dp::optimal_cost`] for the
//! per-instance optimum without materializing `A`.
//!
//! The pool is built by the memoized span-DAG engine
//! ([`crate::pool::PoolBuilder`]), which lowers each distinct sub-span
//! parenthesization once and assembles variants by fragment splicing —
//! per-fragment instead of per-tree work. Its output is **bit-identical**
//! to one [`crate::builder::build_variant`] call per tree (same order,
//! same steps and `ValRef`s, same exact cost polynomials); the per-tree
//! lowering stays an ordinary function that `crates/core/tests/pool_memo.rs`
//! calls by name as the reference.

use crate::builder::BuildError;
use crate::paren::ParenTree;
use crate::pool::PoolBuilder;
use crate::variant::Variant;
use gmc_ir::Shape;
use std::error::Error;
use std::fmt;

/// Default cap on the number of variants [`all_variants`] will build.
///
/// Catalan(12) = 208 012 exceeds it; every chain of the paper's
/// experiments (`n <= 10`) fits comfortably.
pub const DEFAULT_VARIANT_CAP: u64 = 1 << 16;

/// Errors from enumerating the variant pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerateError {
    /// Variant construction failed.
    Build(BuildError),
    /// The chain's `Catalan(n - 1)` pool exceeds the configured cap.
    PoolTooLarge {
        /// Number of parenthesizations the chain admits.
        variants: u128,
        /// The cap that was exceeded.
        cap: u64,
    },
}

impl fmt::Display for EnumerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumerateError::Build(e) => write!(f, "variant construction failed: {e}"),
            EnumerateError::PoolTooLarge { variants, cap } => write!(
                f,
                "variant pool has {variants} parenthesizations, over the cap of {cap}; \
                 use the DP solver for long chains"
            ),
        }
    }
}

impl Error for EnumerateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EnumerateError::Build(e) => Some(e),
            EnumerateError::PoolTooLarge { .. } => None,
        }
    }
}

impl From<BuildError> for EnumerateError {
    fn from(e: BuildError) -> Self {
        EnumerateError::Build(e)
    }
}

/// Build the deterministic variant for *every* parenthesization of the
/// chain — the set `A` of Sec. V, one variant per parenthesization —
/// refusing pools larger than [`DEFAULT_VARIANT_CAP`].
///
/// # Errors
///
/// Returns [`EnumerateError::PoolTooLarge`] past the cap and propagates
/// [`BuildError`] (unreachable for valid shapes).
pub fn all_variants(shape: &Shape) -> Result<Vec<Variant>, EnumerateError> {
    all_variants_capped(shape, DEFAULT_VARIANT_CAP)
}

/// [`all_variants`] with an explicit variant cap.
///
/// # Errors
///
/// Same as [`all_variants`], against the supplied `cap`.
pub fn all_variants_capped(shape: &Shape, cap: u64) -> Result<Vec<Variant>, EnumerateError> {
    let count = ParenTree::count(shape.len());
    if count > u128::from(cap) {
        return Err(EnumerateError::PoolTooLarge {
            variants: count,
            cap,
        });
    }
    PoolBuilder::full_pool(shape, 1).map_err(EnumerateError::Build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_ir::{Features, Instance, Operand};

    #[test]
    fn counts_match_catalan() {
        let g = Operand::plain(Features::general());
        for n in 1..=6 {
            let shape = Shape::new(vec![g; n]).unwrap();
            let vs = all_variants(&shape).unwrap();
            assert_eq!(vs.len() as u128, ParenTree::count(n));
        }
    }

    #[test]
    fn pool_cap_yields_typed_error() {
        let g = Operand::plain(Features::general());
        // n = 12: Catalan(11) = 58786 exceeds a cap of 1000.
        let shape = Shape::new(vec![g; 12]).unwrap();
        match all_variants_capped(&shape, 1000) {
            Err(EnumerateError::PoolTooLarge { variants, cap }) => {
                assert_eq!(variants, 58_786);
                assert_eq!(cap, 1000);
            }
            other => panic!("expected PoolTooLarge, got {other:?}"),
        }
        // The default cap admits n = 7 (Catalan 132) without complaint.
        let shape = Shape::new(vec![g; 7]).unwrap();
        assert_eq!(all_variants(&shape).unwrap().len(), 132);
        // And refuses n = 15 (~2.7M) before allocating anything.
        let shape = Shape::new(vec![g; 15]).unwrap();
        assert!(matches!(
            all_variants(&shape),
            Err(EnumerateError::PoolTooLarge { .. })
        ));
    }

    #[test]
    fn modes_build_identical_pools_serial_and_parallel() {
        let g = Operand::plain(Features::general());
        let l = Operand::plain(Features::new(
            gmc_ir::Structure::LowerTri,
            gmc_ir::Property::NonSingular,
        ));
        // n = 7: 132 trees, enough to engage the parallel chunking.
        let shape = Shape::new(vec![g, l.inverted(), g, g.transposed(), l, g, g]).unwrap();
        let trees = ParenTree::enumerate(0, 6);
        let reference: Vec<Variant> = trees
            .iter()
            .map(|t| crate::builder::build_variant(&shape, t).unwrap())
            .collect();
        assert_eq!(
            all_variants(&shape).unwrap(),
            reference,
            "exact pool equality: memoized engine vs per-tree lowering"
        );
        for jobs in [1, 2, 4] {
            assert_eq!(
                PoolBuilder::new()
                    .build_for_trees(None, &shape, &trees, jobs)
                    .unwrap(),
                reference,
                "explicit trees, jobs={jobs}"
            );
            assert_eq!(
                PoolBuilder::full_pool(&shape, jobs).unwrap(),
                reference,
                "full pool, jobs={jobs}"
            );
        }
    }

    #[test]
    fn classic_mcp_motivating_example() {
        // Column vectors x, y, z in R^m: x^T (y z^T) performs m times more
        // multiplications than (x^T y) z^T (Sec. I of the paper).
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g.transposed(), g, g.transposed()]).unwrap();
        // q = (1, m, 1, m): x^T is 1 x m, y is m x 1, z^T is 1 x m.
        let m = 100;
        let inst = Instance::new(vec![1, m, 1, m]);
        let vs = all_variants(&shape).unwrap();
        assert_eq!(vs.len(), 2);
        let costs: Vec<f64> = vs.iter().map(|v| v.flops(&inst)).collect();
        let (lo, hi) = (
            costs.iter().cloned().fold(f64::INFINITY, f64::min),
            costs.iter().cloned().fold(0.0, f64::max),
        );
        // Ratio m: 2*m*1*m + 2*1*m*m vs 2*1*m*1 + 2*1*1*m.
        assert!(
            (hi / lo - m as f64 / 1.0).abs() < 1.0,
            "ratio = {}",
            hi / lo
        );
    }

    #[test]
    fn sec_v_cost_ratio_example() {
        // For G1 G2 G3 with q = (1, s, 1, s), the ratio of the right-to-left
        // to the left-to-right cost q1 q3 (q0+q2) / (q0 q2 (q1+q3)) = s^2
        // ... grows without bound as s grows.
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g, g, g]).unwrap();
        for s in [10u64, 100, 1000] {
            let inst = Instance::new(vec![1, s, 1, s]);
            let vs = all_variants(&shape).unwrap();
            let costs: Vec<f64> = vs.iter().map(|v| v.flops(&inst)).collect();
            let ratio = costs.iter().cloned().fold(0.0, f64::max)
                / costs.iter().cloned().fold(f64::INFINITY, f64::min);
            let expect = (s * s) as f64 * (1.0 + 1.0) / (s as f64 * 2.0); // q1 q3 (q0+q2) / (q0 q2 (q1+q3))
            assert!((ratio - expect).abs() / expect < 1e-9, "s = {s}");
        }
    }
}
