//! Theory-guided variant selection (Sec. V of the paper).
//!
//! The fanning-out variants `E = {E_0, ..., E_n}` have finite total penalty
//! (Theorem 1), and one representative per size-symbol equivalence class
//! suffices (Theorem 2), giving a base set `E_s` of at most `n + 1`
//! variants whose best member is within a constant factor of optimal on
//! *every* instance.
//!
//! [`select_base_set_in`] chooses `E_s` from a pool that holds every `E_h`
//! and its filled [`CostMatrix`], lowering and costing nothing itself;
//! [`select_base_set`] is the one-shot form that does both first.

use crate::builder::{build_variant, BuildError};
use crate::expand::CostMatrix;
use crate::paren::ParenTree;
use crate::simd;
use crate::variant::Variant;
use gmc_ir::{Instance, Shape};
use std::error::Error;
use std::fmt;

/// Errors from base-set selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryError {
    /// Variant construction failed.
    Build(BuildError),
    /// The training set is empty.
    EmptyTraining,
    /// The optima do not match the training set: `optimal` must hold
    /// one cost per training instance.
    OptimaLengthMismatch {
        /// Number of training instances.
        training: usize,
        /// Number of optimal costs supplied.
        optimal: usize,
    },
}

impl fmt::Display for TheoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TheoryError::Build(e) => write!(f, "variant construction failed: {e}"),
            TheoryError::EmptyTraining => write!(f, "training instance set is empty"),
            TheoryError::OptimaLengthMismatch { training, optimal } => write!(
                f,
                "{optimal} optimal cost(s) supplied for {training} training instance(s)"
            ),
        }
    }
}

impl Error for TheoryError {}

impl From<BuildError> for TheoryError {
    fn from(e: BuildError) -> Self {
        TheoryError::Build(e)
    }
}

/// The penalty of a set on one instance (Eq. 2): the relative cost increase
/// of the best in-set variant over the overall optimum.
///
/// `best_in_set` and `optimal` are costs on the same instance; by
/// convention the penalty of an empty set (`best_in_set = +inf`) is `+inf`.
#[must_use]
pub fn penalty(best_in_set: f64, optimal: f64) -> f64 {
    if optimal <= 0.0 {
        return 0.0;
    }
    best_in_set / optimal - 1.0
}

/// The distinct fanning-out trees `E_h` of an `n`-matrix chain, each
/// paired with the smallest `h in 0..=n` that produces it.
pub(crate) fn fanning_out_trees(n: usize) -> Vec<(usize, ParenTree)> {
    let mut out: Vec<(usize, ParenTree)> = Vec::new();
    for h in 0..=n {
        let tree = ParenTree::fanning_out(n, h);
        if !out.iter().any(|(_, t)| *t == tree) {
            out.push((h, tree));
        }
    }
    out
}

/// Build all *distinct* fanning-out variants `E_h` for `h in 0..=n`,
/// returning `(h, variant)` pairs (duplicate parenthesizations keep the
/// smallest `h`). Each tree is lowered on its own by [`build_variant`].
///
/// # Errors
///
/// Propagates [`BuildError`] (unreachable for valid shapes).
pub fn fanning_out_set(shape: &Shape) -> Result<Vec<(usize, Variant)>, BuildError> {
    fanning_out_trees(shape.len())
        .into_iter()
        .map(|(h, tree)| Ok((h, build_variant(shape, &tree)?)))
        .collect()
}

/// The Theorem-2 base set `E_s`.
#[derive(Debug, Clone)]
pub struct BaseSet {
    /// Chosen representative `h` per equivalence class (ascending).
    pub representatives: Vec<usize>,
    /// The corresponding fanning-out variants.
    pub variants: Vec<Variant>,
}

/// [`select_base_set_in`] in one shot: lower the fanning-out variants
/// ([`fanning_out_set`]) and cost them in FLOPs on `training` first.
///
/// `optimal` must hold the optimal cost for each training instance (e.g.
/// from [`crate::dp::optimal_cost`] or an enumeration minimum).
///
/// # Errors
///
/// Returns [`TheoryError::EmptyTraining`] for an empty training set,
/// [`TheoryError::OptimaLengthMismatch`] unless `optimal` holds exactly
/// one cost per training instance, and propagates build failures.
pub fn select_base_set(
    shape: &Shape,
    training: &[Instance],
    optimal: &[f64],
) -> Result<BaseSet, TheoryError> {
    if training.is_empty() {
        return Err(TheoryError::EmptyTraining);
    }
    if optimal.len() != training.len() {
        return Err(TheoryError::OptimaLengthMismatch {
            training: training.len(),
            optimal: optimal.len(),
        });
    }
    let fanning: Vec<Variant> = fanning_out_set(shape)?
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    let mut matrix = CostMatrix::new();
    matrix.fill_flops_with_optimal(&fanning, training, optimal.to_vec());
    let (representatives, indices) = search(shape, &fanning, &matrix)?;
    Ok(BaseSet {
        representatives,
        variants: indices.into_iter().map(|i| fanning[i].clone()).collect(),
    })
}

/// Construct the base set `E_s` of Theorem 2: one fanning-out variant per
/// size-symbol equivalence class, choosing the representative of each
/// class so the *average training penalty* of the whole set is minimized
/// (the tuning used in the paper's experiments, Sec. VII-A). Returns the
/// chosen pool indices, distinct, in ascending representative order.
///
/// `matrix` holds one row per `pool` variant ([`CostMatrix::flops`], or
/// [`CostMatrix::with`] for a time model), and each `E_h` is found in
/// `pool` by its tree. The search is exhaustive up to 4096 combinations
/// and greedy per class above that; sets are scored with the engine's
/// canonical blocked reduction, so the choice is identical on every rung.
///
/// # Errors
///
/// Returns [`TheoryError::EmptyTraining`] for a matrix over no
/// instances.
///
/// # Panics
///
/// Panics if `pool` lacks some fanning-out tree `E_h`, or if `matrix`
/// does not hold one row per `pool` variant.
pub fn select_base_set_in(
    shape: &Shape,
    pool: &[Variant],
    matrix: &CostMatrix,
) -> Result<Vec<usize>, TheoryError> {
    search(shape, pool, matrix).map(|(_, indices)| indices)
}

/// The shared representative search behind both entry points: the chosen
/// representatives `h` (ascending) and their distinct pool indices.
fn search(
    shape: &Shape,
    pool: &[Variant],
    matrix: &CostMatrix,
) -> Result<(Vec<usize>, Vec<usize>), TheoryError> {
    let ni = matrix.num_instances();
    if ni == 0 {
        return Err(TheoryError::EmptyTraining);
    }
    assert_eq!(
        matrix.num_variants(),
        pool.len(),
        "one matrix row per pool variant"
    );
    let n = shape.len();
    // The pool row of each E_h.
    let rows: Vec<usize> = (0..=n)
        .map(|h| {
            let tree = ParenTree::fanning_out(n, h);
            pool.iter()
                .position(|v| *v.paren() == tree)
                .unwrap_or_else(|| panic!("the pool lacks the fanning-out variant E_{h}"))
        })
        .collect();
    let class_members = shape.size_classes().classes();
    let level = simd::active_level();

    // Best-in-set scratch, reused by every candidate representative set.
    let mut best_scratch = vec![0.0f64; ni];
    let mut avg_penalty = |reps: &[usize]| -> f64 {
        best_scratch.clear();
        best_scratch.resize(ni, f64::INFINITY);
        for &h in reps {
            simd::min_in_place(level, &mut best_scratch, matrix.row(rows[h]));
        }
        simd::penalty_sum(level, &best_scratch, None, matrix.optimal()) / ni as f64
    };

    const MAX_COMBOS: usize = 4096;
    // `None` when the count overflows: 64 classes of two already make 2^64.
    let combos = class_members
        .iter()
        .try_fold(1usize, |acc, class| acc.checked_mul(class.len()));
    let mut reps = if combos.is_some_and(|c| c <= MAX_COMBOS) {
        // Exhaustive search over one representative per class.
        let mut best_reps: Vec<usize> = class_members.iter().map(|c| c[0]).collect();
        let mut best_val = avg_penalty(&best_reps);
        let mut idx = vec![0usize; class_members.len()];
        loop {
            // Advance the mixed-radix counter.
            let mut carry = true;
            for (d, class) in idx.iter_mut().zip(&class_members) {
                if !carry {
                    break;
                }
                *d += 1;
                if *d < class.len() {
                    carry = false;
                } else {
                    *d = 0;
                }
            }
            if carry {
                break;
            }
            let reps: Vec<usize> = idx.iter().zip(&class_members).map(|(&d, c)| c[d]).collect();
            let val = avg_penalty(&reps);
            if val < best_val {
                best_val = val;
                best_reps = reps;
            }
        }
        best_reps
    } else {
        // Greedy: per class, pick the representative minimizing the average
        // penalty of the growing set.
        let mut reps: Vec<usize> = Vec::new();
        for class in &class_members {
            let mut best_h = class[0];
            let mut best_val = f64::INFINITY;
            for &h in class {
                let mut trial = reps.clone();
                trial.push(h);
                let val = avg_penalty(&trial);
                if val < best_val {
                    best_val = val;
                    best_h = h;
                }
            }
            reps.push(best_h);
        }
        reps
    };

    reps.sort_unstable();
    let mut indices: Vec<usize> = Vec::with_capacity(reps.len());
    for &h in &reps {
        if !indices.contains(&rows[h]) {
            indices.push(rows[h]);
        }
    }
    Ok((reps, indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_variants;
    use gmc_ir::{Features, InstanceSampler, Operand, Property, Structure};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    fn spd_inv() -> Operand {
        Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted()
    }

    #[test]
    fn penalty_basics() {
        assert_eq!(penalty(100.0, 100.0), 0.0);
        assert!((penalty(150.0, 100.0) - 0.5).abs() < 1e-15);
        assert!(penalty(f64::INFINITY, 100.0).is_infinite());
    }

    #[test]
    fn fanning_out_set_size() {
        // n = 5 all-general chain: n + 1 = 6 distinct members.
        let shape = Shape::new(vec![g(); 5]).unwrap();
        assert_eq!(fanning_out_set(&shape).unwrap().len(), 6);
        // n = 3: n - 1 = 2 distinct members.
        let shape = Shape::new(vec![g(); 3]).unwrap();
        assert_eq!(fanning_out_set(&shape).unwrap().len(), 2);
    }

    #[test]
    fn base_set_has_one_variant_per_class() {
        // G P^{-1} G G: classes {q0}, {q1, q2}, {q3}, {q4} -> 4 classes.
        let shape = Shape::new(vec![g(), spd_inv(), g(), g()]).unwrap();
        let classes = shape.size_classes().num_classes();
        let mut rng = StdRng::seed_from_u64(5);
        let sampler = InstanceSampler::new(&shape, 2, 200);
        let training = sampler.sample_many(&mut rng, 200);
        let all = all_variants(&shape).unwrap();
        let optimal: Vec<f64> = training
            .iter()
            .map(|q| all.iter().map(|v| v.flops(q)).fold(f64::INFINITY, f64::min))
            .collect();
        let base = select_base_set(&shape, &training, &optimal).unwrap();
        assert_eq!(base.representatives.len(), classes);
        assert!(base.variants.len() <= classes);
        assert!(!base.variants.is_empty());
    }

    #[test]
    fn base_set_penalty_is_bounded_on_fresh_instances() {
        // Theorem 1/2: best-in-set within a constant factor (<= 16) of
        // optimal on every instance, including ones outside the training set.
        let shapes = vec![
            Shape::new(vec![g(), spd_inv(), g()]).unwrap(),
            Shape::new(vec![g(); 5]).unwrap(),
            Shape::new(vec![
                g(),
                Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular))
                    .inverted(),
                g(),
                spd_inv(),
            ])
            .unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        for shape in shapes {
            let sampler = InstanceSampler::new(&shape, 2, 500);
            let training = sampler.sample_many(&mut rng, 100);
            let all = all_variants(&shape).unwrap();
            let optimal: Vec<f64> = training
                .iter()
                .map(|q| all.iter().map(|v| v.flops(q)).fold(f64::INFINITY, f64::min))
                .collect();
            let base = select_base_set(&shape, &training, &optimal).unwrap();
            // Fresh validation instances.
            for q in sampler.sample_many(&mut rng, 300) {
                let opt = all
                    .iter()
                    .map(|v| v.flops(&q))
                    .fold(f64::INFINITY, f64::min);
                let best = base
                    .variants
                    .iter()
                    .map(|v| v.flops(&q))
                    .fold(f64::INFINITY, f64::min);
                let p = penalty(best, opt);
                assert!(p <= 15.0, "penalty {p} exceeds rho on {} / {q}", shape);
            }
        }
    }

    #[test]
    fn custom_cost_model_changes_selection_inputs() {
        // A time model enters as a custom-cost matrix; one that doubles
        // every cost must leave the (ratio-based) choice identical to
        // FLOPs, while a structurally different model may not.
        let shape = Shape::new(vec![g(), spd_inv(), g()]).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let sampler = InstanceSampler::new(&shape, 2, 300);
        let training = sampler.sample_many(&mut rng, 100);
        let pool = all_variants(&shape).unwrap();
        let flops = CostMatrix::with(&pool, &training, |v, q| v.flops(q));
        let doubled = CostMatrix::with(&pool, &training, |v, q| 2.0 * v.flops(q));
        assert_eq!(
            select_base_set_in(&shape, &pool, &flops).unwrap(),
            select_base_set_in(&shape, &pool, &doubled).unwrap()
        );
    }

    #[test]
    fn empty_training_rejected() {
        let shape = Shape::new(vec![g(), g()]).unwrap();
        assert!(matches!(
            select_base_set(&shape, &[], &[]),
            Err(TheoryError::EmptyTraining)
        ));
        let pool = all_variants(&shape).unwrap();
        assert_eq!(
            select_base_set_in(&shape, &pool, &CostMatrix::flops(&pool, &[])),
            Err(TheoryError::EmptyTraining)
        );
    }

    #[test]
    fn optima_of_another_training_set_are_a_length_mismatch() {
        let shape = Shape::new(vec![g(), g()]).unwrap();
        let training = [Instance::new(vec![2, 3, 4]), Instance::new(vec![5, 6, 7])];
        let err = select_base_set(&shape, &training, &[24.0]).unwrap_err();
        assert_eq!(
            err,
            TheoryError::OptimaLengthMismatch {
                training: 2,
                optimal: 1,
            }
        );
        assert_eq!(
            err.to_string(),
            "1 optimal cost(s) supplied for 2 training instance(s)"
        );
    }
}
