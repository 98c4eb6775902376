//! Theory-guided variant selection (Sec. V of the paper).
//!
//! The fanning-out variants `E = {E_0, ..., E_n}` have finite total penalty
//! (Theorem 1), and one representative per size-symbol equivalence class
//! suffices (Theorem 2), giving a base set `E_s` of at most `n + 1`
//! variants whose best member is within a constant factor of optimal on
//! *every* instance.

use crate::builder::{build_variant, BuildError};
use crate::paren::ParenTree;
use crate::simd::{self, CompiledPoly, SizeLanes};
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

/// Build all *distinct* fanning-out variants `E_h` for `h in 0..=n`,
/// returning `(h, variant)` pairs (duplicate parenthesizations keep the
/// smallest `h`).
///
/// # Errors
///
/// Propagates [`BuildError`] (unreachable for valid shapes).
pub fn fanning_out_set(shape: &Shape) -> Result<Vec<(usize, Variant)>, BuildError> {
    let n = shape.len();
    let mut seen: Vec<ParenTree> = Vec::new();
    let mut out = Vec::new();
    for h in 0..=n {
        let tree = ParenTree::fanning_out(n, h);
        if seen.contains(&tree) {
            continue;
        }
        seen.push(tree.clone());
        out.push((h, build_variant(shape, &tree)?));
    }
    Ok(out)
}

/// The Theorem-2 base set `E_s`.
#[derive(Debug, Clone)]
pub struct BaseSet {
    /// Chosen representative `h` per equivalence class (ascending).
    pub representatives: Vec<usize>,
    /// The corresponding fanning-out variants.
    pub variants: Vec<Variant>,
}

/// Construct the base set `E_s` of Theorem 2: one fanning-out variant per
/// size-symbol equivalence class, choosing the representative of each class
/// so the *average training penalty* of the whole set is minimized (the
/// tuning used in the paper's experiments, Sec. VII-A).
///
/// `optimal` must hold the optimal cost for each training instance (e.g.
/// from [`crate::dp::optimal_cost`] or an enumeration minimum), and
/// `training` the instances themselves.
///
/// When the number of representative combinations exceeds an internal cap
/// the search falls back to a per-class greedy choice; the Theorem-2
/// guarantee (one representative per class) holds either way.
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
    // FLOP costs go through the vectorized compiled-polynomial engine:
    // transpose the training set into symbol lanes once, then stream
    // each fanning-out variant's cost polynomial across them.
    let mut lanes = SizeLanes::default();
    lanes.fill(training);
    let mut program = CompiledPoly::new();
    let level = simd::active_level();
    select_base_set_rows(shape, training, optimal, &mut |v, row| {
        program.compile(v.cost_poly());
        program.eval_rows(level, &lanes, row);
    })
}

/// [`select_base_set`] with an arbitrary cost function (e.g. a
/// performance-model time estimate) used both for scoring candidate
/// representatives and — through the caller-supplied `optimal` vector —
/// for the penalty denominator.
///
/// # Errors
///
/// Returns [`TheoryError::EmptyTraining`] for an empty training set,
/// [`TheoryError::OptimaLengthMismatch`] unless `optimal` holds exactly
/// one cost per training instance, and propagates build failures.
pub fn select_base_set_with<F>(
    shape: &Shape,
    training: &[Instance],
    optimal: &[f64],
    cost: F,
) -> Result<BaseSet, TheoryError>
where
    F: Fn(&Variant, &Instance) -> f64,
{
    select_base_set_rows(shape, training, optimal, &mut |v, row| {
        for (c, q) in row.iter_mut().zip(training) {
            *c = cost(v, q);
        }
    })
}

/// Shared base-set search over a batched row cost function
/// (`fill_row(variant, row)` writes the variant's cost on every
/// training instance). Representative sets are scored with the
/// engine's canonical blocked reduction, so the choice is identical on
/// every ladder rung.
fn select_base_set_rows(
    shape: &Shape,
    training: &[Instance],
    optimal: &[f64],
    fill_row: &mut dyn FnMut(&Variant, &mut [f64]),
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
    let level = simd::active_level();
    let classes = shape.size_classes();
    let class_members = classes.classes();
    let fanning: Vec<(usize, Variant)> = fanning_out_set(shape)?;
    // Cost of each fanning-out variant h on each training instance. For
    // duplicate trees, reuse the representative variant.
    let variant_for_h = |h: usize| -> &Variant {
        let tree = ParenTree::fanning_out(shape.len(), h);
        &fanning
            .iter()
            .find(|(_, v)| *v.paren() == tree)
            .expect("every E_h built")
            .1
    };
    let n_sym = shape.num_sizes();
    let mut cost_by_h: Vec<Vec<f64>> = Vec::with_capacity(n_sym);
    for h in 0..n_sym {
        let mut row = vec![0.0; training.len()];
        fill_row(variant_for_h(h), &mut row);
        cost_by_h.push(row);
    }

    // Best-in-set scratch, reused by every candidate representative set.
    let mut best_scratch = vec![0.0f64; training.len()];
    let mut avg_penalty = |reps: &[usize]| -> f64 {
        best_scratch.clear();
        best_scratch.resize(training.len(), f64::INFINITY);
        for &h in reps {
            simd::min_in_place(level, &mut best_scratch, &cost_by_h[h]);
        }
        simd::penalty_sum(level, &best_scratch, None, optimal) / training.len() as f64
    };

    const MAX_COMBOS: usize = 4096;
    let combos: usize = class_members.iter().map(Vec::len).product();
    let representatives = if combos <= MAX_COMBOS {
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

    let mut reps = representatives;
    reps.sort_unstable();
    // Distinct trees only (two representatives can induce the same tree for
    // short chains).
    let mut variants: Vec<Variant> = Vec::new();
    for &h in &reps {
        let v = variant_for_h(h).clone();
        if !variants.iter().any(|u| u.paren() == v.paren()) {
            variants.push(v);
        }
    }
    Ok(BaseSet {
        representatives: reps,
        variants,
    })
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
        // select_base_set_with accepts an arbitrary cost; using a model
        // that doubles every cost must leave the (ratio-based) choice
        // identical to FLOPs, while a structurally different model may not.
        let shape = Shape::new(vec![g(), spd_inv(), g()]).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let sampler = InstanceSampler::new(&shape, 2, 300);
        let training = sampler.sample_many(&mut rng, 100);
        let all = all_variants(&shape).unwrap();
        let optimal: Vec<f64> = training
            .iter()
            .map(|q| all.iter().map(|v| v.flops(q)).fold(f64::INFINITY, f64::min))
            .collect();
        let flop_based = select_base_set(&shape, &training, &optimal).unwrap();
        let scaled =
            select_base_set_with(&shape, &training, &optimal, |v, q| 2.0 * v.flops(q)).unwrap();
        assert_eq!(flop_based.representatives, scaled.representatives);
    }

    #[test]
    fn empty_training_rejected() {
        let shape = Shape::new(vec![g(), g()]).unwrap();
        assert!(matches!(
            select_base_set(&shape, &[], &[]),
            Err(TheoryError::EmptyTraining)
        ));
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
        let err = select_base_set_with(&shape, &training, &[24.0, 210.0, 1.0], |v, q| v.flops(q))
            .unwrap_err();
        assert_eq!(
            err,
            TheoryError::OptimaLengthMismatch {
                training: 2,
                optimal: 3,
            }
        );
    }
}
