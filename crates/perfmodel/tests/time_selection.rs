//! Integration of the performance models with the selection machinery:
//! Theorem-2 base sets and Algorithm-1 expansions driven by estimated
//! execution time instead of FLOPs.

use gmc_core::expand::CostMatrix;
use gmc_core::{all_variants, expand_set, select_base_set_in, Objective};
use gmc_ir::{Features, InstanceSampler, Operand, Property, Shape, Structure};
use gmc_perfmodel::{from_text, measure_models, to_text, MeasureOptions, PerfModels};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn models() -> PerfModels {
    measure_models(&MeasureOptions {
        grid: vec![8, 24, 48],
        reps: 1,
        seed: 99,
    })
}

fn test_shape() -> Shape {
    let g = Operand::plain(Features::general());
    let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular)).inverted();
    let p = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
    Shape::new(vec![g, l, g, p, g]).unwrap()
}

#[test]
fn time_based_base_set_is_valid_and_bounded() {
    let models = models();
    let shape = test_shape();
    let mut rng = StdRng::seed_from_u64(17);
    let sampler = InstanceSampler::new(&shape, 8, 48);
    let training = sampler.sample_many(&mut rng, 120);
    let pool = all_variants(&shape).unwrap();

    // Time-based costs and optimum per training instance.
    let matrix = CostMatrix::with(&pool, &training, |v, q| models.variant_time(v, q));
    let base = select_base_set_in(&shape, &pool, &matrix).unwrap();
    let classes = shape.size_classes().num_classes();
    assert!(base.len() <= classes);
    assert!(!base.is_empty());

    // The time-selected set still has finite penalty on fresh instances
    // under the time metric over the enumerated pool.
    for q in sampler.sample_many(&mut rng, 100) {
        let opt = pool
            .iter()
            .map(|v| models.variant_time(v, &q))
            .fold(f64::INFINITY, f64::min);
        let best = base
            .iter()
            .map(|&i| models.variant_time(&pool[i], &q))
            .fold(f64::INFINITY, f64::min);
        assert!(best.is_finite() && best >= opt);
    }
}

#[test]
fn time_based_expansion_reduces_time_objective() {
    let models = models();
    let shape = test_shape();
    let mut rng = StdRng::seed_from_u64(5);
    let training = InstanceSampler::new(&shape, 8, 48).sample_many(&mut rng, 80);
    let pool = all_variants(&shape).unwrap();
    let matrix = CostMatrix::with(&pool, &training, |v, q| models.variant_time(v, q));

    let base_idx = select_base_set_in(&shape, &pool, &matrix).unwrap();
    assert!(base_idx.len() <= shape.size_classes().num_classes());
    let before = matrix.objective(&base_idx, Objective::AvgPenalty);
    let grown = expand_set(
        &matrix,
        &base_idx,
        base_idx.len() + 2,
        Objective::AvgPenalty,
    );
    let after = matrix.objective(&grown, Objective::AvgPenalty);
    assert!(after <= before + 1e-12);
}

#[test]
fn persisted_models_drive_identical_selection() {
    let models = models();
    let reloaded = from_text(&to_text(&models)).unwrap();
    let shape = test_shape();
    let mut rng = StdRng::seed_from_u64(23);
    let training = InstanceSampler::new(&shape, 8, 48).sample_many(&mut rng, 60);
    let pool = all_variants(&shape).unwrap();

    let m1 = CostMatrix::with(&pool, &training, |v, q| models.variant_time(v, q));
    let m2 = CostMatrix::with(&pool, &training, |v, q| reloaded.variant_time(v, q));
    let s1 = expand_set(&m1, &[], 3, Objective::AvgPenalty);
    let s2 = expand_set(&m2, &[], 3, Objective::AvgPenalty);
    assert_eq!(s1, s2, "persistence must not perturb selection");
}
