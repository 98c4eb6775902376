//! Property-based tests of the Sec. V theory: the fanning-out family `E`
//! and the Theorem-2 base set `E_s` have bounded penalty on *every*
//! instance (Theorem 1: rho <= 15, i.e. best-in-set <= 16x optimal).

use gmc::prelude::*;
use gmc_core::expand::CostMatrix;
use gmc_core::select_base_set_in;
use gmc_core::theory::penalty;
use proptest::prelude::*;

fn arb_operand() -> impl Strategy<Value = Operand> {
    (0..10usize).prop_map(|i| Operand::experiment_options()[i])
}

fn arb_shape(n: usize) -> impl Strategy<Value = Shape> {
    proptest::collection::vec(arb_operand(), n)
        .prop_filter("at least one rectangular matrix", |ops| {
            ops.iter().any(|o| !o.forces_square())
        })
        .prop_map(|ops| Shape::new(ops).expect("experiment options are valid"))
}

fn arb_sizes(classes: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(2u64..=1000, classes)
}

fn instance_for(shape: &Shape, class_sizes: &[u64]) -> Instance {
    let classes = shape.size_classes();
    let members = classes.classes();
    let mut q = vec![0u64; shape.num_sizes()];
    for (class, &size) in members.iter().zip(class_sizes) {
        for &i in class {
            q[i] = size;
        }
    }
    Instance::new(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1: some fanning-out variant is within 16x of optimal on
    /// every instance.
    #[test]
    fn fanning_out_family_is_within_constant_factor(
        shape in arb_shape(5),
        sizes in arb_sizes(6),
    ) {
        let classes = shape.size_classes().num_classes();
        prop_assume!(sizes.len() >= classes);
        let q = instance_for(&shape, &sizes[..classes]);
        let pool = all_variants(&shape).unwrap();
        let opt = pool.iter().map(|v| v.flops(&q)).fold(f64::INFINITY, f64::min);
        let fanning = fanning_out_set(&shape).unwrap();
        let best = fanning
            .iter()
            .map(|(_, v)| v.flops(&q))
            .fold(f64::INFINITY, f64::min);
        let p = penalty(best, opt);
        prop_assert!(p <= 15.0, "penalty {p} on {shape} / {q}");
    }

    /// Theorem 2: the per-class base set retains the bound.
    #[test]
    fn base_set_is_within_constant_factor(
        shape in arb_shape(5),
        sizes in arb_sizes(6),
        train_seed in 0u64..1000,
    ) {
        let classes = shape.size_classes().num_classes();
        prop_assume!(sizes.len() >= classes);
        let q = instance_for(&shape, &sizes[..classes]);

        let mut rng = StdRng::seed_from_u64(train_seed);
        let sampler = InstanceSampler::new(&shape, 2, 1000);
        let training = sampler.sample_many(&mut rng, 50);
        let pool = all_variants(&shape).unwrap();
        let matrix = CostMatrix::flops(&pool, &training);
        let base = select_base_set(&shape, &training, matrix.optimal()).unwrap();

        let opt = pool.iter().map(|v| v.flops(&q)).fold(f64::INFINITY, f64::min);
        let best = base
            .variants
            .iter()
            .map(|v| v.flops(&q))
            .fold(f64::INFINITY, f64::min);
        let p = penalty(best, opt);
        prop_assert!(p <= 15.0, "penalty {p} on {shape} / {q}");
        // |E_s| <= number of classes <= n + 1.
        prop_assert!(base.variants.len() <= classes);
    }

    /// Expansion monotonicity: adding variants never increases the best
    /// in-set cost on any instance.
    #[test]
    fn expansion_is_pointwise_monotone(
        shape in arb_shape(4),
        sizes in arb_sizes(5),
        seed in 0u64..1000,
    ) {
        let classes = shape.size_classes().num_classes();
        prop_assume!(sizes.len() >= classes);
        let q = instance_for(&shape, &sizes[..classes]);

        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = InstanceSampler::new(&shape, 2, 1000);
        let training = sampler.sample_many(&mut rng, 40);
        let pool = all_variants(&shape).unwrap();
        let matrix = CostMatrix::flops(&pool, &training);
        let base_idx = select_base_set_in(&shape, &pool, &matrix).unwrap();
        let expanded = expand_set(&matrix, &base_idx, base_idx.len() + 2, Objective::AvgPenalty);

        let best_of = |set: &[usize]| {
            set.iter().map(|&i| pool[i].flops(&q)).fold(f64::INFINITY, f64::min)
        };
        prop_assert!(best_of(&expanded) <= best_of(&base_idx) + 1e-9);
    }

    /// Variant costs are monotonically increasing in every size symbol —
    /// the premise of Lemma 1.
    #[test]
    fn variant_costs_are_monotone_in_sizes(
        shape in arb_shape(4),
        sizes in arb_sizes(5),
        bump_class in 0usize..5,
    ) {
        let classes = shape.size_classes().num_classes();
        prop_assume!(sizes.len() >= classes && bump_class < classes);
        let q1 = instance_for(&shape, &sizes[..classes]);
        let mut bumped = sizes[..classes].to_vec();
        bumped[bump_class] += 50;
        let q2 = instance_for(&shape, &bumped);
        for v in all_variants(&shape).unwrap() {
            prop_assert!(
                v.flops(&q2) >= v.flops(&q1),
                "cost decreased for {} when growing class {bump_class}",
                v.paren()
            );
        }
    }
}

#[test]
fn left_to_right_penalty_is_unbounded_in_practice() {
    // The paper's motivation: L alone can be arbitrarily bad. Exhibit a
    // ratio > 465 (the paper's observed floor for the worst case).
    let g = Operand::plain(Features::general());
    let shape = Shape::new(vec![g; 5]).unwrap();
    // Tall-thin alternation: left-to-right materializes s x s
    // intermediates while the optimum collapses to scalars.
    let q = Instance::new(vec![1000, 1, 1000, 1, 1000, 1]);
    let pool = all_variants(&shape).unwrap();
    let opt = pool
        .iter()
        .map(|v| v.flops(&q))
        .fold(f64::INFINITY, f64::min);
    let ltr = gmc_core::builder::left_to_right_variant(&shape)
        .unwrap()
        .flops(&q);
    assert!(ltr / opt > 465.0, "ratio {}", ltr / opt);
}
