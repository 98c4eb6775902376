//! Cross-rung bit-identity of the vectorized selection engine: the
//! scalar, AVX2, and AVX-512 scan paths must produce bit-identical
//! `CostMatrix` contents, `candidate_value` scores, and selected sets —
//! across ragged instance counts (1, 7, 8, 9, 63, 400, exercising every
//! block/tail split of the canonical 8-lane reduction). On hosts without AVX-512 (or AVX2) the missing rungs are
//! skipped; the portable rung is the reference every run compares
//! against, so the ladder's bottom stays pinned on any host.

use gmc_core::expand::candidate_value;
use gmc_core::simd::{self, SimdLevel};
use gmc_core::{
    all_variants, expand_set_level, select_base_set_in, CostMatrix, ExpandScratch, Objective,
};
use gmc_ir::{Instance, InstanceSampler, Operand, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ragged instance counts of the satellite contract: every
/// full-block/tail combination of the 8-lane reduction.
const RAGGED_COUNTS: [usize; 6] = [1, 7, 8, 9, 63, 400];

fn random_shape(rng: &mut StdRng, n: usize) -> Option<Shape> {
    let options = Operand::experiment_options();
    let ops: Vec<Operand> = (0..n)
        .map(|_| options[rand::Rng::gen_range(rng, 0..options.len())])
        .collect();
    Shape::new(ops).ok()
}

/// Fill the matrix on every available rung and require bit-identical
/// cells and optima; returns the portable-rung matrix as the reference.
fn matrix_identical_across_rungs(pool: &[gmc_core::Variant], instances: &[Instance]) -> CostMatrix {
    let mut reference = CostMatrix::new();
    reference.fill_flops_level(pool, instances, SimdLevel::Portable);
    for level in simd::available_levels() {
        let mut m = CostMatrix::new();
        m.fill_flops_level(pool, instances, level);
        assert_eq!(m.num_variants(), reference.num_variants());
        assert_eq!(m.num_instances(), reference.num_instances());
        for v in 0..reference.num_variants() {
            for i in 0..reference.num_instances() {
                assert_eq!(
                    m.cost(v, i).to_bits(),
                    reference.cost(v, i).to_bits(),
                    "cell ({v}, {i}) on {level:?} with {} instances",
                    instances.len()
                );
            }
        }
        for (a, b) in m.optimal().iter().zip(reference.optimal()) {
            assert_eq!(a.to_bits(), b.to_bits(), "optimal on {level:?}");
        }
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scan_paths_are_bit_identical_across_rungs(
        n in 3usize..=6,
        seed in 0u64..5_000,
        ragged_idx in 0usize..RAGGED_COUNTS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = match random_shape(&mut rng, n) {
            Some(s) => s,
            None => return Ok(()),
        };
        let ni = RAGGED_COUNTS[ragged_idx];
        let sampler = InstanceSampler::new(&shape, 2, 300);
        let training: Vec<Instance> = sampler.sample_many(&mut rng, ni);
        let pool = all_variants(&shape).unwrap();

        // Stage 1: cost-matrix contents, every rung, bit for bit.
        let matrix = matrix_identical_across_rungs(&pool, &training);

        // Stage 2: candidate scores from a seed set, every rung.
        let seed_set: Vec<usize> = (0..pool.len().min(2)).collect();
        let mut best = vec![f64::INFINITY; matrix.num_instances()];
        for &v in &seed_set {
            simd::min_in_place(SimdLevel::Portable, &mut best, matrix.row(v));
        }
        for obj in [Objective::AvgPenalty, Objective::MaxPenalty] {
            for d in 0..matrix.num_variants() {
                let want = candidate_value(&matrix, &best, d, obj, SimdLevel::Portable);
                for level in simd::available_levels() {
                    let got = candidate_value(&matrix, &best, d, obj, level);
                    prop_assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "candidate {} objective {:?} on {:?} (ni = {})",
                        d, obj, level, ni
                    );
                }
            }
        }

        // Stage 3: selected sets — every rung.
        let initial = select_base_set_in(&shape, &pool, &matrix).unwrap();
        let k = initial.len() + 3;
        let mut scratch = ExpandScratch::default();
        let reference = expand_set_level(
            &matrix,
            &initial,
            k,
            Objective::AvgPenalty,
            &mut scratch,
            SimdLevel::Portable,
        );
        for level in simd::available_levels() {
            let got = expand_set_level(
                &matrix,
                &initial,
                k,
                Objective::AvgPenalty,
                &mut scratch,
                level,
            );
            prop_assert_eq!(
                &reference,
                &got,
                "selected set on {:?} (ni = {})",
                level,
                ni
            );
        }
    }
}

/// A deterministic (non-proptest) sweep of the exact ragged counts on
/// the paper-scale 7-operand chain, so the contract holds on the
/// workload `bench_select` measures.
#[test]
fn paper_scale_chain_is_rung_identical_on_every_ragged_count() {
    let g = Operand::plain(gmc_ir::Features::general());
    let shape = Shape::new(vec![g; 7]).unwrap();
    let pool = all_variants(&shape).unwrap();
    let mut rng = StdRng::seed_from_u64(1234);
    let sampler = InstanceSampler::new(&shape, 2, 500);
    for ni in RAGGED_COUNTS {
        let training = sampler.sample_many(&mut rng, ni);
        let matrix = matrix_identical_across_rungs(&pool, &training);
        let initial = select_base_set_in(&shape, &pool, &matrix).unwrap();
        let mut scratch = ExpandScratch::default();
        let reference = expand_set_level(
            &matrix,
            &initial,
            initial.len() + 4,
            Objective::AvgPenalty,
            &mut scratch,
            SimdLevel::Portable,
        );
        for level in simd::available_levels() {
            let got = expand_set_level(
                &matrix,
                &initial,
                initial.len() + 4,
                Objective::AvgPenalty,
                &mut scratch,
                level,
            );
            assert_eq!(reference, got, "{level:?} with {ni} instances");
        }
    }
}
