//! Empirical expansion of a variant set (Sec. VI, Algorithm 1), on top
//! of the vectorized selection engine ([`crate::simd`]).
//!
//! Given the full variant pool `A`, a sampled instance set `Q`, an
//! objective `F` over per-instance penalties, and a cardinality budget `K`,
//! the greedy procedure repeatedly adds the variant that improves `F` the
//! most, stopping early when no candidate improves it.
//!
//! The cost matrix is stored flat (one `variants x instances` buffer) and
//! can be refilled in place ([`CostMatrix::fill_with`]), so a long-lived
//! [`crate::session::CompileSession`] reuses one buffer across compiles.
//! FLOP fills ([`CostMatrix::fill_flops`]) compile each variant's cost
//! polynomial into a flat multiply chain ([`crate::simd::CompiledPoly`])
//! and stream it over transposed instance lanes
//! ([`crate::simd::SizeLanes`]), 8 instances per iteration on AVX-512.
//! The greedy loop itself maintains the per-instance best-in-set cost
//! incrementally: evaluating a candidate is `O(instances)` instead of
//! `O(set x instances)`, and — because `min` is exact — every objective
//! value is bit-identical to the textbook re-evaluation. Candidate
//! scores and objective seeds are reduced in the engine's **canonical
//! blocked order** (see [`crate::simd`]), so the scalar, AVX2, and
//! AVX-512 rungs select identical sets bit for bit; with the `parallel`
//! feature the candidate scan additionally splits across threads,
//! again without changing a single bit of the outcome (candidates are
//! scored independently and the tie-break scan order is preserved).

use crate::simd::{self, CompiledPoly, SimdLevel, SizeLanes};
use crate::variant::Variant;
use gmc_ir::Instance;

/// Sampled objective functions over per-instance penalties (Sec. VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// `F_max`: the largest penalty over the sample.
    MaxPenalty,
    /// `F_avg`: the mean penalty over the sample.
    AvgPenalty,
}

impl Objective {
    /// Straight left-to-right fold over an arbitrary penalty iterator —
    /// a convenience for external callers. The selection engine itself
    /// reduces slices in the canonical blocked order
    /// (`Objective::over` via [`crate::simd`]), which supersedes this
    /// fold as the reference for selection decisions; the two can
    /// differ in the final ulp for `AvgPenalty`.
    pub fn evaluate(self, penalties: impl Iterator<Item = f64>) -> f64 {
        match self {
            Objective::MaxPenalty => penalties.fold(f64::NEG_INFINITY, f64::max),
            Objective::AvgPenalty => {
                let (mut sum, mut count) = (0.0, 0usize);
                for p in penalties {
                    sum += p;
                    count += 1;
                }
                if count == 0 {
                    f64::INFINITY
                } else {
                    sum / count as f64
                }
            }
        }
    }

    /// The objective of the best-in-set vector `best` (optionally
    /// `min`-ed with a candidate row), reduced in the canonical blocked
    /// order on the given engine rung.
    fn over(self, level: SimdLevel, best: &[f64], row: Option<&[f64]>, optimal: &[f64]) -> f64 {
        match self {
            Objective::MaxPenalty => simd::penalty_max(level, best, row, optimal),
            Objective::AvgPenalty => {
                if best.is_empty() {
                    f64::INFINITY
                } else {
                    simd::penalty_sum(level, best, row, optimal) / best.len() as f64
                }
            }
        }
    }
}

/// Precomputed per-variant, per-instance costs plus per-instance optima.
///
/// Storage is one flat row-major buffer: row `v` holds the cost of variant
/// `v` on every instance; `optimal[i]` is the minimum over the *full* pool
/// on instance `i`. The buffer can be refilled in place so sessions reuse
/// one allocation across compiles.
#[derive(Debug, Clone, Default)]
pub struct CostMatrix {
    costs: Vec<f64>,
    num_variants: usize,
    num_instances: usize,
    optimal: Vec<f64>,
    /// Transposed instance sizes for the compiled-polynomial fill.
    lanes: SizeLanes,
}

impl CostMatrix {
    /// An empty matrix, ready to be [`CostMatrix::fill_with`]ed.
    #[must_use]
    pub fn new() -> Self {
        CostMatrix::default()
    }

    /// Compute a cost matrix using FLOP costs (through the vectorized
    /// compiled-polynomial fill; see [`CostMatrix::fill_flops`]).
    #[must_use]
    pub fn flops(pool: &[Variant], instances: &[Instance]) -> Self {
        let mut m = CostMatrix::new();
        m.fill_flops(pool, instances, 1);
        m
    }

    /// Compute a cost matrix over a *partial* pool with externally supplied
    /// per-instance optima (e.g. from the DP solver when the full pool is
    /// too large to enumerate).
    ///
    /// # Panics
    ///
    /// Panics if `optimal.len() != instances.len()`.
    #[must_use]
    pub fn flops_with_optimal(pool: &[Variant], instances: &[Instance], optimal: Vec<f64>) -> Self {
        let mut m = CostMatrix::new();
        m.fill_flops_with_optimal(pool, instances, optimal, 1);
        m
    }

    /// Compute a cost matrix with a custom cost function (e.g. a
    /// performance-model time estimate).
    #[must_use]
    pub fn with<F: Fn(&Variant, &Instance) -> f64 + Sync>(
        pool: &[Variant],
        instances: &[Instance],
        cost: F,
    ) -> Self {
        let mut m = CostMatrix::new();
        m.fill_with(pool, instances, cost, 1);
        m
    }

    /// Refill the matrix in place (reusing its buffers) with a custom
    /// per-cell cost function, splitting the row fill across up to
    /// `jobs` threads when the `parallel` feature is enabled. Every row
    /// is computed independently, so the contents are identical for
    /// every `jobs` value; the per-instance optima are folded
    /// element-wise in pool order (exact `min` — identical on every
    /// engine rung).
    pub fn fill_with<F: Fn(&Variant, &Instance) -> f64 + Sync>(
        &mut self,
        pool: &[Variant],
        instances: &[Instance],
        cost: F,
        jobs: usize,
    ) {
        self.fill_rows_with(
            pool,
            instances,
            |v, qs, row| {
                for (c, q) in row.iter_mut().zip(qs) {
                    *c = cost(v, q);
                }
            },
            jobs,
        );
    }

    /// Refill the matrix in place with a **batched row** cost function:
    /// `fill_row(variant, instances, row)` writes the variant's cost on
    /// every instance at once, letting the cost model hoist per-variant
    /// work (kernel-model lookups, axis resolution, polynomial
    /// compilation) out of the per-instance loop — see
    /// `gmc_perfmodel::PerfModels::fill_cost_matrix`. Rows are
    /// independent, so the parallel split never changes the contents.
    pub fn fill_rows_with<F: Fn(&Variant, &[Instance], &mut [f64]) + Sync>(
        &mut self,
        pool: &[Variant],
        instances: &[Instance],
        fill_row: F,
        jobs: usize,
    ) {
        self.fill_rows(pool, instances, &fill_row, jobs);
        self.fold_optimal(simd::active_level());
    }

    /// Refill in place with FLOP costs through the vectorized
    /// compiled-polynomial engine, on the active ladder rung.
    pub fn fill_flops(&mut self, pool: &[Variant], instances: &[Instance], jobs: usize) {
        self.fill_flops_level(pool, instances, jobs, simd::active_level());
    }

    /// [`CostMatrix::fill_flops`] on an explicit engine rung (requests
    /// above the CPU's capability are clamped). The contents are
    /// bit-identical for every rung *and* every `jobs` value — pinned
    /// by `tests/simd_paths.rs`.
    pub fn fill_flops_level(
        &mut self,
        pool: &[Variant],
        instances: &[Instance],
        jobs: usize,
        level: SimdLevel,
    ) {
        self.fill_flops_rows(pool, instances, jobs, level);
        self.fold_optimal(level);
    }

    /// Refill in place with FLOP costs and externally supplied optima.
    ///
    /// # Panics
    ///
    /// Panics if `optimal.len() != instances.len()`.
    pub fn fill_flops_with_optimal(
        &mut self,
        pool: &[Variant],
        instances: &[Instance],
        optimal: Vec<f64>,
        jobs: usize,
    ) {
        assert_eq!(optimal.len(), instances.len(), "one optimum per instance");
        self.fill_flops_rows(pool, instances, jobs, simd::active_level());
        self.optimal = optimal;
    }

    /// Column minima over the filled rows, folded element-wise in pool
    /// order (same order as a fresh per-column fold over rows; `min` is
    /// exact, so the lane width cannot change a bit).
    fn fold_optimal(&mut self, level: SimdLevel) {
        self.optimal.clear();
        self.optimal.resize(self.num_instances, f64::INFINITY);
        for row in self.costs.chunks_exact(self.num_instances.max(1)) {
            simd::min_in_place(level, &mut self.optimal, row);
        }
    }

    /// Resize the flat buffer for a `pool x instances` fill, returning
    /// the row length used for chunking.
    fn reset_rows(&mut self, pool: &[Variant], instances: &[Instance]) -> usize {
        self.num_variants = pool.len();
        self.num_instances = instances.len();
        self.costs.clear();
        self.costs.resize(pool.len() * instances.len(), 0.0);
        instances.len().max(1)
    }

    fn fill_rows<F: Fn(&Variant, &[Instance], &mut [f64]) + Sync>(
        &mut self,
        pool: &[Variant],
        instances: &[Instance],
        fill_row: &F,
        jobs: usize,
    ) {
        let ni = self.reset_rows(pool, instances);

        #[cfg(feature = "parallel")]
        if jobs > 1 && pool.len() * instances.len() >= PAR_MIN_CELLS {
            let jobs = jobs.min(pool.len()).max(1);
            let rows_per = pool.len().div_ceil(jobs);
            rayon::scope(|s| {
                for (vchunk, cchunk) in pool
                    .chunks(rows_per)
                    .zip(self.costs.chunks_mut(rows_per * ni))
                {
                    s.spawn(move |_| {
                        for (v, row) in vchunk.iter().zip(cchunk.chunks_mut(ni)) {
                            fill_row(v, instances, row);
                        }
                    });
                }
            });
            return;
        }
        let _ = jobs;
        for (v, row) in pool.iter().zip(self.costs.chunks_mut(ni)) {
            fill_row(v, instances, row);
        }
    }

    /// The FLOP row fill: transpose the instances into symbol lanes
    /// once, then compile each variant's cost polynomial and stream it
    /// across the lanes on the requested rung.
    fn fill_flops_rows(
        &mut self,
        pool: &[Variant],
        instances: &[Instance],
        jobs: usize,
        level: SimdLevel,
    ) {
        let ni = self.reset_rows(pool, instances);
        self.lanes.fill(instances);
        let CostMatrix { costs, lanes, .. } = self;
        let lanes: &SizeLanes = lanes;

        #[cfg(feature = "parallel")]
        if jobs > 1 && pool.len() * instances.len() >= PAR_MIN_CELLS {
            let jobs = jobs.min(pool.len()).max(1);
            let rows_per = pool.len().div_ceil(jobs);
            rayon::scope(|s| {
                for (vchunk, cchunk) in pool.chunks(rows_per).zip(costs.chunks_mut(rows_per * ni)) {
                    s.spawn(move |_| {
                        let mut program = CompiledPoly::new();
                        for (v, row) in vchunk.iter().zip(cchunk.chunks_mut(ni)) {
                            program.compile(v.cost_poly());
                            program.eval_rows(level, lanes, row);
                        }
                    });
                }
            });
            return;
        }
        let _ = jobs;
        let mut program = CompiledPoly::new();
        for (v, row) in pool.iter().zip(costs.chunks_mut(ni)) {
            program.compile(v.cost_poly());
            program.eval_rows(level, lanes, row);
        }
    }

    /// Number of variants in the pool.
    #[must_use]
    pub fn num_variants(&self) -> usize {
        self.num_variants
    }

    /// Number of sampled instances.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.num_instances
    }

    /// Per-instance optimal costs over the full pool.
    #[must_use]
    pub fn optimal(&self) -> &[f64] {
        &self.optimal
    }

    /// The costs of variant `v` on every instance.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds index.
    #[must_use]
    pub fn row(&self, v: usize) -> &[f64] {
        &self.costs[v * self.num_instances..(v + 1) * self.num_instances]
    }

    /// The cost of variant `v` on instance `i`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[must_use]
    pub fn cost(&self, v: usize, i: usize) -> f64 {
        assert!(i < self.num_instances, "instance index out of bounds");
        self.costs[v * self.num_instances + i]
    }

    /// Evaluate the objective of a set of variant indices (canonical
    /// blocked reduction; bit-identical to [`candidate_value`] scoring).
    #[must_use]
    pub fn objective(&self, set: &[usize], objective: Objective) -> f64 {
        let level = simd::active_level();
        let mut best = vec![f64::INFINITY; self.num_instances];
        for &v in set {
            simd::min_in_place(level, &mut best, self.row(v));
        }
        objective.over(level, &best, None, &self.optimal)
    }
}

/// Below this many matrix cells the parallel fill/scan is not worth the
/// per-call OS-thread spawns of the vendored rayon shim.
#[cfg(feature = "parallel")]
const PAR_MIN_CELLS: usize = 1 << 14;

/// Reusable buffers for [`expand_set_with`]: the per-instance best-in-set
/// cost vector — the lane buffer the engine's 8-wide candidate scoring
/// streams (and nothing else). A session keeps one across compiles so
/// steady-state expansion allocates only the returned index set.
#[derive(Debug, Clone, Default)]
pub struct ExpandScratch {
    best: Vec<f64>,
}

/// Algorithm 1 (`ExpandSet`): greedily grow `initial` (indices into the
/// pool behind `matrix`) to at most `k` variants, minimizing `objective`.
///
/// Returns the expanded index set. Stops early when no candidate improves
/// the objective, exactly as the paper's algorithm does.
#[must_use]
pub fn expand_set(
    matrix: &CostMatrix,
    initial: &[usize],
    k: usize,
    objective: Objective,
) -> Vec<usize> {
    expand_set_with(
        matrix,
        initial,
        k,
        objective,
        &mut ExpandScratch::default(),
        1,
    )
}

/// [`expand_set`] with caller-owned scratch and a thread budget for the
/// candidate scan (effective only with the `parallel` feature).
///
/// The result is bit-identical for every `jobs` value: candidate scores
/// are computed independently and the winner is the first strict minimum
/// in candidate order, exactly as in the serial scan.
#[must_use]
pub fn expand_set_with(
    matrix: &CostMatrix,
    initial: &[usize],
    k: usize,
    objective: Objective,
    scratch: &mut ExpandScratch,
    jobs: usize,
) -> Vec<usize> {
    expand_set_level(
        matrix,
        initial,
        k,
        objective,
        scratch,
        jobs,
        simd::active_level(),
    )
}

/// [`expand_set_with`] on an explicit engine rung (requests above the
/// CPU's capability are clamped). The selected set is bit-identical for
/// every rung — the cross-rung property `tests/simd_paths.rs` pins.
#[must_use]
pub fn expand_set_level(
    matrix: &CostMatrix,
    initial: &[usize],
    k: usize,
    objective: Objective,
    scratch: &mut ExpandScratch,
    jobs: usize,
    level: SimdLevel,
) -> Vec<usize> {
    let ni = matrix.num_instances();
    let mut set: Vec<usize> = initial.to_vec();
    scratch.best.clear();
    scratch.best.resize(ni, f64::INFINITY);
    for &v in &set {
        simd::min_in_place(level, &mut scratch.best, matrix.row(v));
    }
    let mut v_min = if set.is_empty() {
        f64::INFINITY
    } else {
        objective.over(level, &scratch.best, None, matrix.optimal())
    };
    while set.len() < k {
        let (best_candidate, v_star) =
            scan_candidates(matrix, &set, &scratch.best, objective, jobs, level);
        match best_candidate {
            Some(d) if v_star < v_min => {
                simd::min_in_place(level, &mut scratch.best, matrix.row(d));
                set.push(d);
                v_min = v_star;
            }
            _ => return set,
        }
    }
    set
}

/// Score of adding candidate `d` to the set summarized by `best`: the
/// engine's 8-wide incremental evaluation.
///
/// `min` is exact, so `min(best[i], cost(d, i))` equals the fold over
/// `set + {d}` in any order — the value matches the textbook trial-set
/// re-evaluation (through [`CostMatrix::objective`]) bit for bit, on
/// every rung.
#[must_use]
pub fn candidate_value(
    matrix: &CostMatrix,
    best: &[f64],
    d: usize,
    objective: Objective,
    level: SimdLevel,
) -> f64 {
    objective.over(level, best, Some(matrix.row(d)), matrix.optimal())
}

/// Scan `range` for the first strict minimum among candidates not in
/// `set`, seeded with `v_star = +inf`, consuming 8-wide f64 lanes per
/// candidate row.
fn scan_range(
    matrix: &CostMatrix,
    set: &[usize],
    best: &[f64],
    objective: Objective,
    range: std::ops::Range<usize>,
    level: SimdLevel,
) -> (Option<usize>, f64) {
    let mut best_candidate: Option<usize> = None;
    let mut v_star = f64::INFINITY;
    for d in range {
        if set.contains(&d) {
            continue;
        }
        let val = candidate_value(matrix, best, d, objective, level);
        if val < v_star {
            v_star = val;
            best_candidate = Some(d);
        }
    }
    (best_candidate, v_star)
}

/// Scan every candidate for the first strict minimum, split into one
/// index-range stripe per thread when the `parallel` feature is on and
/// the matrix is large enough to pay for the spawns.
fn scan_candidates(
    matrix: &CostMatrix,
    set: &[usize],
    best: &[f64],
    objective: Objective,
    jobs: usize,
    level: SimdLevel,
) -> (Option<usize>, f64) {
    let nv = matrix.num_variants();
    #[cfg(feature = "parallel")]
    if jobs > 1 && nv * matrix.num_instances() >= PAR_MIN_CELLS {
        let per = nv.div_ceil(jobs.min(nv).max(1)).max(1);
        let tasks = nv.div_ceil(per);
        let mut partial: Vec<(Option<usize>, f64)> = vec![(None, f64::INFINITY); tasks];
        rayon::scope(|s| {
            for (c, out) in partial.iter_mut().enumerate() {
                let lo = c * per;
                let hi = ((c + 1) * per).min(nv);
                s.spawn(move |_| {
                    *out = scan_range(matrix, set, best, objective, lo..hi, level);
                });
            }
        });
        // Combine stripes in index order with the same strict-< rule, so
        // the winner is the global first minimum, as in the serial scan.
        let mut best_candidate: Option<usize> = None;
        let mut v_star = f64::INFINITY;
        for (cand, val) in partial {
            if cand.is_some() && val < v_star {
                v_star = val;
                best_candidate = cand;
            }
        }
        return (best_candidate, v_star);
    }
    let _ = jobs;
    scan_range(matrix, set, best, objective, 0..nv, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_variants;
    use crate::theory::select_base_set;
    use gmc_ir::{Features, InstanceSampler, Operand, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool_and_instances() -> (Vec<Variant>, Vec<Instance>, Shape) {
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g; 5]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let sampler = InstanceSampler::new(&shape, 2, 300);
        let instances = sampler.sample_many(&mut rng, 250);
        let pool = all_variants(&shape).unwrap();
        (pool, instances, shape)
    }

    #[test]
    fn expansion_never_worsens_objective() {
        let (pool, instances, shape) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let base = select_base_set(&shape, &instances, matrix.optimal()).unwrap();
        let initial: Vec<usize> = base
            .variants
            .iter()
            .map(|v| pool.iter().position(|p| p.paren() == v.paren()).unwrap())
            .collect();
        let before = matrix.objective(&initial, Objective::AvgPenalty);
        let expanded = expand_set(&matrix, &initial, initial.len() + 2, Objective::AvgPenalty);
        let after = matrix.objective(&expanded, Objective::AvgPenalty);
        assert!(after <= before + 1e-12);
        assert!(expanded.len() <= initial.len() + 2);
        assert!(expanded.starts_with(&initial), "expansion only adds");
    }

    #[test]
    fn full_pool_has_zero_penalty() {
        let (pool, instances, _) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let all: Vec<usize> = (0..pool.len()).collect();
        assert!(matrix.objective(&all, Objective::MaxPenalty).abs() < 1e-12);
        assert!(matrix.objective(&all, Objective::AvgPenalty).abs() < 1e-12);
    }

    #[test]
    fn expand_from_empty_picks_something() {
        let (pool, instances, _) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let set = expand_set(&matrix, &[], 1, Objective::AvgPenalty);
        assert_eq!(set.len(), 1);
        // The chosen singleton must be the pool-wide argmin of the objective.
        let chosen = matrix.objective(&set, Objective::AvgPenalty);
        for v in 0..matrix.num_variants() {
            assert!(chosen <= matrix.objective(&[v], Objective::AvgPenalty) + 1e-12);
        }
    }

    #[test]
    fn early_stop_when_no_improvement() {
        let (pool, instances, _) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        // Start from the full pool: nothing can improve.
        let all: Vec<usize> = (0..pool.len()).collect();
        let set = expand_set(&matrix, &all, all.len() + 5, Objective::AvgPenalty);
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn incremental_scan_matches_textbook_reevaluation() {
        // The incremental best-cost scan must score candidates exactly as
        // the textbook "clone the set, re-evaluate" loop does — on every
        // rung of the engine ladder.
        let (pool, instances, _) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let set = vec![0usize, 3];
        let mut best = vec![f64::INFINITY; matrix.num_instances()];
        for &v in &set {
            simd::min_in_place(simd::active_level(), &mut best, matrix.row(v));
        }
        for d in 0..matrix.num_variants() {
            if set.contains(&d) {
                continue;
            }
            let mut trial = set.clone();
            trial.push(d);
            let textbook = matrix.objective(&trial, Objective::AvgPenalty);
            for level in simd::available_levels() {
                let incremental = candidate_value(&matrix, &best, d, Objective::AvgPenalty, level);
                assert_eq!(
                    incremental.to_bits(),
                    textbook.to_bits(),
                    "candidate {d} on {level:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical() {
        let (pool, instances, shape) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let base = select_base_set(&shape, &instances, matrix.optimal()).unwrap();
        let initial: Vec<usize> = base
            .variants
            .iter()
            .map(|v| pool.iter().position(|p| p.paren() == v.paren()).unwrap())
            .collect();
        let mut scratch = ExpandScratch::default();
        for k_extra in 0..3 {
            let fresh = expand_set(
                &matrix,
                &initial,
                initial.len() + k_extra,
                Objective::AvgPenalty,
            );
            let reused = expand_set_with(
                &matrix,
                &initial,
                initial.len() + k_extra,
                Objective::AvgPenalty,
                &mut scratch,
                1,
            );
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn refill_reuses_buffers_and_matches_fresh() {
        let (pool, instances, _) = pool_and_instances();
        let fresh = CostMatrix::flops(&pool, &instances);
        let mut reused = CostMatrix::new();
        reused.fill_flops(&pool, &instances, 1);
        let cap_before = reused.costs.capacity();
        reused.fill_flops(&pool, &instances, 1);
        assert_eq!(reused.costs.capacity(), cap_before, "no regrowth on refill");
        assert_eq!(fresh.num_variants(), reused.num_variants());
        for v in 0..fresh.num_variants() {
            for i in 0..fresh.num_instances() {
                assert_eq!(fresh.cost(v, i).to_bits(), reused.cost(v, i).to_bits());
            }
        }
        for (a, b) in fresh.optimal().iter().zip(reused.optimal()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn compiled_fill_stays_close_to_poly_eval() {
        // The compiled multiply-chain order supersedes Poly::eval as the
        // reference, but each cell must stay within ulp-scale distance of
        // the direct evaluation — the polynomials are identical.
        let (pool, instances, _) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        for (v, variant) in pool.iter().enumerate() {
            for (i, q) in instances.iter().enumerate() {
                let direct = variant.flops(q);
                let cell = matrix.cost(v, i);
                assert!(
                    (cell - direct).abs() <= 1e-12 * direct.abs().max(1.0),
                    "variant {v} instance {i}: {cell} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn thread_budget_never_changes_the_selection() {
        // With the parallel feature the jobs > 1 runs actually thread the
        // scan (one stripe per thread); without it the budget must be a
        // no-op either way.
        let (pool, instances, shape) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let base = select_base_set(&shape, &instances, matrix.optimal()).unwrap();
        let initial: Vec<usize> = base
            .variants
            .iter()
            .map(|v| pool.iter().position(|p| p.paren() == v.paren()).unwrap())
            .collect();
        let k = initial.len() + 3;
        let reference = expand_set(&matrix, &initial, k, Objective::AvgPenalty);
        for jobs in [1usize, 2, 3, 4, 1000] {
            let mut scratch = ExpandScratch::default();
            let got = expand_set_with(
                &matrix,
                &initial,
                k,
                Objective::AvgPenalty,
                &mut scratch,
                jobs,
            );
            assert_eq!(reference, got, "jobs = {jobs}");
        }
    }

    #[test]
    fn objectives_differ() {
        let (pool, instances, shape) = pool_and_instances();
        let matrix = CostMatrix::flops(&pool, &instances);
        let base = select_base_set(&shape, &instances, matrix.optimal()).unwrap();
        let initial: Vec<usize> = base
            .variants
            .iter()
            .map(|v| pool.iter().position(|p| p.paren() == v.paren()).unwrap())
            .collect();
        // Both objectives run; results may or may not coincide, but both
        // must be supersets of the initial set with bounded size.
        for obj in [Objective::MaxPenalty, Objective::AvgPenalty] {
            let s = expand_set(&matrix, &initial, initial.len() + 1, obj);
            assert!(s.len() <= initial.len() + 1);
        }
    }
}
