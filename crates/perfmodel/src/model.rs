//! The assembled performance model: a [`gmc_core::CostModel`] that
//! estimates a variant's execution time by summing per-kernel-call
//! estimates `FLOPs / interpolated FLOP/s`.

use crate::grid::kernel_dims;
use crate::interp::GridInterpolator;
use gmc_core::{CostModel, Variant};
use gmc_ir::Instance;
use gmc_kernels::{cost_flops, finalize_cost_flops, FinalizeKernel, Kernel};
use gmc_linalg::Side;
use std::collections::HashMap;

/// Measured performance models for every kernel.
#[derive(Debug, Clone)]
pub struct PerfModels {
    assoc: HashMap<Kernel, GridInterpolator>,
    finalize: HashMap<FinalizeKernel, GridInterpolator>,
}

impl PerfModels {
    /// Assemble models from per-kernel interpolators (see
    /// [`crate::measure::measure_models`]).
    ///
    /// # Panics
    ///
    /// Panics if any association or finalizer kernel is missing a model.
    #[must_use]
    pub fn new(
        assoc: HashMap<Kernel, GridInterpolator>,
        finalize: HashMap<FinalizeKernel, GridInterpolator>,
    ) -> Self {
        for k in Kernel::ALL {
            assert!(assoc.contains_key(&k), "missing model for {k}");
        }
        for k in [
            FinalizeKernel::Getri,
            FinalizeKernel::Sytri,
            FinalizeKernel::Potri,
            FinalizeKernel::Trtri,
            FinalizeKernel::Transpose,
        ] {
            assert!(finalize.contains_key(&k), "missing model for {k}");
        }
        PerfModels { assoc, finalize }
    }

    /// The interpolator behind an association kernel (for persistence).
    ///
    /// # Panics
    ///
    /// Never panics: construction guarantees every kernel has a model.
    #[must_use]
    pub fn assoc_model(&self, kernel: Kernel) -> &crate::interp::GridInterpolator {
        &self.assoc[&kernel]
    }

    /// The interpolator behind a finalizer kernel (for persistence).
    ///
    /// # Panics
    ///
    /// Never panics: construction guarantees every finalizer has a model.
    #[must_use]
    pub fn finalize_model(&self, kernel: FinalizeKernel) -> &crate::interp::GridInterpolator {
        &self.finalize[&kernel]
    }

    /// Interpolated FLOP/s of `kernel` at the point `(m, k, n)` (only the
    /// first [`kernel_dims`] coordinates are used).
    ///
    /// # Panics
    ///
    /// Panics if fewer coordinates than the kernel's dimensionality are
    /// supplied.
    #[must_use]
    pub fn kernel_perf(&self, kernel: Kernel, point: &[f64]) -> f64 {
        self.assoc[&kernel].interpolate(point)
    }

    /// Estimated execution time (seconds) of one association.
    #[must_use]
    pub fn step_time(
        &self,
        kernel: Kernel,
        side: Side,
        cheap: bool,
        qa: u64,
        qb: u64,
        qc: u64,
    ) -> f64 {
        let flops = cost_flops(kernel, side, cheap, qa, qb, qc);
        let point = match kernel_dims(kernel) {
            3 => [qa as f64, qb as f64, qc as f64],
            2 => match side {
                // (coefficient size, companion dimension).
                Side::Left => [qa as f64, qc as f64, 0.0],
                Side::Right => [qc as f64, qa as f64, 0.0],
            },
            _ => [qa as f64, 0.0, 0.0],
        };
        let perf = self.kernel_perf(kernel, &point).max(1.0);
        flops / perf
    }

    /// Estimated execution time (seconds) of a finalizer on an `m x m`
    /// result (`m x n` for the transpose, which is costed per element).
    #[must_use]
    pub fn finalize_time(&self, kernel: FinalizeKernel, m: u64) -> f64 {
        let work = if kernel == FinalizeKernel::Transpose {
            (m * m) as f64
        } else {
            finalize_cost_flops(kernel, m)
        };
        let rate = self.finalize[&kernel].interpolate(&[m as f64]).max(1.0);
        work / rate
    }

    /// Fill a session-owned [`gmc_core::expand::CostMatrix`] with
    /// model-estimated times for `pool` × `instances`, reusing the
    /// matrix's buffers (the session-scratch analogue of
    /// `CostMatrix::with(pool, instances, |v, q| models.variant_time(v, q))`).
    ///
    /// Goes through the matrix's batched row API so the per-variant
    /// model resolution of [`PerfModels::variant_times_into`] is hoisted
    /// out of the per-instance loop; every cell is bit-identical to the
    /// per-cell `variant_time` closure.
    pub fn fill_cost_matrix(
        &self,
        pool: &[Variant],
        instances: &[Instance],
        matrix: &mut gmc_core::expand::CostMatrix,
    ) {
        matrix.fill_rows_with(pool, instances, |v, qs, row| {
            self.variant_times_into(v, qs, row);
        });
    }

    /// Batched [`PerfModels::variant_time`]: one row of estimated times
    /// for `variant` over `instances`, written into `out`.
    ///
    /// Resolves each step's interpolator (a hash lookup per kernel), its
    /// grid dimensionality, and each finalizer's model **once per
    /// variant**, then streams the instances — the axis/model lookup no
    /// longer sits in the per-instance loop. The per-cell arithmetic and
    /// summation order match `variant_time` exactly, so the row is
    /// bit-identical to the one-at-a-time evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != instances.len()`.
    pub fn variant_times_into(&self, variant: &Variant, instances: &[Instance], out: &mut [f64]) {
        assert_eq!(out.len(), instances.len(), "one output cell per instance");
        struct StepPlan<'a> {
            interp: &'a GridInterpolator,
            dims: usize,
            kernel: Kernel,
            side: Side,
            cheap: bool,
            triplet: (usize, usize, usize),
        }
        let steps: Vec<StepPlan<'_>> = variant
            .steps()
            .iter()
            .map(|s| StepPlan {
                interp: &self.assoc[&s.kernel],
                dims: kernel_dims(s.kernel),
                kernel: s.kernel,
                side: s.side,
                cheap: s.cheap,
                triplet: s.triplet,
            })
            .collect();
        let finals: Vec<(&GridInterpolator, FinalizeKernel, usize)> = variant
            .finalizes()
            .iter()
            .map(|f| (&self.finalize[&f.kernel], f.kernel, f.size_sym))
            .collect();
        for (q, cell) in instances.iter().zip(out) {
            let sizes = q.sizes();
            let mut total = 0.0;
            for s in &steps {
                let (a, b, c) = s.triplet;
                let (qa, qb, qc) = (sizes[a], sizes[b], sizes[c]);
                let flops = cost_flops(s.kernel, s.side, s.cheap, qa, qb, qc);
                let point = match s.dims {
                    3 => [qa as f64, qb as f64, qc as f64],
                    2 => match s.side {
                        // (coefficient size, companion dimension).
                        Side::Left => [qa as f64, qc as f64, 0.0],
                        Side::Right => [qc as f64, qa as f64, 0.0],
                    },
                    _ => [qa as f64, 0.0, 0.0],
                };
                let perf = s.interp.interpolate(&point).max(1.0);
                total += flops / perf;
            }
            for &(interp, kernel, size_sym) in &finals {
                let m = sizes[size_sym];
                let work = if kernel == FinalizeKernel::Transpose {
                    (m * m) as f64
                } else {
                    finalize_cost_flops(kernel, m)
                };
                total += work / interp.interpolate(&[m as f64]).max(1.0);
            }
            *cell = total;
        }
    }

    /// Estimated execution time (seconds) of a whole variant on `q`.
    #[must_use]
    pub fn variant_time(&self, variant: &Variant, q: &Instance) -> f64 {
        let sizes = q.sizes();
        let mut total = 0.0;
        for s in variant.steps() {
            let (a, b, c) = s.triplet;
            total += self.step_time(s.kernel, s.side, s.cheap, sizes[a], sizes[b], sizes[c]);
        }
        for f in variant.finalizes() {
            total += self.finalize_time(f.kernel, sizes[f.size_sym]);
        }
        total
    }
}

impl CostModel for PerfModels {
    fn variant_cost(&self, variant: &Variant, q: &Instance) -> f64 {
        self.variant_time(variant, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_core::{all_variants, CompiledChain};
    use gmc_ir::{Features, Operand, Shape};

    /// Models with one fixed FLOP/s rate per kernel, flat over its
    /// [`kernel_dims`] axes, so the tests check the time formulas rather
    /// than the host's timing noise.
    fn tiny_models() -> PerfModels {
        let axis = vec![8.0, 32.0];
        let grid = |dims: usize, rate: f64| {
            GridInterpolator::new(axis.clone(), dims, vec![rate; axis.len().pow(dims as u32)])
        };
        let assoc = Kernel::ALL
            .into_iter()
            .zip(1..)
            .map(|(k, i)| (k, grid(kernel_dims(k), f64::from(i) * 1e8)))
            .collect();
        let finalize = [
            FinalizeKernel::Getri,
            FinalizeKernel::Sytri,
            FinalizeKernel::Potri,
            FinalizeKernel::Trtri,
            FinalizeKernel::Transpose,
        ]
        .into_iter()
        .zip(1..)
        .map(|(k, i)| (k, grid(1, f64::from(i) * 5e7)))
        .collect();
        PerfModels::new(assoc, finalize)
    }

    #[test]
    fn variant_time_is_positive_and_monotone_in_sizes() {
        let models = tiny_models();
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g, g, g]).unwrap();
        let vs = all_variants(&shape).unwrap();
        let small = Instance::new(vec![8, 8, 8, 8]);
        let large = Instance::new(vec![32, 32, 32, 32]);
        for v in &vs {
            let ts = models.variant_time(v, &small);
            let tl = models.variant_time(v, &large);
            assert!(ts > 0.0);
            assert!(tl > ts, "time must grow with size");
        }
    }

    #[test]
    fn model_dispatch_works_with_compiled_chain() {
        let models = tiny_models();
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g, g, g]).unwrap();
        let pool = all_variants(&shape).unwrap();
        let chain = CompiledChain::from_variants(shape, pool);
        let q = Instance::new(vec![4, 32, 4, 32]);
        let (idx, cost) = chain.dispatch_with(&q, &models);
        assert!(cost > 0.0);
        assert!(idx < chain.variants().len());
    }

    #[test]
    fn fill_cost_matrix_matches_one_shot() {
        let models = tiny_models();
        let g = Operand::plain(Features::general());
        let shape = Shape::new(vec![g, g, g, g]).unwrap();
        let pool = all_variants(&shape).unwrap();
        let instances: Vec<Instance> = (1..5u64)
            .map(|s| Instance::new(vec![4 * s, 8, 2 * s, 16, 4]))
            .collect();
        let one_shot =
            gmc_core::expand::CostMatrix::with(&pool, &instances, |v, q| models.variant_time(v, q));
        let mut reused = gmc_core::expand::CostMatrix::new();
        models.fill_cost_matrix(&pool, &instances, &mut reused);
        models.fill_cost_matrix(&pool, &instances, &mut reused);
        for v in 0..one_shot.num_variants() {
            for i in 0..one_shot.num_instances() {
                assert_eq!(one_shot.cost(v, i).to_bits(), reused.cost(v, i).to_bits());
            }
        }
    }

    #[test]
    fn transpose_finalizer_costed_per_element() {
        let models = tiny_models();
        let t8 = models.finalize_time(FinalizeKernel::Transpose, 8);
        let t32 = models.finalize_time(FinalizeKernel::Transpose, 32);
        assert!(t8 > 0.0 && t32 > t8);
    }
}
