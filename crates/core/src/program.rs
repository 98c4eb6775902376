//! The compiled chain: selected variants behind a run-time dispatch
//! (Fig. 1 of the paper).
//!
//! [`CompiledChain::compile`] plays the role of the code generator: it
//! selects the Theorem-2 base set (optionally expanded per Algorithm 1) and
//! packages it with a dispatch function. At run time,
//! [`CompiledChain::evaluate`] reads the concrete sizes off the argument
//! matrices, evaluates every variant's cost function, and passes control to
//! the cheapest variant.

use crate::builder::BuildError;
use crate::enumerate::EnumerateError;
use crate::expand::Objective;
use crate::theory::TheoryError;
use crate::variant::{ExecVariantError, Variant};
use gmc_ir::{Instance, Shape};
use gmc_linalg::Matrix;
use std::error::Error;
use std::fmt;

/// A run-time cost model used by the dispatch function.
///
/// The default is [`FlopCost`]; `gmc-perfmodel` provides a measured
/// execution-time model.
pub trait CostModel {
    /// Estimated cost of running `variant` on instance sizes `q`.
    fn variant_cost(&self, variant: &Variant, q: &Instance) -> f64;
}

/// Dispatch on the number of FLOPs (Table-I cost functions).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlopCost;

impl CostModel for FlopCost {
    fn variant_cost(&self, variant: &Variant, q: &Instance) -> f64 {
        variant.flops(q)
    }
}

/// Options controlling [`CompiledChain::compile_with`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Number of random training instances for base-set selection.
    pub training_instances: usize,
    /// Smallest sampled size.
    pub size_lo: u64,
    /// Largest sampled size.
    pub size_hi: u64,
    /// How many variants to add beyond the base set (Algorithm 1 steps).
    pub expand_by: usize,
    /// Objective for the expansion.
    pub objective: Objective,
    /// RNG seed for reproducible selection.
    pub seed: u64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            training_instances: 1000,
            size_lo: 2,
            size_hi: 1000,
            expand_by: 0,
            objective: Objective::AvgPenalty,
            seed: 0x5e1ec7,
        }
    }
}

/// Errors from compilation or evaluation.
#[derive(Debug)]
pub enum ProgramError {
    /// Variant construction failed.
    Build(BuildError),
    /// Variant-pool enumeration failed (e.g. over the configured cap).
    Enumerate(EnumerateError),
    /// Base-set selection failed.
    Theory(TheoryError),
    /// Evaluation failed.
    Exec(ExecVariantError),
    /// The argument matrices do not form a consistent instance of the shape.
    InconsistentSizes(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Build(e) => write!(f, "compilation failed: {e}"),
            ProgramError::Enumerate(e) => write!(f, "variant enumeration failed: {e}"),
            ProgramError::Theory(e) => write!(f, "variant selection failed: {e}"),
            ProgramError::Exec(e) => write!(f, "evaluation failed: {e}"),
            ProgramError::InconsistentSizes(msg) => write!(f, "inconsistent matrix sizes: {msg}"),
        }
    }
}

impl Error for ProgramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProgramError::Build(e) => Some(e),
            ProgramError::Enumerate(e) => Some(e),
            ProgramError::Theory(e) => Some(e),
            ProgramError::Exec(e) => Some(e),
            ProgramError::InconsistentSizes(_) => None,
        }
    }
}

impl From<BuildError> for ProgramError {
    fn from(e: BuildError) -> Self {
        ProgramError::Build(e)
    }
}

impl From<EnumerateError> for ProgramError {
    fn from(e: EnumerateError) -> Self {
        ProgramError::Enumerate(e)
    }
}

impl From<TheoryError> for ProgramError {
    fn from(e: TheoryError) -> Self {
        ProgramError::Theory(e)
    }
}

impl From<ExecVariantError> for ProgramError {
    fn from(e: ExecVariantError) -> Self {
        ProgramError::Exec(e)
    }
}

/// A chain compiled to a set of multi-versioned variants with run-time
/// dispatch.
#[derive(Debug, Clone)]
pub struct CompiledChain {
    shape: Shape,
    variants: Vec<Variant>,
}

impl CompiledChain {
    /// Compile with default options (Theorem-2 base set, no expansion).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if selection fails (not expected for valid
    /// shapes).
    pub fn compile(shape: Shape) -> Result<Self, ProgramError> {
        Self::compile_with(shape, &CompileOptions::default())
    }

    /// Compile with explicit options.
    ///
    /// For chains short enough to enumerate (`Catalan(n-1)` up to a few
    /// thousand parenthesizations, i.e. `n <= 9`) selection and expansion
    /// work over the full variant pool `A`. Longer chains switch to a
    /// scalable path: the candidate pool is the fanning-out family and the
    /// per-instance optimum comes from the DP solver — the Theorem-2
    /// guarantee is unaffected, only the expansion candidates shrink.
    ///
    /// One-shot convenience: runs a throwaway
    /// [`crate::session::CompileSession`]. Services compiling many
    /// programs should hold a session to reuse its arenas and caches.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if selection fails.
    pub fn compile_with(shape: Shape, options: &CompileOptions) -> Result<Self, ProgramError> {
        crate::session::CompileSession::with_options(options.clone()).compile(&shape)
    }

    /// Build a compiled chain from explicitly chosen variants (used by the
    /// experiment harness to package arbitrary sets).
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty.
    #[must_use]
    pub fn from_variants(shape: Shape, variants: Vec<Variant>) -> Self {
        assert!(!variants.is_empty(), "at least one variant is required");
        CompiledChain { shape, variants }
    }

    /// The chain's shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The selected variants.
    #[must_use]
    pub fn variants(&self) -> &[Variant] {
        &self.variants
    }

    /// The dispatch function: index and estimated cost of the best variant
    /// for `q` under `model`.
    #[must_use]
    pub fn dispatch_with<M: CostModel>(&self, q: &Instance, model: &M) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (i, v) in self.variants.iter().enumerate() {
            let c = model.variant_cost(v, q);
            if c < best.1 {
                best = (i, c);
            }
        }
        best
    }

    /// FLOP-cost dispatch.
    #[must_use]
    pub fn dispatch(&self, q: &Instance) -> (usize, f64) {
        self.dispatch_with(q, &FlopCost)
    }

    /// The human-readable variant report printed by `gmcc --report` and
    /// streamed by the compile service: one header line plus one line per
    /// selected variant with its parenthesization and cost polynomial.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut report = format!(
            "chain {} (n = {}), {} size-symbol class(es), {} variant(s) selected\n",
            self.shape,
            self.shape.len(),
            self.shape.size_classes().num_classes(),
            self.variants.len(),
        );
        for (i, v) in self.variants.iter().enumerate() {
            let _ = writeln!(
                report,
                "  variant {i}: {}  cost = {}",
                v.paren(),
                v.cost_poly()
            );
        }
        report
    }

    /// Render a per-stage timing report for this chain: one header line
    /// identifying the chain, then `profile`'s stage and per-kernel
    /// breakdown (the payload behind `gmcc --timings` and the serving
    /// layer's slow-request log). The profile is typically the
    /// [`crate::session::CompileSession::stage_profile`] delta observed
    /// while compiling/evaluating this chain.
    #[must_use]
    pub fn timing_report(&self, profile: &gmc_obs::StageProfile) -> String {
        profile.render(&format!("chain {} (n = {})", self.shape, self.shape.len()))
    }

    /// A human-readable account of one dispatch decision: every variant's
    /// cost on `q`, with the winner marked. Useful for debugging why a
    /// particular kernel sequence ran.
    #[must_use]
    pub fn explain_dispatch<M: CostModel>(&self, q: &Instance, model: &M) -> String {
        use std::fmt::Write;
        let (winner, _) = self.dispatch_with(q, model);
        let mut out = format!("dispatch for {} on {q}:\n", self.shape);
        for (i, v) in self.variants.iter().enumerate() {
            let marker = if i == winner { "->" } else { "  " };
            let _ = writeln!(
                out,
                "{marker} variant {i}: cost {:>14.6e}  {}",
                model.variant_cost(v, q),
                v.paren()
            );
        }
        out
    }

    /// Read the instance sizes off concrete argument matrices, validating
    /// consistency with the shape (inner dimensions, forced squareness).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::InconsistentSizes`] on arity or dimension
    /// mismatch.
    pub fn instance_of(&self, leaves: &[Matrix]) -> Result<Instance, ProgramError> {
        let n = self.shape.len();
        if leaves.len() != n {
            return Err(ProgramError::InconsistentSizes(format!(
                "expected {n} matrices, got {}",
                leaves.len()
            )));
        }
        let mut q = vec![0u64; n + 1];
        for (i, (op, m)) in self.shape.operands().iter().zip(leaves).enumerate() {
            // op(M_i) is q_i x q_{i+1}; the stored matrix is swapped when
            // transposed.
            let (rows, cols) = if op.transposed {
                (m.cols() as u64, m.rows() as u64)
            } else {
                (m.rows() as u64, m.cols() as u64)
            };
            if q[i] == 0 {
                q[i] = rows;
            } else if q[i] != rows {
                return Err(ProgramError::InconsistentSizes(format!(
                    "matrix {i} has {rows} rows, expected {}",
                    q[i]
                )));
            }
            q[i + 1] = cols;
            if op.forces_square() && rows != cols {
                return Err(ProgramError::InconsistentSizes(format!(
                    "matrix {i} must be square, got {rows}x{cols}"
                )));
            }
        }
        let instance = Instance::new(q);
        if !instance.respects(&self.shape.size_classes()) {
            return Err(ProgramError::InconsistentSizes(
                "sizes violate the chain's squareness constraints".into(),
            ));
        }
        Ok(instance)
    }

    /// Evaluate the chain: dispatch on the concrete sizes and execute the
    /// best variant (FLOP-cost model).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on inconsistent inputs or kernel failure.
    pub fn evaluate(&self, leaves: &[Matrix]) -> Result<Matrix, ProgramError> {
        self.evaluate_with(leaves, &FlopCost)
    }

    /// Evaluate via *run-time search*: run the full DP on the concrete
    /// sizes, lower the winning parenthesization, and execute it.
    ///
    /// This is the alternative to multi-versioning discussed in Sec. I of
    /// the paper (Linnea's fixed-size mode): it always executes the
    /// FLOP-optimal variant but pays the search and lowering latency per
    /// call, making it unsuitable for the low-latency settings that
    /// motivate the code generator.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on inconsistent inputs or kernel failure.
    pub fn evaluate_by_runtime_search(&self, leaves: &[Matrix]) -> Result<Matrix, ProgramError> {
        let q = self.instance_of(leaves)?;
        let (variant, _) = crate::dp::optimal_variant(&self.shape, &q)?;
        Ok(variant.execute(leaves)?)
    }

    /// Evaluate with a custom dispatch cost model.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on inconsistent inputs or kernel failure.
    pub fn evaluate_with<M: CostModel>(
        &self,
        leaves: &[Matrix],
        model: &M,
    ) -> Result<Matrix, ProgramError> {
        let q = self.instance_of(leaves)?;
        let (idx, _) = self.dispatch_with(&q, model);
        Ok(self.variants[idx].execute(leaves)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::all_variants;
    use crate::reference::evaluate_reference;
    use gmc_ir::{Features, Operand, Property, Structure};
    use gmc_linalg::{random_general, random_lower_triangular, random_spd, relative_error};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    #[test]
    fn compile_and_evaluate_plain_chain() {
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let compiled = CompiledChain::compile(shape.clone()).unwrap();
        assert!(!compiled.variants().is_empty());
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_general(&mut rng, 8, 20);
        let b = random_general(&mut rng, 20, 3);
        let c = random_general(&mut rng, 3, 12);
        let got = compiled
            .evaluate(&[a.clone(), b.clone(), c.clone()])
            .unwrap();
        let want = evaluate_reference(&shape, &[a, b, c]).unwrap();
        assert!(relative_error(&got, &want) < 1e-10);
    }

    #[test]
    fn dispatch_picks_cheaper_variant_per_instance() {
        // For G G G, the best parenthesization flips with the aspect ratio.
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let pool = all_variants(&shape).unwrap();
        let compiled = CompiledChain::from_variants(shape, pool);
        let thin = Instance::new(vec![1, 100, 1, 100]);
        let fat = Instance::new(vec![100, 1, 100, 1]);
        let (i_thin, _) = compiled.dispatch(&thin);
        let (i_fat, _) = compiled.dispatch(&fat);
        assert_ne!(i_thin, i_fat);
    }

    #[test]
    fn evaluate_solves_with_structured_matrices() {
        // G L^{-1} P^{-1}: exercises TRSM and PO-class kernels end to end.
        let l =
            Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular)).inverted();
        let p = Operand::plain(Features::new(Structure::Symmetric, Property::Spd)).inverted();
        let shape = Shape::new(vec![g(), l, p]).unwrap();
        let compiled = CompiledChain::compile(shape.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_general(&mut rng, 6, 9);
        let lm = random_lower_triangular(&mut rng, 9, true);
        let pm = random_spd(&mut rng, 9);
        let got = compiled
            .evaluate(&[a.clone(), lm.clone(), pm.clone()])
            .unwrap();
        let want = evaluate_reference(&shape, &[a, lm, pm]).unwrap();
        assert!(relative_error(&got, &want) < 1e-8);
    }

    #[test]
    fn runtime_search_matches_dispatch_result() {
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let chain = CompiledChain::compile(shape.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let a = random_general(&mut rng, 6, 14);
        let b = random_general(&mut rng, 14, 5);
        let c = random_general(&mut rng, 5, 9);
        let via_dispatch = chain.evaluate(&[a.clone(), b.clone(), c.clone()]).unwrap();
        let via_search = chain.evaluate_by_runtime_search(&[a, b, c]).unwrap();
        assert!(relative_error(&via_search, &via_dispatch) < 1e-10);
    }

    #[test]
    fn inconsistent_inputs_rejected() {
        let shape = Shape::new(vec![g(), g()]).unwrap();
        let compiled = CompiledChain::compile(shape).unwrap();
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2); // inner mismatch: 4 vs 5
        assert!(matches!(
            compiled.evaluate(&[a, b]),
            Err(ProgramError::InconsistentSizes(_))
        ));
    }

    #[test]
    fn square_constraint_enforced() {
        let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
        let shape = Shape::new(vec![g(), l]).unwrap();
        let compiled = CompiledChain::compile(shape).unwrap();
        let a = Matrix::zeros(3, 4);
        let bad_l = Matrix::zeros(4, 5);
        assert!(matches!(
            compiled.evaluate(&[a, bad_l]),
            Err(ProgramError::InconsistentSizes(_))
        ));
    }

    #[test]
    fn transposed_operand_sizes_read_correctly() {
        // A * B^T with A 3x4, stored B 5x4.
        let shape = Shape::new(vec![g(), g().transposed()]).unwrap();
        let compiled = CompiledChain::compile(shape).unwrap();
        let q = compiled
            .instance_of(&[Matrix::zeros(3, 4), Matrix::zeros(5, 4)])
            .unwrap();
        assert_eq!(q.sizes(), &[3, 4, 5]);
    }

    #[test]
    fn explain_dispatch_marks_the_winner() {
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let pool = all_variants(&shape).unwrap();
        let chain = CompiledChain::from_variants(shape, pool);
        let q = Instance::new(vec![1, 100, 1, 100]);
        let (winner, _) = chain.dispatch(&q);
        let text = chain.explain_dispatch(&q, &FlopCost);
        assert!(text.contains(&format!("-> variant {winner}:")));
        assert_eq!(text.matches("->").count(), 1);
        assert_eq!(text.matches("variant").count(), chain.variants().len());
    }

    #[test]
    fn long_chains_compile_via_dp_path() {
        // n = 12 has Catalan(11) = 58786 parenthesizations — far over the
        // enumeration cap; compilation must still finish and stay bounded.
        let shape = Shape::new(vec![g(); 12]).unwrap();
        let opts = CompileOptions {
            training_instances: 60,
            size_hi: 200,
            ..CompileOptions::default()
        };
        let chain = CompiledChain::compile_with(shape.clone(), &opts).unwrap();
        assert!(!chain.variants().is_empty());
        assert!(chain.variants().len() <= 13);
        // The compiled chain evaluates correctly.
        let mut rng = StdRng::seed_from_u64(4);
        let q: Vec<u64> = (0..13).map(|i| 2 + (i % 4) as u64 * 3).collect();
        let mats: Vec<Matrix> = (0..12)
            .map(|i| random_general(&mut rng, q[i] as usize, q[i + 1] as usize))
            .collect();
        let got = chain.evaluate(&mats).unwrap();
        let want = crate::reference::evaluate_reference(&shape, &mats).unwrap();
        assert!(relative_error(&got, &want) < 1e-8);
    }

    #[test]
    fn expansion_option_grows_set() {
        let shape = Shape::new(vec![g(), g(), g(), g(), g()]).unwrap();
        let base = CompiledChain::compile(shape.clone()).unwrap();
        let opts = CompileOptions {
            expand_by: 2,
            training_instances: 300,
            ..CompileOptions::default()
        };
        let grown = CompiledChain::compile_with(shape, &opts).unwrap();
        assert!(grown.variants().len() >= base.variants().len());
        assert!(grown.variants().len() <= base.variants().len() + 2);
    }
}
