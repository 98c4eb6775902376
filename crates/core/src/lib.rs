//! Compiler core for Generalized Matrix Chains with symbolic sizes.
//!
//! This crate implements the paper's primary contribution: a
//! multi-versioning code generator. Given the [`gmc_ir::Shape`] of a chain
//! (features and unary operators, sizes unknown):
//!
//! 1. [`builder`] lowers any parenthesization to a deterministic code
//!    *variant* — a sequence of kernel calls with a symbolic cost function
//!    (Sec. IV: inversion propagation, kernel assignment, transposition
//!    propagation, feature/size inference).
//! 2. [`theory`] selects the base set `E_s` of at most `n + 1` fanning-out
//!    variants whose best-in-set cost is within a constant factor of optimal
//!    on *every* instance (Theorems 1 and 2). It chooses them from the
//!    pool and the cost matrix that stage 3 scans, so a compile lowers
//!    and costs each variant once.
//! 3. [`expand`] grows the set greedily on sampled instances to tighten the
//!    gap (Algorithm 1).
//! 4. [`program`] packages the selected variants behind a run-time dispatch
//!    that picks the cheapest variant for the concrete sizes at hand and
//!    executes it on real matrices.
//!
//! For one-off compiles the free functions below suffice. A service that
//! compiles many programs or dispatches over many size vectors should
//! hold a [`session::CompileSession`], which owns and reuses every
//! stage's state (shape interner, per-shape DP solvers, cost-matrix and
//! expansion scratch, GEMM workspace). A session is single-threaded;
//! services run one session per worker thread or shard.
//!
//! Stages 2–3 run on the **vectorized selection engine** ([`simd`]): a
//! runtime-dispatch ladder (AVX-512 > AVX2 > portable, the same pattern
//! as `gmc_linalg::gemm`) whose cost-matrix fill streams compiled cost
//! polynomials over transposed instance lanes and whose penalty
//! reductions follow one *canonical blocked order* — eight partial
//! accumulators plus a deterministic tree reduce — on every rung, so
//! scalar and SIMD selection are bit-identical and results never depend
//! on the host CPU (see the [`simd`] module docs). Production selection
//! runs on the best rung the CPU supports; tests pin every rung against
//! the portable one through the explicit `*_level` entry points.
//!
//! Stage 1 runs on the **memoized enumeration engine** ([`pool`]): the
//! parenthesizations of a chain form a span DAG ([`paren::SpanDag`],
//! each distinct sub-tree interned once per `(i, j)` span), every DAG
//! node is lowered exactly once into a step *fragment* with span-local
//! `ValRef`s, and full variants are assembled by splicing fragments in
//! the builder's total order with a constant `Temp` renumber — turning
//! `build_pool` from per-tree into per-fragment work (~4x for `n = 7`)
//! while staying **bit-identical** to per-tree [`build_variant`]
//! lowering, which remains the reference the tests call by name; see
//! the [`pool`] module docs.
//!
//! Above the per-shape memo sits the **cross-shape fragment store**
//! ([`fragcache`]): fragments are keyed by the hash of their span's
//! leaf-descriptor run (renumbered to a span-local frame) plus the
//! [`BuildOptions`] fingerprint, so shapes that differ outside a span
//! assemble that span by splice instead of re-lowering it. The store is
//! LRU-bounded, owned by the session (capacity/stats knobs next to the
//! chain cache's), kept in memory only — snapshots record decisions,
//! and a restore refills the store as it re-lowers them — and turned
//! off by capacity 0, which the tests use as the store-off reference;
//! see the [`fragcache`] module docs.
//!
//! The whole pipeline is **traced** through the `gmc-obs` substrate:
//! every session owns a [`gmc_obs::Recorder`] that accounts each stage
//! (parse → enumerate → DP → select → expand → emit → execute) and
//! each executed kernel into a [`gmc_obs::StageProfile`]
//! ([`session::CompileSession::stage_profile`],
//! [`program::CompiledChain::timing_report`]). Tracing is
//! observability only — it never changes selection decisions or
//! emitted artifacts — and is toggled per session
//! ([`session::CompileSession::set_tracing`]) or process-wide with
//! `GMC_TRACE=off`, the one environment mode switch the compiler reads;
//! when off, each instrumented site pays a single branch.
//!
//! ```
//! use gmc_core::CompiledChain;
//! use gmc_ir::grammar::parse_program;
//! use gmc_linalg::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "Matrix A <General, Singular>;
//!      Matrix B <General, Singular>;
//!      Matrix C <General, Singular>;
//!      X := A * B * C;",
//! )?;
//! let compiled = CompiledChain::compile(program.shape().clone())?;
//! let (a, b, c) = (Matrix::zeros(4, 30), Matrix::zeros(30, 2), Matrix::zeros(2, 50));
//! let x = compiled.evaluate(&[a, b, c])?;
//! assert_eq!((x.rows(), x.cols()), (4, 50));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
pub mod alpha;
pub mod builder;
pub mod dp;
pub mod enumerate;
pub mod expand;
pub mod fragcache;
pub mod library;
pub mod lru;
pub mod paren;
pub mod persist;
pub mod pool;
pub mod program;
pub mod reference;
pub mod session;
pub mod simd;
pub mod theory;
pub mod variant;

pub use alpha::{alpha_hat, catalogue_alpha_hat, shape_penalty_bound, TermKind};
pub use builder::{build_variant, build_variant_with, BuildError, BuildOptions};
pub use dp::{optimal_cost, optimal_variant, DpSolver};
pub use enumerate::{all_variants, all_variants_capped, EnumerateError, DEFAULT_VARIANT_CAP};
pub use expand::{
    expand_set, expand_set_level, expand_set_with, CostMatrix, ExpandScratch, Objective,
};
pub use fragcache::{FragCacheStats, FragmentCache};
pub use gmc_obs::{active_trace_mode, force_trace_mode, Recorder, Stage, StageProfile, TraceMode};
pub use library::ChainLibrary;
pub use paren::{NodeId, ParenTree, SpanDag};
pub use persist::{PersistError, SessionSnapshot};
pub use pool::{PoolBuilder, PoolStats};
pub use program::{CompileOptions, CompiledChain, CostModel, FlopCost, ProgramError};
pub use session::{
    CacheStats, CompileSession, DEFAULT_CHAIN_CACHE_CAPACITY, DEFAULT_FRAG_CACHE_CAPACITY,
};
pub use simd::SimdLevel;
pub use theory::{fanning_out_set, penalty, select_base_set, select_base_set_in, TheoryError};
pub use variant::{ExecVariantError, Finalize, Step, ValRef, Variant};
