//! A long-lived, reusable compilation pipeline (the tentpole of the
//! production-scaling work): parse → enumerate → select → expand →
//! dispatch/execute, with every stage's scratch state owned by one
//! [`CompileSession`] and reused across calls.
//!
//! The free functions ([`crate::all_variants`], [`crate::optimal_cost`],
//! [`crate::expand_set`], [`CompiledChain::compile`]) remain as one-shot
//! conveniences — each allocates its own state per call. A service that
//! compiles many programs, or dispatches one chain over many size
//! vectors, should hold a session instead:
//!
//! * **Shape interning** ([`gmc_ir::ShapeInterner`]): every distinct
//!   chain shape gets a dense [`ShapeId`]; repeated programs hit the
//!   compiled-chain cache instead of re-running selection. The cache is
//!   **bounded** (LRU eviction at
//!   [`DEFAULT_CHAIN_CACHE_CAPACITY`], tunable via
//!   [`CompileSession::set_chain_cache_capacity`]; a hit, an insert and
//!   an eviction each cost O(1), and the victim is always the chain
//!   least recently compiled or restored) and instrumented
//!   ([`CompileSession::cache_stats`]), and its contents can be
//!   persisted and restored bit-identically for warm service restarts
//!   ([`CompileSession::snapshot`] / [`CompileSession::restore`]; see
//!   [`crate::persist`]).
//! * **Pool memo** ([`PoolBuilder`]): the memoized enumeration engine
//!   lowers each span-DAG node of the current shape once and keeps the
//!   fragments while the session compiles that shape; a different shape
//!   drops them.
//! * **DP solver reuse** ([`crate::dp::DpSolver`]): one solver per shape
//!   keeps its descriptor interner, association memo, and state arena
//!   warm, so per-instance optimal costs in dispatch loops
//!   ([`CompileSession::optimal_cost`]) are allocation-free after the
//!   first call. A compile past the enumeration cap solves its training
//!   instances on a solver of its own, dropped with the compile, so the
//!   session keeps no DP state for the chains it compiles.
//! * **Selection scratch** ([`CostMatrix`], [`ExpandScratch`]): the
//!   variant × instance cost matrix and the greedy expansion's
//!   best-in-set vector live in session buffers that are refilled in
//!   place. A compile lowers each tree once ([`PoolBuilder`]) and costs
//!   each pool row once: base-set selection and expansion share the rows.
//! * **Execution scratch** ([`GemmWorkspace`]): numeric evaluation packs
//!   GEMM panels into the session workspace instead of thread-local
//!   buffers.
//!
//! # Determinism
//!
//! Every session method is bit-identical to its one-shot counterpart:
//! warm caches change *where* intermediate state lives, never the
//! relaxation, summation, or tie-break order (a property test pins each
//! stage against the one-shot functions). Every stage runs on the
//! calling thread; a service scales by running one session per worker
//! thread or shard, never by threading inside a session.
//!
//! # Variant-pool growth
//!
//! The full pool `A` grows as `Catalan(n - 1)` in the chain length `n`:
//! 132 variants at `n = 7`, 58 786 at `n = 12`, ~2.7 million at
//! `n = 15`. [`CompileSession::all_variants`] therefore refuses chains
//! past a configurable cap ([`CompileSession::set_variant_cap`]) with a
//! typed [`EnumerateError::PoolTooLarge`], and
//! [`CompileSession::compile`] automatically switches long chains to the
//! DP-backed fanning-out path, which lowers only the fanning-out trees.
//!
//! # Example
//!
//! ```
//! use gmc_core::session::CompileSession;
//! use gmc_linalg::Matrix;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = CompileSession::new();
//! let (program, _id) = session.parse(
//!     "Matrix A <General, Singular>;
//!      Matrix B <General, Singular>;
//!      X := A * B;",
//! )?;
//! let chain = session.compile(program.shape())?;
//! // Second compile of the same shape is a cache hit.
//! let again = session.compile(program.shape())?;
//! assert_eq!(chain.variants().len(), again.variants().len());
//! let x = session.evaluate(&chain, &[Matrix::zeros(3, 4), Matrix::zeros(4, 5)])?;
//! assert_eq!((x.rows(), x.cols()), (3, 5));
//! # Ok(())
//! # }
//! ```

use crate::builder::BuildError;
use crate::dp::DpSolver;
use crate::enumerate::{EnumerateError, DEFAULT_VARIANT_CAP};
use crate::expand::{expand_set_with, CostMatrix, ExpandScratch};
use crate::lru::Lru;
use crate::paren::ParenTree;
use crate::persist::{options_key, PersistError, SessionSnapshot};
use crate::pool::PoolBuilder;
use crate::program::{CompileOptions, CompiledChain, CostModel, ProgramError};
use crate::theory::{fanning_out_trees, select_base_set_in};
use crate::variant::Variant;
use gmc_ir::grammar::{parse_program, ParseError, Program};
use gmc_ir::{Instance, InstanceSampler, Shape, ShapeId, ShapeInterner};
use gmc_linalg::{GemmWorkspace, Matrix};
use gmc_obs::{Recorder, Stage, StageProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Chains whose `Catalan(n - 1)` pool exceeds this are compiled through
/// the scalable DP-backed path instead of full enumeration (`n <= 9`
/// enumerates; see [`CompiledChain::compile_with`]).
pub(crate) const ENUMERATION_CAP: u128 = 4096;

/// Default capacity of the compiled-chain cache. Each cached chain is a
/// handful of variants (kernel sequences + cost polynomials), so a few
/// hundred distinct shapes is cheap; services tune this per shard via
/// [`CompileSession::set_chain_cache_capacity`].
pub const DEFAULT_CHAIN_CACHE_CAPACITY: usize = 256;

/// Observability counters for the compiled-chain cache (cumulative for
/// the session's lifetime; survive cache invalidations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Compiles served from the cache.
    pub hits: u64,
    /// Compiles that had to run the full selection pipeline.
    pub misses: u64,
    /// Chains evicted by the LRU policy (capacity pressure only — not
    /// invalidations from option changes).
    pub evictions: u64,
    /// Chains inserted by snapshot restore ([`CompileSession::restore`] /
    /// [`CompileSession::restore_filtered`]) rather than compiled.
    /// Restores count as neither hits nor misses; a restored chain's
    /// first *compile* is a hit.
    pub restored: u64,
}

impl CacheStats {
    /// Fraction of compiles served from the cache (`0.0` before any
    /// compile).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold `other`'s counters into this one. Supervised services use
    /// this to carry a shard's cumulative counters across session
    /// restarts (a replaced session starts back at zero).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.restored += other.restored;
    }
}

/// A long-lived compiler pipeline: owns the descriptor interner, DP state
/// arenas, cost-matrix scratch, and GEMM workspace, and reuses all of
/// them across compiles and evaluations (see the [module docs](self)).
pub struct CompileSession {
    options: CompileOptions,
    variant_cap: u64,
    shapes: ShapeInterner,
    solvers: HashMap<ShapeId, DpSolver>,
    compiled: Lru<ShapeId, CompiledChain>,
    cache_stats: CacheStats,
    pool: PoolBuilder,
    matrix: CostMatrix,
    expand: ExpandScratch,
    gemm_ws: GemmWorkspace,
    recorder: Recorder,
}

impl Default for CompileSession {
    fn default() -> Self {
        CompileSession::new()
    }
}

impl CompileSession {
    /// A session with default [`CompileOptions`].
    #[must_use]
    pub fn new() -> Self {
        CompileSession::with_options(CompileOptions::default())
    }

    /// A session with explicit compile options.
    #[must_use]
    pub fn with_options(options: CompileOptions) -> Self {
        CompileSession {
            options,
            variant_cap: DEFAULT_VARIANT_CAP,
            shapes: ShapeInterner::new(),
            solvers: HashMap::new(),
            compiled: Lru::new(DEFAULT_CHAIN_CACHE_CAPACITY),
            cache_stats: CacheStats::default(),
            pool: PoolBuilder::new(),
            matrix: CostMatrix::new(),
            expand: ExpandScratch::default(),
            gemm_ws: GemmWorkspace::new(),
            recorder: Recorder::new(),
        }
    }

    /// The session's compile options.
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Replace the compile options. Invalidates the compiled-chain cache
    /// (selection depends on the options); solver and scratch state stays.
    pub fn set_options(&mut self, options: CompileOptions) {
        self.options = options;
        self.compiled.clear();
    }

    /// Does nothing: every session stage is single-threaded. Kept so
    /// existing callers still build; concurrency comes from running one
    /// session per thread.
    pub fn set_jobs(&mut self, _jobs: usize) {}

    /// Cap on the number of variants [`CompileSession::all_variants`]
    /// will materialize (default [`DEFAULT_VARIANT_CAP`]). The pool grows
    /// as `Catalan(n - 1)`; see the [module docs](self). Invalidates the
    /// compiled-chain cache: the cap also decides
    /// [`CompileSession::compile`]'s enumerate-vs-DP path, so cached
    /// chains must not outlive a cap change.
    pub fn set_variant_cap(&mut self, cap: u64) {
        if cap != self.variant_cap {
            self.compiled.clear();
        }
        self.variant_cap = cap;
    }

    /// The configured variant cap.
    #[must_use]
    pub fn variant_cap(&self) -> u64 {
        self.variant_cap
    }

    /// Parse a `.gmc` program and intern its shape.
    ///
    /// # Errors
    ///
    /// Propagates [`ParseError`].
    pub fn parse(&mut self, source: &str) -> Result<(Program, ShapeId), ParseError> {
        let span = self.recorder.start();
        let program = parse_program(source);
        self.recorder.stop(Stage::Parse, span);
        let program = program?;
        let id = self.shapes.intern(program.shape());
        Ok((program, id))
    }

    /// Intern a shape, returning its dense session-local id.
    pub fn intern(&mut self, shape: &Shape) -> ShapeId {
        self.shapes.intern(shape)
    }

    /// The shape behind a [`ShapeId`] from this session.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different session.
    #[must_use]
    pub fn shape(&self, id: ShapeId) -> &Shape {
        self.shapes.get(id)
    }

    /// Build the full variant pool `A` for `shape` (see
    /// [`crate::all_variants`]) through the session's memoized
    /// [`PoolBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`EnumerateError::PoolTooLarge`] past the session's
    /// variant cap; build errors are unreachable for valid shapes.
    pub fn all_variants(&mut self, shape: &Shape) -> Result<Vec<Variant>, EnumerateError> {
        let count = ParenTree::count(shape.len());
        if count > u128::from(self.variant_cap) {
            return Err(EnumerateError::PoolTooLarge {
                variants: count,
                cap: self.variant_cap,
            });
        }
        let id = self.shapes.intern(shape);
        let span = self.recorder.start();
        let pool = self.full_pool(id).map_err(EnumerateError::Build);
        self.recorder.stop(Stage::Enumerate, span);
        pool
    }

    /// The full variant pool for an interned shape, through the
    /// session's [`PoolBuilder`] (its memo is invalidated whenever the
    /// interned shape, the memo key, changes).
    fn full_pool(&mut self, id: ShapeId) -> Result<Vec<Variant>, BuildError> {
        self.pool.build_full(Some(id), self.shapes.get(id))
    }

    /// Lower an explicit list of parenthesizations for an interned shape
    /// (the restore path, and the fanning-out pool of a chain too long to
    /// enumerate), sharing sub-span fragments across trees.
    fn pool_for_trees(
        &mut self,
        id: ShapeId,
        trees: &[ParenTree],
    ) -> Result<Vec<Variant>, BuildError> {
        self.pool
            .build_for_trees(Some(id), self.shapes.get(id), trees)
    }

    /// The per-instance optimal cost for `shape`, through the session's
    /// per-shape [`DpSolver`] — allocation-free after the first call for
    /// a given shape.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] (unreachable for valid shapes).
    ///
    /// # Panics
    ///
    /// Panics if `instance` has the wrong number of sizes for `shape`.
    pub fn optimal_cost(&mut self, shape: &Shape, instance: &Instance) -> Result<f64, BuildError> {
        let id = self.shapes.intern(shape);
        let span = self.recorder.start();
        let cost = self.solver_for(id).optimal_cost(instance);
        self.recorder.stop(Stage::Dp, span);
        cost
    }

    /// The optimal variant and cost for `shape` on `instance`, through
    /// the session solver (see [`crate::dp::optimal_variant`]).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] (unreachable for valid shapes).
    ///
    /// # Panics
    ///
    /// Panics if `instance` has the wrong number of sizes for `shape`.
    pub fn optimal_variant(
        &mut self,
        shape: &Shape,
        instance: &Instance,
    ) -> Result<(Variant, f64), BuildError> {
        let id = self.shapes.intern(shape);
        let span = self.recorder.start();
        let variant = self.solver_for(id).optimal_variant(instance);
        self.recorder.stop(Stage::Dp, span);
        variant
    }

    /// The session's solver for `shape`, creating (and caching) it on
    /// first use.
    pub fn solver(&mut self, shape: &Shape) -> &mut DpSolver {
        let id = self.shapes.intern(shape);
        self.solver_for(id)
    }

    fn solver_for(&mut self, id: ShapeId) -> &mut DpSolver {
        let CompileSession {
            solvers, shapes, ..
        } = self;
        solvers
            .entry(id)
            .or_insert_with(|| DpSolver::new(shapes.get(id)))
    }

    /// Fill the session cost matrix with FLOP costs for `pool` ×
    /// `instances` through the vectorized selection engine (compiled
    /// cost polynomials streamed over instance lanes, refilling the
    /// session's buffer in place) and return it.
    pub fn cost_matrix(&mut self, pool: &[Variant], instances: &[Instance]) -> &CostMatrix {
        let span = self.recorder.start();
        self.matrix.fill_flops(pool, instances);
        self.recorder.stop(Stage::Select, span);
        &self.matrix
    }

    /// Algorithm-1 expansion over the session's current cost matrix (the
    /// one filled by the latest `cost_matrix` / `compile` call), reusing
    /// the session's expansion scratch.
    #[must_use]
    pub fn expand_set(
        &mut self,
        initial: &[usize],
        k: usize,
        objective: crate::expand::Objective,
    ) -> Vec<usize> {
        let span = self.recorder.start();
        let set = expand_set_with(&self.matrix, initial, k, objective, &mut self.expand);
        self.recorder.stop(Stage::Expand, span);
        set
    }

    /// Compile `shape` into a multi-versioned chain with the session's
    /// options, caching the result per distinct shape.
    ///
    /// A miss lowers the pool (`A`, or the fanning-out trees past the
    /// cap), fills the session [`CostMatrix`] once, and chooses the base
    /// set ([`crate::theory::select_base_set_in`]) and its expansion from
    /// that matrix.
    ///
    /// Semantics (and selected variants, bit for bit) match
    /// [`CompiledChain::compile_with`]; the session reuses its scratch
    /// and caches instead of allocating per call.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if selection fails.
    pub fn compile(&mut self, shape: &Shape) -> Result<CompiledChain, ProgramError> {
        let id = self.shapes.intern(shape);
        if let Some(chain) = self.compiled.get(&id) {
            self.cache_stats.hits += 1;
            return Ok(chain.clone());
        }
        self.cache_stats.misses += 1;
        let chain = self.compile_uncached(id)?;
        self.insert_cached(id, chain.clone());
        Ok(chain)
    }

    /// Refresh `shape`'s cached chain to most recently used, as a hit of
    /// [`CompileSession::compile`] would, but count nothing and intern
    /// nothing; a shape with no cached chain is left alone. A front end
    /// that answers a repeat from its own store calls this, so that the
    /// cache evicts what it would have evicted had the repeat compiled
    /// here.
    pub fn touch(&mut self, shape: &Shape) {
        if let Some(id) = self.shapes.lookup(shape) {
            let _ = self.compiled.get(&id);
        }
    }

    /// Insert a freshly compiled (or restored) chain as the most recently
    /// used one, evicting least-recently-used entries down to capacity.
    fn insert_cached(&mut self, id: ShapeId, chain: CompiledChain) {
        self.cache_stats.evictions += self.compiled.insert(id, chain) as u64;
    }

    /// Compile every shape in order, sharing the session caches (repeat
    /// shapes are compiled once).
    ///
    /// # Errors
    ///
    /// Returns the first failure.
    pub fn compile_batch(&mut self, shapes: &[Shape]) -> Result<Vec<CompiledChain>, ProgramError> {
        shapes.iter().map(|s| self.compile(s)).collect()
    }

    fn compile_uncached(&mut self, id: ShapeId) -> Result<CompiledChain, ProgramError> {
        let shape = self.shapes.get(id).clone();
        let options = self.options.clone();
        let mut rng = StdRng::seed_from_u64(options.seed);
        let sampler = InstanceSampler::new(&shape, options.size_lo, options.size_hi);
        let training = sampler.sample_many(&mut rng, options.training_instances.max(1));

        let enumerable =
            ParenTree::count(shape.len()) <= ENUMERATION_CAP.min(u128::from(self.variant_cap));
        let span = self.recorder.start();
        let pool: Vec<Variant> = if enumerable {
            self.full_pool(id)?
        } else {
            let trees: Vec<ParenTree> = fanning_out_trees(shape.len())
                .into_iter()
                .map(|(_, tree)| tree)
                .collect();
            self.pool_for_trees(id, &trees)?
        };
        self.recorder.stop(Stage::Enumerate, span);
        if enumerable {
            let span = self.recorder.start();
            self.matrix.fill_flops(&pool, &training);
            self.recorder.stop(Stage::Select, span);
        } else {
            // A solver local to this compile: the chain cache bounds what
            // a session keeps per shape, and a long chain's DP state is
            // not worth keeping once its optimal costs are in the matrix.
            let span = self.recorder.start();
            let mut solver = DpSolver::new(&shape);
            let optimal: Vec<f64> = training
                .iter()
                .map(|q| solver.optimal_cost(q))
                .collect::<Result<_, _>>()?;
            self.recorder.stop(Stage::Dp, span);
            let span = self.recorder.start();
            self.matrix
                .fill_flops_with_optimal(&pool, &training, optimal);
            self.recorder.stop(Stage::Select, span);
        }

        let span = self.recorder.start();
        let mut indices = select_base_set_in(&shape, &pool, &self.matrix)?;
        self.recorder.stop(Stage::Select, span);
        if options.expand_by > 0 {
            let span = self.recorder.start();
            indices = expand_set_with(
                &self.matrix,
                &indices,
                indices.len() + options.expand_by,
                options.objective,
                &mut self.expand,
            );
            self.recorder.stop(Stage::Expand, span);
        }
        let variants = indices.into_iter().map(|i| pool[i].clone()).collect();
        Ok(CompiledChain::from_variants(shape, variants))
    }

    /// Evaluate a compiled chain on concrete matrices (FLOP-cost
    /// dispatch), packing GEMM panels into the session workspace instead
    /// of thread-local buffers.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on inconsistent inputs or kernel failure.
    pub fn evaluate(
        &mut self,
        chain: &CompiledChain,
        leaves: &[Matrix],
    ) -> Result<Matrix, ProgramError> {
        self.evaluate_with(chain, leaves, &crate::program::FlopCost)
    }

    /// [`CompileSession::evaluate`] with a custom dispatch cost model.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] on inconsistent inputs or kernel failure.
    pub fn evaluate_with<M: CostModel>(
        &mut self,
        chain: &CompiledChain,
        leaves: &[Matrix],
        model: &M,
    ) -> Result<Matrix, ProgramError> {
        let q = chain.instance_of(leaves)?;
        let (idx, _) = chain.dispatch_with(&q, model);
        let span = self.recorder.start();
        let CompileSession {
            gemm_ws, recorder, ..
        } = self;
        let result = if recorder.enabled() {
            chain.variants()[idx].execute_observed(gemm_ws, leaves, |kernel, d| {
                recorder.record_kernel(kernel.name(), d);
            })
        } else {
            chain.variants()[idx].execute_with(gemm_ws, leaves)
        };
        self.recorder.stop(Stage::Execute, span);
        Ok(result?)
    }

    /// The session's GEMM packing workspace (e.g. to pre-reserve or
    /// inspect capacity).
    pub fn workspace(&mut self) -> &mut GemmWorkspace {
        &mut self.gemm_ws
    }

    /// Whether this session records pipeline stage spans (resolved from
    /// [`gmc_obs::active_trace_mode`] at construction; see
    /// [`CompileSession::set_tracing`]).
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Override the session-level tracing toggle. Tracing never changes
    /// selection decisions or emitted artifacts (it is excluded from
    /// the persistence options fingerprint); disabled tracing costs one
    /// branch per instrumented site.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.recorder.set_enabled(enabled);
    }

    /// The accumulated per-stage/per-kernel profile (see
    /// [`gmc_obs::StageProfile`]). Cumulative for the session's
    /// lifetime; diff two clones (or use
    /// [`CompileSession::take_stage_profile`]) for per-request
    /// breakdowns.
    #[must_use]
    pub fn stage_profile(&self) -> &StageProfile {
        self.recorder.profile()
    }

    /// Take the accumulated stage profile, leaving an empty one.
    pub fn take_stage_profile(&mut self) -> StageProfile {
        self.recorder.take()
    }

    /// The session's span recorder, for instrumenting pipeline stages
    /// that run outside the session (the emit renderers live in
    /// `gmc-codegen`; drivers wrap them in
    /// [`gmc_obs::Stage::Emit`] spans).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access to the span recorder (closing externally timed
    /// spans).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Number of distinct shapes this session has seen.
    #[must_use]
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Number of compiled chains currently cached.
    #[must_use]
    pub fn num_cached_chains(&self) -> usize {
        self.compiled.len()
    }

    /// The compiled-chain cache capacity
    /// (default [`DEFAULT_CHAIN_CACHE_CAPACITY`]).
    #[must_use]
    pub fn chain_cache_capacity(&self) -> usize {
        self.compiled.capacity()
    }

    /// Bound the compiled-chain cache: at most `capacity` chains stay
    /// resident, evicted least-recently-used (a compile — hit or miss —
    /// counts as a use). Shrinking below the current occupancy evicts
    /// immediately; `0` disables caching entirely (every compile
    /// re-selects). Eviction never changes results — an evicted shape is
    /// simply re-selected on its next compile, bit-identically.
    pub fn set_chain_cache_capacity(&mut self, capacity: usize) {
        self.cache_stats.evictions += self.compiled.set_capacity(capacity) as u64;
    }

    /// Cumulative hit/miss/eviction counters for the compiled-chain
    /// cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Always zero: sessions keep no fragment cache beyond the
    /// [`PoolBuilder`]'s per-shape memo. Kept so existing readers of the
    /// counters still build.
    #[must_use]
    pub fn fragment_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Snapshot the compiled-chain cache for warm-restart persistence:
    /// shape descriptors plus selected parenthesizations, in dense
    /// [`ShapeId`] order (see [`crate::persist`] for the format). The
    /// snapshot records decisions, not emitted code or lowered
    /// fragments, so it stays small and restores bit-identically.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut entries = Vec::with_capacity(self.compiled.len());
        for (id, shape) in self.shapes.iter() {
            if let Some(chain) = self.compiled.peek(&id) {
                let parens: Vec<ParenTree> =
                    chain.variants().iter().map(|v| v.paren().clone()).collect();
                entries.push((shape.clone(), parens));
            }
        }
        SessionSnapshot::from_parts(options_key(&self.options, self.variant_cap), entries)
    }

    /// Restore every chain recorded in `snapshot` into the cache,
    /// re-lowering each recorded parenthesization with the deterministic
    /// variant builder — no enumeration, DP, or expansion runs, and the
    /// restored chains are bit-identical to what [`CompileSession::compile`]
    /// would produce. Returns the number of chains restored (shapes
    /// already cached are skipped; restores count as neither hits nor
    /// misses).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::OptionsMismatch`] unless the snapshot was
    /// taken under this session's selection options *and* variant cap
    /// (the cap decides the enumerate-vs-DP compile path, so recorded
    /// decisions are only valid under the same cap), and
    /// [`PersistError::Rebuild`] if a recorded tree fails to lower. On
    /// any error the cache is left untouched — a failed restore is a
    /// cold start, never a half-warm one.
    pub fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<usize, PersistError> {
        self.restore_filtered(snapshot, |_| true)
    }

    /// [`CompileSession::restore`] for the shapes `keep` accepts — a
    /// sharded service restores into each shard only the shapes that
    /// route to it.
    ///
    /// # Errors
    ///
    /// Same as [`CompileSession::restore`].
    pub fn restore_filtered(
        &mut self,
        snapshot: &SessionSnapshot,
        keep: impl Fn(&Shape) -> bool,
    ) -> Result<usize, PersistError> {
        let expected = options_key(&self.options, self.variant_cap);
        if snapshot.options_fingerprint() != expected {
            return Err(PersistError::OptionsMismatch {
                expected,
                found: snapshot.options_fingerprint().to_string(),
            });
        }
        // Rebuild everything first, insert only if the whole snapshot
        // lowers: a corrupt entry must not leave the cache half-warm.
        let mut pending: Vec<(ShapeId, Shape, Vec<Variant>)> = Vec::new();
        for (shape, parens) in snapshot.entries() {
            if !keep(shape) {
                continue;
            }
            let id = self.shapes.intern(shape);
            if self.compiled.peek(&id).is_some() || pending.iter().any(|(pid, ..)| *pid == id) {
                continue;
            }
            let variants = self
                .pool_for_trees(id, parens)
                .map_err(|e| PersistError::Rebuild(e.to_string()))?;
            pending.push((id, shape.clone(), variants));
        }
        let restored = pending.len();
        for (id, shape, variants) in pending {
            self.insert_cached(id, CompiledChain::from_variants(shape, variants));
        }
        self.cache_stats.restored += restored as u64;
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_ir::{Features, Operand, Property, Structure};

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    #[test]
    fn session_compile_matches_one_shot() {
        let shape = Shape::new(vec![g(); 5]).unwrap();
        let opts = CompileOptions {
            training_instances: 200,
            expand_by: 2,
            ..CompileOptions::default()
        };
        let mut session = CompileSession::with_options(opts.clone());
        let from_session = session.compile(&shape).unwrap();
        let one_shot = CompiledChain::compile_with(shape, &opts).unwrap();
        assert_eq!(from_session.variants().len(), one_shot.variants().len());
        for (a, b) in from_session.variants().iter().zip(one_shot.variants()) {
            assert_eq!(a.paren(), b.paren());
            assert_eq!(a.cost_poly(), b.cost_poly());
        }
    }

    #[test]
    fn compile_cache_hits_on_equal_shapes() {
        let mut session = CompileSession::new();
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let first = session.compile(&shape).unwrap();
        assert_eq!(session.num_cached_chains(), 1);
        let second = session
            .compile(&Shape::new(vec![g(), g(), g()]).unwrap())
            .unwrap();
        assert_eq!(session.num_cached_chains(), 1, "equal shape is a cache hit");
        assert_eq!(first.variants().len(), second.variants().len());
        // Changing options invalidates the cache.
        session.set_options(CompileOptions {
            expand_by: 1,
            ..CompileOptions::default()
        });
        assert_eq!(session.num_cached_chains(), 0);
    }

    #[test]
    fn session_optimal_cost_matches_free_function() {
        let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
        let shape = Shape::new(vec![g(), l, g(), g()]).unwrap();
        let mut session = CompileSession::new();
        for trial in 0..6u64 {
            let inst = Instance::new(vec![3 + trial, 7 + trial, 7 + trial, 2 + trial, 9 + trial]);
            let warm = session.optimal_cost(&shape, &inst).unwrap();
            let cold = crate::dp::optimal_cost(&shape, &inst).unwrap();
            assert_eq!(warm.to_bits(), cold.to_bits());
        }
        assert_eq!(session.num_shapes(), 1);
    }

    #[test]
    fn session_variant_cap_is_configurable() {
        let mut session = CompileSession::new();
        session.set_variant_cap(10);
        let shape = Shape::new(vec![g(); 7]).unwrap();
        assert!(matches!(
            session.all_variants(&shape),
            Err(EnumerateError::PoolTooLarge {
                variants: 132,
                cap: 10
            })
        ));
        session.set_variant_cap(DEFAULT_VARIANT_CAP);
        assert_eq!(session.all_variants(&shape).unwrap().len(), 132);
    }

    #[test]
    fn session_evaluate_uses_owned_workspace() {
        let mut session = CompileSession::new();
        let shape = Shape::new(vec![g(), g()]).unwrap();
        let chain = session.compile(&shape).unwrap();
        // Large enough to force the blocked GEMM path (m*n*k >= 32^3).
        let a = Matrix::from_fn(40, 40, |i, j| (i + 2 * j) as f64 * 0.25);
        let b = Matrix::from_fn(40, 40, |i, j| (i as f64) - (j as f64) * 0.5);
        let x = session.evaluate(&chain, &[a.clone(), b.clone()]).unwrap();
        assert_eq!((x.rows(), x.cols()), (40, 40));
        assert!(session.workspace().capacity_bytes() > 0, "session packed");
        // Repeat evaluation reuses the buffers without regrowth.
        let bytes = session.workspace().capacity_bytes();
        let _ = session.evaluate(&chain, &[a, b]).unwrap();
        assert_eq!(session.workspace().capacity_bytes(), bytes);
    }

    #[test]
    fn lru_eviction_respects_recency_and_counts() {
        let mut session = CompileSession::new();
        session.set_chain_cache_capacity(2);
        let shapes: Vec<Shape> = (2..=4).map(|n| Shape::new(vec![g(); n]).unwrap()).collect();
        session.compile(&shapes[0]).unwrap(); // miss: {0}
        session.compile(&shapes[1]).unwrap(); // miss: {0, 1}
        session.compile(&shapes[0]).unwrap(); // hit, refreshes 0
        session.compile(&shapes[2]).unwrap(); // miss, evicts 1 (LRU): {0, 2}
        assert_eq!(session.num_cached_chains(), 2);
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        session.compile(&shapes[0]).unwrap(); // still cached: hit
        session.compile(&shapes[1]).unwrap(); // evicted above: miss again
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 4, 2));
        assert!((stats.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        // Shrinking the capacity evicts immediately; 0 disables caching.
        session.set_chain_cache_capacity(1);
        assert_eq!(session.num_cached_chains(), 1);
        session.set_chain_cache_capacity(0);
        assert_eq!(session.num_cached_chains(), 0);
        session.compile(&shapes[0]).unwrap();
        assert_eq!(session.num_cached_chains(), 0, "capacity 0 caches nothing");
    }

    /// A touch refreshes recency exactly like a hit, counts nothing, and
    /// never interns a shape it has not seen.
    #[test]
    fn touch_refreshes_recency_without_counting_or_interning() {
        let mut session = CompileSession::new();
        session.set_chain_cache_capacity(2);
        let shapes: Vec<Shape> = (2..=5).map(|n| Shape::new(vec![g(); n]).unwrap()).collect();
        session.compile(&shapes[0]).unwrap();
        session.compile(&shapes[1]).unwrap();
        session.touch(&shapes[0]); // as a hit would: {1, 0}
        let before = session.cache_stats();
        session.touch(&shapes[3]); // never seen: a no-op
        assert_eq!(session.num_shapes(), 2, "the unseen shape is not interned");
        assert_eq!(session.cache_stats(), before, "touches count nothing");
        session.compile(&shapes[2]).unwrap(); // evicts 1, the oldest
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 1));
        session.compile(&shapes[0]).unwrap();
        assert_eq!(session.cache_stats().hits, 1, "the touched chain stayed");
        session.compile(&shapes[1]).unwrap();
        assert_eq!(session.cache_stats().misses, 4, "the untouched one went");
    }

    #[test]
    fn snapshot_restore_rebuilds_identical_chains() {
        let opts = CompileOptions {
            training_instances: 120,
            expand_by: 1,
            ..CompileOptions::default()
        };
        let mut original = CompileSession::with_options(opts.clone());
        let l =
            Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular)).inverted();
        let shapes = [
            Shape::new(vec![g(); 4]).unwrap(),
            Shape::new(vec![g(), l, g()]).unwrap(),
        ];
        let chains: Vec<_> = shapes
            .iter()
            .map(|s| original.compile(s).unwrap())
            .collect();

        let snap = original.snapshot();
        assert_eq!(snap.len(), 2);
        let text = snap.encode();
        drop(original);

        let mut restored = CompileSession::with_options(opts.clone());
        let decoded = crate::persist::SessionSnapshot::decode(&text).unwrap();
        assert_eq!(restored.restore(&decoded).unwrap(), 2);
        assert_eq!(restored.num_cached_chains(), 2);
        let before = restored.cache_stats();
        assert_eq!((before.hits, before.misses), (0, 0), "restore is neither");
        for (shape, want) in shapes.iter().zip(&chains) {
            let got = restored.compile(shape).unwrap();
            for (a, b) in got.variants().iter().zip(want.variants()) {
                assert_eq!(a.paren(), b.paren());
                assert_eq!(a.cost_poly(), b.cost_poly());
            }
        }
        assert_eq!(restored.cache_stats().hits, 2, "restored chains are hits");

        // Restoring under different options is refused.
        let mut other = CompileSession::new();
        assert!(matches!(
            other.restore(&decoded),
            Err(PersistError::OptionsMismatch { .. })
        ));
        // So is a different variant cap: it changes the enumerate-vs-DP
        // compile path, i.e. the decisions themselves.
        let mut capped = CompileSession::with_options(opts.clone());
        capped.set_variant_cap(10);
        assert!(matches!(
            capped.restore(&decoded),
            Err(PersistError::OptionsMismatch { .. })
        ));
        assert_eq!(capped.num_cached_chains(), 0, "failed restore stays cold");
        // Filtered restore keeps only the accepted shapes.
        let mut half = CompileSession::with_options(opts);
        assert_eq!(
            half.restore_filtered(&decoded, |s| s.len() == 3).unwrap(),
            1
        );
        assert_eq!(half.num_cached_chains(), 1);
    }

    #[test]
    fn stage_profile_accounts_pipeline_spans() {
        let mut session = CompileSession::new();
        session.set_tracing(true);
        let shape = Shape::new(vec![g(), g(), g()]).unwrap();
        let chain = session.compile(&shape).unwrap();
        let p = session.stage_profile();
        assert!(p.stage_calls(Stage::Enumerate) >= 1, "enumerate span");
        assert!(p.stage_calls(Stage::Select) >= 1, "select span");
        let a = Matrix::from_fn(4, 6, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(6, 3, |i, j| (i * j) as f64);
        let c = Matrix::from_fn(3, 5, |i, j| (i + 2 * j) as f64);
        session.evaluate(&chain, &[a, b, c]).unwrap();
        let p = session.stage_profile();
        assert_eq!(p.stage_calls(Stage::Execute), 1, "execute span");
        assert!(!p.kernels().is_empty(), "per-kernel timings recorded");
        // The chain-level report renders the recorded stages.
        let report = chain.timing_report(session.stage_profile());
        assert!(report.contains("enumerate"));
        assert!(report.contains("execute"));
        // Cache hits record no new enumerate span.
        let before = session.stage_profile().clone();
        let _ = session.compile(&shape).unwrap();
        let delta = session.stage_profile().since(&before);
        assert_eq!(delta.stage_calls(Stage::Enumerate), 0);
    }

    #[test]
    fn disabled_tracing_records_nothing_and_changes_nothing() {
        let shape = Shape::new(vec![g(); 5]).unwrap();
        let mut traced = CompileSession::new();
        traced.set_tracing(true);
        let with = traced.compile(&shape).unwrap();
        let mut silent = CompileSession::new();
        silent.set_tracing(false);
        let without = silent.compile(&shape).unwrap();
        assert!(silent.stage_profile().is_empty(), "no spans when off");
        assert!(!traced.stage_profile().is_empty(), "spans when on");
        // Tracing is observability only: selected variants are identical.
        assert_eq!(with.variants().len(), without.variants().len());
        for (a, b) in with.variants().iter().zip(without.variants()) {
            assert_eq!(a.paren(), b.paren());
            assert_eq!(a.cost_poly(), b.cost_poly());
        }
        // So are evaluated results: the silent session executes without
        // the per-kernel observer and still records nothing.
        let leaves: Vec<Matrix> = [(4, 6), (6, 3), (3, 5), (5, 7), (7, 2)]
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| Matrix::from_fn(r, c, |i, j| (i + 2 * j + k) as f64 * 0.5 - 1.0))
            .collect();
        let x_traced = traced.evaluate(&with, &leaves).unwrap();
        let x_silent = silent.evaluate(&without, &leaves).unwrap();
        let bits = |x: &Matrix| -> Vec<u64> { x.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!((x_silent.rows(), x_silent.cols()), (4, 2));
        assert_eq!(bits(&x_traced), bits(&x_silent));
        assert!(silent.stage_profile().is_empty(), "no spans when off");
        assert_eq!(
            silent.take_stage_profile(),
            StageProfile::new(),
            "taking an empty profile yields the empty profile"
        );
    }

    #[test]
    fn long_chain_compiles_through_session_dp_path() {
        let shape = Shape::new(vec![g(); 12]).unwrap();
        let opts = CompileOptions {
            training_instances: 40,
            size_hi: 150,
            ..CompileOptions::default()
        };
        let mut session = CompileSession::with_options(opts);
        let chain = session.compile(&shape).unwrap();
        assert!(!chain.variants().is_empty());
        assert!(chain.variants().len() <= 13);
    }

    #[test]
    fn long_chain_compiles_keep_no_dp_solver() {
        // Distinct 10-operand chains (past the enumeration cap): one
        // triangular operand moves along an otherwise general chain.
        let lower = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
        let mut session = CompileSession::with_options(CompileOptions {
            training_instances: 8,
            ..CompileOptions::default()
        });
        for at in 0..3 {
            let mut operands = vec![g(); 10];
            operands[at] = lower;
            session.compile(&Shape::new(operands).unwrap()).unwrap();
        }
        assert_eq!(session.cache_stats().misses, 3);
        assert!(session.solvers.is_empty(), "DP state is per compile");
    }

    #[test]
    fn chain_with_two_to_the_64_representative_combinations_compiles() {
        // 128 operands alternating <Symmetric, SPD> and <General,
        // Singular>: 64 size classes of two plus one singleton. Their
        // 2^64 representative combinations must send the search down
        // the greedy branch, not wrap to 0 and enumerate forever.
        let spd = Operand::plain(Features::new(Structure::Symmetric, Property::Spd));
        let operands: Vec<Operand> = (0..128)
            .map(|i| if i % 2 == 0 { spd } else { g() })
            .collect();
        let shape = Shape::new(operands).unwrap();
        assert_eq!(shape.size_classes().num_classes(), 65);
        let mut session = CompileSession::with_options(CompileOptions {
            training_instances: 4,
            ..CompileOptions::default()
        });
        let chain = session.compile(&shape).unwrap();
        assert!(!chain.variants().is_empty());
        assert!(chain.variants().len() <= 65);
    }
}
