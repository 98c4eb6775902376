//! The vectorized selection engine: lane primitives behind the
//! runtime-dispatch ladder (AVX-512 > AVX2 > portable), plus the
//! **canonical blocked reduction order** that makes every rung
//! bit-identical.
//!
//! # Why a canonical order
//!
//! Floating-point addition does not reassociate, so a naive "sum the
//! penalties with SIMD" would produce different bits than the scalar
//! loop, and selection results would depend on the host CPU. Instead,
//! every reduction in the selection hot path — the Algorithm-1 penalty
//! sums ([`penalty_sum`]), the max-penalty fold ([`penalty_max`]), and
//! the first-strict-minimum scans ([`argmin_first`]) — follows one fixed
//! order on **all** rungs, scalar included:
//!
//! 1. **Blocked accumulation.** Eight partial accumulators `acc[0..8]`
//!    (one per f64 lane of a 512-bit vector); element `i` folds into
//!    `acc[i % 8]`, blocks of eight processed in index order. The
//!    scalar rung runs the same eight accumulators in a software loop;
//!    the AVX2 rung runs them as two 4-lane registers; the AVX-512 rung
//!    as one 8-lane register. The per-lane operation sequence is
//!    identical in all three, so the partial sums match bit for bit.
//! 2. **Tail.** The `len % 8` remainder folds element `j` into `acc[j]`
//!    scalar-wise on every rung.
//! 3. **Deterministic tree reduce.** The eight accumulators combine as
//!    `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))` (or the same tree with
//!    `max`).
//!
//! This order **supersedes** the straight left-to-right fold the scalar
//! selection code used before the engine existed (and the
//! `powi`-per-monomial order of [`gmc_ir::Poly::eval`] for cost-matrix
//! cells — see [`CompiledPoly`]); values may differ from the old fold in
//! the final ulp, and the blocked order is now the pinned reference.
//! Selection stays deterministic across hosts because every rung
//! reproduces it exactly.
//!
//! Element-wise kernels ([`min_in_place`], the `min`/`penalty` steps
//! inside the reductions, and [`CompiledPoly::eval_rows`], which
//! vectorizes *across instances* so each cell keeps a fixed scalar
//! operation sequence) need no such care: they reassociate nothing.
//!
//! # Dispatch ladder
//!
//! [`active_level`] is the best rung the executing CPU supports
//! (detected once); production selection always runs on it. The
//! `*_level` entry points take an explicit [`SimdLevel`] instead, which
//! is how tests and benches pin the portable reference against every
//! rung of [`available_levels`]. Every public function clamps an
//! explicitly requested level to what the CPU supports, so the `unsafe`
//! `#[target_feature]` kernels are only ever entered after a positive
//! runtime feature check — the same contract `gmc_linalg::gemm` uses.
//!
//! # Numeric preconditions
//!
//! The engine assumes costs are non-NaN (cost polynomials over finite
//! sizes and measured rates always are). `min`/`max` lane instructions
//! and the `optimal > 0` penalty mask resolve NaN inputs differently
//! from their scalar `f64` counterparts, so with NaN costs the
//! bit-identity guarantee (and nothing else) would be lost.

use gmc_ir::{Instance, Poly};
use std::sync::OnceLock;

/// Number of f64 lanes in the widest rung (one 512-bit register); also
/// the accumulator count of the canonical blocked reduction.
pub const LANES: usize = 8;

/// A rung of the selection engine's runtime-dispatch ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Pure-Rust scalar loops (the reference implementation of the
    /// canonical order; always available).
    Portable,
    /// 256-bit lanes (`avx2`): the blocked reduction runs as two 4-lane
    /// registers.
    Avx2,
    /// 512-bit lanes (`avx512f`): one 8-lane register per reduction.
    Avx512,
}

impl SimdLevel {
    /// Stable lower-case name (`portable` / `avx2` / `avx512`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The rung selection runs on: the best one the executing CPU supports
/// (detected once, then cached).
#[must_use]
pub fn active_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if std::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Portable
    })
}

/// Clamp an explicitly requested level to what the CPU can actually
/// run: the safety gate in front of every `#[target_feature]` kernel.
fn clamp(level: SimdLevel) -> SimdLevel {
    level.min(active_level())
}

/// The penalty of one instance (Eq. 2), in the exact operation order
/// every rung uses: `best / optimal - 1`, gated on `optimal > 0`.
#[inline]
fn penalty_elem(best: f64, optimal: f64) -> f64 {
    if optimal > 0.0 {
        best / optimal - 1.0
    } else {
        0.0
    }
}

/// The canonical deterministic tree combine of the eight lane
/// accumulators.
#[inline]
fn tree_reduce<const MAX: bool>(acc: [f64; LANES]) -> f64 {
    let c = |a: f64, b: f64| if MAX { a.max(b) } else { a + b };
    c(
        c(c(acc[0], acc[1]), c(acc[2], acc[3])),
        c(c(acc[4], acc[5]), c(acc[6], acc[7])),
    )
}

/// Scalar rung of the blocked penalty fold: full blocks only.
fn penalty_lanes_scalar<const MAX: bool, const ROW: bool>(
    best: &[f64],
    row: &[f64],
    opt: &[f64],
    blocks: usize,
    init: f64,
) -> [f64; LANES] {
    let mut acc = [init; LANES];
    for k in 0..blocks {
        for (l, a) in acc.iter_mut().enumerate() {
            let i = k * LANES + l;
            let m = if ROW { best[i].min(row[i]) } else { best[i] };
            let p = penalty_elem(m, opt[i]);
            *a = if MAX { a.max(p) } else { *a + p };
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `unsafe` lane kernels. Every function here carries its own
    //! `#[target_feature]` so portable builds still contain it, and is
    //! only reachable through the clamped dispatchers in the parent
    //! module — the runtime feature check is the safety contract.
    use super::LANES;
    use std::arch::x86_64::*;

    /// AVX-512 rung of the blocked penalty fold (full blocks only).
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` on the executing CPU.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn penalty_lanes_avx512<const MAX: bool, const ROW: bool>(
        best: &[f64],
        row: &[f64],
        opt: &[f64],
        blocks: usize,
        init: f64,
    ) -> [f64; LANES] {
        unsafe {
            let mut acc = _mm512_set1_pd(init);
            let zero = _mm512_setzero_pd();
            let one = _mm512_set1_pd(1.0);
            for k in 0..blocks {
                let i = k * LANES;
                let b = _mm512_loadu_pd(best.as_ptr().add(i));
                let m = if ROW {
                    _mm512_min_pd(b, _mm512_loadu_pd(row.as_ptr().add(i)))
                } else {
                    b
                };
                let o = _mm512_loadu_pd(opt.as_ptr().add(i));
                let gt = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(o, zero);
                let p = _mm512_maskz_mov_pd(gt, _mm512_sub_pd(_mm512_div_pd(m, o), one));
                acc = if MAX {
                    _mm512_max_pd(acc, p)
                } else {
                    _mm512_add_pd(acc, p)
                };
            }
            let mut out = [0.0f64; LANES];
            _mm512_storeu_pd(out.as_mut_ptr(), acc);
            out
        }
    }

    /// AVX2 rung: the same eight accumulators as two 4-lane registers.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` on the executing CPU.
    #[target_feature(enable = "avx2")]
    pub unsafe fn penalty_lanes_avx2<const MAX: bool, const ROW: bool>(
        best: &[f64],
        row: &[f64],
        opt: &[f64],
        blocks: usize,
        init: f64,
    ) -> [f64; LANES] {
        unsafe {
            let mut acc_lo = _mm256_set1_pd(init);
            let mut acc_hi = _mm256_set1_pd(init);
            let zero = _mm256_setzero_pd();
            let one = _mm256_set1_pd(1.0);
            for k in 0..blocks {
                for (half, acc) in [&mut acc_lo, &mut acc_hi].into_iter().enumerate() {
                    let i = k * LANES + half * 4;
                    let b = _mm256_loadu_pd(best.as_ptr().add(i));
                    let m = if ROW {
                        _mm256_min_pd(b, _mm256_loadu_pd(row.as_ptr().add(i)))
                    } else {
                        b
                    };
                    let o = _mm256_loadu_pd(opt.as_ptr().add(i));
                    // All-ones where o > 0: AND-masking zeroes the
                    // penalty exactly like the scalar `optimal > 0` gate.
                    let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(o, zero);
                    let p = _mm256_and_pd(gt, _mm256_sub_pd(_mm256_div_pd(m, o), one));
                    *acc = if MAX {
                        _mm256_max_pd(*acc, p)
                    } else {
                        _mm256_add_pd(*acc, p)
                    };
                }
            }
            let mut out = [0.0f64; LANES];
            _mm256_storeu_pd(out.as_mut_ptr(), acc_lo);
            _mm256_storeu_pd(out.as_mut_ptr().add(4), acc_hi);
            out
        }
    }

    /// AVX-512 element-wise `dst = min(dst, src)` over full 8-blocks.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` on the executing CPU.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn min_blocks_avx512(dst: &mut [f64], src: &[f64], blocks: usize) {
        unsafe {
            for k in 0..blocks {
                let i = k * LANES;
                let d = _mm512_loadu_pd(dst.as_ptr().add(i));
                let s = _mm512_loadu_pd(src.as_ptr().add(i));
                _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_min_pd(d, s));
            }
        }
    }

    /// AVX2 element-wise `dst = min(dst, src)` over full 4-blocks.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` on the executing CPU.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_blocks_avx2(dst: &mut [f64], src: &[f64], blocks: usize) {
        unsafe {
            for k in 0..blocks {
                let i = k * 4;
                let d = _mm256_loadu_pd(dst.as_ptr().add(i));
                let s = _mm256_loadu_pd(src.as_ptr().add(i));
                _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_min_pd(d, s));
            }
        }
    }

    /// AVX-512 block pre-filter for the first-strict-minimum scan:
    /// `true` if any lane of `vals[i..i + 8]` is `< cur`.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` on the executing CPU;
    /// `i + 8 <= vals.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn any_lt_avx512(vals: &[f64], i: usize, cur: f64) -> bool {
        unsafe {
            let v = _mm512_loadu_pd(vals.as_ptr().add(i));
            _mm512_cmp_pd_mask::<_CMP_LT_OQ>(v, _mm512_set1_pd(cur)) != 0
        }
    }

    /// AVX2 block pre-filter: `true` if any lane of `vals[i..i + 4]` is
    /// `< cur`.
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx2` on the executing CPU;
    /// `i + 4 <= vals.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn any_lt_avx2(vals: &[f64], i: usize, cur: f64) -> bool {
        unsafe {
            let v = _mm256_loadu_pd(vals.as_ptr().add(i));
            let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(v, _mm256_set1_pd(cur));
            _mm256_movemask_pd(lt) != 0
        }
    }

    /// AVX-512 compiled-polynomial row evaluation over full 8-blocks of
    /// instances (see [`super::CompiledPoly::eval_rows`]).
    ///
    /// # Safety
    ///
    /// Caller must have verified `avx512f` on the executing CPU, and
    /// that every `vars` entry `v` satisfies
    /// `(v + 1) * ni <= lanes.len()` with `out.len() >= blocks * 8` and
    /// `blocks * 8 <= ni`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn poly_rows_avx512(
        coeffs: &[f64],
        offsets: &[u32],
        vars: &[u32],
        lanes: &[f64],
        ni: usize,
        out: &mut [f64],
        blocks: usize,
    ) {
        unsafe {
            let base = lanes.as_ptr();
            for k in 0..blocks {
                let i = k * LANES;
                let mut acc = _mm512_setzero_pd();
                for (t, &c) in coeffs.iter().enumerate() {
                    let mut w = _mm512_set1_pd(c);
                    for &v in &vars[offsets[t] as usize..offsets[t + 1] as usize] {
                        w = _mm512_mul_pd(w, _mm512_loadu_pd(base.add(v as usize * ni + i)));
                    }
                    acc = _mm512_add_pd(acc, w);
                }
                _mm512_storeu_pd(out.as_mut_ptr().add(i), acc);
            }
        }
    }

    /// AVX2 compiled-polynomial row evaluation over full 4-blocks.
    ///
    /// # Safety
    ///
    /// As [`poly_rows_avx512`] with 4-element blocks.
    #[target_feature(enable = "avx2")]
    pub unsafe fn poly_rows_avx2(
        coeffs: &[f64],
        offsets: &[u32],
        vars: &[u32],
        lanes: &[f64],
        ni: usize,
        out: &mut [f64],
        blocks: usize,
    ) {
        unsafe {
            let base = lanes.as_ptr();
            for k in 0..blocks {
                let i = k * 4;
                let mut acc = _mm256_setzero_pd();
                for (t, &c) in coeffs.iter().enumerate() {
                    let mut w = _mm256_set1_pd(c);
                    for &v in &vars[offsets[t] as usize..offsets[t + 1] as usize] {
                        w = _mm256_mul_pd(w, _mm256_loadu_pd(base.add(v as usize * ni + i)));
                    }
                    acc = _mm256_add_pd(acc, w);
                }
                _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            }
        }
    }
}

/// Shared driver of the blocked penalty fold: lane kernel for the full
/// blocks, scalar tail into `acc[j]`, canonical tree reduce.
fn penalty_reduce<const MAX: bool>(
    level: SimdLevel,
    best: &[f64],
    row: Option<&[f64]>,
    opt: &[f64],
) -> f64 {
    let n = best.len();
    assert_eq!(opt.len(), n, "one optimum per instance");
    if let Some(r) = row {
        assert_eq!(r.len(), n, "one candidate cost per instance");
    }
    let init = if MAX { f64::NEG_INFINITY } else { 0.0 };
    let blocks = n / LANES;
    let r = row.unwrap_or(&[]);
    let mut acc = match (clamp(level), row.is_some()) {
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx512, true) => unsafe {
            x86::penalty_lanes_avx512::<MAX, true>(best, r, opt, blocks, init)
        },
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx512, false) => unsafe {
            x86::penalty_lanes_avx512::<MAX, false>(best, r, opt, blocks, init)
        },
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx2, true) => unsafe {
            x86::penalty_lanes_avx2::<MAX, true>(best, r, opt, blocks, init)
        },
        #[cfg(target_arch = "x86_64")]
        (SimdLevel::Avx2, false) => unsafe {
            x86::penalty_lanes_avx2::<MAX, false>(best, r, opt, blocks, init)
        },
        (_, true) => penalty_lanes_scalar::<MAX, true>(best, r, opt, blocks, init),
        (_, false) => penalty_lanes_scalar::<MAX, false>(best, r, opt, blocks, init),
    };
    for (l, a) in acc.iter_mut().enumerate().take(n - blocks * LANES) {
        let i = blocks * LANES + l;
        let m = match row {
            Some(r) => best[i].min(r[i]),
            None => best[i],
        };
        let p = penalty_elem(m, opt[i]);
        *a = if MAX { a.max(p) } else { *a + p };
    }
    tree_reduce::<MAX>(acc)
}

/// Canonical blocked **sum** of per-instance penalties.
///
/// With `row = Some(c)` the best-in-set cost of instance `i` is
/// `min(best[i], c[i])` — the incremental candidate score of
/// Algorithm 1; with `None` it is `best[i]` — the objective of the
/// current set. Returns `0.0` for empty inputs (callers decide what an
/// empty sample means).
///
/// # Panics
///
/// Panics if the slice lengths disagree.
#[must_use]
pub fn penalty_sum(level: SimdLevel, best: &[f64], row: Option<&[f64]>, optimal: &[f64]) -> f64 {
    penalty_reduce::<false>(level, best, row, optimal)
}

/// Canonical blocked **max** of per-instance penalties (same contract
/// as [`penalty_sum`]; empty input yields `-inf`, matching a fold over
/// nothing seeded with the identity).
///
/// # Panics
///
/// Panics if the slice lengths disagree.
#[must_use]
pub fn penalty_max(level: SimdLevel, best: &[f64], row: Option<&[f64]>, optimal: &[f64]) -> f64 {
    penalty_reduce::<true>(level, best, row, optimal)
}

/// Element-wise `dst[i] = min(dst[i], src[i])`: the column-minima fold
/// of the cost matrix and the best-in-set update of Algorithm 1. `min`
/// is exact, so every rung (and any fold order) is bit-identical.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn min_in_place(level: SimdLevel, dst: &mut [f64], src: &[f64]) {
    let n = dst.len();
    assert_eq!(src.len(), n, "min_in_place needs equal lengths");
    let done = match clamp(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            let blocks = n / LANES;
            unsafe { x86::min_blocks_avx512(dst, src, blocks) };
            blocks * LANES
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let blocks = n / 4;
            unsafe { x86::min_blocks_avx2(dst, src, blocks) };
            blocks * 4
        }
        _ => 0,
    };
    for (d, &s) in dst[done..].iter_mut().zip(&src[done..]) {
        *d = d.min(s);
    }
}

/// The first strict minimum of `values` (index and value): scan in
/// index order, take `values[i]` only when strictly below the current
/// best — the tie-break rule shared by the candidate scan and the DP
/// final-state fold. Vector rungs pre-filter whole blocks with a
/// `< current` lane compare and fall back to the scalar scan inside a
/// hit block, so the result is identical on every rung (NaNs compare
/// false and are skipped, exactly as in the scalar loop). `None` when
/// `values` is empty or all-`INFINITY`/NaN.
#[must_use]
pub fn argmin_first(level: SimdLevel, values: &[f64]) -> Option<(usize, f64)> {
    let mut cur = f64::INFINITY;
    let mut idx: Option<usize> = None;
    fn take(i: usize, v: f64, cur: &mut f64, idx: &mut Option<usize>) {
        if v < *cur {
            *cur = v;
            *idx = Some(i);
        }
    }
    /// Block pre-filter: `true` if any of `width` lanes at `i` is `< cur`.
    type AnyLtFn = fn(&[f64], usize, f64) -> bool;
    let (width, vector): (usize, Option<AnyLtFn>) = match clamp(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => (
            LANES,
            Some(|vals, i, cur| unsafe { x86::any_lt_avx512(vals, i, cur) }),
        ),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => (
            4,
            Some(|vals, i, cur| unsafe { x86::any_lt_avx2(vals, i, cur) }),
        ),
        _ => (1, None),
    };
    match vector {
        Some(any_lt) => {
            let blocks = values.len() / width;
            for k in 0..blocks {
                let i = k * width;
                if any_lt(values, i, cur) {
                    for (l, &v) in values[i..i + width].iter().enumerate() {
                        take(i + l, v, &mut cur, &mut idx);
                    }
                }
            }
            for (i, &v) in values.iter().enumerate().skip(blocks * width) {
                take(i, v, &mut cur, &mut idx);
            }
        }
        None => {
            for (i, &v) in values.iter().enumerate() {
                take(i, v, &mut cur, &mut idx);
            }
        }
    }
    idx.map(|i| (i, cur))
}

/// Instance sizes transposed into symbol-major f64 lanes: `symbol(s)`
/// is the contiguous vector of `q_s` over all instances, which is what
/// [`CompiledPoly::eval_rows`] streams 8 (or 4) instances at a time.
/// Refilled in place, so a session-owned matrix reuses one allocation.
#[derive(Debug, Clone, Default)]
pub struct SizeLanes {
    data: Vec<f64>,
    ni: usize,
}

impl SizeLanes {
    /// Transpose `instances` into the lane buffer (reusing capacity).
    ///
    /// # Panics
    ///
    /// Panics if the instances disagree on the symbol count.
    pub fn fill(&mut self, instances: &[Instance]) {
        self.ni = instances.len();
        let nsym = instances.first().map_or(0, Instance::len);
        self.data.clear();
        self.data.resize(nsym * self.ni, 0.0);
        for (i, q) in instances.iter().enumerate() {
            assert_eq!(q.len(), nsym, "instances must share a symbol count");
            for (s, &v) in q.sizes().iter().enumerate() {
                self.data[s * self.ni + i] = v as f64;
            }
        }
    }

    /// Number of instances (the length of every symbol lane).
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.ni
    }

    /// Number of size symbols.
    #[must_use]
    pub fn num_symbols(&self) -> usize {
        self.data.len().checked_div(self.ni).unwrap_or(0)
    }

    /// The values of symbol `s` over all instances.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds symbol.
    #[must_use]
    pub fn symbol(&self, s: usize) -> &[f64] {
        &self.data[s * self.ni..(s + 1) * self.ni]
    }
}

/// A cost polynomial flattened for streaming evaluation: one f64
/// coefficient per term and each monomial's variables repeated by
/// exponent, so a term evaluates as `((c * q_a) * q_b) * ...` — a fixed
/// multiply chain with **no** `powi` and no B-tree walk.
///
/// This sequential-multiply order is the engine's canonical per-cell
/// order for cost-matrix fills. It supersedes [`Poly::eval`] (which
/// computes `c * (q_a^e * ...)` through `powi`) as the reference for
/// selection: the two can differ in the final ulp, but every engine
/// rung reproduces the compiled order exactly — vectorization is across
/// *instances*, so each cell's operation sequence never changes with
/// the lane width.
#[derive(Debug, Clone)]
pub struct CompiledPoly {
    coeffs: Vec<f64>,
    /// `terms + 1` offsets into `vars` (`offsets[0] == 0`).
    offsets: Vec<u32>,
    /// Variable indices, each repeated by its exponent.
    vars: Vec<u32>,
    /// Highest variable index referenced (for the eval bounds check).
    max_var: usize,
}

impl Default for CompiledPoly {
    fn default() -> Self {
        CompiledPoly::new()
    }
}

impl CompiledPoly {
    /// An empty program (evaluates to 0 everywhere), ready to
    /// [`CompiledPoly::compile`] into.
    #[must_use]
    pub fn new() -> Self {
        CompiledPoly {
            coeffs: Vec::new(),
            offsets: vec![0],
            vars: Vec::new(),
            max_var: 0,
        }
    }

    /// Flatten `poly` (reusing this program's buffers), in the
    /// polynomial's canonical term order.
    pub fn compile(&mut self, poly: &Poly) {
        self.coeffs.clear();
        self.vars.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.max_var = 0;
        for (mono, coeff) in poly.iter() {
            self.coeffs.push(coeff.to_f64());
            for &(v, e) in mono.factors() {
                self.max_var = self.max_var.max(v);
                for _ in 0..e {
                    self.vars
                        .push(u32::try_from(v).expect("symbol index fits u32"));
                }
            }
            self.offsets
                .push(u32::try_from(self.vars.len()).expect("factor count fits u32"));
        }
    }

    /// One cell in the canonical order (shared by the scalar rung and
    /// every vector tail).
    fn eval_cell(&self, lanes: &SizeLanes, i: usize) -> f64 {
        let mut acc = 0.0;
        for (t, &c) in self.coeffs.iter().enumerate() {
            let mut w = c;
            for &v in &self.vars[self.offsets[t] as usize..self.offsets[t + 1] as usize] {
                w *= lanes.symbol(v as usize)[i];
            }
            acc += w;
        }
        acc
    }

    /// Evaluate this polynomial on every instance of `lanes`, writing
    /// one value per instance into `out`. Bit-identical on every rung.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != lanes.num_instances()` or the polynomial
    /// references a symbol the lanes do not carry.
    pub fn eval_rows(&self, level: SimdLevel, lanes: &SizeLanes, out: &mut [f64]) {
        let ni = lanes.num_instances();
        assert_eq!(out.len(), ni, "one output cell per instance");
        assert!(
            self.vars.is_empty() || self.max_var < lanes.num_symbols(),
            "polynomial references symbol {} but lanes carry {}",
            self.max_var,
            lanes.num_symbols()
        );
        let done = match clamp(level) {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => {
                let blocks = ni / LANES;
                unsafe {
                    x86::poly_rows_avx512(
                        &self.coeffs,
                        &self.offsets,
                        &self.vars,
                        &lanes.data,
                        ni,
                        out,
                        blocks,
                    );
                }
                blocks * LANES
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => {
                let blocks = ni / 4;
                unsafe {
                    x86::poly_rows_avx2(
                        &self.coeffs,
                        &self.offsets,
                        &self.vars,
                        &lanes.data,
                        ni,
                        out,
                        blocks,
                    );
                }
                blocks * 4
            }
            _ => 0,
        };
        for (i, o) in out.iter_mut().enumerate().skip(done) {
            *o = self.eval_cell(lanes, i);
        }
    }
}

/// Every ladder rung the executing CPU can run, bottom to top — the
/// iteration set for cross-rung bit-identity tests.
#[must_use]
pub fn available_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Portable];
    if active_level() >= SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    if active_level() >= SimdLevel::Avx512 {
        levels.push(SimdLevel::Avx512);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_ir::Ratio;

    /// The documented canonical order, written out naively.
    fn reference_sum(best: &[f64], row: Option<&[f64]>, opt: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..best.len() {
            let m = match row {
                Some(r) => best[i].min(r[i]),
                None => best[i],
            };
            acc[i % LANES] += penalty_elem(m, opt[i]);
        }
        tree_reduce::<false>(acc)
    }

    fn wobble(i: usize) -> f64 {
        // Deterministic awkward values: many ulp-sensitive digits.
        1.0 + ((i * 2654435761) % 1000003) as f64 / 9973.0
    }

    #[test]
    fn blocked_sum_matches_documented_order_on_every_rung() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 400] {
            let best: Vec<f64> = (0..n).map(|i| wobble(i) * 3.0).collect();
            let row: Vec<f64> = (0..n).map(|i| wobble(i + 17) * 2.9).collect();
            let opt: Vec<f64> = (0..n)
                .map(|i| if i % 13 == 0 { 0.0 } else { wobble(i + 5) })
                .collect();
            let want = reference_sum(&best, Some(&row), &opt);
            let want_plain = reference_sum(&best, None, &opt);
            for level in available_levels() {
                let got = penalty_sum(level, &best, Some(&row), &opt);
                assert_eq!(got.to_bits(), want.to_bits(), "{level:?} n={n}");
                let got = penalty_sum(level, &best, None, &opt);
                assert_eq!(got.to_bits(), want_plain.to_bits(), "{level:?} n={n}");
            }
        }
    }

    #[test]
    fn blocked_max_is_the_true_max_and_rung_identical() {
        for n in [1usize, 9, 63, 400] {
            let best: Vec<f64> = (0..n).map(|i| wobble(i) * 4.0).collect();
            let opt: Vec<f64> = (0..n).map(|i| wobble(i + 3)).collect();
            let naive = best
                .iter()
                .zip(&opt)
                .map(|(&b, &o)| penalty_elem(b, o))
                .fold(f64::NEG_INFINITY, f64::max);
            for level in available_levels() {
                let got = penalty_max(level, &best, None, &opt);
                // max is associative/commutative on non-NaN input, so
                // the blocked order equals the straight fold exactly.
                assert_eq!(got.to_bits(), naive.to_bits(), "{level:?} n={n}");
            }
        }
        assert_eq!(
            penalty_max(SimdLevel::Portable, &[], None, &[]),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn min_in_place_matches_scalar_on_every_rung() {
        for n in [0usize, 1, 7, 8, 9, 63, 400] {
            let src: Vec<f64> = (0..n).map(|i| wobble(i + 7)).collect();
            let mut want: Vec<f64> = (0..n).map(wobble).collect();
            for (d, &s) in want.iter_mut().zip(&src) {
                *d = d.min(s);
            }
            for level in available_levels() {
                let mut dst: Vec<f64> = (0..n).map(wobble).collect();
                min_in_place(level, &mut dst, &src);
                for (a, b) in dst.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{level:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn argmin_first_takes_the_first_strict_minimum() {
        let vals = [5.0, 3.0, 3.0, 7.0, 3.0, 1.0, 1.0, 9.0, 1.0, 2.0];
        for level in available_levels() {
            assert_eq!(argmin_first(level, &vals), Some((5, 1.0)), "{level:?}");
            assert_eq!(argmin_first(level, &[]), None);
            assert_eq!(argmin_first(level, &[f64::INFINITY; 9]), None);
            // Long input with a late winner exercises the block filter.
            let mut long: Vec<f64> = (0..100).map(|i| wobble(i) + 2.0).collect();
            long[97] = 0.5;
            let want = {
                let mut cur = f64::INFINITY;
                let mut idx = None;
                for (i, &v) in long.iter().enumerate() {
                    if v < cur {
                        cur = v;
                        idx = Some(i);
                    }
                }
                idx.map(|i| (i, cur))
            };
            assert_eq!(argmin_first(level, &long), want, "{level:?}");
        }
    }

    #[test]
    fn compiled_poly_streams_the_fixed_multiply_chain() {
        // 2*q0*q1*q2 + 8/3*q1^3 + 5 on a few instances.
        let mut poly = Poly::term(Ratio::from(2), &[(0, 1), (1, 1), (2, 1)]);
        poly += &Poly::term(Ratio::new(8, 3), &[(1, 3)]);
        poly += &Poly::constant(Ratio::from(5));
        let instances: Vec<Instance> = (1..=11)
            .map(|s| Instance::new(vec![s, 2 * s + 1, 3 * s]))
            .collect();
        let mut lanes = SizeLanes::default();
        lanes.fill(&instances);
        let mut cp = CompiledPoly::new();
        cp.compile(&poly);
        let mut reference = vec![0.0; instances.len()];
        cp.eval_rows(SimdLevel::Portable, &lanes, &mut reference);
        // The compiled order is within an ulp-scale distance of
        // Poly::eval and exactly equal where no rounding happens.
        for (q, &got) in instances.iter().zip(&reference) {
            let direct = poly.eval(q.sizes());
            assert!((got - direct).abs() <= 1e-12 * direct.abs().max(1.0));
        }
        for level in available_levels() {
            let mut out = vec![0.0; instances.len()];
            cp.eval_rows(level, &lanes, &mut out);
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{level:?}");
            }
        }
        // Refilled lanes and recompiled programs reuse buffers.
        lanes.fill(&instances[..5]);
        assert_eq!(lanes.num_instances(), 5);
        cp.compile(&poly);
        let mut out = vec![0.0; 5];
        cp.eval_rows(SimdLevel::Portable, &lanes, &mut out);
        for (o, r) in out.iter().zip(&reference) {
            assert_eq!(o.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn active_level_is_the_top_available_rung() {
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Portable);
        assert_eq!(levels.last(), Some(&active_level()));
        assert_eq!(clamp(SimdLevel::Avx512), active_level());
    }
}
