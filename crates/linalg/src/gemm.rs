//! Cache-blocked, packed GEMM in the BLIS style.
//!
//! # Algorithm
//!
//! The kernel follows the five-loop blocked decomposition of Goto/BLIS:
//!
//! ```text
//! for jc in 0..n step NC            // B column stripes      (L3 / memory)
//!   for pc in 0..k step KC          // depth panels          (Bp -> L2/L3)
//!     pack Bp = op(B)[pc.., jc..]   // KC x NC, NR-column micro-panels
//!     for ic in 0..m step MC        // A row blocks          (Ap -> L2)
//!       pack Ap = op(A)[ic.., pc..] // MC x KC, MR-row micro-panels
//!       for jr in 0..NC step NR     // micro-panel of Bp     (L1)
//!         for ir in 0..MC step MR   // micro-panel of Ap     (registers)
//!           C[ic+ir.., jc+jr..] += alpha * micro(MR x NR)
//! ```
//!
//! The micro-kernel keeps an `MR x NR` tile of C in registers and streams
//! the packed panels with unit stride, so the innermost loop is a pure
//! FMA/mul-add sweep the compiler can vectorize. Both transpose flags are
//! absorbed by the *packing* routines (a transposed operand is just a
//! different stride pair), which is why the four `(ta, tb)` combinations
//! of the seed's scalar kernel collapse into one blocked core.
//!
//! # Blocking parameters
//!
//! | param | value      | constraint |
//! |-------|------------|------------|
//! | `MR`  | 16         | rows of the register tile (multiple of the SIMD width) |
//! | `NR`  | 14, 4 or 6 | columns of the register tile (14 AVX-512, 4 AVX2, else 6) |
//! | `KC`  | 256        | depth panel; a `KC x NR` B micro-panel stays near L1 |
//! | `MC`  | 128        | row block; the packed `MC x KC` A block stays L2-resident |
//! | `NC`  | 4096       | column stripe; bounds the packed B stripe (`KC*NC` doubles) |
//!
//! On x86-64 the micro-kernel is selected **at runtime** down a
//! three-rung ladder, so binaries built without `target-cpu=native`
//! still hit the widest path the executing CPU supports:
//!
//! 1. `avx512f` → an explicit `std::arch` 16x14 tile in 28 zmm
//!    accumulators (`#[target_feature(enable = "avx512f")]`);
//! 2. `avx2` + `fma` → a 16x4 tile filling all 16 ymm registers with
//!    accumulators, for the in-between host generations;
//! 3. otherwise (and on every other architecture) a safe
//!    autovectorizable 16x6 kernel.
//!
//! Detection is a cached flag, checked once per `gemm_core` call, far
//! outside the inner loops. Measured numbers are tracked in
//! `BENCH_gemm.json` via `cargo run --release --bin bench_gemm`.
//!
//! Padding in the packed buffers makes every micro-kernel invocation a
//! full `MR x NR` tile; ragged edges only affect the write-back mask, so
//! arbitrary (non-multiple) sizes run the same inner loop.
//!
//! # Workspace
//!
//! Packing buffers come from a [`GemmWorkspace`]: pass one explicitly via
//! [`gemm_with`] to amortize across repeated multiplies (e.g. chain
//! execution), or use [`gemm`], which draws from a thread-local workspace
//! and therefore performs **no allocation after the first call** on a
//! given thread for a given problem size. Every call runs serially on
//! the calling thread; callers run independent multiplies side by side.
//!
//! # Small problems
//!
//! Packing costs `O(mk + kn)` moves; below [`BLOCKED_MIN_WORK`]
//! multiply-adds the dispatcher falls back to the seed's scalar kernel
//! ([`gemm_scalar`]), which is kept both as that fallback and as the
//! reference baseline recorded in `BENCH_gemm.json`.

use crate::matrix::{Matrix, Transpose};
use std::cell::RefCell;

/// Rows of the register micro-tile.
pub const MR: usize = 16;
/// Columns of the AVX-512 register micro-tile: a 16x14 tile holds 28 zmm
/// accumulators + 2 A vectors + 1 broadcast = 31 of 32 registers (the
/// BLIS skylake-x shape).
#[cfg(target_arch = "x86_64")]
const NR_AVX512: usize = 14;
/// Columns of the AVX2 register micro-tile: 16x4 keeps the accumulator in
/// all 16 ymm registers; the A vectors fold into the FMA's memory
/// operand, so only the B broadcast transiently spills. Selected on hosts
/// with AVX2+FMA but no AVX-512 (the "in-between" generations).
#[cfg(target_arch = "x86_64")]
const NR_AVX2: usize = 4;
/// Columns of the portable register micro-tile: 16x6 keeps the
/// autovectorized kernel inside 16 ymm registers' worth of accumulators
/// without spilling.
const NR_PORTABLE: usize = 6;
/// Columns of the *widest* micro-tile the runtime dispatcher may select
/// on this architecture (the actual tile is chosen per process by CPU
/// feature detection; see the module docs).
#[cfg(target_arch = "x86_64")]
pub const NR: usize = NR_AVX512;
#[cfg(not(target_arch = "x86_64"))]
#[allow(missing_docs)]
pub const NR: usize = NR_PORTABLE;
/// Depth (k) blocking: length of packed micro-panels.
pub const KC: usize = 256;
/// Row (m) blocking: rows of A packed per block.
pub const MC: usize = 128;
/// Column (n) blocking: width of a packed B stripe.
pub const NC: usize = 4096;

/// Minimum `m*n*k` for the blocked path; below this the scalar kernel's
/// zero packing overhead wins.
pub const BLOCKED_MIN_WORK: usize = 32 * 32 * 32;

/// Fused multiply-add when the target has hardware FMA; plain mul+add
/// otherwise (`f64::mul_add` without the `fma` target feature lowers to a
/// libm call, which would be ruinous in the inner loop).
#[inline(always)]
fn fmadd(a: f64, b: f64, acc: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}

/// Reusable packing buffers for the blocked kernel.
///
/// Buffers grow on demand and are never shrunk, so repeated multiplies of
/// the same (or smaller) problem sizes are allocation-free.
#[derive(Default, Debug)]
pub struct GemmWorkspace {
    ap: Vec<f64>,
    bp: Vec<f64>,
}

impl GemmWorkspace {
    /// An empty workspace; buffers are sized lazily by the kernel.
    #[must_use]
    pub fn new() -> Self {
        GemmWorkspace::default()
    }

    /// Bytes currently held by the packing buffers.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        (self.ap.capacity() + self.bp.capacity()) * std::mem::size_of::<f64>()
    }
}

thread_local! {
    static TLS_WS: RefCell<GemmWorkspace> = RefCell::new(GemmWorkspace::new());
}

/// General matrix-matrix multiply: `C := alpha * op(A) * op(B) + beta * C`.
///
/// Dispatches to the cache-blocked packed kernel (see the module docs) for
/// problems above [`BLOCKED_MIN_WORK`] multiply-adds and to the scalar
/// kernel below it, using a thread-local packing workspace.
///
/// # Panics
///
/// Panics if the operand dimensions are inconsistent.
///
/// # Example
///
/// ```
/// use gmc_linalg::{gemm, Matrix, Transpose};
/// let a = Matrix::identity(3);
/// let b = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
/// let mut c = Matrix::zeros(3, 2);
/// gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
/// assert_eq!(c, b);
/// ```
pub fn gemm(
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, n, k) = check_dims(a, ta, b, tb, c);
    scale_beta(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k < BLOCKED_MIN_WORK {
        scalar_core(alpha, a, ta, b, tb, c);
    } else {
        blocked_entry(m, n, k, alpha, a, ta, b, tb, c);
    }
}

/// [`gemm`] with a caller-provided workspace (always the blocked kernel
/// when the problem clears [`BLOCKED_MIN_WORK`]).
///
/// Use this when the caller executes many multiplies and wants packing
/// buffers reused deterministically instead of per-thread.
///
/// # Panics
///
/// Panics if the operand dimensions are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    ws: &mut GemmWorkspace,
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, n, k) = check_dims(a, ta, b, tb, c);
    scale_beta(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k < BLOCKED_MIN_WORK {
        scalar_core(alpha, a, ta, b, tb, c);
        return;
    }
    blocked_with(ws, m, n, k, alpha, a, ta, b, tb, c);
}

/// Force the blocked kernel regardless of problem size (test/bench entry
/// point; [`gemm`] normally handles dispatch).
///
/// # Panics
///
/// Panics if the operand dimensions are inconsistent.
pub fn gemm_blocked(
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, n, k) = check_dims(a, ta, b, tb, c);
    scale_beta(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    blocked_entry(m, n, k, alpha, a, ta, b, tb, c);
}

/// The seed's scalar kernel: column-axpy with a panel-of-four update.
///
/// Kept as the small-problem fallback, as the correctness reference for
/// the blocked kernel, and as the baseline the `BENCH_gemm.json`
/// trajectory compares against.
///
/// # Panics
///
/// Panics if the operand dimensions are inconsistent.
pub fn gemm_scalar(
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, n, k) = check_dims(a, ta, b, tb, c);
    scale_beta(c, beta);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    scalar_core(alpha, a, ta, b, tb, c);
}

/// Convenience wrapper computing `op(A) * op(B)` into a fresh matrix.
#[must_use]
pub fn matmul(a: &Matrix, ta: Transpose, b: &Matrix, tb: Transpose) -> Matrix {
    let (m, _) = dims(a, ta);
    let (_, n) = dims(b, tb);
    let mut c = Matrix::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

fn dims(x: &Matrix, t: Transpose) -> (usize, usize) {
    match t {
        Transpose::No => (x.rows(), x.cols()),
        Transpose::Yes => (x.cols(), x.rows()),
    }
}

/// `(row stride, column stride)` of `op(X)` over X's column-major data.
pub(crate) fn op_strides(x: &Matrix, t: Transpose) -> (usize, usize) {
    match t {
        Transpose::No => (1, x.rows()),
        Transpose::Yes => (x.rows(), 1),
    }
}

fn check_dims(
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    c: &Matrix,
) -> (usize, usize, usize) {
    let (m, ka) = dims(a, ta);
    let (kb, n) = dims(b, tb);
    assert_eq!(ka, kb, "gemm: inner dimensions differ ({ka} vs {kb})");
    assert_eq!(c.rows(), m, "gemm: C has wrong row count");
    assert_eq!(c.cols(), n, "gemm: C has wrong column count");
    (m, n, ka)
}

fn scale_beta(c: &mut Matrix, beta: f64) {
    if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked core
// ---------------------------------------------------------------------------

/// The blocked kernel on the calling thread's workspace.
#[allow(clippy::too_many_arguments)]
fn blocked_entry(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    c: &mut Matrix,
) {
    TLS_WS.with(|ws| blocked_with(&mut ws.borrow_mut(), m, n, k, alpha, a, ta, b, tb, c));
}

/// The blocked kernel packing into `ws`.
#[allow(clippy::too_many_arguments)]
fn blocked_with(
    ws: &mut GemmWorkspace,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    c: &mut Matrix,
) {
    let (ars, acs) = op_strides(a, ta);
    let (brs, bcs) = op_strides(b, tb);
    let ldc = c.rows();
    gemm_core(
        ws,
        m,
        n,
        k,
        alpha,
        a.as_slice(),
        ars,
        acs,
        b.as_slice(),
        brs,
        bcs,
        c.as_mut_slice(),
        ldc,
    );
}

/// Iterate `(offset, len)` blocks of `total` in steps of `step`.
fn blocks(total: usize, step: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..total.div_ceil(step)).map(move |i| {
        let off = i * step;
        (off, step.min(total - off))
    })
}

fn ensure_len(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Cached runtime CPU-feature probe: `true` when the AVX-512 micro-kernel
/// may run on this machine.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHE: AtomicU8 = AtomicU8::new(0); // 0 = unknown, 1 = no, 2 = yes
    match CACHE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let yes = std::is_x86_feature_detected!("avx512f");
            CACHE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// Cached runtime CPU-feature probe for the middle rung of the dispatch
/// ladder: AVX2 *and* FMA (both are required by the 16x4 kernel, and
/// pre-FMA AVX2 parts exist).
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHE: AtomicU8 = AtomicU8::new(0); // 0 = unknown, 1 = no, 2 = yes
    match CACHE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let yes = std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma");
            CACHE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// The serial blocked kernel over raw strided views:
/// `C[.., ..] += alpha * A_view(m x k) * B_view(k x n)`, with C column-major
/// of leading dimension `ldc`. `beta` must already be applied. Selects the
/// micro-kernel (and its tile width) by runtime CPU feature detection.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core(
    ws: &mut GemmWorkspace,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    ars: usize,
    acs: usize,
    b: &[f64],
    brs: usize,
    bcs: usize,
    c: &mut [f64],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        gemm_core_n::<NR_AVX512>(
            ws,
            m,
            n,
            k,
            alpha,
            a,
            ars,
            acs,
            b,
            brs,
            bcs,
            c,
            ldc,
            micro_kernel_avx512_entry,
        );
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        gemm_core_n::<NR_AVX2>(
            ws,
            m,
            n,
            k,
            alpha,
            a,
            ars,
            acs,
            b,
            brs,
            bcs,
            c,
            ldc,
            micro_kernel_avx2_entry,
        );
        return;
    }
    gemm_core_n::<NR_PORTABLE>(
        ws,
        m,
        n,
        k,
        alpha,
        a,
        ars,
        acs,
        b,
        brs,
        bcs,
        c,
        ldc,
        micro_kernel_portable::<NR_PORTABLE>,
    );
}

/// A micro-kernel entry point: `C_tile += alpha * Ap * Bp` over packed
/// panels, with `(m_eff, n_eff)` masking the ragged write-back.
type MicroKernelFn = fn(f64, &[f64], &[f64], &mut [f64], usize, usize, usize);

/// The blocked core, monomorphized per micro-tile width `NRV`. `micro`
/// must consume `kc x NRV` B panels (enforced by the instantiations in
/// [`gemm_core`]).
#[allow(clippy::too_many_arguments)]
fn gemm_core_n<const NRV: usize>(
    ws: &mut GemmWorkspace,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    ars: usize,
    acs: usize,
    b: &[f64],
    brs: usize,
    bcs: usize,
    c: &mut [f64],
    ldc: usize,
    micro: MicroKernelFn,
) {
    let GemmWorkspace { ap, bp } = ws;
    for (jc, nc) in blocks(n, NC) {
        for (pc, kc) in blocks(k, KC) {
            let nc_r = nc.div_ceil(NRV) * NRV;
            ensure_len(bp, nc_r * kc);
            pack_b::<NRV>(&mut bp[..nc_r * kc], b, brs, bcs, pc, kc, jc, nc);
            for (ic, mc) in blocks(m, MC) {
                let mc_r = mc.div_ceil(MR) * MR;
                ensure_len(ap, mc_r * kc);
                pack_a(&mut ap[..mc_r * kc], a, ars, acs, ic, mc, pc, kc);
                for (jr, nr_eff) in blocks(nc, NRV) {
                    let bpan = &bp[(jr / NRV) * NRV * kc..][..NRV * kc];
                    for (ir, mr_eff) in blocks(mc, MR) {
                        let apan = &ap[(ir / MR) * MR * kc..][..MR * kc];
                        let off = (jc + jr) * ldc + ic + ir;
                        let len = (nr_eff - 1) * ldc + mr_eff;
                        micro(
                            alpha,
                            apan,
                            bpan,
                            &mut c[off..off + len],
                            ldc,
                            mr_eff,
                            nr_eff,
                        );
                    }
                }
            }
        }
    }
}

/// Accumulating strided multiply for the structured kernels:
/// `C += alpha * A_view * B_view` with no beta scaling. Dispatches between
/// the scalar strided loop and the blocked core by problem size, using the
/// thread-local workspace.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_acc_strided(
    alpha: f64,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    ars: usize,
    acs: usize,
    b: &[f64],
    brs: usize,
    bcs: usize,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    if m * n * k < BLOCKED_MIN_WORK {
        for j in 0..n {
            for p in 0..k {
                // No zero-skip here: the blocked path computes 0.0 * x
                // contributions too, and NaN/Inf propagation must not
                // change across the size threshold.
                let bpj = alpha * b[p * brs + j * bcs];
                let col = &mut c[j * ldc..j * ldc + m];
                for (i, ci) in col.iter_mut().enumerate() {
                    *ci += a[i * ars + p * acs] * bpj;
                }
            }
        }
    } else {
        TLS_WS.with(|ws| {
            gemm_core(
                &mut ws.borrow_mut(),
                m,
                n,
                k,
                alpha,
                a,
                ars,
                acs,
                b,
                brs,
                bcs,
                c,
                ldc,
            );
        });
    }
}

/// Pack an `mc x kc` block of the strided A view into MR-row micro-panels,
/// zero-padding the ragged last panel.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ap: &mut [f64],
    a: &[f64],
    ars: usize,
    acs: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    let mut dst = 0;
    let mut ip = 0;
    while ip < mc {
        let rows = MR.min(mc - ip);
        for p in 0..kc {
            let base = (i0 + ip) * ars + (p0 + p) * acs;
            if rows == MR && ars == 1 {
                ap[dst..dst + MR].copy_from_slice(&a[base..base + MR]);
            } else {
                for i in 0..rows {
                    ap[dst + i] = a[base + i * ars];
                }
                ap[dst + rows..dst + MR].fill(0.0);
            }
            dst += MR;
        }
        ip += MR;
    }
}

/// Pack a `kc x nc` block of the strided B view into `NRV`-column
/// micro-panels, zero-padding the ragged last panel.
#[allow(clippy::too_many_arguments)]
fn pack_b<const NRV: usize>(
    bp: &mut [f64],
    b: &[f64],
    brs: usize,
    bcs: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    let mut dst = 0;
    let mut jp = 0;
    while jp < nc {
        let cols = NRV.min(nc - jp);
        for p in 0..kc {
            let base = (p0 + p) * brs + (j0 + jp) * bcs;
            if cols == NRV && bcs == 1 {
                bp[dst..dst + NRV].copy_from_slice(&b[base..base + NRV]);
            } else {
                for j in 0..cols {
                    bp[dst + j] = b[base + j * bcs];
                }
                bp[dst + cols..dst + NRV].fill(0.0);
            }
            dst += NRV;
        }
        jp += NRV;
    }
}

/// Safe entry to the AVX-512 micro-kernel.
///
/// Only reachable from [`gemm_core`] after [`avx512_available`] returned
/// `true`, which is the safety contract of the `target_feature` call.
#[cfg(target_arch = "x86_64")]
fn micro_kernel_avx512_entry(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
) {
    debug_assert!(avx512_available(), "dispatcher must gate this path");
    // SAFETY: the dispatcher selected this entry only after runtime
    // detection of avx512f on the executing CPU.
    unsafe { micro_kernel_avx512(alpha, ap, bp, c, ldc, m_eff, n_eff) }
}

/// Register-tiled micro-kernel: `C_tile += alpha * Ap * Bp` where Ap is an
/// `MR x kc` packed panel and Bp a `kc x NR_AVX512` packed panel. The
/// accumulator lives in `MR x NR_AVX512` registers; `m_eff`/`n_eff` mask
/// the ragged write-back.
///
/// AVX-512 variant: the one explicitly-SIMD (and `unsafe`) routine in the
/// crate, compiled with its own `target_feature` so it exists in portable
/// builds and is chosen by runtime detection. Safety rests on the
/// packed-panel layout: `ap` holds `kc` groups of exactly `MR` doubles and
/// `bp` `kc` groups of exactly `NR_AVX512`, both zero-padded by the
/// packing routines, the caller slices `c` to cover the `m_eff x n_eff`
/// tile — and on the executing CPU supporting avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn micro_kernel_avx512(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
) {
    use std::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
    };
    const NR: usize = NR_AVX512;
    const LANES: usize = 8;
    const AV: usize = MR / LANES; // A vectors per k step
    debug_assert_eq!(ap.len() % MR, 0);
    debug_assert_eq!(bp.len() / NR, ap.len() / MR);

    let kc = ap.len() / MR;
    unsafe {
        let mut acc = [_mm512_setzero_pd(); AV * NR];
        let mut apt = ap.as_ptr();
        let mut bpt = bp.as_ptr();
        for _ in 0..kc {
            let a0 = _mm512_loadu_pd(apt);
            let a1 = _mm512_loadu_pd(apt.add(LANES));
            for j in 0..NR {
                let bj = _mm512_set1_pd(*bpt.add(j));
                acc[AV * j] = _mm512_fmadd_pd(a0, bj, acc[AV * j]);
                acc[AV * j + 1] = _mm512_fmadd_pd(a1, bj, acc[AV * j + 1]);
            }
            apt = apt.add(MR);
            bpt = bpt.add(NR);
        }
        if m_eff == MR && n_eff == NR {
            let va = _mm512_set1_pd(alpha);
            for j in 0..NR {
                let cp = c.as_mut_ptr().add(j * ldc);
                let c0 = _mm512_loadu_pd(cp);
                let c1 = _mm512_loadu_pd(cp.add(LANES));
                _mm512_storeu_pd(cp, _mm512_fmadd_pd(acc[AV * j], va, c0));
                _mm512_storeu_pd(cp.add(LANES), _mm512_fmadd_pd(acc[AV * j + 1], va, c1));
            }
        } else {
            // Ragged edge: spill the tile and apply a masked scalar update.
            let mut tile = [[0.0f64; MR]; NR];
            for (j, col) in tile.iter_mut().enumerate() {
                _mm512_storeu_pd(col.as_mut_ptr(), acc[AV * j]);
                _mm512_storeu_pd(col.as_mut_ptr().add(LANES), acc[AV * j + 1]);
            }
            for j in 0..n_eff {
                let col = &mut c[j * ldc..j * ldc + m_eff];
                for (i, ci) in col.iter_mut().enumerate() {
                    *ci += alpha * tile[j][i];
                }
            }
        }
    }
}

/// Safe entry to the AVX2 micro-kernel.
///
/// Only reachable from [`gemm_core`] after [`avx2_available`] returned
/// `true`, which is the safety contract of the `target_feature` call.
#[cfg(target_arch = "x86_64")]
fn micro_kernel_avx2_entry(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
) {
    debug_assert!(avx2_available(), "dispatcher must gate this path");
    // SAFETY: the dispatcher selected this entry only after runtime
    // detection of avx2 + fma on the executing CPU.
    unsafe { micro_kernel_avx2(alpha, ap, bp, c, ldc, m_eff, n_eff) }
}

/// Register-tiled AVX2+FMA micro-kernel over `kc x NR_AVX2` packed
/// panels — the middle rung of the runtime dispatch ladder (AVX-512 >
/// AVX2 > portable autovec), for the hosts where a portable build would
/// otherwise fall to the SSE2 baseline. Same packed-panel safety
/// contract as the AVX-512 kernel above; the 16x4 tile fills all 16 ymm
/// registers with accumulators and lets the FMA's memory operand stream
/// the L1-hot A panel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn micro_kernel_avx2(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
) {
    use std::arch::x86_64::{
        _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };
    const NR: usize = NR_AVX2;
    const LANES: usize = 4;
    const AV: usize = MR / LANES; // A vectors per k step
    debug_assert_eq!(ap.len() % MR, 0);
    debug_assert_eq!(bp.len() / NR, ap.len() / MR);

    let kc = ap.len() / MR;
    unsafe {
        let mut acc = [_mm256_setzero_pd(); AV * NR];
        let mut apt = ap.as_ptr();
        let mut bpt = bp.as_ptr();
        for _ in 0..kc {
            for j in 0..NR {
                let bj = _mm256_set1_pd(*bpt.add(j));
                for v in 0..AV {
                    let av = _mm256_loadu_pd(apt.add(v * LANES));
                    acc[AV * j + v] = _mm256_fmadd_pd(av, bj, acc[AV * j + v]);
                }
            }
            apt = apt.add(MR);
            bpt = bpt.add(NR);
        }
        if m_eff == MR && n_eff == NR {
            let va = _mm256_set1_pd(alpha);
            for j in 0..NR {
                let cp = c.as_mut_ptr().add(j * ldc);
                for v in 0..AV {
                    let cv = _mm256_loadu_pd(cp.add(v * LANES));
                    _mm256_storeu_pd(cp.add(v * LANES), _mm256_fmadd_pd(acc[AV * j + v], va, cv));
                }
            }
        } else {
            // Ragged edge: spill the tile and apply a masked scalar update.
            let mut tile = [[0.0f64; MR]; NR];
            for (j, col) in tile.iter_mut().enumerate() {
                for v in 0..AV {
                    _mm256_storeu_pd(col.as_mut_ptr().add(v * LANES), acc[AV * j + v]);
                }
            }
            for j in 0..n_eff {
                let col = &mut c[j * ldc..j * ldc + m_eff];
                for (i, ci) in col.iter_mut().enumerate() {
                    *ci += alpha * tile[j][i];
                }
            }
        }
    }
}

/// Portable autovectorized micro-kernel over `kc x NRV` panels (see the
/// AVX-512 one above for the contract). Generic over the tile width so it
/// can also serve as a correctness oracle for the wide tile in tests.
fn micro_kernel_portable<const NRV: usize>(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    ldc: usize,
    m_eff: usize,
    n_eff: usize,
) {
    let mut acc = [[0.0f64; MR]; NRV];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NRV)) {
        let a: &[f64; MR] = a.try_into().unwrap();
        let b: &[f64; NRV] = b.try_into().unwrap();
        for j in 0..NRV {
            let bj = b[j];
            for i in 0..MR {
                acc[j][i] = fmadd(a[i], bj, acc[j][i]);
            }
        }
    }
    if m_eff == MR && n_eff == NRV {
        for j in 0..NRV {
            let col = &mut c[j * ldc..j * ldc + MR];
            for i in 0..MR {
                col[i] += alpha * acc[j][i];
            }
        }
    } else {
        for j in 0..n_eff {
            let col = &mut c[j * ldc..j * ldc + m_eff];
            for (i, ci) in col.iter_mut().enumerate() {
                *ci += alpha * acc[j][i];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar core (the seed kernel)
// ---------------------------------------------------------------------------

fn scalar_core(alpha: f64, a: &Matrix, ta: Transpose, b: &Matrix, tb: Transpose, c: &mut Matrix) {
    let (m, k) = dims(a, ta);
    let n = dims(b, tb).1;
    match (ta, tb) {
        (Transpose::No, Transpose::No) => {
            // Panel-of-four update: C(:, j..j+4) += alpha * A(:, p) *
            // B(p, j..j+4). Reusing A's column across four columns of C
            // quarters the traffic on A compared with a per-column axpy.
            let adata = a.as_slice();
            let mut j = 0;
            while j + 4 <= n {
                for p in 0..k {
                    let b0 = alpha * b.get(p, j);
                    let b1 = alpha * b.get(p, j + 1);
                    let b2 = alpha * b.get(p, j + 2);
                    let b3 = alpha * b.get(p, j + 3);
                    if b0 == 0.0 && b1 == 0.0 && b2 == 0.0 && b3 == 0.0 {
                        continue;
                    }
                    let acol = &adata[p * m..(p + 1) * m];
                    let cd = c.as_mut_slice();
                    let base = j * m;
                    for (i, &av) in acol.iter().enumerate() {
                        cd[base + i] += av * b0;
                        cd[base + m + i] += av * b1;
                        cd[base + 2 * m + i] += av * b2;
                        cd[base + 3 * m + i] += av * b3;
                    }
                }
                j += 4;
            }
            // Remainder columns.
            while j < n {
                for p in 0..k {
                    let bpj = alpha * b.get(p, j);
                    if bpj == 0.0 {
                        continue;
                    }
                    let acol = a.col(p);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * bpj;
                    }
                }
                j += 1;
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // C(i,j) += alpha * dot(A(:,i), B(:,j)).
            for j in 0..n {
                let bcol = b.col(j);
                for i in 0..m {
                    let acol = a.col(i);
                    let mut s = 0.0;
                    for p in 0..k {
                        s += acol[p] * bcol[p];
                    }
                    let v = c.get(i, j) + alpha * s;
                    c.set(i, j, v);
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // C(:,j) += alpha * A(:,p) * B(j,p).
            for j in 0..n {
                for p in 0..k {
                    let bjp = alpha * b.get(j, p);
                    if bjp == 0.0 {
                        continue;
                    }
                    let acol = a.col(p);
                    let ccol = c.col_mut(j);
                    for i in 0..m {
                        ccol[i] += acol[i] * bjp;
                    }
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            for j in 0..n {
                for i in 0..m {
                    let acol = a.col(i);
                    let mut s = 0.0;
                    for p in 0..k {
                        s += acol[p] * b.get(j, p);
                    }
                    let v = c.get(i, j) + alpha * s;
                    c.set(i, j, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matches_naive_multiply() {
        let a = Matrix::from_fn(4, 6, |i, j| (i as f64) - 0.5 * (j as f64));
        let b = Matrix::from_fn(6, 3, |i, j| 1.0 / (1.0 + i as f64 + j as f64));
        let c = matmul(&a, Transpose::No, &b, Transpose::No);
        let expect = naive(&a, &b);
        for (i, j, v) in c.iter_indexed() {
            assert!((v - expect.get(i, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn all_transpose_combinations_agree() {
        let a = Matrix::from_fn(5, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let b = Matrix::from_fn(4, 6, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let reference = matmul(&a, Transpose::No, &b, Transpose::No);

        let at = a.transposed();
        let bt = b.transposed();
        for (x, tx) in [(&a, Transpose::No), (&at, Transpose::Yes)] {
            for (y, ty) in [(&b, Transpose::No), (&bt, Transpose::Yes)] {
                let c = matmul(x, tx, y, ty);
                assert_eq!(c.rows(), reference.rows());
                assert_eq!(c.cols(), reference.cols());
                for (i, j, v) in c.iter_indexed() {
                    assert!((v - reference.get(i, j)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Matrix::identity(2);
        let b = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        let mut c = Matrix::from_fn(2, 2, |_, _| 10.0);
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        // C = 2 * B + 0.5 * 10
        assert_eq!(c.get(0, 0), 5.0);
        assert_eq!(c.get(1, 1), 11.0);
    }

    #[test]
    fn zero_alpha_only_scales_c() {
        let a = Matrix::from_fn(2, 2, |_, _| f64::NAN);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_fn(2, 2, |_, _| 4.0);
        gemm(0.0, &a, Transpose::No, &b, Transpose::No, 0.25, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, Transpose::No, &b, Transpose::No);
    }

    #[test]
    fn identity_is_neutral() {
        let b = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let c = matmul(&Matrix::identity(3), Transpose::No, &b, Transpose::No);
        assert_eq!(c, b);
    }

    #[test]
    fn blocked_matches_scalar_on_remainder_edges() {
        // Sizes straddling every blocking boundary: below/at/above MR, NR,
        // and KC, including 1-row/1-col and empty extents.
        let sizes = [
            (1, 1, 1),
            (1, 7, 5),
            (5, 1, 3),
            (MR - 1, NR - 1, 3),
            (MR, NR, KC),
            (MR + 1, NR + 1, KC + 1),
            (2 * MR + 3, 3 * NR + 1, KC + 7),
            (MC + MR + 1, NR, 9),
            (3, 2 * NR + 1, KC - 1),
        ];
        for &(m, n, k) in &sizes {
            let a = Matrix::from_fn(m, k, |i, j| ((3 * i + 5 * j) % 11) as f64 - 4.0);
            let b = Matrix::from_fn(k, n, |i, j| ((2 * i + 7 * j) % 13) as f64 - 6.0);
            let mut want = Matrix::from_fn(m, n, |i, j| (i + j) as f64);
            let mut got = want.clone();
            gemm_scalar(0.75, &a, Transpose::No, &b, Transpose::No, -1.5, &mut want);
            gemm_blocked(0.75, &a, Transpose::No, &b, Transpose::No, -1.5, &mut got);
            for (i, j, v) in got.iter_indexed() {
                assert!(
                    (v - want.get(i, j)).abs() <= 1e-9 * (1.0 + want.get(i, j).abs()),
                    "({m},{n},{k}) at ({i},{j}): {v} vs {}",
                    want.get(i, j)
                );
            }
        }
    }

    #[test]
    fn blocked_handles_all_transposes() {
        let (m, n, k) = (2 * MR + 5, 2 * NR + 3, 37);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let at = a.transposed();
        let bt = b.transposed();
        let reference = {
            let mut c = Matrix::zeros(m, n);
            gemm_scalar(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
            c
        };
        for (x, tx) in [(&a, Transpose::No), (&at, Transpose::Yes)] {
            for (y, ty) in [(&b, Transpose::No), (&bt, Transpose::Yes)] {
                let mut c = Matrix::zeros(m, n);
                gemm_blocked(1.0, x, tx, y, ty, 0.0, &mut c);
                for (i, j, v) in c.iter_indexed() {
                    assert!(
                        (v - reference.get(i, j)).abs() < 1e-10,
                        "{tx:?}/{ty:?} at ({i},{j})"
                    );
                }
            }
        }
    }

    /// Drive one micro-kernel instantiation through the blocked core on a
    /// fresh workspace: `C += A * B` (no transposes, alpha = 1).
    fn run_core<const NRV: usize>(micro: MicroKernelFn, a: &Matrix, b: &Matrix, c: &mut Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut ws = GemmWorkspace::new();
        let ldc = c.rows();
        gemm_core_n::<NRV>(
            &mut ws,
            m,
            n,
            k,
            1.0,
            a.as_slice(),
            1,
            a.rows(),
            b.as_slice(),
            1,
            b.rows(),
            c.as_mut_slice(),
            ldc,
            micro,
        );
    }

    #[test]
    fn portable_micro_kernel_matches_scalar() {
        // The portable 16x6 path must stay correct even on hosts where the
        // runtime dispatcher would pick AVX-512, so drive it explicitly.
        for &(m, n, k) in &[
            (MR - 1, NR_PORTABLE - 1, 5),
            (2 * MR + 3, 3 * NR_PORTABLE + 2, KC + 5),
            (MC + 1, NR_PORTABLE, 33),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((3 * i + 5 * j) % 11) as f64 - 4.0);
            let b = Matrix::from_fn(k, n, |i, j| ((2 * i + 7 * j) % 13) as f64 - 6.0);
            let mut want = Matrix::zeros(m, n);
            gemm_scalar(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut want);
            let mut got = Matrix::zeros(m, n);
            run_core::<NR_PORTABLE>(micro_kernel_portable::<NR_PORTABLE>, &a, &b, &mut got);
            for (i, j, v) in got.iter_indexed() {
                assert!(
                    (v - want.get(i, j)).abs() < 1e-10,
                    "({m},{n},{k}) at ({i},{j})"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn runtime_isa_paths_agree() {
        let (m, n, k) = (2 * MR + 5, 2 * NR_AVX512 + 3, KC + 9);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 9) as f64 - 4.0);
        let b = Matrix::from_fn(k, n, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
        let mut narrow = Matrix::zeros(m, n);
        run_core::<NR_PORTABLE>(micro_kernel_portable::<NR_PORTABLE>, &a, &b, &mut narrow);
        // Cross-check every ISA rung the executing CPU supports against
        // the portable tile.
        let mut checked = Vec::new();
        if std::is_x86_feature_detected!("avx512f") {
            let mut wide = Matrix::zeros(m, n);
            run_core::<NR_AVX512>(micro_kernel_avx512_entry, &a, &b, &mut wide);
            checked.push(("avx512", wide));
        }
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            let mut mid = Matrix::zeros(m, n);
            run_core::<NR_AVX2>(micro_kernel_avx2_entry, &a, &b, &mut mid);
            checked.push(("avx2", mid));
        }
        for (isa, got) in checked {
            for (i, j, v) in got.iter_indexed() {
                assert!(
                    (v - narrow.get(i, j)).abs() < 1e-10,
                    "{isa} mismatch at ({i},{j})"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_micro_kernel_matches_scalar_on_ragged_edges() {
        if !(std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")) {
            return;
        }
        // Sizes straddling the 16x4 tile: full tiles, ragged rows, ragged
        // columns, and sub-tile problems.
        for &(m, n, k) in &[
            (MR, NR_AVX2, 7),
            (MR - 3, NR_AVX2 - 1, 5),
            (2 * MR + 3, 3 * NR_AVX2 + 2, KC + 5),
            (MC + 1, NR_AVX2, 33),
            (5, 2 * NR_AVX2 + 1, KC - 1),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((3 * i + 5 * j) % 11) as f64 - 4.0);
            let b = Matrix::from_fn(k, n, |i, j| ((2 * i + 7 * j) % 13) as f64 - 6.0);
            let mut want = Matrix::zeros(m, n);
            gemm_scalar(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut want);
            let mut got = Matrix::zeros(m, n);
            run_core::<NR_AVX2>(micro_kernel_avx2_entry, &a, &b, &mut got);
            for (i, j, v) in got.iter_indexed() {
                assert!(
                    (v - want.get(i, j)).abs() < 1e-10,
                    "({m},{n},{k}) at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn workspace_reuse_is_consistent() {
        let mut ws = GemmWorkspace::new();
        let a = Matrix::from_fn(40, 50, |i, j| (i as f64 - j as f64) * 0.25);
        let b = Matrix::from_fn(50, 30, |i, j| ((i * j) % 9) as f64 - 4.0);
        let mut c1 = Matrix::zeros(40, 30);
        gemm_with(
            &mut ws,
            1.0,
            &a,
            Transpose::No,
            &b,
            Transpose::No,
            0.0,
            &mut c1,
        );
        let bytes_after_first = ws.capacity_bytes();
        let mut c2 = Matrix::zeros(40, 30);
        gemm_with(
            &mut ws,
            1.0,
            &a,
            Transpose::No,
            &b,
            Transpose::No,
            0.0,
            &mut c2,
        );
        assert_eq!(c1, c2);
        assert_eq!(
            ws.capacity_bytes(),
            bytes_after_first,
            "no regrowth on reuse"
        );
        assert!(bytes_after_first > 0);
    }

    #[test]
    fn empty_extents_are_noops() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let mut c = Matrix::zeros(0, 3);
        gemm_blocked(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);

        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::from_fn(3, 2, |_, _| 7.0);
        gemm_blocked(1.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        // k = 0: only the beta scaling applies.
        assert!(c.as_slice().iter().all(|&v| v == 3.5));
    }
}
