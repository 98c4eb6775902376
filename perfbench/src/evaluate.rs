//! `evaluate` workload: run the generated code at run-time sizes.
//!
//! Set-up compiles a fixed library of n = 7 shapes drawn from
//! `ShapeSampler::half_rectangular` (Sec. VII-B) with `expand_by = 1`
//! (`E_s1,F`): the library plays the application's chains, and it is the
//! same for every seed, because which 64 shapes a seed draws moves the
//! latency more than anything the program does. For the same reason the
//! calls are a fixed library too: `MIN_CALLS` (shape, sizes, entries)
//! triples with sizes drawn in `[50, 300]` (`InstanceSampler`; the
//! paper's `[50, 1000]` scaled to a small host); drawn per seed, the
//! slowest 1% of the calls changed from seed to seed. The workload seed
//! orders the calls. Each call's matrices
//! (`gmc_bench::workload::instantiate`) are made outside the timed
//! region; the benchmark times `CompileSession::evaluate`, which
//! dispatches and executes, with a host-speed probe (`crate::speed`)
//! before each call. Every result is checked against the independent
//! Armadillo-style evaluator, and the dispatched variant's FLOPs are
//! compared with the DP optimum.

use crate::speed::Probe;
use crate::stats::{hit_rate, mean, median, ms, overhead_pct, peak_rss_mib, quantile, Outcome};
use crate::trace::Tracer;
use crate::{seed_mix, Args, KERNELS, SETUP_PROBES, SETUP_REPS};
use gmc_bench::workload::instantiate;
use gmc_bench::{armadillo_execute, ShapeSampler};
use gmc_codegen::{emit_cpp_into, emit_rust_into};
use gmc_core::{CompileOptions, CompileSession, CompiledChain};
use gmc_ir::{Instance, InstanceSampler, Shape};
use gmc_kernels::cost::cost_flops;
use gmc_linalg::{GemmWorkspace, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Distinct chains compiled in set-up; calls visit them round-robin.
const SHAPES: usize = 64;
/// Seed of the shape library (not the workload seed; see the module docs).
const LIBRARY_SEED: u64 = 0x11b7;
/// Chain length.
const N: usize = 7;
/// Run-time size range of every matrix dimension.
const SIZE_LO: u64 = 50;
const SIZE_HI: u64 = 300;
/// Calls in the library; every run makes at least these (p99 then has 15
/// samples beyond it), and the quality metrics cover exactly these.
const MIN_CALLS: usize = 1500;
/// Nominal probe time of this workload (`crate::speed`).
const PROBE_NOMINAL_US: f64 = 890.0;
/// Largest accepted relative Frobenius-norm difference from the
/// Armadillo-style evaluator. `instantiate`'s triangular operands grow
/// ill-conditioned with their size, so at these sizes two evaluation
/// orders can differ by far more than rounding (up to 2.1e-6 seen over
/// seeds 1-7); a wrong result differs by order one.
const REL_TOL: f64 = 1e-4;

struct Setup {
    session: CompileSession,
    shapes: Vec<Shape>,
    chains: Vec<CompiledChain>,
    emitted_bytes: Vec<f64>,
}

fn set_up() -> Result<Setup, String> {
    let mut session = CompileSession::with_options(CompileOptions {
        expand_by: 1,
        ..CompileOptions::default()
    });
    session.set_jobs(1);
    session.set_tracing(false);
    let mut rng = StdRng::seed_from_u64(LIBRARY_SEED);
    let sampler = ShapeSampler::half_rectangular();
    let mut seen = HashSet::new();
    let mut shapes = Vec::new();
    while shapes.len() < SHAPES {
        let shape = sampler.sample(&mut rng, N);
        if seen.insert(shape.compact()) {
            shapes.push(shape);
        }
    }
    let mut chains = Vec::new();
    let mut emitted_bytes = Vec::new();
    let mut buf = String::new();
    for shape in &shapes {
        let chain = session
            .compile(shape)
            .map_err(|e| format!("{shape}: {e}"))?;
        buf.clear();
        emit_cpp_into(&mut buf, &chain, "x");
        emit_rust_into(&mut buf, &chain, "x");
        emitted_bytes.push(buf.len() as f64);
        chains.push(chain);
    }
    Ok(Setup {
        session,
        shapes,
        chains,
        emitted_bytes,
    })
}

/// What the traced calls add up.
#[derive(Default)]
struct KernelTotals {
    calls: usize,
    kernel_ns: [u64; KERNELS.len()],
    kernel_calls_in_prefix: usize,
    calls_in_prefix: usize,
    gemm_flops: f64,
    gemm_ns: u64,
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Probe::new(PROBE_NOMINAL_US);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let probes = probe.run_n(SETUP_PROBES);
        let t = Instant::now();
        state = Some(set_up());
        setups.push(t.elapsed().as_secs_f64() * probe.scale_of(probes));
    }
    let mut s = match state.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            out.faults.push(format!("set-up failed: {e}"));
            return out;
        }
    };
    let mut oracle = CompileSession::new();
    let mut ws = GemmWorkspace::new();
    let calls = call_library(&s.shapes, args.seed);
    let window = Duration::from_secs_f64(args.seconds);
    let mut untraced_ms = Vec::new();
    // Probe sample next to each untraced call.
    let mut untraced_probe = Vec::new();
    let mut traced_ms = Vec::new();
    let mut useful_flops = 0.0;
    let mut untraced_secs = 0.0;
    let mut ratios = Vec::new();
    let mut max_err = 0.0f64;
    let mut totals = KernelTotals::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < MIN_CALLS || start.elapsed() < window {
        let (index, k, q, entries) = &calls[i % calls.len()];
        let (shape, chain) = (&s.shapes[*k], &s.chains[*k]);
        let leaves = instantiate(shape, q, &mut StdRng::seed_from_u64(*entries));
        out.attempted += 1;
        // The library's rounds of one call per shape alternate between
        // traced and untraced, so both halves hold the same shapes.
        let traced = tracer.enabled() && (index / SHAPES) % 2 == 1;
        let at = probe.run();
        let t = Instant::now();
        let result = if traced {
            evaluate_traced(tracer, &mut ws, chain, &leaves, i, &mut totals)
        } else {
            s.session
                .evaluate(chain, &leaves)
                .map_err(|e| e.to_string())
        };
        let lat = t.elapsed();
        let optimal = oracle.optimal_cost(shape, q).unwrap_or(f64::NAN);
        if traced {
            traced_ms.push(ms(lat));
        } else {
            untraced_ms.push(ms(lat));
            untraced_probe.push(at);
            useful_flops += optimal;
            untraced_secs += lat.as_secs_f64();
        }
        if i < MIN_CALLS {
            ratios.push(chain.dispatch(q).1 / optimal);
        }
        match result {
            Ok(x) => match armadillo_execute(shape, &leaves) {
                Ok(want) => {
                    let err = rel_diff(&x, &want);
                    max_err = max_err.max(err);
                    if err.is_nan() || err > REL_TOL {
                        out.fail(format!("call {i} ({shape}, {q:?}): relative error {err:e}"));
                    }
                }
                Err(e) => out.fail(format!("call {i}: reference evaluator failed: {e}")),
            },
            Err(e) => out.fail(format!("call {i} ({shape}): {e}")),
        }
        i += 1;
    }
    let penalty_mean = mean(&ratios);
    let penalty_max = ratios.iter().copied().fold(0.0, f64::max);
    let emitted_kib = mean(&s.emitted_bytes) / 1024.0;
    out.deterministic.push(("flop_penalty_mean", penalty_mean));
    out.deterministic.push(("flop_penalty_max", penalty_max));
    out.deterministic.push(("emitted_kib", emitted_kib));
    eprintln!(
        "perfbench evaluate: {i} calls, max relative error {max_err:e} (tolerance {REL_TOL:e})"
    );

    if tracer.enabled() {
        let calls = totals.calls.max(1) as f64;
        for (k, name) in KERNELS.iter().enumerate() {
            out.set(
                format!("kernels.{name}.ms"),
                totals.kernel_ns[k] as f64 / calls / 1e6,
            );
        }
        out.set(
            "kernels.gemm.gflops",
            totals.gemm_flops / (totals.gemm_ns as f64).max(1.0),
        );
        let per_eval = totals.kernel_calls_in_prefix as f64 / totals.calls_in_prefix.max(1) as f64;
        out.set("kernels.calls_per_eval", per_eval);
        out.deterministic.push(("kernels.calls_per_eval", per_eval));
        let spans = tracer.spans();
        let self_ns = tracer.self_times_ns();
        let mean_self = |name: &str| {
            let v: Vec<f64> = spans
                .iter()
                .zip(&self_ns)
                .filter(|(sp, _)| sp.name == name)
                .map(|(_, &ns)| ns as f64)
                .collect();
            mean(&v)
        };
        out.set("program.dispatch_us", mean_self("program.dispatch") / 1e3);
        out.set(
            "variant.unattributed_ms",
            mean_self("variant.execute") / 1e6,
        );
        out.set("evaluate.useful_gflops", useful_flops / untraced_secs / 1e9);
        let frags = s.session.fragment_cache_stats();
        out.set("core.frag_hit_rate", hit_rate(frags.hits, frags.misses));
        out.set(
            "trace_overhead_pct",
            overhead_pct(&mut traced_ms, &mut untraced_ms),
        );
        out.set("host.probe_us", probe.median_us());
    } else {
        let mut corrected: Vec<f64> = untraced_ms
            .iter()
            .zip(&untraced_probe)
            .map(|(&t, &at)| t * probe.scale_at(at))
            .collect();
        eprintln!(
            "perfbench evaluate: uncorrected p50 {:.4} ms, p99 {:.3} ms, {:.2} calls/s; probe {:.1} us",
            quantile(&mut untraced_ms, 0.50),
            quantile(&mut untraced_ms, 0.99),
            untraced_ms.len() as f64 / untraced_secs,
            probe.median_us()
        );
        out.set("setup_s", median(&mut setups));
        out.set("latency_ms_p50", quantile(&mut corrected, 0.50));
        out.set("latency_ms_p99", quantile(&mut corrected, 0.99));
        out.set(
            "throughput_per_s",
            corrected.len() as f64 / (corrected.iter().sum::<f64>() / 1e3),
        );
        out.set("peak_rss_mib", peak_rss_mib("self").unwrap_or(0.0));
        out.set("flop_penalty_mean", penalty_mean);
        out.set("flop_penalty_max", penalty_max);
        out.set("emitted_kib", emitted_kib);
        eprintln!(
            "perfbench evaluate: useful {:.2} GFLOP/s",
            useful_flops / untraced_secs / 1e9
        );
    }
    out
}

/// The run's calls: `MIN_CALLS` (library index, shape index, sizes,
/// matrix-entry seed) entries that are the same for every seed, in an
/// order the seed draws.
fn call_library(shapes: &[Shape], seed: u64) -> Vec<(usize, usize, Instance, u64)> {
    let mut rng = StdRng::seed_from_u64(LIBRARY_SEED);
    let samplers: Vec<InstanceSampler> = shapes
        .iter()
        .map(|shape| InstanceSampler::new(shape, SIZE_LO, SIZE_HI))
        .collect();
    let mut calls: Vec<(usize, usize, Instance, u64)> = (0..MIN_CALLS)
        .map(|i| {
            let q = samplers[i % SHAPES].sample(&mut rng);
            (i, i % SHAPES, q, seed_mix(LIBRARY_SEED, i as u64))
        })
        .collect();
    let mut order = StdRng::seed_from_u64(seed_mix(seed, 0xca11));
    for i in (1..calls.len()).rev() {
        calls.swap(i, order.gen_range(0..=i));
    }
    calls
}

/// Dispatch and execute stage by stage, with a span around each and one
/// span per kernel call (reported by `Variant::execute_observed`).
fn evaluate_traced(
    tr: &mut Tracer,
    ws: &mut GemmWorkspace,
    chain: &CompiledChain,
    leaves: &[Matrix],
    call: usize,
    totals: &mut KernelTotals,
) -> Result<Matrix, String> {
    let req = call as u64;
    let root = tr.begin("evaluate.call", req);
    let dispatched = tr.span("program.dispatch", req, || {
        chain.instance_of(leaves).map(|q| {
            let (idx, _) = chain.dispatch(&q);
            (q, idx)
        })
    });
    let result = dispatched.map_err(|e| e.to_string()).and_then(|(q, idx)| {
        let variant = &chain.variants()[idx];
        let steps = variant.steps();
        let exec = tr.begin("variant.execute", req);
        let mut step = 0usize;
        let x = variant.execute_observed(ws, leaves, |kernel, d| {
            tr.record_ended(kernel.name(), req, d);
            let name = kernel.name().to_ascii_lowercase();
            let k = KERNELS
                .iter()
                .position(|n| *n == name)
                .expect("known kernel");
            totals.kernel_ns[k] += d.as_nanos() as u64;
            if let Some(s) = steps.get(step) {
                if k == 0 {
                    let (a, b, c) = s.triplet;
                    totals.gemm_flops +=
                        cost_flops(s.kernel, s.side, s.cheap, q.q(a), q.q(b), q.q(c));
                    totals.gemm_ns += d.as_nanos() as u64;
                }
            }
            if call < MIN_CALLS {
                totals.kernel_calls_in_prefix += 1;
            }
            step += 1;
        });
        tr.end(exec);
        x.map_err(|e| e.to_string())
    });
    tr.end(root);
    totals.calls += 1;
    if call < MIN_CALLS {
        totals.calls_in_prefix += 1;
    }
    result
}

/// `‖x − y‖_F / ‖y‖_F`, or infinity on a shape mismatch.
fn rel_diff(x: &Matrix, y: &Matrix) -> f64 {
    if (x.rows(), x.cols()) != (y.rows(), y.cols()) {
        return f64::INFINITY;
    }
    let (mut num, mut den) = (0.0, 0.0);
    for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}
