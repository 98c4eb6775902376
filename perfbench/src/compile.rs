//! `compile` workload: distinct random chains through one long-lived
//! `CompileSession` (parse → enumerate → select → expand → emit).
//!
//! Shapes come from the paper's Sec. VII-A distribution
//! (`ShapeSampler::uniform`) with `n ∈ {5, 6, 7}` equally likely, are
//! deduplicated, rendered as `.gmc` source, and compiled once each with
//! `expand_by = 2` (Fig. 5's `E_s2`), then emitted as C++ and Rust. The
//! loop is closed and single-threaded. After the timed window every
//! compiled set is validated against the full pool on held-out
//! instances in `[2, 1000]` (Fig. 5's FLOP ratio) and against the
//! per-shape Theorem-2 bound. Timings are corrected for host speed with
//! a probe run every `PROBE_EVERY` chains (`crate::speed`).

use crate::speed::Probe;
use crate::stats::{hit_rate, mean, median, ms, overhead_pct, peak_rss_mib, quantile, Outcome};
use crate::trace::Tracer;
use crate::{seed_mix, Args, SETUP_PROBES, SETUP_REPS};
use gmc_bench::ShapeSampler;
use gmc_codegen::{emit_cpp_into, emit_rust_into};
use gmc_core::theory::penalty;
use gmc_core::{
    all_variants, select_base_set, shape_penalty_bound, CompileOptions, CompileSession,
    CompiledChain,
};
use gmc_ir::emit::emit_program;
use gmc_ir::{InstanceSampler, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Chains every run compiles; the quality metrics cover exactly these,
/// so they repeat for a seed. Also the p99 sample floor.
const MIN_CHAINS: usize = 1000;
/// Held-out validation instances per compiled set.
const VALIDATION: usize = 100;
/// Traced chains that are re-compiled through `CompileSession::compile`
/// to confirm the stage-by-stage path selects the same set.
const TRACED_IDENTITY_CHECKS: usize = 20;
/// Chains compiled between two validation passes.
const BATCH: usize = 256;
/// Chains compiled in set-up, from a stream that does not depend on the
/// workload seed.
const WARMUP_CHAINS: usize = 64;
const WARMUP_SEED: u64 = 0x3a7e;
/// Chains compiled between two host-speed probes.
const PROBE_EVERY: usize = 8;
/// Nominal probe time of this workload (`crate::speed`).
const PROBE_NOMINAL_US: f64 = 720.0;
/// Name the artifacts are emitted under (the sources' left-hand side).
const NAME: &str = "x";

/// Deduplicated paper-distribution shapes, rendered as `.gmc` source.
struct Sources {
    rng: StdRng,
    sampler: ShapeSampler,
    seen: HashSet<String>,
}

impl Sources {
    fn new(rng: StdRng) -> Self {
        Sources {
            rng,
            sampler: ShapeSampler::uniform(),
            seen: HashSet::new(),
        }
    }

    fn next_source(&mut self) -> String {
        loop {
            let n = [5, 6, 7][self.rng.gen_range(0..3usize)];
            let shape = self.sampler.sample(&mut self.rng, n);
            if self.seen.insert(shape.compact()) {
                return emit_program(&shape, "X");
            }
        }
    }
}

fn options() -> CompileOptions {
    CompileOptions {
        expand_by: 2,
        ..CompileOptions::default()
    }
}

/// What the benchmark keeps of each compiled chain for validation.
struct Compiled {
    index: usize,
    traced: bool,
    chain: CompiledChain,
    emitted_bytes: usize,
}

/// The set-up's warm-up sources (the same in every run), and the run's
/// source stream and its fixed prefix, which skip the warm-up shapes.
fn generate(seed: u64) -> (Vec<String>, Sources, Vec<String>) {
    let mut warm = Sources::new(StdRng::seed_from_u64(WARMUP_SEED));
    let warmup = (0..WARMUP_CHAINS).map(|_| warm.next_source()).collect();
    let mut sources = Sources::new(StdRng::seed_from_u64(seed_mix(seed, 0xc0)));
    sources.seen = warm.seen;
    let prefix = (0..MIN_CHAINS).map(|_| sources.next_source()).collect();
    (warmup, sources, prefix)
}

/// Set-up: a fresh session that has compiled the warm-up chains.
fn set_up(warmup: &[String]) -> Result<CompileSession, String> {
    let mut session = CompileSession::with_options(options());
    session.set_jobs(1);
    session.set_tracing(false);
    let (mut cpp, mut rust) = (String::new(), String::new());
    for source in warmup {
        compile_plain(&mut session, source, &mut cpp, &mut rust)?;
    }
    Ok(session)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (warmup, mut sources, prefix) = generate(args.seed);
    let mut probe = Probe::new(PROBE_NOMINAL_US);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let probes = probe.run_n(SETUP_PROBES);
        let t = Instant::now();
        state = Some(set_up(&warmup));
        setups.push(t.elapsed().as_secs_f64() * probe.scale_of(probes));
    }
    let mut session = match state.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            out.faults.push(format!("set-up failed: {e}"));
            return out;
        }
    };

    // Chains are compiled back to back in batches; each batch is then
    // validated outside the timed region, which keeps memory flat. The
    // window counts compile time only.
    let window = Duration::from_secs_f64(args.seconds);
    let mut cpp = String::new();
    let mut rust = String::new();
    let mut batch: Vec<Compiled> = Vec::new();
    let mut check = Validator::new(args.seed);
    let mut untraced_ms = Vec::new();
    // Probe sample next to each untraced chain.
    let mut untraced_probe = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_roots = Vec::new();
    let mut measured = Duration::ZERO;
    let mut i = 0usize;
    let mut at = 0;
    // Peak RSS once the seed's fixed prefix is compiled: how many chains
    // follow depends on the host's speed.
    let mut rss = None;
    while i < MIN_CHAINS || measured < window {
        if i.is_multiple_of(PROBE_EVERY) {
            at = probe.run();
        }
        let source = match prefix.get(i) {
            Some(s) => s.clone(),
            None => sources.next_source(),
        };
        out.attempted += 1;
        let traced = tracer.enabled() && i % 2 == 1;
        let t = Instant::now();
        let result = if traced {
            traced_roots.push(tracer.spans().len());
            compile_traced(&mut session, tracer, i as u64, &source, &mut cpp, &mut rust)
        } else {
            compile_plain(&mut session, &source, &mut cpp, &mut rust)
        };
        let elapsed = t.elapsed();
        measured += elapsed;
        match result {
            Ok(chain) => {
                if traced {
                    traced_ms.push(ms(elapsed));
                } else {
                    untraced_ms.push(ms(elapsed));
                    untraced_probe.push(at);
                }
                batch.push(Compiled {
                    index: i,
                    traced,
                    chain,
                    emitted_bytes: cpp.len() + rust.len(),
                });
            }
            Err(e) => out.fail(format!("chain {i}: {e}")),
        }
        i += 1;
        if i == MIN_CHAINS {
            rss = peak_rss_mib("self");
        }
        if batch.len() == BATCH {
            check.validate(&mut out, batch.drain(..));
        }
    }
    check.validate(&mut out, batch.drain(..));
    let compiled = untraced_ms.len() + traced_ms.len();
    if compiled < MIN_CHAINS {
        out.faults
            .push(format!("only {compiled} of {MIN_CHAINS} chains compiled"));
    }
    let flop_penalty_mean = check.ratio_sum / check.ratio_count.max(1) as f64;
    let emitted_kib = mean(&check.bytes) / 1024.0;
    let pool_variants = mean(&check.pool_sizes);
    let selected_variants = mean(&check.set_sizes);
    out.deterministic.extend([
        ("flop_penalty_mean", flop_penalty_mean),
        ("flop_penalty_max", check.ratio_max),
        ("emitted_kib", emitted_kib),
        ("core.pool_variants", pool_variants),
        ("core.selected_variants", selected_variants),
    ]);

    if tracer.enabled() {
        stage_breakdown(&mut out, tracer, &traced_roots);
        out.set("core.pool_variants", pool_variants);
        out.set("core.selected_variants", selected_variants);
        let frags = session.fragment_cache_stats();
        out.set("core.frag_hit_rate", hit_rate(frags.hits, frags.misses));
        out.set(
            "trace_overhead_pct",
            overhead_pct(&mut traced_ms, &mut untraced_ms),
        );
        out.set("host.probe_us", probe.median_us());
    } else {
        let mut all: Vec<f64> = untraced_ms
            .iter()
            .zip(&untraced_probe)
            .map(|(&t, &at)| t * probe.scale_at(at))
            .collect();
        eprintln!(
            "perfbench compile: uncorrected p50 {:.4} ms, p99 {:.3} ms, {:.1} chains/s; probe {:.1} us",
            quantile(&mut untraced_ms, 0.50),
            quantile(&mut untraced_ms, 0.99),
            untraced_ms.len() as f64 / measured.as_secs_f64(),
            probe.median_us()
        );
        out.set("setup_s", median(&mut setups));
        out.set("latency_ms_p50", quantile(&mut all, 0.50));
        out.set("latency_ms_p99", quantile(&mut all, 0.99));
        out.set(
            "throughput_per_s",
            all.len() as f64 / (all.iter().sum::<f64>() / 1e3),
        );
        out.set("peak_rss_mib", rss.unwrap_or(0.0));
        out.set("flop_penalty_mean", flop_penalty_mean);
        out.set("flop_penalty_max", check.ratio_max);
        out.set("emitted_kib", emitted_kib);
    }
    eprintln!(
        "perfbench compile: {compiled} chains in {:.1} s of compile time, {} failed",
        measured.as_secs_f64(),
        out.failed
    );
    out
}

/// Validates compiled sets against the full pool, and accumulates the
/// quality metrics over the first `MIN_CHAINS` chains. It holds no
/// compiler state between chains (the pool comes from the stateless
/// `all_variants`), so the process's peak RSS stays the session's.
struct Validator {
    seed: u64,
    /// Independent `CompileSession::compile` for the identity check of
    /// the traced path, created by the first check.
    reference: Option<CompileSession>,
    identity_checks: usize,
    ratio_sum: f64,
    ratio_count: usize,
    ratio_max: f64,
    pool_sizes: Vec<f64>,
    set_sizes: Vec<f64>,
    bytes: Vec<f64>,
}

impl Validator {
    fn new(seed: u64) -> Self {
        Validator {
            seed,
            reference: None,
            identity_checks: 0,
            ratio_sum: 0.0,
            ratio_count: 0,
            ratio_max: 0.0,
            pool_sizes: Vec::new(),
            set_sizes: Vec::new(),
            bytes: Vec::new(),
        }
    }

    fn validate(&mut self, out: &mut Outcome, batch: impl Iterator<Item = Compiled>) {
        for c in batch {
            let (j, shape) = (c.index, c.chain.shape());
            let pool = match all_variants(shape) {
                Ok(p) => p,
                Err(e) => {
                    out.fail(format!("oracle pool for chain {j}: {e}"));
                    continue;
                }
            };
            let bound = shape_penalty_bound(&pool).to_f64();
            let mut rng = StdRng::seed_from_u64(seed_mix(self.seed, 0x5a11 + j as u64));
            let mut within = true;
            for q in InstanceSampler::new(shape, 2, 1000).sample_many(&mut rng, VALIDATION) {
                let opt = pool
                    .iter()
                    .map(|v| v.flops(&q))
                    .fold(f64::INFINITY, f64::min);
                let best = c
                    .chain
                    .variants()
                    .iter()
                    .map(|v| v.flops(&q))
                    .fold(f64::INFINITY, f64::min);
                within &= penalty(best, opt) <= bound + 1e-9;
                if j < MIN_CHAINS {
                    self.ratio_sum += best / opt;
                    self.ratio_count += 1;
                    self.ratio_max = self.ratio_max.max(best / opt);
                }
            }
            if !within {
                out.fail(format!(
                    "chain {j} ({shape}) exceeds its Theorem-2 bound {bound}"
                ));
            }
            if j < MIN_CHAINS {
                self.pool_sizes.push(pool.len() as f64);
                self.set_sizes.push(c.chain.variants().len() as f64);
                self.bytes.push(c.emitted_bytes as f64);
            }
            // The stage-by-stage path must select what
            // `CompileSession::compile` selects, or the traced breakdown
            // would describe a different pipeline.
            if c.traced && self.identity_checks < TRACED_IDENTITY_CHECKS {
                self.identity_checks += 1;
                let reference = self.reference.get_or_insert_with(|| {
                    let mut s = CompileSession::with_options(options());
                    s.set_tracing(false);
                    s
                });
                let same = reference.compile(shape).is_ok_and(|want| {
                    want.variants().len() == c.chain.variants().len()
                        && want
                            .variants()
                            .iter()
                            .zip(c.chain.variants())
                            .all(|(a, b)| a.paren() == b.paren())
                });
                if !same {
                    out.fail(format!("traced chain {j} selected a different set"));
                }
            }
        }
    }
}

/// Parse, compile and emit through the session's one-call path.
fn compile_plain(
    session: &mut CompileSession,
    source: &str,
    cpp: &mut String,
    rust: &mut String,
) -> Result<CompiledChain, String> {
    let (program, _) = session.parse(source).map_err(|e| e.to_string())?;
    let chain = session
        .compile(program.shape())
        .map_err(|e| e.to_string())?;
    emit_both(&chain, cpp, rust);
    Ok(chain)
}

fn emit_both(chain: &CompiledChain, cpp: &mut String, rust: &mut String) {
    cpp.clear();
    emit_cpp_into(cpp, chain, NAME);
    rust.clear();
    emit_rust_into(rust, chain, NAME);
}

/// The same pipeline stage by stage through the session's public calls,
/// with a span around each stage (mirrors `CompileSession::compile` for
/// an enumerable chain).
fn compile_traced(
    session: &mut CompileSession,
    tr: &mut Tracer,
    req: u64,
    source: &str,
    cpp: &mut String,
    rust: &mut String,
) -> Result<CompiledChain, String> {
    let root = tr.begin("compile.chain", req);
    let result = (|| {
        let (program, _) = tr
            .span("ir.parse", req, || session.parse(source))
            .map_err(|e| e.to_string())?;
        let shape: Shape = program.shape().clone();
        let opts = session.options().clone();
        let training = tr.span("ir.sample", req, || {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            InstanceSampler::new(&shape, opts.size_lo, opts.size_hi)
                .sample_many(&mut rng, opts.training_instances.max(1))
        });
        let pool = tr
            .span("core.enumerate", req, || session.all_variants(&shape))
            .map_err(|e| e.to_string())?;
        let base = tr.span("core.select", req, || {
            let matrix = session.cost_matrix(&pool, &training);
            select_base_set(&shape, &training, matrix.optimal()).map(|base| {
                base.variants
                    .iter()
                    .map(|v| {
                        pool.iter()
                            .position(|p| p.paren() == v.paren())
                            .expect("base variants come from the pool")
                    })
                    .collect::<Vec<usize>>()
            })
        });
        let base = base.map_err(|e| e.to_string())?;
        let set = tr.span("core.expand", req, || {
            session.expand_set(&base, base.len() + opts.expand_by, opts.objective)
        });
        let chain =
            CompiledChain::from_variants(shape, set.into_iter().map(|i| pool[i].clone()).collect());
        tr.span("codegen.emit", req, || emit_both(&chain, cpp, rust));
        Ok(chain)
    })();
    tr.end(root);
    result
}

const STAGES: [(&str, &str); 6] = [
    ("ir.parse", "ir.parse_us"),
    ("ir.sample", "ir.sample_us"),
    ("core.enumerate", "core.enumerate_us"),
    ("core.select", "core.select_us"),
    ("core.expand", "core.expand_us"),
    ("codegen.emit", "codegen.emit_us"),
];

/// Per-stage self time of the traced chains around the median latency
/// (the 45th to 55th percentile of traced chain latency), so the stages
/// plus the residual add up to that band's mean latency, i.e. to p50.
fn stage_breakdown(out: &mut Outcome, tr: &Tracer, roots: &[usize]) {
    let spans = tr.spans();
    let self_ns = tr.self_times_ns();
    let mut by_latency: Vec<usize> = roots.to_vec();
    by_latency.sort_by_key(|&r| spans[r].dur_ns());
    let lo = by_latency.len() * 45 / 100;
    let hi = (by_latency.len() * 55 / 100)
        .max(lo + 1)
        .min(by_latency.len());
    let band: HashSet<usize> = by_latency[lo..hi].iter().copied().collect();
    let chains = band.len().max(1) as f64;
    let mut totals = [0u64; STAGES.len()];
    let mut residual = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if band.contains(&i) {
            residual += self_ns[i];
        } else if s.parent.is_some_and(|p| band.contains(&p)) {
            if let Some(k) = STAGES.iter().position(|(name, _)| *name == s.name) {
                totals[k] += self_ns[i];
            }
        }
    }
    for (k, (_, metric)) in STAGES.iter().enumerate() {
        out.set(*metric, totals[k] as f64 / chains / 1e3);
    }
    out.set("compile.residual_us", residual as f64 / chains / 1e3);
    let band_ms: f64 = band.iter().map(|&r| spans[r].dur_ns() as f64).sum::<f64>() / chains / 1e6;
    eprintln!("perfbench compile: traced p50-band latency {band_ms:.3} ms");
}
