//! End-to-end benchmark of the symgmc compiler.
//!
//! ```text
//! perfbench --workload compile|evaluate|serve --seed N --seconds S --trace 0|1
//!           [--gmcc PATH] [--work-dir DIR]
//! ```
//!
//! Each workload draws its inputs from `--seed`, measures for at least
//! `--seconds`, checks every output, and prints one JSON result line last
//! on stdout. With `--trace 0` the line carries the end-to-end metrics;
//! with `--trace 1` the per-layer metrics of a second run in which the
//! benchmark records spans around its calls into each layer (the spans
//! are written to `<work-dir>/trace-<workload>-<seed>.jsonl`). Operations
//! alternate between traced and untraced in the traced run, which gives
//! `trace_overhead_pct`. `perfbench/README.md` documents the workloads,
//! the metrics and the baseline.

mod compile;
mod evaluate;
mod serve;
mod speed;
mod stats;
mod trace;

use stats::{result_line, Outcome};
use std::path::PathBuf;
use trace::Tracer;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Host-speed probes run before each timed set-up.
pub const SETUP_PROBES: usize = 5;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("flop_penalty_mean", "ratio"),
    ("flop_penalty_max", "ratio"),
    ("emitted_kib", "KiB"),
];

/// Lowercased `Kernel::name()` of every association kernel.
pub const KERNELS: [&str; 18] = [
    "gemm", "symm", "trmm", "sysymm", "trsymm", "trtrmm", "gegesv", "gesysv", "getrsv", "sygesv",
    "sysysv", "sytrsv", "pogesv", "posysv", "potrsv", "trsm", "trsysv", "trtrsv",
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer
/// the workload does not exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("ir.parse_us", "us"),
        ("ir.sample_us", "us"),
        ("core.enumerate_us", "us"),
        ("core.select_us", "us"),
        ("core.expand_us", "us"),
        ("codegen.emit_us", "us"),
        ("compile.residual_us", "us"),
        ("core.pool_variants", "count"),
        ("core.selected_variants", "count"),
        ("core.frag_hit_rate", "ratio"),
        ("program.dispatch_us", "us"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    m.extend(KERNELS.iter().map(|k| (format!("kernels.{k}.ms"), "ms")));
    m.extend(
        [
            ("kernels.gemm.gflops", "GFLOP/s"),
            ("kernels.calls_per_eval", "count"),
            ("variant.unattributed_ms", "ms"),
            ("evaluate.useful_gflops", "GFLOP/s"),
            ("serve.jsonl.decode_us", "us"),
            ("serve.jsonl.encode_us", "us"),
            ("serve.service_us", "us"),
            ("serve.server_e2e_us.p50", "us"),
            ("serve.server_e2e_us.p99", "us"),
            ("serve.queue_wait_us.p50", "us"),
            ("serve.queue_wait_us.p99", "us"),
            ("serve.compile_us.p50", "us"),
            ("serve.compile_us.p99", "us"),
            ("serve.transport_us.p50", "us"),
            ("serve.unattributed_us.p50", "us"),
            ("serve.chain_hit_rate", "ratio"),
            ("serve.frag_hit_rate", "ratio"),
            ("serve.shed", "count"),
            ("serve.late_drops", "count"),
            ("serve.restarts", "count"),
            ("persist.restore_ms", "ms"),
            ("trace_overhead_pct", "%"),
            ("host.probe_us", "us"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    m
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub gmcc: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        gmcc: PathBuf::from("gmcc"),
        work_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--gmcc" => args.gmcc = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Derive an independent stream seed from the workload seed.
pub fn seed_mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of the code under test: this executable (which links the
/// compiler's crates) and the `gmcc` binary the `serve` workload starts.
fn code_fingerprint(args: &Args) -> std::io::Result<u64> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in [std::env::current_exe()?, args.gmcc.clone()] {
        // A missing `gmcc` only matters to `serve`, which fails to start it.
        for &b in std::fs::read(path).unwrap_or_default().iter() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(h)
}

/// Compare this run's seed-determined values with those an earlier run
/// of the same code, workload and seed recorded, and record them if this
/// run had no failures. A mismatch is a benchmark fault.
fn check_repeat(args: &Args, outcome: &mut Outcome) {
    let code = match code_fingerprint(args) {
        Ok(h) => h,
        Err(e) => {
            outcome
                .faults
                .push(format!("cannot fingerprint the code under test: {e}"));
            return;
        }
    };
    let path = args.work_dir.join(format!(
        "repeat-{}-{}-{code:016x}.txt",
        args.workload, args.seed
    ));
    let mut known: Vec<(String, u64)> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (name, bits) = l.split_once(' ')?;
            Some((name.to_string(), bits.parse().ok()?))
        })
        .collect();
    for &(name, value) in &outcome.deterministic {
        match known.iter().find(|(n, _)| n == name) {
            Some((_, bits)) if *bits != value.to_bits() => outcome.faults.push(format!(
                "{name} = {value} but an earlier run with seed {} gave {}",
                args.seed,
                f64::from_bits(*bits)
            )),
            Some(_) => {}
            None => known.push((name.to_string(), value.to_bits())),
        }
    }
    if outcome.failed > 0 || !outcome.faults.is_empty() {
        return;
    }
    let text: String = known.iter().map(|(n, b)| format!("{n} {b}\n")).collect();
    if let Err(e) = std::fs::write(&path, text) {
        outcome
            .faults
            .push(format!("cannot record {}: {e}", path.display()));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "compile" => compile::run(&args, &mut tracer),
        "evaluate" => evaluate::run(&args, &mut tracer),
        "serve" => match serve::run(&args, &mut tracer) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload `{other}` (compile, evaluate, serve)");
            std::process::exit(2);
        }
    };
    check_repeat(&args, &mut outcome);
    if tracer.enabled() {
        let path = args
            .work_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            outcome
                .faults
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    for fault in &outcome.faults {
        eprintln!("perfbench: benchmark fault: {fault}");
    }
    eprintln!(
        "perfbench {}: error_rate {:.6} ({} of {} failed)",
        args.workload,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<(&str, f64, &str)> = names
        .iter()
        .map(|(n, u)| {
            let v = outcome.metrics.get(n).copied();
            if v.is_none() && !args.trace {
                outcome.faults.push(format!("metric {n} was not measured"));
            }
            (n.as_str(), v.unwrap_or(0.0), *u)
        })
        .collect();
    println!("{}", result_line(&outcome, &metrics));
}
