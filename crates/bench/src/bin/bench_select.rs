//! End-to-end selection-latency trajectory: enumerate the Catalan-132
//! pool of a 7-operand chain, fill the cost matrix, select the Theorem-2
//! base set, and run the Algorithm-1 expansion on the host's best SIMD
//! rung — once in a fresh session per rep and once in a warm session —
//! writing `BENCH_select.json`.
//!
//! Both regimes must select identical variant sets; only wall-clock may
//! differ. The recorded `speedup_vs_pr3` compares the cold-session time
//! to the 7.498 ms the pre-engine scalar pipeline measured on the same
//! workload and host. An `enumerate_*` breakdown isolates `build_pool` itself —
//! the dominant stage once the cost-matrix fill was vectorized —
//! per-tree `build_variant` lowering versus the memoized engine, and the
//! `frag_*` rows compare a capacity-0 fragment store with a cold, a full
//! and a warm one.
//!
//! Run with `cargo run --release --bin bench_select [--smoke]
//! [output.json]`.

use gmc_core::simd;
use gmc_core::{build_variant, CompileSession, Objective, ParenTree, PoolBuilder, Variant};
use gmc_ir::{Features, InstanceSampler, Operand, Property, Shape, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Single-thread end-to-end selection latency of the PR 3 pipeline on
/// this workload (dev host), the baseline the tentpole is measured
/// against (see `BENCH_select.json` history).
const PR3_SERIAL_MS: f64 = 7.498;

/// One full selection pass; returns the expanded index set.
fn select_once(session: &mut CompileSession, shape: &Shape) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(1234);
    let sampler = InstanceSampler::new(shape, 2, 500);
    let training = sampler.sample_many(&mut rng, 400);
    let pool = session.all_variants(shape).expect("pool under cap");
    let matrix = session.cost_matrix(&pool, &training);
    let initial = gmc_core::select_base_set_in(shape, &pool, matrix).expect("base set");
    session.expand_set(&initial, initial.len() + 4, Objective::AvgPenalty)
}

/// The fragment-store workload: eight related 7-chains sharing a
/// structured five-operand prefix (every sub-span of the prefix — the
/// bulk of each chain's span DAG — recurs in all eight shapes), with
/// inverted/structured operands so per-node lowering (inversion
/// propagation, kernel assignment, inference) dominates splicing.
fn frag_workload() -> Vec<Shape> {
    let g = Operand::plain(Features::general());
    let sy = Operand::plain(Features::new(Structure::Symmetric, Property::Spd));
    let lo = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular));
    let up = Operand::plain(Features::new(Structure::UpperTri, Property::NonSingular));
    let prefix = [g, lo.inverted(), sy.inverted(), up.inverted(), sy];
    let tails: [[Operand; 2]; 8] = [
        [g, g],
        [g, sy],
        [lo, g],
        [sy.inverted(), g],
        [up.inverted(), sy],
        [g, lo.inverted()],
        [sy, up],
        [lo.inverted(), up.inverted()],
    ];
    tails
        .iter()
        .map(|tail| {
            let mut ops = prefix.to_vec();
            ops.extend_from_slice(tail);
            Shape::new(ops).expect("workload shapes are valid")
        })
        .collect()
}

/// Random 7-chains over operands whose (structure, property) pairs never
/// occur in [`frag_workload`], so no span of theirs shares a descriptor
/// run, and therefore a store key, with a workload span: filling a store
/// from them leaves it full of entries the workload never hits.
fn filler_shapes() -> impl Iterator<Item = Shape> {
    let gn = Operand::plain(Features::new(Structure::General, Property::NonSingular));
    let ls = Operand::plain(Features::new(Structure::LowerTri, Property::Singular));
    let us = Operand::plain(Features::new(Structure::UpperTri, Property::Singular));
    let ops = [gn, gn.inverted(), gn.transposed(), ls, us];
    let mut rng = StdRng::seed_from_u64(4096);
    std::iter::from_fn(move || {
        let chain = (0..7)
            .map(|_| ops[rand::Rng::gen_range(&mut rng, 0..ops.len())])
            .collect();
        Some(Shape::new(chain).ok())
    })
    .flatten()
}

fn best_of<T, F: FnMut() -> T>(reps: usize, mut f: F) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t = Instant::now();
        result = Some(std::hint::black_box(f()));
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, result.expect("reps >= 1"))
}

fn main() {
    let mut out_path = "BENCH_select.json".to_owned();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let g = Operand::plain(Features::general());
    // n = 7: Catalan(6) = 132 variants, the paper's experiment scale.
    let shape = Shape::new(vec![g; 7]).unwrap();

    let simd_level = simd::active_level();

    let reps = if smoke { 2 } else { 20 };

    // The headline row uses a **fresh session per rep** (cold-compile
    // regime: what the first selection of a shape pays, enumeration
    // memo included), so it stays comparable with the pre-engine
    // baseline (`pr3_serial_ms`), which re-enumerated the pool on every
    // rep. The memo-warm repeat — the serving regime — is recorded
    // separately below as `warm_session_ms`.
    let (simd_s, simd_set) = best_of(reps, || select_once(&mut CompileSession::new(), &shape));

    // Warm-session regime: one session re-selecting its shape, the
    // PoolBuilder fragment memo and matrix scratch already hot.
    let mut warm_session = CompileSession::new();
    let _ = select_once(&mut warm_session, &shape);
    let (warm_s, warm_set) = best_of(reps, || select_once(&mut warm_session, &shape));

    // Enumeration breakdown: `build_pool` alone (the dominant stage once
    // the fill was vectorized), one per-tree `build_variant` call per
    // parenthesization vs the memoized span-DAG engine, cold each rep (a
    // fresh `PoolBuilder`, like a first compile of the shape). Pools must
    // be bit-identical.
    let trees = ParenTree::enumerate(0, shape.len() - 1);
    let (enum_naive_s, naive_pool) = best_of(reps, || {
        trees
            .iter()
            .map(|t| build_variant(&shape, t).expect("per-tree variant"))
            .collect::<Vec<Variant>>()
    });
    let (enum_memo_s, memo_pool) = best_of(reps, || {
        PoolBuilder::new()
            .build_for_trees(None, &shape, &trees)
            .expect("memoized pool")
    });
    assert_eq!(
        naive_pool, memo_pool,
        "memoized enumeration must build the bit-identical pool"
    );

    // Cross-shape fragment store: enumerate the 8-shape related
    // workload (shared structured prefix) in three regimes. `off` is a
    // capacity-0 store (never consulted); `cold` is a fresh store
    // discovering the workload (later shapes already splice the earlier
    // shapes' spans); `warm` is the serving/restart regime —
    // a store that has seen the workload re-enumerating it, every
    // association node a same-frame hit. One session per pass either
    // way, shapes cycled so the per-shape memo is re-targeted (and
    // dropped) on every shape: the store is the only state carried.
    let workload = frag_workload();
    let enumerate_workload = |session: &mut CompileSession| -> Vec<Vec<Variant>> {
        workload
            .iter()
            .map(|s| session.all_variants(s).expect("workload under cap"))
            .collect()
    };
    let (frag_off_s, off_pools) = best_of(reps, || {
        let mut session = CompileSession::new();
        session.set_fragment_cache_capacity(0);
        enumerate_workload(&mut session)
    });
    let (frag_cold_s, cold_pools) =
        best_of(reps, || enumerate_workload(&mut CompileSession::new()));
    // Full store: the long-lived serving regime, where the store has
    // already filled to capacity and every insert evicts. Each rep fills a
    // fresh session's store from unrelated shapes off the clock, then
    // times the same cold pass over the workload.
    let mut frag_full_s = f64::INFINITY;
    let mut full_pools = Vec::new();
    let mut full_evictions = 0;
    for _ in 0..reps {
        let mut session = CompileSession::new();
        for shape in filler_shapes() {
            if session.num_cached_fragments() == session.fragment_cache_capacity() {
                break;
            }
            let _ = session.all_variants(&shape).expect("filler under cap");
        }
        let filled = session.fragment_cache_stats();
        let t = Instant::now();
        full_pools = std::hint::black_box(enumerate_workload(&mut session));
        frag_full_s = frag_full_s.min(t.elapsed().as_secs_f64());
        let after = session.fragment_cache_stats();
        full_evictions = after.evictions - filled.evictions;
        assert!(
            full_evictions > 0 && full_evictions == after.inserts - filled.inserts,
            "every insert into the full store must evict"
        );
    }

    let mut warm_store = CompileSession::new();
    let _ = enumerate_workload(&mut warm_store);
    let (frag_warm_s, warm_pools) = best_of(reps, || enumerate_workload(&mut warm_store));
    let warm_stats = warm_store.fragment_cache_stats();

    assert_eq!(
        off_pools, cold_pools,
        "cold-store pools must be bit-identical to the capacity-0 control"
    );
    assert_eq!(
        off_pools, full_pools,
        "full-store pools must be bit-identical to the capacity-0 control"
    );
    assert_eq!(
        off_pools, warm_pools,
        "warm-store pools must be bit-identical to the capacity-0 control"
    );
    let frag_speedup = frag_cold_s / frag_warm_s;

    // Smoke sanity for the observability layer: the stage profile a
    // traced session records over one selection pass must account for
    // that pass's wall-clock within 2x in either direction — the spans
    // cover the dominant work without gross double-counting.
    if smoke {
        let mut session = CompileSession::new();
        session.set_tracing(true);
        let t = Instant::now();
        let _ = std::hint::black_box(select_once(&mut session, &shape));
        let wall_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
        let total_us = session.stage_profile().total_us();
        assert!(
            total_us <= wall_us.saturating_mul(2) && wall_us <= total_us.saturating_mul(2),
            "stage-profile total {total_us} us vs wall-clock {wall_us} us: beyond 2x"
        );
        println!("smoke: stage profile {total_us} us vs wall-clock {wall_us} us (within 2x)");
    }

    assert_eq!(
        simd_set, warm_set,
        "warm-session selection must pick the identical variant set"
    );

    let enum_speedup = enum_naive_s / enum_memo_s;
    let speedup_vs_pr3 = PR3_SERIAL_MS / (simd_s * 1e3);
    println!(
        "selection n=7 pool=132 (cold session): {} {:7.3} ms   \
         warm {:7.3} ms   vs PR3 baseline {:.2} ms: {:.2}x",
        simd_level.name(),
        simd_s * 1e3,
        warm_s * 1e3,
        PR3_SERIAL_MS,
        speedup_vs_pr3,
    );
    println!(
        "enumerate n=7 pool=132: per-tree {:7.3} ms   memoized {:7.3} ms ({:.2}x)",
        enum_naive_s * 1e3,
        enum_memo_s * 1e3,
        enum_speedup,
    );
    println!(
        "fragment store, 8 related 7-chains: off {:7.3} ms   cold {:7.3} ms   \
         full {:7.3} ms   warm {:7.3} ms ({:.2}x vs cold)   warm hit rate {:.3}",
        frag_off_s * 1e3,
        frag_cold_s * 1e3,
        frag_full_s * 1e3,
        frag_warm_s * 1e3,
        frag_speedup,
        warm_stats.hit_rate(),
    );

    let mut json = String::from("{\n  \"bench\": \"selection_end_to_end\",\n  \"unit\": \"ms\",\n");
    let _ = writeln!(json, "  \"chain\": \"general-7\",");
    let _ = writeln!(json, "  \"pool_variants\": 132,");
    let _ = writeln!(json, "  \"training_instances\": 400,");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", simd_level.name());
    let _ = writeln!(json, "  \"simd_ms\": {:.3},", simd_s * 1e3);
    let _ = writeln!(json, "  \"pr3_serial_ms\": {PR3_SERIAL_MS},");
    let _ = writeln!(json, "  \"speedup_vs_pr3\": {speedup_vs_pr3:.4},");
    let _ = writeln!(
        json,
        "  \"pr3_baseline_note\": \"pr3_serial_ms was measured on the 1-core AVX-512 dev \
         host; speedup_vs_pr3 is only meaningful on that host\","
    );
    let _ = writeln!(
        json,
        "  \"regime_note\": \"simd/serial rows are cold-session \
         (fresh session per rep, enumeration included, comparable to the PR3/PR4 \
         baselines); warm_session_ms is the memo-warm repeat (serving regime)\","
    );
    let _ = writeln!(json, "  \"serial_ms\": {:.3},", simd_s * 1e3);
    let _ = writeln!(json, "  \"warm_session_ms\": {:.3},", warm_s * 1e3);
    let _ = writeln!(json, "  \"enumerate_naive_ms\": {:.3},", enum_naive_s * 1e3);
    let _ = writeln!(json, "  \"enumerate_memo_ms\": {:.3},", enum_memo_s * 1e3);
    let _ = writeln!(json, "  \"enumerate_speedup\": {enum_speedup:.4},");
    let _ = writeln!(
        json,
        "  \"frag_workload_note\": \"frag_* rows enumerate 8 related structured 7-chains \
         sharing a 5-operand prefix: off = capacity-0 store, cold = fresh store, \
         full = store first filled to capacity from unrelated shapes (every insert \
         evicts), warm = store that has seen the workload (serving/restart regime); \
         pools bit-identical across all four\","
    );
    let _ = writeln!(json, "  \"frag_off_ms\": {:.3},", frag_off_s * 1e3);
    let _ = writeln!(json, "  \"frag_cold_ms\": {:.3},", frag_cold_s * 1e3);
    let _ = writeln!(json, "  \"frag_full_ms\": {:.3},", frag_full_s * 1e3);
    let _ = writeln!(json, "  \"frag_full_evictions\": {full_evictions},");
    let _ = writeln!(json, "  \"frag_warm_ms\": {:.3},", frag_warm_s * 1e3);
    let _ = writeln!(json, "  \"frag_speedup\": {frag_speedup:.4},");
    let _ = writeln!(
        json,
        "  \"frag_warm_hit_rate\": {:.4},",
        warm_stats.hit_rate()
    );
    let _ = writeln!(json, "  \"frag_pools_bit_identical\": true,");
    let _ = writeln!(json, "  \"enum_pools_bit_identical\": true,");
    let _ = writeln!(json, "  \"selected_variants\": {}", simd_set.len());
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
