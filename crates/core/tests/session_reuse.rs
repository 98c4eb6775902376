//! Session-reuse guarantees: a long-lived [`CompileSession`] must behave
//! exactly like a procession of fresh one-shot pipelines — same pools,
//! bit-identical costs, same selected indices — while reusing its
//! arenas. The same bar holds for the bounded cache and warm-restart persistence: LRU
//! eviction only ever forgets (re-compiles are bit-identical), and a
//! save → drop → load round trip emits byte-identical C++/Rust.

use gmc_core::{
    all_variants, expand_set, fanning_out_set, select_base_set, select_base_set_in, CompileOptions,
    CompileSession, CompiledChain, CostMatrix, Objective, SessionSnapshot, Variant,
};
use gmc_ir::{Instance, InstanceSampler, Operand, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_shape(rng: &mut StdRng, n: usize) -> Option<Shape> {
    let options = Operand::experiment_options();
    let ops: Vec<Operand> = (0..n)
        .map(|_| options[rand::Rng::gen_range(rng, 0..options.len())])
        .collect();
    Shape::new(ops).ok()
}

#[test]
fn same_program_twice_is_bit_identical_to_fresh_sessions() {
    let source = "
        Matrix A <General, Singular>;
        Matrix L <LowerTri, NonSingular>;
        Matrix P <Symmetric, SPD>;
        X := A * L^-1 * P^-1;
    ";
    let opts = CompileOptions {
        training_instances: 300,
        expand_by: 2,
        ..CompileOptions::default()
    };

    let mut session = CompileSession::with_options(opts.clone());
    let (program, id1) = session.parse(source).unwrap();
    let first = session.compile(program.shape()).unwrap();
    let (_, id2) = session.parse(source).unwrap();
    assert_eq!(id1, id2, "re-parsing interns to the same shape id");
    let second = session.compile(program.shape()).unwrap();
    assert_eq!(
        session.num_cached_chains(),
        1,
        "second compile is a cache hit"
    );

    let fresh = CompiledChain::compile_with(program.shape().clone(), &opts).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let sampler = InstanceSampler::new(program.shape(), 2, 400);
    for chain in [&second, &fresh] {
        assert_eq!(first.variants().len(), chain.variants().len());
        for (a, b) in first.variants().iter().zip(chain.variants()) {
            assert_eq!(a.paren(), b.paren());
            assert_eq!(a.cost_poly(), b.cost_poly());
            for q in sampler.sample_many(&mut rng, 20) {
                assert_eq!(a.flops(&q).to_bits(), b.flops(&q).to_bits());
            }
        }
    }
}

#[test]
fn fifty_distinct_programs_through_one_session() {
    // 50 distinct shapes through one session: per-shape DP costs must be
    // bit-identical to a fresh solver (which `dp`'s own tests pin to the
    // HashMap reference), and compiled selections must match
    // fresh-session compiles.
    let mut rng = StdRng::seed_from_u64(2026);
    let opts = CompileOptions {
        training_instances: 60,
        size_hi: 200,
        ..CompileOptions::default()
    };
    let mut session = CompileSession::with_options(opts.clone());
    let mut distinct: Vec<Shape> = Vec::new();
    while distinct.len() < 50 {
        let n = 2 + distinct.len() % 6;
        if let Some(shape) = random_shape(&mut rng, n) {
            if !distinct.contains(&shape) {
                distinct.push(shape);
            }
        }
    }
    for (i, shape) in distinct.iter().enumerate() {
        let sampler = InstanceSampler::new(shape, 2, 300);
        // Dispatch-loop pattern: several instances against the session's
        // warm per-shape solver.
        for _ in 0..3 {
            let q = sampler.sample(&mut rng);
            let warm = session.optimal_cost(shape, &q).unwrap();
            let cold = gmc_core::optimal_cost(shape, &q).unwrap();
            assert_eq!(warm.to_bits(), cold.to_bits(), "shape {i}: warm vs cold");
        }
        // Every 10th shape, run full compilation both ways.
        if i % 10 == 0 {
            let via_session = session.compile(shape).unwrap();
            let fresh = CompiledChain::compile_with(shape.clone(), &opts).unwrap();
            assert_eq!(via_session.variants().len(), fresh.variants().len());
            for (a, b) in via_session.variants().iter().zip(fresh.variants()) {
                assert_eq!(a.paren(), b.paren(), "shape {i}");
                assert_eq!(a.cost_poly(), b.cost_poly(), "shape {i}");
            }
        }
    }
    assert_eq!(session.num_shapes(), 50);
}

#[test]
fn lru_eviction_at_capacity_recompiles_bit_identically() {
    // A capacity-2 cache cycling through 4 shapes: the counters prove
    // the LRU policy (oldest shape evicted), and the post-eviction
    // recompile is bit-identical to the cached original.
    let opts = CompileOptions {
        training_instances: 80,
        ..CompileOptions::default()
    };
    let mut session = CompileSession::with_options(opts);
    session.set_chain_cache_capacity(2);
    let mut rng = StdRng::seed_from_u64(99);
    let mut shapes = Vec::new();
    while shapes.len() < 4 {
        if let Some(s) = random_shape(&mut rng, 3 + shapes.len() % 3) {
            if !shapes.contains(&s) {
                shapes.push(s);
            }
        }
    }
    let originals: Vec<CompiledChain> =
        shapes.iter().map(|s| session.compile(s).unwrap()).collect();
    // 4 compiles into capacity 2: all misses, 2 evictions (the oldest).
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 4, 2));
    assert_eq!(session.num_cached_chains(), 2);
    // The two newest shapes are resident (hits); the two oldest were
    // evicted and recompile from scratch, selecting identical variants.
    for (i, shape) in shapes.iter().enumerate().rev() {
        let again = session.compile(shape).unwrap();
        assert_eq!(again.variants().len(), originals[i].variants().len());
        for (a, b) in again.variants().iter().zip(originals[i].variants()) {
            assert_eq!(a.paren(), b.paren(), "shape {i}");
            assert_eq!(a.cost_poly(), b.cost_poly(), "shape {i}");
        }
    }
    let stats = session.cache_stats();
    assert_eq!(stats.hits, 2, "shapes 3 and 2 were resident");
    assert_eq!(stats.misses, 6, "shapes 1 and 0 re-selected");
}

#[test]
fn save_drop_load_round_trip_emits_byte_identical_artifacts() {
    let opts = CompileOptions {
        training_instances: 120,
        expand_by: 1,
        ..CompileOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(4242);
    let mut shapes = Vec::new();
    while shapes.len() < 6 {
        if let Some(s) = random_shape(&mut rng, 2 + shapes.len() % 5) {
            if !shapes.contains(&s) {
                shapes.push(s);
            }
        }
    }

    // Original session: compile everything, emit, snapshot to disk.
    let mut original = CompileSession::with_options(opts.clone());
    let mut want = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let chain = original.compile(shape).unwrap();
        let mut cpp = String::new();
        gmc_codegen::emit_cpp_into(&mut cpp, &chain, &format!("f{i}"));
        let mut rust = String::new();
        gmc_codegen::emit_rust_into(&mut rust, &chain, &format!("f{i}"));
        want.push((cpp, rust));
    }
    let dir = std::env::temp_dir().join("gmc_core_persist_roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");
    original.snapshot().save(&path).unwrap();
    drop(original);

    // Fresh process-equivalent: load and re-emit without re-selection.
    let mut restored = CompileSession::with_options(opts);
    let snap = SessionSnapshot::load(&path).unwrap();
    assert_eq!(restored.restore(&snap).unwrap(), shapes.len());
    for (i, shape) in shapes.iter().enumerate() {
        let chain = restored.compile(shape).unwrap();
        let mut cpp = String::new();
        gmc_codegen::emit_cpp_into(&mut cpp, &chain, &format!("f{i}"));
        let mut rust = String::new();
        gmc_codegen::emit_rust_into(&mut rust, &chain, &format!("f{i}"));
        assert_eq!(cpp, want[i].0, "C++ byte-identical for shape {i}");
        assert_eq!(rust, want[i].1, "Rust byte-identical for shape {i}");
    }
    // And the counters prove no selection pipeline ran: all hits.
    let stats = restored.cache_stats();
    assert_eq!((stats.hits, stats.misses), (shapes.len() as u64, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One session must match the one-shot functions at every stage —
    /// pool order and contents, cost matrix contents bit for bit, every
    /// expansion step, and the whole compile.
    #[test]
    fn session_selection_matches_one_shot(
        n in 3usize..=6,
        code_seed in 0u64..5_000,
        expand_by in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(code_seed);
        let shape = match random_shape(&mut rng, n) {
            Some(s) => s,
            None => return Ok(()),
        };
        let sampler = InstanceSampler::new(&shape, 2, 300);
        let training: Vec<Instance> = sampler.sample_many(&mut rng, 150);
        let mut session = CompileSession::new();

        // Stage 1: enumeration order and contents.
        let pool = all_variants(&shape).unwrap();
        let from_session = session.all_variants(&shape).unwrap();
        prop_assert_eq!(&pool, &from_session);

        // Stage 2: cost matrix contents, bit for bit.
        let one_shot = CostMatrix::flops(&pool, &training);
        {
            let m = session.cost_matrix(&from_session, &training);
            for v in 0..one_shot.num_variants() {
                for i in 0..one_shot.num_instances() {
                    prop_assert_eq!(one_shot.cost(v, i).to_bits(), m.cost(v, i).to_bits());
                }
            }
            for (a, b) in one_shot.optimal().iter().zip(m.optimal()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Stage 3: base set + greedy expansion.
        let initial = select_base_set_in(&shape, &pool, &one_shot).unwrap();
        let k = initial.len() + expand_by;
        let reference = expand_set(&one_shot, &initial, k, Objective::AvgPenalty);
        let expanded = session.expand_set(&initial, k, Objective::AvgPenalty);
        prop_assert_eq!(&reference, &expanded);

        // Stage 4: whole-pipeline compile.
        let opts = CompileOptions {
            training_instances: 100,
            expand_by,
            ..CompileOptions::default()
        };
        session.set_options(opts.clone());
        let chain = session.compile(&shape).unwrap();
        let fresh = CompiledChain::compile_with(shape, &opts).unwrap();
        prop_assert_eq!(chain.variants(), fresh.variants());
    }
}

/// Training-set sizes for the base-set identity property: one instance,
/// and every full-block/tail split of the 8-lane reduction.
const TRAINING_COUNTS: [usize; 5] = [1, 7, 9, 63, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Choosing the base set from the pool and its cost matrix selects
    /// exactly the one-shot `select_base_set` variants, in the same order
    /// — including chains of up to three matrices, where different `E_h`
    /// induce the same tree.
    #[test]
    fn base_set_from_the_matrix_matches_the_one_shot_path(
        n in 1usize..=8,
        code_seed in 0u64..5_000,
        count_idx in 0usize..TRAINING_COUNTS.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(code_seed);
        let shape = match random_shape(&mut rng, n) {
            Some(s) => s,
            None => return Ok(()),
        };
        let training = InstanceSampler::new(&shape, 2, 300)
            .sample_many(&mut rng, TRAINING_COUNTS[count_idx]);
        let pool = all_variants(&shape).unwrap();
        let matrix = CostMatrix::flops(&pool, &training);
        let selected: Vec<&Variant> = select_base_set_in(&shape, &pool, &matrix)
            .unwrap()
            .into_iter()
            .map(|i| &pool[i])
            .collect();
        let one_shot = select_base_set(&shape, &training, matrix.optimal()).unwrap();
        let expected: Vec<&Variant> = one_shot.variants.iter().collect();
        prop_assert_eq!(selected, expected);
    }
}

#[test]
fn long_chains_select_the_per_tree_fanning_out_variants() {
    // Past the enumeration cap the session lowers only the fanning-out
    // trees, through its memoized builder: every selected variant must
    // equal the per-tree lowering of the same tree, as a whole variant.
    let opts = CompileOptions {
        training_instances: 16,
        size_hi: 200,
        expand_by: 2,
        ..CompileOptions::default()
    };
    let mut session = CompileSession::with_options(opts);
    let mut rng = StdRng::seed_from_u64(1013);
    for n in [10, 12, 13] {
        let shape = loop {
            if let Some(s) = random_shape(&mut rng, n) {
                break s;
            }
        };
        let chain = session.compile(&shape).unwrap();
        let reference = fanning_out_set(&shape).unwrap();
        for v in chain.variants() {
            let (_, want) = reference
                .iter()
                .find(|(_, r)| r.paren() == v.paren())
                .expect("selected from the fanning-out set");
            assert_eq!(v, want, "n = {n}");
        }
    }
}
