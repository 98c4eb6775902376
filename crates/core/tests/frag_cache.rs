//! The cross-shape fragment store's contract: consulting the store must
//! never change a single emitted bit. Pools assembled from store hits —
//! including hits relocated across frames, hits surviving LRU pressure,
//! and hits warmed from a persisted snapshot — must equal the pools a
//! store-less session builds, by whole-[`Variant`] equality (steps,
//! `ValRef`s, finalizes, exact-rational cost polynomials). The
//! off-reference is a capacity-0 session, the store's one off switch: it
//! never consults the store, so it counts nothing at all.

use gmc_core::{CompileOptions, CompileSession, FragCacheStats, SessionSnapshot, Variant};
use gmc_ir::{Operand, Shape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's experiment operands plus valid transposed forms, so
/// structured/inverted/transposed descriptor runs all reach the store.
fn operand_options() -> Vec<Operand> {
    let base = Operand::experiment_options();
    let mut out = base.clone();
    for op in base {
        let t = op.transposed();
        if t.is_valid() {
            out.push(t);
        }
    }
    out
}

fn random_shape(rng: &mut StdRng, n: usize) -> Option<Shape> {
    let options = operand_options();
    let ops: Vec<Operand> = (0..n)
        .map(|_| options[rand::Rng::gen_range(rng, 0..options.len())])
        .collect();
    Shape::new(ops).ok()
}

/// A random sequence of shapes sharing operands (and therefore spans) —
/// the workload the store exists for.
fn random_sequence(rng: &mut StdRng, len: usize) -> Vec<Shape> {
    let mut shapes = Vec::new();
    while shapes.len() < len {
        let n = 2 + rand::Rng::gen_range(rng, 0..6);
        if let Some(s) = random_shape(rng, n) {
            shapes.push(s);
        }
    }
    shapes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Store-assembled pools are bit-identical to store-less pools for
    /// random shape sequences and `jobs` in {1, 4} — with the store
    /// actually doing work, and the capacity-0 session counting nothing.
    #[test]
    fn store_assembled_pools_equal_storeless_pools_exactly(
        seq_seed in 0u64..50_000,
        jobs_sel in 0usize..2,
    ) {
        let jobs = [1usize, 4][jobs_sel];
        let mut rng = StdRng::seed_from_u64(seq_seed);
        let shapes = random_sequence(&mut rng, 8);

        let mut with_store = CompileSession::new();
        with_store.set_jobs(jobs);
        let mut without = CompileSession::new();
        without.set_jobs(jobs);
        without.set_fragment_cache_capacity(0);

        for shape in &shapes {
            let a: Vec<Variant> = with_store.all_variants(shape).unwrap();
            let b: Vec<Variant> = without.all_variants(shape).unwrap();
            prop_assert_eq!(&a, &b, "jobs = {}", jobs);
        }
        let stats = with_store.fragment_cache_stats();
        prop_assert!(stats.hits + stats.misses > 0, "store was consulted");
        prop_assert_eq!(
            without.fragment_cache_stats(),
            FragCacheStats::default(),
            "capacity 0 never consults the store"
        );
    }

    /// Under LRU pressure (a store far smaller than the working set)
    /// eviction fires and re-lowered fragments are still bit-identical.
    #[test]
    fn eviction_under_pressure_stays_bit_identical(
        seq_seed in 0u64..50_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seq_seed);
        let shapes = random_sequence(&mut rng, 8);

        let mut tiny = CompileSession::new();
        tiny.set_jobs(1);
        tiny.set_fragment_cache_capacity(3);
        let mut reference = CompileSession::new();
        reference.set_jobs(1);
        reference.set_fragment_cache_capacity(0);

        for shape in &shapes {
            // Twice per shape so the tiny store must also serve hits on
            // entries that survived (or were re-inserted after) eviction.
            for _ in 0..2 {
                let a: Vec<Variant> = tiny.all_variants(shape).unwrap();
                let b: Vec<Variant> = reference.all_variants(shape).unwrap();
                prop_assert_eq!(&a, &b);
            }
            prop_assert!(tiny.num_cached_fragments() <= 3, "capacity respected");
        }
        let stats = tiny.fragment_cache_stats();
        prop_assert!(
            stats.evictions > 0,
            "8 shapes x capacity 3 must evict (inserts = {})",
            stats.inserts
        );
    }
}

#[test]
fn related_shapes_share_fragments_across_the_store() {
    // Shapes that share a prefix of operands share every sub-span of
    // that prefix; after the first compile the rest must hit.
    let options = operand_options();
    let mut session = CompileSession::new();
    session.set_jobs(1);
    for tail in options.iter().take(8) {
        let mut ops = vec![options[0], options[1], options[2]];
        ops.push(*tail);
        if let Ok(shape) = Shape::new(ops) {
            let _ = session.all_variants(&shape).unwrap();
        }
    }
    let stats = session.fragment_cache_stats();
    assert!(
        stats.hits > 0,
        "shared prefix spans must hit ({} misses)",
        stats.misses
    );
}

#[test]
fn snapshot_round_trip_restores_fragments_and_emits_identically() {
    let opts = CompileOptions {
        training_instances: 120,
        expand_by: 1,
        ..CompileOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(777);
    let shapes = random_sequence(&mut rng, 5);

    // Original daemon: compile, emit, snapshot (chains + hot fragments).
    let mut original = CompileSession::with_options(opts.clone());
    let mut want = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let chain = original.compile(shape).unwrap();
        let mut rust = String::new();
        gmc_codegen::emit_rust_into(&mut rust, &chain, &format!("f{i}"));
        want.push(rust);
    }
    let snap = original.snapshot();
    assert!(snap.num_fragments() > 0, "hot fragments are persisted");
    let text = snap.encode();
    drop(original);

    // Restarted daemon: fragments are warmed before the chain rebuild,
    // so the rebuild itself assembles from store hits; every persisted
    // entry lands (fresh store, ample capacity) and the re-emit is
    // byte-identical.
    let snap = SessionSnapshot::decode(&text).unwrap();
    let mut restored = CompileSession::with_options(opts);
    assert_eq!(restored.restore(&snap).unwrap(), shapes.len());
    let stats = restored.fragment_cache_stats();
    assert_eq!(
        stats.restored,
        snap.num_fragments() as u64,
        "every persisted fragment restored exactly once"
    );
    assert!(
        stats.hits > 0,
        "the restore rebuild must hit warm fragments"
    );
    for (i, shape) in shapes.iter().enumerate() {
        let chain = restored.compile(shape).unwrap();
        let mut rust = String::new();
        gmc_codegen::emit_rust_into(&mut rust, &chain, &format!("f{i}"));
        assert_eq!(rust, want[i], "byte-identical emit for shape {i}");
    }
}
