//! The cross-shape fragment store's contract: consulting the store must
//! never change a single emitted bit. Pools assembled from store hits —
//! including hits relocated across frames, hits surviving LRU pressure,
//! and hits during a snapshot restore — must equal the pools a
//! store-less session builds, by whole-[`Variant`] equality (steps,
//! `ValRef`s, finalizes, exact-rational cost polynomials). The
//! off-reference is a capacity-0 session, the store's one off switch: it
//! never consults the store, so it counts nothing at all. Snapshots carry
//! no fragments: the `frag` lines of an old snapshot have no effect.

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
    /// random shape sequences — with the store actually doing work, and
    /// the capacity-0 session counting nothing.
    #[test]
    fn store_assembled_pools_equal_storeless_pools_exactly(
        seq_seed in 0u64..50_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seq_seed);
        let shapes = random_sequence(&mut rng, 8);

        let mut with_store = CompileSession::new();
        let mut without = CompileSession::new();
        without.set_fragment_cache_capacity(0);

        for shape in &shapes {
            let a: Vec<Variant> = with_store.all_variants(shape).unwrap();
            let b: Vec<Variant> = without.all_variants(shape).unwrap();
            prop_assert_eq!(&a, &b);
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
        tiny.set_fragment_cache_capacity(3);
        let mut reference = CompileSession::new();
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
        // Every insert follows a miss, so it adds an entry; whatever is
        // no longer resident was evicted, and counted, exactly once.
        prop_assert_eq!(
            stats.evictions,
            stats.inserts - tiny.num_cached_fragments() as u64
        );
    }
}

#[test]
fn related_shapes_share_fragments_across_the_store() {
    // Shapes that share a prefix of operands share every sub-span of
    // that prefix; after the first compile the rest must hit.
    let options = operand_options();
    let mut session = CompileSession::new();
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

    // Original daemon: compile, emit, snapshot the chains.
    let mut original = CompileSession::with_options(opts.clone());
    let mut want = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        let chain = original.compile(shape).unwrap();
        let mut rust = String::new();
        gmc_codegen::emit_rust_into(&mut rust, &chain, &format!("f{i}"));
        want.push(rust);
    }
    let text = original.snapshot().encode();
    drop(original);

    // Restarted daemon: the chain rebuild runs through a cold store, and
    // the re-emit is byte-identical.
    let snap = SessionSnapshot::decode(&text).unwrap();
    let mut restored = CompileSession::with_options(opts);
    assert_eq!(restored.restore(&snap).unwrap(), shapes.len());
    for (i, shape) in shapes.iter().enumerate() {
        let chain = restored.compile(shape).unwrap();
        let mut rust = String::new();
        gmc_codegen::emit_rust_into(&mut rust, &chain, &format!("f{i}"));
        assert_eq!(rust, want[i], "byte-identical emit for shape {i}");
    }
}

/// A snapshot written before snapshots stopped carrying fragments, by
/// `gmcc --serve - --jobs 1 --train 50 --persist` for
/// `X := A * B^-1 * C * D^T` (A, C, D general singular; B lower
/// triangular non-singular): 4 trees and a 12-line `frags` section.
const OLD_SNAPSHOT: &str = "\
gmc-session-snapshot v1
options train=50 lo=2 hi=1000 expand=0 obj=avg seed=6168263 vcap=65536
shape 0 Gs Lni Gs Gst
chain 0 (((0,1),2),3) ((0,1),(2,3)) ((0,(1,2)),3) (0,(1,(2,3)))
frags v1 12
frag 11 c Gs..:0:1:l0,Ln.I:1:1:l1 l0~l1~TRSM~R~..~nl~.~0~1~1 Gs..:0:1:t0 1/1:0^1.1^2
frag 11 c Ln.I:0:0:l0,Gs..:0:1:l1 l0~l1~TRSM~L~..~ln~.~0~0~1 Gs..:0:1:t0 1/1:0^2.1^1
frag 11 c Gs..:0:1:l0,GsT.:2:1:l1 l0~l1~GEMM~L~.T~nn~.~0~1~2 Gs..:0:2:t0 2/1:0^1.1^1.2^1
frag 11 34 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2 l0~t0~GEMM~L~..~nn~.~0~1~2 Gs..:0:2:t1 2/1:0^1.1^1.2^1;1/1:1^2.2^1
frag 11 38 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2 t0~l2~GEMM~L~..~nn~.~0~1~2 Gs..:0:2:t1 2/1:0^1.1^1.2^1;1/1:0^1.1^2
frag 11 34 Ln.I:0:0:l0,Gs..:0:1:l1,GsT.:2:1:l2 l0~t0~TRSM~L~..~ln~.~0~0~2 Gs..:0:2:t1 2/1:0^1.1^1.2^1;1/1:0^2.2^1
frag 11 38 Ln.I:0:0:l0,Gs..:0:1:l1,GsT.:2:1:l2 t0~l2~GEMM~L~.T~nn~.~0~1~2 Gs..:0:2:t1 2/1:0^1.1^1.2^1;1/1:0^2.1^1
frag 11 d4 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2,GsT.:3:2:l3 l0~t1~GEMM~L~..~nn~.~0~1~3 Gs..:0:3:t2 2/1:0^1.1^1.3^1;2/1:1^1.2^1.3^1;1/1:1^2.3^1
frag 11 d8 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2,GsT.:3:2:l3 l0~t1~GEMM~L~..~nn~.~0~1~3 Gs..:0:3:t2 2/1:0^1.1^1.3^1;2/1:1^1.2^1.3^1;1/1:1^2.2^1
frag 11 e4 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2,GsT.:3:2:l3 t0~t1~GEMM~L~..~nn~.~0~1~3 Gs..:0:3:t2 2/1:0^1.1^1.3^1;1/1:0^1.1^2;2/1:1^1.2^1.3^1
frag 11 e8 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2,GsT.:3:2:l3 t1~l3~GEMM~L~.T~nn~.~0~2~3 Gs..:0:3:t2 2/1:0^1.1^1.2^1;2/1:0^1.2^1.3^1;1/1:1^2.2^1
frag 11 f0 Gs..:0:1:l0,Ln.I:1:1:l1,Gs..:1:2:l2,GsT.:3:2:l3 t1~l3~GEMM~L~.T~nn~.~0~2~3 Gs..:0:3:t2 2/1:0^1.1^1.2^1;1/1:0^1.1^2;2/1:0^1.2^1.3^1
";

const OLD_SNAPSHOT_SOURCE: &str = "
    Matrix A <General, Singular>;
    Matrix B <LowerTri, NonSingular>;
    Matrix C <General, Singular>;
    Matrix D <General, Singular>;
    X := A * B^-1 * C * D^T;
";

/// `OLD_SNAPSHOT` with the first `frag` line starting `frag <prefix>`
/// rewritten by `edit`.
fn edit_frag_line(prefix: &str, edit: impl Fn(&str) -> String) -> String {
    let at = OLD_SNAPSHOT
        .lines()
        .position(|l| l.starts_with(&format!("frag {prefix}")))
        .expect("fixture has the line");
    let lines: Vec<String> = OLD_SNAPSHOT
        .lines()
        .enumerate()
        .map(|(i, l)| if i == at { edit(l) } else { l.to_string() })
        .collect();
    let edited = lines.join("\n");
    assert_ne!(
        edited.trim_end(),
        OLD_SNAPSHOT.trim_end(),
        "the edit landed"
    );
    edited
}

#[test]
fn old_snapshots_restore_byte_identically_whatever_their_fragment_lines_say() {
    let opts = CompileOptions {
        training_instances: 50,
        ..CompileOptions::default()
    };
    let mut cold = CompileSession::with_options(opts.clone());
    let (program, _) = cold.parse(OLD_SNAPSHOT_SOURCE).unwrap();
    let want = gmc_codegen::emit_cpp(&cold.compile(program.shape()).unwrap(), "x");

    // A cost coefficient the store would have served, and a run size
    // symbol far past the run's frame.
    let scaled = edit_frag_line("11 d4 ", |l| {
        let (head, cost) = l.rsplit_once(' ').unwrap();
        format!("{head} {}", cost.replacen("2/1", "9/1", 1))
    });
    let huge = edit_frag_line("11 c ", |l| {
        l.replacen("Gs..:0:1:l0", "Gs..:18446744073709551614:1:l0", 1)
    });
    for (label, text) in [
        ("original", OLD_SNAPSHOT),
        ("9/1", &scaled),
        ("symbol", &huge),
    ] {
        let snap = SessionSnapshot::decode(text).unwrap();
        assert_eq!(snap.shapes().collect::<Vec<_>>(), [program.shape()]);
        let mut session = CompileSession::with_options(opts.clone());
        assert_eq!(session.restore(&snap).unwrap(), 1, "{label}");
        let chain = session.compile(program.shape()).unwrap();
        assert_eq!(session.cache_stats().hits, 1, "{label}: served restored");
        assert_eq!(chain.variants().len(), 4, "{label}");
        assert_eq!(gmc_codegen::emit_cpp(&chain, "x"), want, "{label}");
    }
}
