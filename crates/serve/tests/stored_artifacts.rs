//! A shard answers a chain-cache hit with the artifacts it stored when
//! it last rendered that shape for the same `name` and `emit`. These
//! tests hold every response, stored or rendered, to a fresh rendering:
//! `emit_cpp`, `emit_rust` and `describe` of
//! `CompiledChain::compile_with` under the service's options.

use gmc_codegen::{emit_cpp, emit_rust};
use gmc_core::{CompileOptions, CompiledChain};
use gmc_ir::grammar::parse_program;
use gmc_serve::fault::FaultPlan;
use gmc_serve::{
    Artifacts, CompileRequest, CompileResponse, CompileService, Emit, FailureKind, RestartPolicy,
    ServeConfig,
};
use std::time::Duration;

const SRC_A: &str = "
    Matrix A <General, Singular>;
    Matrix L <LowerTri, NonSingular>;
    Matrix B <General, Singular>;
    X := A * L^-1 * B;
";
const SRC_B: &str = "
    Matrix H <General, Singular>;
    Matrix P <Symmetric, SPD>;
    Y := H * P^-1;
";

fn options() -> CompileOptions {
    CompileOptions {
        training_instances: 60,
        ..CompileOptions::default()
    }
}

fn config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        shards: 1,
        options: options(),
        cache_capacity,
        ..ServeConfig::default()
    }
}

/// What a shard must answer for `source` rendered as `name` and `emit`.
fn fresh(source: &str, name: &str, emit: Emit) -> Artifacts {
    let program = parse_program(source).expect("test source parses");
    let chain = CompiledChain::compile_with(program.shape().clone(), &options())
        .expect("test source compiles");
    let mut files = Vec::new();
    if matches!(emit, Emit::Cpp | Emit::Both) {
        files.push((format!("{name}.cpp"), emit_cpp(&chain, name)));
    }
    if matches!(emit, Emit::Rust | Emit::Both) {
        files.push((format!("{name}.rs"), emit_rust(&chain, name)));
    }
    Artifacts {
        files,
        report: chain.describe(),
    }
}

/// Submit one request and wait for its response.
fn serve(
    service: &mut CompileService,
    id: u64,
    source: &str,
    name: &str,
    emit: Emit,
) -> CompileResponse {
    service.submit(CompileRequest {
        id,
        name: Some(name.to_string()),
        source: source.to_string(),
        emit,
        deadline: None,
    });
    let response = service.recv().expect("one response per request");
    assert_eq!(response.id, id);
    response
}

/// Serve `source` as `name`/`emit` and check the artifacts are the
/// fresh rendering and the hit flag is `hit`.
fn check(service: &mut CompileService, id: u64, source: &str, name: &str, emit: Emit, hit: bool) {
    let response = serve(service, id, source, name, emit);
    assert_eq!(response.cache_hit, hit, "cache_hit of request {id}");
    let artifacts = response.result.expect("test source compiles");
    assert_eq!(
        artifacts,
        fresh(source, name, emit),
        "request {id} ({name}, {emit:?}) is not the fresh rendering"
    );
}

#[test]
fn a_repeat_is_a_hit_with_identical_artifacts() {
    let mut service = CompileService::start(config(8)).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    for id in 2..5 {
        check(&mut service, id, SRC_A, "a", Emit::Both, true);
    }
    let stats = service.shutdown();
    assert_eq!((stats.requests(), stats.cache_hits()), (4, 3));
}

/// The store is keyed by shape, but reused only for the same `name` and
/// `emit`: one that ignored either would answer `b` with `a`'s files, or
/// `rust` with `both`'s.
#[test]
fn each_name_and_emit_gets_its_own_rendering() {
    let mut service = CompileService::start(config(8)).unwrap();
    let sequence = [
        ("a", Emit::Both),
        ("b", Emit::Both),
        ("a", Emit::Both),
        ("a", Emit::Both),
        ("a", Emit::Cpp),
        ("a", Emit::Rust),
        ("a", Emit::Both),
        ("b", Emit::Rust),
        ("b", Emit::Rust),
        ("a", Emit::Rust),
    ];
    for (i, &(name, emit)) in sequence.iter().enumerate() {
        check(&mut service, i as u64 + 1, SRC_A, name, emit, i > 0);
    }
    let _ = service.shutdown();
}

/// At capacity 1 two alternating shapes evict each other: every switch
/// is a miss that renders and overwrites, and only a back-to-back repeat
/// hits.
#[test]
fn capacity_one_keeps_every_response_fresh() {
    let mut service = CompileService::start(config(1)).unwrap();
    let sequence = [
        SRC_A, SRC_B, SRC_A, SRC_A, SRC_B, SRC_B, SRC_A, SRC_B, SRC_A,
    ];
    for (i, &source) in sequence.iter().enumerate() {
        let hit = i > 0 && sequence[i - 1] == source;
        check(&mut service, i as u64 + 1, source, "x", Emit::Both, hit);
    }
    let _ = service.shutdown();
}

#[test]
fn capacity_zero_keeps_every_response_fresh() {
    let mut service = CompileService::start(config(0)).unwrap();
    for (i, source) in [SRC_A, SRC_A, SRC_B, SRC_A].into_iter().enumerate() {
        check(&mut service, i as u64 + 1, source, "x", Emit::Both, false);
    }
    let _ = service.shutdown();
}

/// A panic discards what the shard stored. The restarted shard rewarms
/// its chains from the snapshot, so its first request for a shape is a
/// hit with nothing stored: it renders afresh, and the repeat after it
/// reuses that rendering.
#[test]
fn a_restarted_shard_serves_identical_hits() {
    let mut cfg = config(8);
    // The third compile attempt panics.
    cfg.faults = FaultPlan::parse("panic:0:3").unwrap();
    cfg.restart = RestartPolicy {
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        max_failures: 5,
        window: Duration::from_secs(30),
    };
    let mut service = CompileService::start(cfg).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    check(&mut service, 2, SRC_A, "a", Emit::Both, true);
    // Restarts rewarm from the latest snapshot.
    assert_eq!(service.snapshot().len(), 1);
    let doomed = serve(&mut service, 3, SRC_B, "b", Emit::Both);
    assert_eq!(doomed.result.unwrap_err().kind, FailureKind::ShardPanic);
    check(&mut service, 4, SRC_A, "a", Emit::Both, true);
    check(&mut service, 5, SRC_A, "a", Emit::Both, true);
    check(&mut service, 6, SRC_A, "b", Emit::Rust, true);
    let stats = service.shutdown();
    assert_eq!((stats.panics(), stats.restarts()), (1, 1));
}
