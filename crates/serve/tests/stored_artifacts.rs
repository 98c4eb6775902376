//! The service answers a repeat itself, with the artifacts a shard last
//! rendered for the same shape, `name` and `emit`, and sends every other
//! request to a shard, which renders it. These tests hold every
//! response, stored or rendered, to a fresh rendering: `emit_cpp`,
//! `emit_rust` and `describe` of `CompiledChain::compile_with` under the
//! service's options. They also pin what a repeat answered by the
//! service must leave as it was: the shard's chain-cache recency, the
//! counters, and a panic's discarding of what was rendered.

use gmc_codegen::{emit_cpp, emit_rust};
use gmc_core::{CompileOptions, CompileSession, CompiledChain};
use gmc_ir::grammar::parse_program;
use gmc_ir::Shape;
use gmc_serve::fault::FaultPlan;
use gmc_serve::{
    route, Artifacts, CompileRequest, CompileResponse, CompileService, Emit, FailureKind,
    RestartPolicy, ServeConfig,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

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
const SRC_C: &str = "
    Matrix A <General, Singular>;
    Matrix B <General, Singular>;
    Matrix C <General, Singular>;
    Matrix D <General, Singular>;
    Z := A * B * C * D;
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

/// Fast supervision: negligible backoff, a breaker that never trips.
fn fast_restart() -> RestartPolicy {
    RestartPolicy {
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        max_failures: 5,
        window: Duration::from_secs(30),
    }
}

/// The shape of `source`.
fn shape_of(source: &str) -> Shape {
    parse_program(source).unwrap().shape().clone()
}

/// A panic makes the service drop what it stored. The restarted shard
/// rewarms its chains from the snapshot, so its first request for a
/// shape is a hit the service has no rendering of: the shard renders it
/// afresh, and the repeat after it is answered with that rendering.
#[test]
fn a_restarted_shard_serves_identical_hits() {
    let mut cfg = config(8);
    // The third compile attempt panics.
    cfg.faults = FaultPlan::parse("panic:0:3").unwrap();
    cfg.restart = fast_restart();
    let mut service = CompileService::start(cfg).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    // Another `emit`: the service has no rendering, so this hit is the
    // shard's second compile attempt.
    check(&mut service, 2, SRC_A, "a", Emit::Rust, true);
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

/// A repeat never reaches a shard: under a 300 ms compile delay it comes
/// back at once with the first response's artifacts, and the shard
/// records one compile and one queue wait, while both responses count.
#[test]
fn a_repeat_is_answered_without_the_shard() {
    let mut cfg = config(8);
    cfg.faults = FaultPlan::parse("delay:300").unwrap();
    let mut service = CompileService::start(cfg).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    let started = Instant::now();
    let repeat = serve(&mut service, 2, SRC_A, "a", Emit::Both);
    let took = started.elapsed();
    assert!(took < Duration::from_millis(50), "the repeat took {took:?}");
    assert!(repeat.cache_hit);
    assert_eq!(repeat.shard, Some(0));
    assert_eq!(repeat.result.unwrap(), fresh(SRC_A, "a", Emit::Both));
    let metrics = service.metrics();
    let shard = &metrics.shards[0];
    assert_eq!(shard.compile_time.count, 1, "one shard compile");
    assert_eq!(shard.queue_wait.count, 1, "one request queued");
    assert_eq!(shard.e2e.count, 2, "both responses recorded");
    assert_eq!((shard.chain_hits, shard.chain_misses), (1, 1));
    let stats = service.shutdown();
    assert_eq!((stats.requests(), stats.cache_hits()), (2, 1));
}

/// A repeat the service answers still refreshes its chain in the shard's
/// cache: at capacity 2, after A, B and a repeat of A, compiling C
/// evicts B, as it would had the repeat reached the shard.
#[test]
fn a_repeat_answered_by_the_service_keeps_its_chain_recent() {
    let mut service = CompileService::start(config(2)).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    check(&mut service, 2, SRC_B, "b", Emit::Both, false);
    check(&mut service, 3, SRC_A, "a", Emit::Both, true);
    check(&mut service, 4, SRC_C, "c", Emit::Both, false);
    assert_eq!(
        service.metrics().shards[0].compile_time.count,
        3,
        "the repeat did not reach the shard"
    );
    let snapshot = service.snapshot();
    let held: Vec<&Shape> = snapshot.shapes().collect();
    assert_eq!(held.len(), 2);
    assert!(held.contains(&&shape_of(SRC_A)), "A was evicted");
    assert!(held.contains(&&shape_of(SRC_C)));
    assert!(
        !held.contains(&&shape_of(SRC_B)),
        "B outlived the repeat of A"
    );
    let stats = service.shutdown();
    assert_eq!(stats.shards[0].cache.evictions, 1);
}

/// The shapes a snapshot holds, in a stable order.
fn held(service: &mut CompileService) -> Vec<Shape> {
    let mut shapes: Vec<Shape> = service.snapshot().shapes().cloned().collect();
    shapes.sort_by_key(|s| format!("{s:?}"));
    shapes
}

/// What the service stores for a shard is bounded by that shard's chain
/// cache, not by all the shards' together: at capacity 1 on two shards,
/// A and then C on the same shard evict A there while the other shard
/// holds nothing, so the repeat of A is a miss that compiles A again,
/// and the snapshot holds A alone.
#[test]
fn a_shape_its_shard_evicted_is_not_answered_by_the_service() {
    let chain = |n: usize| {
        let decls: String = (0..n)
            .map(|i| format!("Matrix M{i} <General, Singular>;"))
            .collect();
        let product: Vec<String> = (0..n).map(|i| format!("M{i}")).collect();
        format!("{decls} X := {};", product.join(" * "))
    };
    let sources: Vec<String> = (2..12).map(chain).collect();
    let home = |source: &String| route(&shape_of(source), 2);
    let a = &sources[0];
    let c = sources[1..]
        .iter()
        .find(|s| home(s) == home(a))
        .expect("two chains share a home shard");
    let mut cfg = config(1);
    cfg.shards = 2;
    let mut service = CompileService::start(cfg).unwrap();
    check(&mut service, 1, a, "x", Emit::Both, false);
    check(&mut service, 2, c, "x", Emit::Both, false);
    check(&mut service, 3, a, "x", Emit::Both, false);
    assert_eq!(held(&mut service), [shape_of(a)]);
    let stats = service.shutdown();
    assert_eq!((stats.requests(), stats.cache_hits()), (3, 0));
    assert_eq!(stats.shards[home(a)].cache.evictions, 2);
}

/// A repeat that arrives while its shard still has a compile to run is
/// not answered by the service: that compile may evict the repeated
/// chain. At capacity 2 on one shard, after A and B, C and a repeat of A
/// submitted back to back reach the shard in order: C evicts A, the
/// repeat compiles A again and evicts B, and the snapshot holds C and A.
#[test]
fn a_repeat_behind_a_queued_compile_reaches_the_shard() {
    let mut service = CompileService::start(config(2)).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    check(&mut service, 2, SRC_B, "b", Emit::Both, false);
    for (id, source, name) in [(3, SRC_C, "c"), (4, SRC_A, "a")] {
        service.submit(CompileRequest {
            id,
            name: Some(name.to_string()),
            source: source.to_string(),
            emit: Emit::Both,
            deadline: None,
        });
    }
    let mut responses = service.drain();
    responses.sort_by_key(|r| r.id);
    let hits: Vec<bool> = responses.iter().map(|r| r.cache_hit).collect();
    assert_eq!(hits, [false, false], "C and the repeat of A both compile");
    let repeat = responses.pop().unwrap().result.unwrap();
    assert_eq!(repeat, fresh(SRC_A, "a", Emit::Both));
    let mut want = vec![shape_of(SRC_C), shape_of(SRC_A)];
    want.sort_by_key(|s| format!("{s:?}"));
    assert_eq!(held(&mut service), want);
    let stats = service.shutdown();
    assert_eq!((stats.requests(), stats.cache_hits()), (4, 0));
    assert_eq!(stats.shards[0].cache.evictions, 2);
}

/// A lookup the service does not answer leaves the store's order alone.
/// At capacity 2 on one shard, after A and B, a request for A under
/// another name whose deadline has passed goes to the shard, which never
/// reaches A's chain; C then evicts A there, so the store must evict A
/// too. The repeat of A after that is a miss, and the snapshot holds C
/// and A.
#[test]
fn a_lookup_that_does_not_answer_leaves_the_store_order_alone() {
    let mut service = CompileService::start(config(2)).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    check(&mut service, 2, SRC_B, "b", Emit::Both, false);
    service.submit(CompileRequest {
        id: 3,
        name: Some("other".to_string()),
        source: SRC_A.to_string(),
        emit: Emit::Both,
        deadline: Some(Duration::ZERO),
    });
    let late = service.recv().expect("one response per request");
    assert_eq!(late.id, 3);
    assert_eq!(late.result.unwrap_err().kind, FailureKind::DeadlineExceeded);
    check(&mut service, 4, SRC_C, "c", Emit::Both, false);
    check(&mut service, 5, SRC_A, "a", Emit::Both, false);
    let mut want = vec![shape_of(SRC_C), shape_of(SRC_A)];
    want.sort_by_key(|s| format!("{s:?}"));
    assert_eq!(held(&mut service), want);
    let _ = service.shutdown();
}

/// A panic drops what the service stored: the repeat after it reaches
/// the restarted shard, which holds nothing (no snapshot was taken) and
/// compiles it cold; the repeat after that is answered by the service.
#[test]
fn after_a_panic_the_next_repeat_reaches_the_shard() {
    let mut cfg = config(8);
    cfg.faults = FaultPlan::parse("panic:0:2").unwrap();
    cfg.restart = fast_restart();
    let mut service = CompileService::start(cfg).unwrap();
    check(&mut service, 1, SRC_A, "a", Emit::Both, false);
    let doomed = serve(&mut service, 2, SRC_B, "b", Emit::Both);
    assert_eq!(doomed.result.unwrap_err().kind, FailureKind::ShardPanic);
    check(&mut service, 3, SRC_A, "a", Emit::Both, false);
    check(&mut service, 4, SRC_A, "a", Emit::Both, true);
    assert_eq!(service.metrics().shards[0].compile_time.count, 3);
    let stats = service.shutdown();
    assert_eq!((stats.panics(), stats.restarts()), (1, 1));
    assert_eq!((stats.requests(), stats.cache_hits()), (4, 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The service answers exactly what one session would. Each script
    /// sends one shard at capacity 2 a run of requests for three shapes
    /// under two names, some with a deadline that has already passed,
    /// one at a time. A model session with the same options and capacity
    /// compiles the shape of every request answered `Ok` (a repeat the
    /// service answers itself is `Ok` even past its deadline): every
    /// `Ok` response's hit flag must be the model's, and the final
    /// snapshot must hold the model's shapes.
    #[test]
    fn the_service_answers_what_one_session_would(
        script in proptest::collection::vec((0usize..3, 0usize..2, any::<bool>()), 6..20),
    ) {
        let sources = [SRC_A, SRC_B, SRC_C];
        let mut service = CompileService::start(config(2)).unwrap();
        let mut model = CompileSession::with_options(options());
        model.set_chain_cache_capacity(2);
        for (id, &(source, name, late)) in script.iter().enumerate() {
            let id = id as u64;
            service.submit(CompileRequest {
                id,
                name: Some(["x", "y"][name].to_string()),
                source: sources[source].to_string(),
                emit: Emit::Both,
                deadline: late.then_some(Duration::ZERO),
            });
            let response = service.recv().expect("one response per request");
            prop_assert_eq!(response.id, id);
            if response.result.is_ok() {
                let hits = model.cache_stats().hits;
                model.compile(&shape_of(sources[source])).unwrap();
                let hit = model.cache_stats().hits > hits;
                prop_assert_eq!(
                    response.cache_hit,
                    hit,
                    "cache_hit of request {} in {:?}",
                    id,
                    script
                );
            }
        }
        let mut want: Vec<Shape> = model.snapshot().shapes().cloned().collect();
        want.sort_by_key(|s| format!("{s:?}"));
        prop_assert_eq!(held(&mut service), want, "shapes held after {:?}", script);
        let _ = service.shutdown();
    }
}

/// Over a socket, a stats request sent right behind a repeat already
/// counts it: the repeat is counted when it is answered, before the
/// stats line is read, however slow the shard is.
#[test]
fn stats_over_a_socket_count_a_repeat_at_once() {
    use gmc_serve::transport::{
        self, Front, ListenAddr, SocketListener, SocketStream, TransportOptions,
    };
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join("gmc_front_hit_stats_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addr = ListenAddr::Unix(dir.join("stats.sock"));
    let listener = SocketListener::bind(&addr).unwrap();
    let mut cfg = config(8);
    cfg.faults = FaultPlan::parse("delay:300").unwrap();
    let service = CompileService::start(cfg).unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_shutdown = Arc::clone(&shutdown);
    let daemon = std::thread::spawn(move || {
        transport::serve_front(
            Front::Listen(listener),
            service,
            TransportOptions::default(),
            &serve_shutdown,
        )
    });
    let mut stream = SocketStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let compile = |id: u64| {
        format!(
            "{{\"id\":{id},\"name\":\"a\",\"emit\":\"both\",\"source\":\"{}\"}}\n",
            SRC_A.replace('\n', "\\n")
        )
    };
    let mut line = String::new();
    stream.write_all(compile(1).as_bytes()).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("{\"id\":1,\"ok\":true"), "{line}");
    let burst = format!("{}{}", compile(2), "{\"op\":\"stats\",\"id\":3}\n");
    stream.write_all(burst.as_bytes()).unwrap();
    let mut replies = Vec::new();
    for _ in 0..2 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        replies.push(line.clone());
    }
    let repeat = replies
        .iter()
        .find(|l| l.starts_with("{\"id\":2,"))
        .unwrap();
    assert!(repeat.contains("\"cache_hit\":true"), "{repeat}");
    let stats = replies
        .iter()
        .find(|l| l.starts_with("{\"id\":3,"))
        .unwrap();
    assert!(
        stats.contains("\"total_requests\":2,\"total_hits\":1"),
        "stats missed the repeat: {stats}"
    );

    stream.shutdown_write().unwrap();
    shutdown.store(true, Ordering::SeqCst);
    let (service, _) = daemon.join().unwrap().unwrap();
    let _ = service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
