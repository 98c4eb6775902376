//! The serving layer's robustness contract, exercised through the
//! deterministic fault-injection harness (`gmc_serve::fault`):
//!
//! * a panicking shard restarts **warm** (rewarmed from the latest
//!   snapshot, so the post-restart repeat request is a cache hit);
//! * the circuit breaker takes a repeatedly-dying shard out of rotation
//!   and routing falls over to its neighbor;
//! * deadlines are enforced at dequeue and in the submitter, so a
//!   wedged shard cannot stall the stream;
//! * admission control sheds overload with typed `overloaded` errors;
//! * torn snapshot writes are quarantined on the next start;
//! * and — the invariant everything above must preserve — **every
//!   submitted request receives exactly one response**, with
//!   post-chaos counters that add up (chaos proptest at the bottom).

use gmc_core::CompileOptions;
use gmc_serve::fault::FaultPlan;
use gmc_serve::{
    route, CompileRequest, CompileResponse, CompileService, Emit, FailureKind, RestartPolicy,
    ServeConfig, ShardState,
};
use proptest::prelude::*;
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
const SRC_C: &str = "
    Matrix A <General, Singular>;
    Matrix B <General, Singular>;
    Matrix C <General, Singular>;
    Matrix D <General, Singular>;
    Z := A * B * C * D;
";
const SRC_BAD: &str = "Matrix A <General, Singular>; X := B;";

fn fast_options() -> CompileOptions {
    CompileOptions {
        training_instances: 60,
        ..CompileOptions::default()
    }
}

/// Fast supervision for tests: negligible backoff, tight breaker.
fn fast_restart(max_failures: u32) -> RestartPolicy {
    RestartPolicy {
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        max_failures,
        window: Duration::from_secs(30),
    }
}

fn config(shards: usize, faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        shards,
        options: fast_options(),
        faults,
        restart: fast_restart(5),
        ..ServeConfig::default()
    }
}

fn request(id: u64, source: &str) -> CompileRequest {
    CompileRequest {
        id,
        name: None,
        source: source.to_string(),
        emit: Emit::Both,
        deadline: None,
    }
}

/// `request` rendered under `name`: a repeat the service has stored no
/// rendering for, so it reaches a shard.
fn named(mut request: CompileRequest, name: &str) -> CompileRequest {
    request.name = Some(name.to_string());
    request
}

fn shard_of(source: &str, shards: usize) -> usize {
    let program = gmc_ir::grammar::parse_program(source).unwrap();
    route(program.shape(), shards)
}

fn kind_of(response: &CompileResponse) -> Option<FailureKind> {
    response.result.as_ref().err().map(|f| f.kind)
}

#[test]
fn panicked_shard_restarts_warm_and_serves_the_repeat_from_cache() {
    let faults = FaultPlan::parse("panic:0:2").unwrap();
    let mut service = CompileService::start(config(1, faults)).unwrap();

    // Attempt 1: cold compile, then publish the snapshot restarts
    // rewarm from.
    service.submit(request(1, SRC_A));
    let first = service.drain().remove(0);
    let first_artifacts = first.result.expect("cold compile succeeds");
    let _ = service.snapshot();

    // Attempt 2: the injected panic kills the request but not the shard.
    // The repeat asks for another name, so the service has no rendering
    // of it and a shard compile attempt is made.
    service.submit(named(request(2, SRC_A), "other"));
    let killed = service.drain().remove(0);
    assert_eq!(kind_of(&killed), Some(FailureKind::ShardPanic));
    assert!(
        killed
            .result
            .unwrap_err()
            .message
            .contains("injected fault"),
        "panic message surfaces in the typed failure"
    );

    // Attempt 3: the restarted shard serves the repeat warm — the
    // snapshot rewarm made the restart invisible apart from the one
    // failed request.
    service.submit(request(3, SRC_A));
    let retried = service.drain().remove(0);
    assert!(retried.cache_hit, "post-restart repeat is a cache hit");
    assert_eq!(
        retried.result.expect("retry succeeds"),
        first_artifacts,
        "byte-identical artifacts across the restart"
    );

    let health = &service.health()[0];
    assert_eq!(health.state, ShardState::Up);
    assert_eq!((health.panics, health.restarts), (1, 1));

    let stats = service.shutdown();
    assert_eq!((stats.panics(), stats.restarts()), (1, 1));
    assert!(stats.restored() >= 1, "restart rewarmed from the snapshot");
}

#[test]
fn circuit_breaker_opens_and_routing_falls_over_to_the_neighbor() {
    let shards = 2;
    let victim = shard_of(SRC_A, shards);
    let spec = format!("panic:{victim}:1,panic:{victim}:2");
    let faults = FaultPlan::parse(&spec).unwrap();
    let mut cfg = config(shards, faults);
    cfg.restart = fast_restart(2); // breaker opens on the second failure
    let mut service = CompileService::start(cfg).unwrap();

    for id in 1..=2u64 {
        service.submit(request(id, SRC_A));
        let r = service.drain().remove(0);
        assert_eq!(kind_of(&r), Some(FailureKind::ShardPanic), "id {id}");
        assert_eq!(r.shard, Some(victim));
    }
    assert_eq!(service.health()[victim].state, ShardState::Down);

    // Traffic for the dead shard's shapes falls over and still compiles.
    service.submit(request(3, SRC_A));
    let r = service.drain().remove(0);
    assert_eq!(r.shard, Some(1 - victim), "fell over to the neighbor");
    assert!(r.result.is_ok(), "degraded, not dropped");

    let stats = service.shutdown();
    assert_eq!(stats.panics(), 2);
    assert_eq!(stats.restarts(), 1, "first panic restarted, second tripped");
}

#[test]
fn deadlines_expire_in_submitter_and_at_dequeue() {
    // Every compile sleeps 60 ms; both requests carry 15 ms deadlines.
    // The first expires in the submitter's receive path (the shard is
    // wedged inside the delay), the second at dequeue or in the
    // submitter, depending on timing — both must come back exactly once
    // as deadline_exceeded.
    let faults = FaultPlan::parse("delay:60").unwrap();
    let mut service = CompileService::start(config(1, faults)).unwrap();
    for id in 1..=2u64 {
        let mut req = request(id, SRC_A);
        req.deadline = Some(Duration::from_millis(15));
        service.submit(req);
    }
    let mut responses = service.drain();
    responses.sort_by_key(|r| r.id);
    assert_eq!(responses.len(), 2, "exactly one response per request");
    for r in &responses {
        assert_eq!(
            kind_of(r),
            Some(FailureKind::DeadlineExceeded),
            "id {}",
            r.id
        );
        assert!(kind_of(r).unwrap().retryable());
    }
    assert!(
        service.health()[0].deadline_exceeded >= 2,
        "both expiries counted"
    );
    let _ = service.shutdown();
}

/// Sleep 5 ms on a second thread and return how long that took: a host
/// stall that delays a timed answer delays this sleep too, so the test
/// charges the daemon only for the time past it.
fn reference_sleep() -> std::thread::JoinHandle<Duration> {
    std::thread::spawn(|| {
        let started = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        started.elapsed()
    })
}

/// Deadlines are exact: a 5 ms deadline on a shard wedged in a 200 ms
/// compile comes back `deadline_exceeded` when it is due, not on a
/// poll tick — through `CompileService::recv` and over a unix socket.
/// Each answer may come at most `SLACK` later than a 5 ms sleep timed
/// beside it, which on an unloaded host is an answer within 15 ms.
#[test]
fn short_deadlines_expire_on_time_through_recv_and_over_a_socket() {
    use gmc_serve::transport::{
        self, Front, ListenAddr, SocketListener, SocketStream, TransportOptions,
    };
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    const SLACK: Duration = Duration::from_millis(10);
    let faults = FaultPlan::parse("delay:200").unwrap();

    let mut service = CompileService::start(config(1, faults.clone())).unwrap();
    let mut req = request(1, SRC_A);
    req.deadline = Some(Duration::from_millis(5));
    let reference = reference_sleep();
    let started = Instant::now();
    service.submit(req);
    let r = service.recv().expect("one response");
    let took = started.elapsed();
    let reference = reference.join().unwrap();
    assert_eq!(kind_of(&r), Some(FailureKind::DeadlineExceeded));
    assert!(
        took.saturating_sub(reference) < SLACK,
        "recv answered a 5 ms deadline after {took:?}; a 5 ms sleep took {reference:?}"
    );
    let _ = service.shutdown();

    let dir = std::env::temp_dir().join("gmc_exact_deadline_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addr = ListenAddr::Unix(dir.join("deadline.sock"));
    let listener = SocketListener::bind(&addr).unwrap();
    let service = CompileService::start(config(1, faults)).unwrap();
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
    let line = format!(
        "{{\"id\":1,\"deadline_ms\":5,\"source\":\"{}\"}}\n",
        SRC_A.replace('\n', "\\n")
    );
    let reference = reference_sleep();
    let started = Instant::now();
    stream.write_all(line.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let took = started.elapsed();
    let reference = reference.join().unwrap();
    assert!(
        response.contains("\"kind\":\"deadline_exceeded\""),
        "{response}"
    );
    assert!(
        took.saturating_sub(reference) < SLACK,
        "socket answered a 5 ms deadline after {took:?}; a 5 ms sleep took {reference:?}"
    );

    stream.shutdown_write().unwrap();
    shutdown.store(true, Ordering::SeqCst);
    let (service, report) = daemon.join().unwrap().unwrap();
    assert_eq!((report.requests, report.failures), (1, 1));
    let _ = service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_beyond_the_queue_cap_with_typed_errors() {
    // One slow shard (30 ms per compile), queue depth 2: of five
    // back-to-back submissions, two are admitted and three shed.
    let faults = FaultPlan::parse("delay:30").unwrap();
    let mut cfg = config(1, faults);
    cfg.queue_cap = 2;
    let mut service = CompileService::start(cfg).unwrap();
    for id in 1..=5u64 {
        service.submit(request(id, SRC_A));
    }
    let responses = service.drain();
    assert_eq!(responses.len(), 5);
    let shed: Vec<u64> = responses
        .iter()
        .filter(|r| kind_of(r) == Some(FailureKind::Overloaded))
        .map(|r| r.id)
        .collect();
    let served = responses.iter().filter(|r| r.result.is_ok()).count();
    assert_eq!(shed, vec![3, 4, 5], "admission is first-come");
    assert_eq!(served, 2);
    assert_eq!(service.health()[0].shed, 3);
    let _ = service.shutdown();
}

#[test]
fn torn_snapshot_writes_are_quarantined_on_the_next_start() {
    let dir = std::env::temp_dir().join("gmc_serve_torn_snapshot_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.txt");

    // A service with the torn-write fault armed persists a truncated,
    // non-renamed file — the simulated crash mid-save.
    let faults = FaultPlan::parse("snapshot_torn").unwrap();
    let mut cfg = config(1, faults);
    cfg.snapshot_path = Some(path.clone());
    let mut service = CompileService::start(cfg.clone()).unwrap();
    service.submit(request(1, SRC_A));
    assert!(service.drain().remove(0).result.is_ok());
    service.save_snapshot(&path).unwrap();
    let _ = service.shutdown();
    assert!(path.exists(), "torn file landed on the final path");

    // The next start must quarantine it and serve cold, not die.
    cfg.faults = FaultPlan::new();
    let mut reborn = CompileService::start(cfg).unwrap();
    service_compiles_cold(&mut reborn);
    let stats = reborn.shutdown();
    assert_eq!(stats.restored(), 0);
    assert!(!path.exists(), "torn snapshot moved aside");
    assert!(dir.join("snapshot.txt.bad").exists(), "kept for inspection");
}

#[test]
fn repeated_corruption_quarantines_without_clobbering_evidence() {
    let dir = std::env::temp_dir().join("gmc_serve_quarantine_suffix_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.txt");
    let mut cfg = config(1, FaultPlan::new());
    cfg.snapshot_path = Some(path.clone());

    // First corruption moves aside to `<path>.bad`.
    std::fs::write(&path, "first corruption").unwrap();
    let mut service = CompileService::start(cfg.clone()).unwrap();
    service_compiles_cold(&mut service);
    let _ = service.shutdown();
    assert!(dir.join("snapshot.txt.bad").exists());

    // A second corrupt snapshot must not overwrite that evidence:
    // the quarantine name gains a numeric suffix instead.
    std::fs::remove_file(&path).ok();
    std::fs::write(&path, "second corruption").unwrap();
    let mut service = CompileService::start(cfg.clone()).unwrap();
    service_compiles_cold(&mut service);
    let _ = service.shutdown();

    // And a third, for the suffix counter itself.
    std::fs::remove_file(&path).ok();
    std::fs::write(&path, "third corruption").unwrap();
    let mut service = CompileService::start(cfg).unwrap();
    service_compiles_cold(&mut service);
    let _ = service.shutdown();

    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).unwrap();
    assert_eq!(read(dir.join("snapshot.txt.bad")), "first corruption");
    assert_eq!(read(dir.join("snapshot.txt.bad.1")), "second corruption");
    assert_eq!(read(dir.join("snapshot.txt.bad.2")), "third corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

fn service_compiles_cold(service: &mut CompileService) {
    service.submit(request(9, SRC_A));
    let r = service.drain().remove(0);
    assert!(r.result.is_ok());
    assert!(!r.cache_hit, "cold start after quarantine");
}

/// The acceptance path end-to-end: a shard is killed mid-stream, the
/// stream still answers every request exactly once, the drained
/// shutdown persists a snapshot, and a new service restores it
/// bit-identically — every repeat is a cache hit with byte-identical
/// C++ and Rust artifacts.
#[test]
fn killed_shard_mid_stream_then_drained_snapshot_restores_bit_identical() {
    let dir = std::env::temp_dir().join("gmc_serve_chaos_acceptance_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot.txt");

    let shards = 2;
    let victim = shard_of(SRC_A, shards);
    let faults = FaultPlan::parse(&format!("panic:{victim}:2")).unwrap();
    let mut cfg = config(shards, faults);
    cfg.snapshot_path = Some(path.clone());

    let mut cold = CompileService::start(cfg.clone()).unwrap();
    cold.submit(request(1, SRC_A));
    let baseline = cold.drain().remove(0).result.expect("cold compile");
    let _ = cold.snapshot(); // publish the rewarm source

    // Each repeat asks for a name of its own, so both reach the victim.
    cold.submit(named(request(2, SRC_A), "killed")); // killed mid-stream
    cold.submit(named(request(3, SRC_A), "retried")); // served warm after the restart
    cold.submit(request(4, SRC_B));
    cold.submit(request(5, SRC_C));
    let mut responses = cold.drain();
    responses.sort_by_key(|r| r.id);
    assert_eq!(responses.len(), 4, "exactly one response per request");
    assert_eq!(kind_of(&responses[0]), Some(FailureKind::ShardPanic));
    assert!(responses[1].cache_hit, "restart rewarmed the victim shard");
    assert!(responses[2].result.is_ok() && responses[3].result.is_ok());
    cold.save_snapshot(&path).unwrap();
    let stats = cold.shutdown();
    assert_eq!((stats.panics(), stats.restarts()), (1, 1));

    // A fresh service (faults disarmed) restores everything warm and
    // byte-identical.
    cfg.faults = FaultPlan::new();
    let mut warm = CompileService::start(cfg).unwrap();
    for (id, src) in [(1, SRC_A), (2, SRC_B), (3, SRC_C)] {
        warm.submit(request(id, src));
    }
    let mut warmed = warm.drain();
    warmed.sort_by_key(|r| r.id);
    for r in &warmed {
        assert!(r.cache_hit, "restored chain serves id {} warm", r.id);
    }
    assert_eq!(
        warmed[0].result.as_ref().unwrap(),
        &baseline,
        "byte-identical emitted C++/Rust after kill + drain + restore"
    );
    let _ = warm.shutdown();
}

/// Multi-connection chaos over the socket transport: several
/// concurrent clients pipeline request streams (all reusing the SAME
/// ids — the id namespace is per-connection) against one faulted
/// daemon. Injected panics kill individual requests, malformed sources
/// fail to parse, an in-band op rides the middle of each stream — and
/// still every id is answered exactly once on the connection that
/// submitted it, with service counters that balance across the fleet.
#[test]
fn concurrent_socket_clients_with_faults_get_exactly_one_response_each() {
    use gmc_serve::transport::{
        self, Front, ListenAddr, SocketListener, SocketStream, TransportOptions,
    };
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const CLIENTS: usize = 3;
    const REQUESTS: usize = 12;
    let sources = [SRC_A, SRC_B, SRC_C, SRC_BAD];

    let dir = std::env::temp_dir().join("gmc_socket_chaos_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addr = ListenAddr::Unix(dir.join("chaos.sock"));

    let faults = FaultPlan::parse("panic:0:3,panic:1:4,delay:1").unwrap();
    let service = CompileService::start(config(2, faults)).unwrap();
    let listener = SocketListener::bind(&addr).unwrap();
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

    let escape = |s: &str| s.replace('\n', "\\n");
    let run_client = |offset: usize| -> Vec<String> {
        let mut stream = SocketStream::connect(&addr).unwrap();
        for id in 0..REQUESTS {
            // Interleave an in-band op mid-stream; it must be answered
            // on this connection under its own id like any request.
            if id == REQUESTS / 2 {
                stream
                    .write_all(b"{\"op\":\"stats\",\"id\":9999}\n")
                    .unwrap();
            }
            let source = sources[(offset + id) % sources.len()];
            let line = format!(
                "{{\"id\":{id},\"emit\":\"cpp\",\"source\":\"{}\"}}\n",
                escape(source)
            );
            stream.write_all(line.as_bytes()).unwrap();
        }
        stream.flush().unwrap();
        stream.shutdown_write().unwrap();
        let mut lines = Vec::new();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            lines.push(std::mem::take(&mut line).trim_end().to_string());
        }
        lines
    };

    let per_client: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || run_client(c)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let id_of = |line: &str| -> u64 {
        let rest = &line[line.find("\"id\":").unwrap() + 5..];
        rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
    };
    let (mut ok, mut shed, mut panicked, mut parse_failed) = (0u64, 0u64, 0u64, 0u64);
    for lines in &per_client {
        // Exactly one response per submitted id, on this connection —
        // ids 0..REQUESTS once each plus the op's 9999.
        let mut ids: Vec<u64> = lines.iter().map(|l| id_of(l)).collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = (0..REQUESTS as u64).collect();
        expected.push(9999);
        assert_eq!(ids, expected, "exactly one response per id per connection");
        for line in lines {
            if line.contains("\"op\":\"stats\"") {
                continue;
            }
            if line.contains("\"ok\":true") {
                ok += 1;
            } else if line.contains("\"kind\":\"overloaded\"") {
                shed += 1;
            } else if line.contains("\"kind\":\"shard_panic\"") {
                panicked += 1;
            } else if line.contains("\"kind\":\"parse\"") {
                parse_failed += 1;
            } else {
                panic!("unexpected failure class: {line}");
            }
        }
    }
    let submitted = (CLIENTS * REQUESTS) as u64;
    assert_eq!(ok + shed + panicked + parse_failed, submitted);
    assert_eq!(panicked, 2, "each injected panic kills exactly one request");
    assert!(parse_failed > 0, "the malformed source rode every stream");

    shutdown.store(true, Ordering::SeqCst);
    let (service, report) = daemon.join().unwrap().unwrap();
    assert_eq!(report.accepted, CLIENTS as u64);
    assert_eq!(
        report.requests,
        submitted + CLIENTS as u64,
        "compiles + one op per connection"
    );
    assert_eq!(report.snapshot.open, 0, "all connections drained closed");
    let stats = service.shutdown();
    assert_eq!(stats.panics(), panicked);
    let compiled = stats
        .shards
        .iter()
        .map(|s| s.cache.hits + s.cache.misses)
        .sum::<u64>();
    assert_eq!(compiled, ok, "every ok response is a hit or a miss");
    assert_eq!(
        compiled + shed + panicked + parse_failed,
        submitted,
        "hits + misses + shed + failed == submitted, fleet-wide"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos: random request streams (healthy and malformed sources)
    /// against a 2-shard service with injected panics, delays, and a
    /// tight queue. Invariants: every request gets exactly one
    /// response, nothing hangs, and the post-chaos counters are
    /// consistent — `hits + misses + shed + failed == submitted`
    /// (panics fire before the session is touched, so a killed request
    /// counts as neither hit nor miss), and the e2e latency histograms
    /// record exactly one sample per shard-attributed response (parse
    /// failures never reach a shard and record nothing).
    #[test]
    fn every_request_gets_exactly_one_response_and_counters_balance(
        picks in proptest::collection::vec(0usize..4, 5..25),
        panic_nth in 1u64..6,
        delay_ms in 0u64..3,
    ) {
        let sources = [SRC_A, SRC_B, SRC_C, SRC_BAD];
        let spec = format!("panic:0:{panic_nth},panic:1:{panic_nth},delay:{delay_ms}");
        let faults = FaultPlan::parse(&spec).unwrap();
        let mut cfg = config(2, faults);
        cfg.queue_cap = 3;
        let mut service = CompileService::start(cfg).unwrap();

        for (id, &pick) in picks.iter().enumerate() {
            service.submit(request(id as u64, sources[pick]));
        }
        let mut responses = service.drain();
        prop_assert_eq!(responses.len(), picks.len(), "exactly one response each");
        responses.sort_by_key(|r| r.id);
        for (id, r) in responses.iter().enumerate() {
            prop_assert_eq!(r.id, id as u64, "no duplicates, no drops");
        }

        let ok = responses.iter().filter(|r| r.result.is_ok()).count() as u64;
        let shed = responses
            .iter()
            .filter(|r| kind_of(r) == Some(FailureKind::Overloaded))
            .count() as u64;
        let failed = responses.len() as u64 - ok - shed;
        let panicked = responses
            .iter()
            .filter(|r| kind_of(r) == Some(FailureKind::ShardPanic))
            .count() as u64;

        let health = service.health();
        let health_shed: u64 = health.iter().map(|h| h.shed).sum();
        prop_assert_eq!(health_shed, shed, "shed counter matches responses");

        // Observability: the per-shard e2e histograms record exactly one
        // sample per shard-attributed response; together with the parse
        // failures (which never reach a shard) that accounts for the
        // whole stream.
        let attributed = responses.iter().filter(|r| r.shard.is_some()).count() as u64;
        let parse_failed = responses
            .iter()
            .filter(|r| kind_of(r) == Some(FailureKind::Parse))
            .count() as u64;
        let metrics = service.metrics();
        prop_assert_eq!(
            metrics.requests(),
            attributed,
            "one e2e sample per shard-attributed response"
        );
        prop_assert_eq!(
            attributed + parse_failed,
            picks.len() as u64,
            "recorded + parse-failed == submitted"
        );

        let stats = service.shutdown();
        prop_assert_eq!(stats.panics(), panicked, "panic counter matches responses");
        prop_assert_eq!(stats.late_drops, 0, "no write-offs without deadlines");
        let compiled = stats.shards.iter().map(|s| s.cache.hits + s.cache.misses).sum::<u64>();
        prop_assert_eq!(compiled, ok, "every ok response is a hit or a miss");
        prop_assert_eq!(
            compiled + shed + failed,
            picks.len() as u64,
            "hits + misses + shed + failed == submitted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Transport chaos: three concurrent clients pipeline identical
    /// streams (ids 1..=N, valid sources, no deadlines) against a
    /// daemon with random connection faults (one connection dropped
    /// mid-response, one stalled, one fed garbage) on top of shard
    /// panics and delays, plus a randomized per-connection in-flight
    /// cap. Invariants pinned:
    ///
    /// * every request on a *surviving* connection is answered exactly
    ///   once (the garbage-swapped line is answered in band as
    ///   `bad_request` under its positional id);
    /// * the *killed* connection sees a duplicate-free subset — never a
    ///   resend, never an id it didn't submit;
    /// * fleet counters balance: `hits + misses + conn_shed + panics`
    ///   equals the compile lines the dispatcher admitted, every
    ///   admitted token reaches a shard exactly once (written-off work
    ///   included), and late shard replies never exceed the write-off
    ///   count;
    /// * the daemon drains to zero open connections.
    #[test]
    fn transport_chaos_preserves_exactly_once_and_balanced_counters(
        drop_conn in 1u64..4,
        drop_nth in 1u64..12,
        stall_conn in 1u64..4,
        stall_tick in 0u64..3,
        panic_nth in 1u64..8,
        delay_ms in 0u64..3,
        cap_pick in 0usize..3,
    ) {
        use gmc_serve::transport::{
            self, Front, ListenAddr, SocketListener, SocketStream, TransportOptions,
        };
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        const CLIENTS: usize = 3;
        const REQUESTS: u64 = 12;
        // The garbage target must survive: picking it off the dropped
        // connection keeps the swapped line's accounting deterministic.
        let garbage_conn = (drop_conn % CLIENTS as u64) + 1;
        let cap = [0usize, 3, 64][cap_pick];
        let sources = [SRC_A, SRC_B, SRC_C];

        let dir = std::env::temp_dir().join(format!(
            "gmc_transport_chaos_{drop_conn}_{drop_nth}_{stall_conn}_{stall_tick}_{panic_nth}_{delay_ms}_{cap}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr = ListenAddr::Unix(dir.join("chaos.sock"));

        let spec = format!(
            "conn_drop:{drop_conn}:{drop_nth},conn_stall:{stall_conn}:{},conn_garbage:{garbage_conn},\
             panic:0:{panic_nth},delay:{delay_ms}",
            stall_tick * 10
        );
        let faults = FaultPlan::parse(&spec).unwrap();
        let service = CompileService::start(config(2, faults)).unwrap();
        let listener = SocketListener::bind(&addr).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let serve_shutdown = Arc::clone(&shutdown);
        let options = TransportOptions {
            conn_in_flight_cap: cap,
            ..TransportOptions::default()
        };
        let daemon = std::thread::spawn(move || {
            transport::serve_front(Front::Listen(listener), service, options, &serve_shutdown)
        });

        let escape = |s: &str| s.replace('\n', "\\n");
        let run_client = |offset: usize| -> Vec<String> {
            let mut stream = SocketStream::connect(&addr).unwrap();
            for id in 1..=REQUESTS {
                let source = sources[(offset + id as usize) % sources.len()];
                let line = format!(
                    "{{\"id\":{id},\"emit\":\"cpp\",\"source\":\"{}\"}}\n",
                    escape(source)
                );
                // Writes may fail once the daemon aborts this
                // connection (conn_drop) — that's the chaos under test.
                if stream.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            let _ = stream.flush();
            let _ = stream.shutdown_write();
            let mut lines = Vec::new();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                lines.push(std::mem::take(&mut line).trim_end().to_string());
            }
            lines
        };

        let per_client: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| scope.spawn(move || run_client(c)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let id_of = |line: &str| -> u64 {
            let rest = &line[line.find("\"id\":").unwrap() + 5..];
            rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
        };
        let mut killed = 0usize;
        let mut bad_request_lines = 0u64;
        for lines in &per_client {
            let ids: Vec<u64> = lines.iter().map(|l| id_of(l)).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), ids.len(), "no id answered twice on one connection");
            prop_assert!(
                sorted.iter().all(|&i| (1..=REQUESTS).contains(&i)),
                "never an id the client didn't submit"
            );
            bad_request_lines +=
                lines.iter().filter(|l| l.contains("\"kind\":\"bad_request\"")).count() as u64;
            if lines.len() < REQUESTS as usize {
                killed += 1;
            } else {
                prop_assert_eq!(
                    sorted,
                    (1..=REQUESTS).collect::<Vec<u64>>(),
                    "surviving connection: exactly once per id"
                );
            }
        }
        prop_assert_eq!(killed, 1, "exactly the dropped connection lost responses");
        prop_assert!(
            bad_request_lines <= 1,
            "at most the one garbage-swapped line fails typed"
        );

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = daemon.join().unwrap().unwrap();
        prop_assert_eq!(report.snapshot.open, 0, "daemon drained to zero connections");
        prop_assert_eq!(report.accepted, CLIENTS as u64);

        // The garbage connection survives, so its swapped line is
        // always processed: admitted compile lines are everything the
        // dispatcher read minus that one line.
        let processed_lines = report.requests;
        let admitted = processed_lines - 1 - report.snapshot.conn_shed;

        let stats = service.shutdown();
        prop_assert_eq!(
            stats.requests(),
            admitted,
            "every admitted token reaches a shard exactly once (write-offs included)"
        );
        let compiled = stats.shards.iter().map(|s| s.cache.hits + s.cache.misses).sum::<u64>();
        prop_assert_eq!(
            compiled + stats.panics() + report.snapshot.conn_shed,
            processed_lines - 1,
            "hits + misses + shed + panics == submitted"
        );
        prop_assert!(
            stats.late_drops <= report.snapshot.conn_written_off,
            "late drops only for written-off work"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
