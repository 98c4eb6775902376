//! Serving-layer throughput trajectory: cold vs. warm vs.
//! restored-from-disk compiles through the sharded
//! [`gmc_serve::CompileService`], written to `BENCH_serve.json`.
//!
//! Three phases over the same workload of distinct `.gmc` programs:
//!
//! * **cold** — a fresh service compiles every shape for the first time
//!   (full enumeration + selection per shape);
//! * **warm** — the same service replays the workload; every request is
//!   a repeat the service answers itself, with the artifacts it stored
//!   from the priming pass and no shard hop, checked after the timer
//!   against the cold bytes;
//! * **shard hit** — the warm replay again, but each round asks for
//!   other names than the round before, so the service has no rendering
//!   to answer with: every request is a chain-cache hit on its shard,
//!   which renders it;
//! * **restored** — the service snapshots to disk, shuts down, and a
//!   *new* service starts from the snapshot; the replay must run at
//!   warm speed (every request a cache hit) with byte-identical
//!   artifacts, proving a restart never pays the cold path again.
//!
//! The shard-hit phase runs twice — stage tracing on (the default) and
//! forced off — and records the difference as `trace_overhead_pct`
//! (required ≤ 3%): a repeat the service answers itself runs no traced
//! code, so the front-door warm replay could not show the recording's
//! cost. Overload-burst completion percentiles come from
//! the shared [`gmc_obs::Histogram`] the service itself publishes.
//!
//! Each phase is best-of-`reps` (fresh service per cold/restored rep) to
//! tame timer wobble on the 1-core dev host. Run with
//! `cargo run --release --bin bench_serve [--smoke] [--load] [output.json]`;
//! `--smoke` shrinks the workload for CI.
//!
//! `--load` adds a **socket-load sweep**: a closed-loop JSONL load
//! generator (optionally paced to a target QPS) against a live
//! Unix-socket daemon, sweeping connections × shards with a fixed 2 ms
//! injected per-compile service time so the rows measure transport
//! concurrency and routing policy rather than host codegen speed. Every
//! measured request carries a `name` no earlier request used, so the
//! service has no rendering of it to answer with: it reaches a shard as
//! a chain-cache hit and pays the injected service time there. The
//! sweep records client- and server-side (`{"op":"metrics"}`) p50/p99
//! per row, the multi-connection speedup over a serial single-client
//! baseline, and a maximally skewed hot-shape row where
//! power-of-two-choices routing over two shards is A/B'd on server-side
//! p99 against the same load on one shard — what plain hash routing
//! amounts to when every request has the same home shard. The sweep
//! also runs the **backpressure A/B**: a greedy pipeliner bursting its
//! whole budget on one connection while a polite closed-loop client
//! shares the daemon, measured with the per-connection in-flight cap
//! on vs. off — the polite client's p99 improvement is the cap's whole
//! point.
//!
//! `--open-loop` (with `--load`) adds open-loop rows: generators fire
//! on a fixed schedule regardless of completions and latency is
//! measured from the *scheduled* send time, so sender lateness and
//! queue growth land in the tail instead of silently throttling the
//! offered load (coordinated omission).

use gmc_core::CompileOptions;
use gmc_obs::{force_trace_mode, Histogram, TraceMode};
use gmc_serve::fault::FaultPlan;
use gmc_serve::transport::{
    self, Front, ListenAddr, SocketListener, SocketStream, TransportOptions,
};
use gmc_serve::{CompileRequest, CompileResponse, CompileService, Emit, FailureKind, ServeConfig};
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A workload of distinct chain programs: lengths 3..=3+k with feature
/// mixes cycling through general, triangular-solve, and SPD operands.
fn workload(count: usize) -> Vec<String> {
    let decls = [
        ("General, Singular", ""),
        ("LowerTri, NonSingular", "^-1"),
        ("Symmetric, SPD", ""),
        ("UpperTri, NonSingular", ""),
        ("General, Singular", ""),
    ];
    (0..count)
        .map(|i| {
            let n = 3 + i % 4;
            let mut src = String::new();
            let mut rhs = Vec::new();
            for j in 0..n {
                // Rotate the feature mix per program so every source has
                // a distinct shape.
                let (features, op) = decls[(i + j) % decls.len()];
                let _ = writeln!(src, "Matrix M{j} <{features}>;");
                rhs.push(format!("M{j}{op}"));
            }
            let _ = writeln!(src, "X{i} := {};", rhs.join(" * "));
            src
        })
        .collect()
}

fn submit_all(service: &mut CompileService, sources: &[String]) -> Vec<CompileResponse> {
    submit_named(service, sources, "x")
}

/// [`submit_all`] with request `i` named `{prefix}{i}`.
fn submit_named(
    service: &mut CompileService,
    sources: &[String],
    prefix: &str,
) -> Vec<CompileResponse> {
    for (i, source) in sources.iter().enumerate() {
        service.submit(CompileRequest {
            id: i as u64,
            name: Some(format!("{prefix}{i}")),
            source: source.clone(),
            emit: Emit::Both,
            deadline: None,
        });
    }
    let mut responses = service.drain();
    responses.sort_by_key(|r| r.id);
    responses
}

fn files_of(responses: &[CompileResponse]) -> Vec<Vec<(String, String)>> {
    responses
        .iter()
        .map(|r| r.result.as_ref().expect("workload compiles").files.clone())
        .collect()
}

/// Outcome rates and completion-latency tail of an overload burst.
struct Overload {
    burst: usize,
    queue_cap: usize,
    delay_ms: u64,
    deadline_ms: u64,
    served: usize,
    shed: usize,
    expired: usize,
    shed_rate: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn run_overload_burst(options: &CompileOptions, burst: usize) -> Overload {
    const QUEUE_CAP: usize = 16;
    const DELAY_MS: u64 = 25;
    const DEADLINE_MS: u64 = 100;
    let source = "Matrix A <General, Singular>; Matrix B <General, Singular>; X := A * B;";
    let config = ServeConfig {
        shards: 1,
        options: options.clone(),
        queue_cap: QUEUE_CAP,
        faults: FaultPlan::parse(&format!("delay:{DELAY_MS}")).expect("delay spec"),
        ..ServeConfig::default()
    };
    let mut service = CompileService::start(config).expect("overload start");

    let t0 = Instant::now();
    for i in 0..burst {
        service.submit(CompileRequest {
            id: i as u64,
            name: None,
            source: source.to_owned(),
            emit: Emit::Cpp,
            deadline: Some(Duration::from_millis(DEADLINE_MS)),
        });
    }
    // Completion latencies land in the same log-linear histogram the
    // service itself publishes, so the recorded percentiles use one
    // quantile definition across the bench and the metrics endpoint.
    let completions = Histogram::new();
    let (mut served, mut shed, mut expired) = (0usize, 0usize, 0usize);
    while let Some(response) = service.recv() {
        completions.record(t0.elapsed());
        match &response.result {
            Ok(_) => served += 1,
            Err(f) if f.kind == FailureKind::Overloaded => shed += 1,
            Err(f) if f.kind == FailureKind::DeadlineExceeded => expired += 1,
            Err(f) => panic!("unexpected failure under overload: {f}"),
        }
    }
    let _ = service.shutdown();

    assert_eq!(
        served + shed + expired,
        burst,
        "every burst request gets exactly one response"
    );
    assert!(
        shed > 0,
        "a {burst}-deep burst over a {QUEUE_CAP}-slot queue must shed"
    );
    let completions = completions.snapshot();
    assert_eq!(completions.count as usize, burst, "one sample per response");
    Overload {
        burst,
        queue_cap: QUEUE_CAP,
        delay_ms: DELAY_MS,
        deadline_ms: DEADLINE_MS,
        served,
        shed,
        expired,
        shed_rate: shed as f64 / burst as f64,
        p50_ms: completions.quantile_ms(0.5),
        p99_ms: completions.quantile_ms(0.99),
    }
}

/// One row of the socket-load sweep: a fleet of closed-loop JSONL
/// clients against a live socket daemon.
struct LoadRow {
    label: &'static str,
    connections: usize,
    shards: usize,
    /// Offered load in requests/s (`0` = unpaced, run at capacity).
    target_qps: f64,
    requests: usize,
    qps: f64,
    client_p50_ms: f64,
    client_p99_ms: f64,
    server_p50_ms: f64,
    server_p99_ms: f64,
    /// Open-loop row: sends fired on the target schedule regardless of
    /// completions, latencies measured from the *scheduled* send time
    /// (lateness-inclusive, coordinated-omission-free).
    open_loop: bool,
}

fn escape_source(src: &str) -> String {
    src.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The JSONL line of load request `id` on connection `conn`, for the
/// escaped `source`. Its `name` is unique to the request, so the service
/// has no stored rendering of it and the request reaches a shard.
fn load_line(conn: &str, id: usize, source: &str) -> String {
    format!("{{\"id\":{id},\"name\":\"{conn}_{id}\",\"emit\":\"cpp\",\"source\":\"{source}\"}}\n")
}

/// One load-generator connection: send requests in windows of
/// `window` (1 = strict closed loop), read the window's responses,
/// repeat. With `pace`, sends are held to the schedule `k * pace` from
/// the connection's start, which turns the closed loop into a
/// target-QPS generator. Latencies are matched send-order to
/// response-order — exact for `window == 1`, approximate for deeper
/// pipelines (the server-side histogram is authoritative there).
fn load_client(
    addr: &ListenAddr,
    sources: &[String],
    offset: usize,
    requests: usize,
    window: usize,
    pace: Option<Duration>,
) -> Vec<Duration> {
    let stream = SocketStream::connect(addr).expect("load client connect");
    let mut write = stream.try_clone().expect("clone write half");
    let mut reader = BufReader::new(stream);
    let lines: Vec<String> = sources.iter().map(|s| escape_source(s)).collect();
    let mut latencies = Vec::with_capacity(requests);
    let mut line = String::new();
    let start = Instant::now();
    let mut sent = 0usize;
    while sent < requests {
        let batch = window.min(requests - sent);
        let mut send_times = Vec::with_capacity(batch);
        for _ in 0..batch {
            if let Some(interval) = pace {
                let due = start + interval * sent as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let body = load_line(
                &format!("c{offset}"),
                sent,
                &lines[(offset + sent) % lines.len()],
            );
            send_times.push(Instant::now());
            write.write_all(body.as_bytes()).expect("send request");
            sent += 1;
        }
        write.flush().expect("flush requests");
        for sent_at in send_times {
            line.clear();
            let n = reader.read_line(&mut line).expect("read response");
            assert!(n > 0, "daemon closed mid-load");
            assert!(line.contains("\"ok\":true"), "load request failed: {line}");
            latencies.push(sent_at.elapsed());
        }
    }
    latencies
}

/// One open-loop generator connection: requests fire at `start +
/// k * interval` whether or not earlier ones completed — the schedule,
/// not the daemon, sets the send times. A reader thread matches each
/// response to its request's *scheduled* send instant by id, so the
/// recorded latency includes any sender lateness and all queueing: the
/// coordinated omission a closed loop hides at saturation is part of
/// the number here.
fn open_loop_client(
    addr: &ListenAddr,
    sources: &[String],
    offset: usize,
    requests: usize,
    interval: Duration,
) -> Vec<Duration> {
    let stream = SocketStream::connect(addr).expect("open-loop connect");
    let mut write = stream.try_clone().expect("clone write half");
    let lines: Vec<String> = sources.iter().map(|s| escape_source(s)).collect();
    let start = Instant::now();
    let reader = std::thread::spawn(move || -> Vec<Duration> {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut latencies = Vec::with_capacity(requests);
        for _ in 0..requests {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .expect("read open-loop response");
            assert!(n > 0, "daemon closed mid-load");
            assert!(
                line.contains("\"ok\":true"),
                "open-loop request failed: {line}"
            );
            let at = line.find("\"id\":").expect("id in response") + 5;
            let rest = &line[at..];
            let id: u64 = rest[..rest.find([',', '}']).expect("id end")]
                .parse()
                .expect("numeric id");
            // The sender never fires early, so the scheduled instant is
            // always in the past by now.
            let scheduled = start + interval * id as u32;
            latencies.push(scheduled.elapsed());
        }
        latencies
    });
    for k in 0..requests {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let body = load_line(&format!("o{offset}"), k, &lines[(offset + k) % lines.len()]);
        write.write_all(body.as_bytes()).expect("send request");
        write.flush().expect("flush request");
    }
    reader.join().expect("open-loop reader")
}

/// Ask a live daemon for its merged e2e p50/p99 over the socket
/// (`{"op":"metrics"}` — the same numbers a scraper reads).
fn probe_server_percentiles(addr: &ListenAddr) -> (f64, f64) {
    let mut stream = SocketStream::connect(addr).expect("metrics probe connect");
    stream
        .write_all(b"{\"op\":\"metrics\",\"id\":1}\n")
        .expect("send metrics op");
    stream.flush().expect("flush metrics op");
    stream.shutdown_write().expect("half-close probe");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read metrics line");
    let field = |key: &str| -> f64 {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in metrics"));
        let rest = &line[at + key.len()..];
        rest[..rest.find([',', '}']).expect("value end")]
            .parse()
            .expect("numeric percentile")
    };
    (field("\"e2e_p50_ms\":"), field("\"e2e_p99_ms\":"))
}

fn percentile_ms(latencies: &mut [Duration], q: f64) -> f64 {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
    latencies[idx].as_secs_f64() * 1e3
}

/// Run one sweep point: a fresh service (every compile slowed by
/// `service_ms` — a deterministic stand-in for compile cost, so
/// connection/shard parallelism is measurable even on a 1-core host)
/// behind a Unix-socket daemon, primed over the socket, then hit by
/// `connections` concurrent load clients.
#[allow(clippy::too_many_arguments)]
fn run_load_row(
    label: &'static str,
    sources: &[String],
    connections: usize,
    shards: usize,
    target_qps: f64,
    per_conn: usize,
    window: usize,
    service_ms: u64,
    options: &CompileOptions,
) -> LoadRow {
    let dir = std::env::temp_dir().join("bench_serve_load");
    let _ = std::fs::create_dir_all(&dir);
    let addr = ListenAddr::Unix(dir.join(format!("{label}.sock")));
    let config = ServeConfig {
        shards,
        options: options.clone(),
        faults: FaultPlan::parse(&format!("delay:{service_ms}")).expect("delay spec"),
        ..ServeConfig::default()
    };
    let mut service = CompileService::start(config).expect("load service start");
    // Prime every shape warm before measuring, through the service
    // directly: the measured phase then isolates transport + routing +
    // the injected service time, not cold selection.
    for (i, source) in sources.iter().enumerate() {
        service.submit(CompileRequest {
            id: i as u64,
            name: None,
            source: source.clone(),
            emit: Emit::Cpp,
            deadline: None,
        });
    }
    let primed = service.drain();
    assert!(primed.iter().all(|r| r.result.is_ok()), "priming compiles");

    let listener = SocketListener::bind(&addr).expect("bind load socket");
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

    let pace = (target_qps > 0.0).then(|| Duration::from_secs_f64(connections as f64 / target_qps));
    let t0 = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let addr = &addr;
        let handles: Vec<_> = (0..connections)
            // Stagger each connection's starting shape so the fleet
            // doesn't hammer one home shard in lockstep.
            .map(|c| scope.spawn(move || load_client(addr, sources, c, per_conn, window, pace)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (server_p50_ms, server_p99_ms) = probe_server_percentiles(&addr);

    shutdown.store(true, Ordering::SeqCst);
    let (service, report) = daemon.join().expect("daemon thread").expect("daemon io");
    let _ = service.shutdown();
    let requests = connections * per_conn;
    assert_eq!(report.failures, 0, "load runs clean");

    LoadRow {
        label,
        connections,
        shards,
        target_qps,
        requests,
        qps: requests as f64 / elapsed,
        client_p50_ms: percentile_ms(&mut latencies, 0.50),
        client_p99_ms: percentile_ms(&mut latencies, 0.99),
        server_p50_ms,
        server_p99_ms,
        open_loop: false,
    }
}

/// One open-loop sweep point (`--open-loop`): `connections` generators
/// each fire at `target_qps / connections` on a fixed schedule,
/// regardless of completions. Percentiles are lateness-inclusive.
#[allow(clippy::too_many_arguments)]
fn run_open_loop_row(
    label: &'static str,
    sources: &[String],
    connections: usize,
    shards: usize,
    target_qps: f64,
    per_conn: usize,
    service_ms: u64,
    options: &CompileOptions,
) -> LoadRow {
    let dir = std::env::temp_dir().join("bench_serve_load");
    let _ = std::fs::create_dir_all(&dir);
    let addr = ListenAddr::Unix(dir.join(format!("{label}.sock")));
    let config = ServeConfig {
        shards,
        options: options.clone(),
        faults: FaultPlan::parse(&format!("delay:{service_ms}")).expect("delay spec"),
        ..ServeConfig::default()
    };
    let mut service = CompileService::start(config).expect("open-loop service start");
    for (i, source) in sources.iter().enumerate() {
        service.submit(CompileRequest {
            id: i as u64,
            name: None,
            source: source.clone(),
            emit: Emit::Cpp,
            deadline: None,
        });
    }
    let primed = service.drain();
    assert!(primed.iter().all(|r| r.result.is_ok()), "priming compiles");

    let listener = SocketListener::bind(&addr).expect("bind open-loop socket");
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_shutdown = Arc::clone(&shutdown);
    // The schedule keeps firing into a backlog, so the generators' own
    // connections must be exempt from per-connection admission — the
    // row measures queueing delay, not the shedding policy.
    let daemon = std::thread::spawn(move || {
        transport::serve_front(
            Front::Listen(listener),
            service,
            TransportOptions {
                conn_in_flight_cap: 0,
                ..TransportOptions::default()
            },
            &serve_shutdown,
        )
    });

    let interval = Duration::from_secs_f64(connections as f64 / target_qps);
    let t0 = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let addr = &addr;
        let handles: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || open_loop_client(addr, sources, c, per_conn, interval)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop client"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (server_p50_ms, server_p99_ms) = probe_server_percentiles(&addr);
    shutdown.store(true, Ordering::SeqCst);
    let (service, report) = daemon.join().expect("daemon thread").expect("daemon io");
    let _ = service.shutdown();
    assert_eq!(report.failures, 0, "open-loop load runs clean");
    let requests = connections * per_conn;
    LoadRow {
        label,
        connections,
        shards,
        target_qps,
        requests,
        qps: requests as f64 / elapsed,
        client_p50_ms: percentile_ms(&mut latencies, 0.50),
        client_p99_ms: percentile_ms(&mut latencies, 0.99),
        server_p50_ms,
        server_p99_ms,
        open_loop: true,
    }
}

/// The backpressure A/B: a greedy pipeliner fires its whole request
/// budget in one burst on one connection while a polite closed-loop
/// client (one request in flight) shares the daemon. With the
/// per-connection cap on, the greedy burst is shed at admission and the
/// polite client's tail stays flat; with caps off the burst monopolizes
/// the shard queue and the polite client's p99 absorbs the backlog.
struct GreedyContention {
    conn_cap: usize,
    greedy_requests: usize,
    greedy_served: u64,
    greedy_shed: u64,
    polite_requests: usize,
    polite_p50_ms: f64,
    polite_p99_ms: f64,
}

fn run_greedy_contention(
    sources: &[String],
    conn_cap: usize,
    greedy_requests: usize,
    polite_requests: usize,
    service_ms: u64,
    options: &CompileOptions,
) -> GreedyContention {
    let dir = std::env::temp_dir().join("bench_serve_load");
    let _ = std::fs::create_dir_all(&dir);
    let addr = ListenAddr::Unix(dir.join(format!("greedy_cap{conn_cap}.sock")));
    // One shard: the greedy backlog and the polite client contend for
    // the same queue, so the cap's effect is undiluted by routing.
    let config = ServeConfig {
        shards: 1,
        options: options.clone(),
        faults: FaultPlan::parse(&format!("delay:{service_ms}")).expect("delay spec"),
        ..ServeConfig::default()
    };
    let mut service = CompileService::start(config).expect("greedy service start");
    for (i, source) in sources.iter().enumerate() {
        service.submit(CompileRequest {
            id: i as u64,
            name: None,
            source: source.clone(),
            emit: Emit::Cpp,
            deadline: None,
        });
    }
    let primed = service.drain();
    assert!(primed.iter().all(|r| r.result.is_ok()), "priming compiles");

    let listener = SocketListener::bind(&addr).expect("bind greedy socket");
    let shutdown = Arc::new(AtomicBool::new(false));
    let serve_shutdown = Arc::clone(&shutdown);
    let daemon = std::thread::spawn(move || {
        transport::serve_front(
            Front::Listen(listener),
            service,
            TransportOptions {
                conn_in_flight_cap: conn_cap,
                ..TransportOptions::default()
            },
            &serve_shutdown,
        )
    });

    let ((greedy_served, greedy_shed), mut polite) = std::thread::scope(|scope| {
        let addr = &addr;
        let greedy = scope.spawn(move || {
            let stream = SocketStream::connect(addr).expect("greedy connect");
            let mut write = stream.try_clone().expect("clone write half");
            let lines: Vec<String> = sources.iter().map(|s| escape_source(s)).collect();
            for k in 0..greedy_requests {
                let body = load_line("g", k, &lines[k % lines.len()]);
                write.write_all(body.as_bytes()).expect("greedy send");
            }
            write.flush().expect("greedy flush");
            // The greedy client *does* read (a never-reading client is
            // the slow-consumer policy's problem, tested elsewhere) — it
            // just pipelined its entire budget up front.
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let (mut served, mut shed) = (0u64, 0u64);
            for _ in 0..greedy_requests {
                line.clear();
                let n = reader.read_line(&mut line).expect("greedy read");
                assert!(n > 0, "daemon closed on the greedy client");
                if line.contains("\"ok\":true") {
                    served += 1;
                } else {
                    assert!(
                        line.contains("\"kind\":\"overloaded\""),
                        "greedy failures are shed, nothing else: {line}"
                    );
                    shed += 1;
                }
            }
            (served, shed)
        });
        let polite = scope.spawn(move || {
            // Let the greedy burst land first so every polite request
            // contends with it.
            std::thread::sleep(Duration::from_millis(5));
            load_client(addr, sources, 1, polite_requests, 1, None)
        });
        (
            greedy.join().expect("greedy client"),
            polite.join().expect("polite client"),
        )
    });

    shutdown.store(true, Ordering::SeqCst);
    let (service, report) = daemon.join().expect("daemon thread").expect("daemon io");
    let _ = service.shutdown();
    assert_eq!(
        report.snapshot.conn_shed, greedy_shed,
        "every shed came from the greedy connection"
    );
    GreedyContention {
        conn_cap,
        greedy_requests,
        greedy_served,
        greedy_shed,
        polite_requests,
        polite_p50_ms: percentile_ms(&mut polite, 0.50),
        polite_p99_ms: percentile_ms(&mut polite, 0.99),
    }
}

/// The single-client serial baseline: one request in flight at a time
/// through the service directly — the stdin daemon's client model —
/// with the same injected service time as the socket rows.
fn run_serial_baseline(
    sources: &[String],
    shards: usize,
    requests: usize,
    service_ms: u64,
    options: &CompileOptions,
) -> LoadRow {
    let config = ServeConfig {
        shards,
        options: options.clone(),
        faults: FaultPlan::parse(&format!("delay:{service_ms}")).expect("delay spec"),
        ..ServeConfig::default()
    };
    let mut service = CompileService::start(config).expect("baseline start");
    for (i, source) in sources.iter().enumerate() {
        service.submit(CompileRequest {
            id: i as u64,
            name: None,
            source: source.clone(),
            emit: Emit::Cpp,
            deadline: None,
        });
    }
    let _ = service.drain();
    let mut latencies = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for i in 0..requests {
        let t = Instant::now();
        service.submit(CompileRequest {
            id: i as u64,
            // A name of its own, as on the socket rows: a shard serves it.
            name: Some(format!("s_{i}")),
            source: sources[i % sources.len()].clone(),
            emit: Emit::Cpp,
            deadline: None,
        });
        let response = service.recv().expect("baseline response");
        assert!(response.result.is_ok());
        latencies.push(t.elapsed());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let _ = service.shutdown();
    LoadRow {
        label: "serial_baseline",
        connections: 1,
        shards,
        target_qps: 0.0,
        requests,
        qps: requests as f64 / elapsed,
        client_p50_ms: percentile_ms(&mut latencies, 0.50),
        client_p99_ms: percentile_ms(&mut latencies, 0.99),
        server_p50_ms: 0.0,
        server_p99_ms: 0.0,
        open_loop: false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let load = args.iter().any(|a| a == "--load");
    let open_loop = args.iter().any(|a| a == "--open-loop");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let (distinct, warm_rounds, reps) = if smoke { (6, 2, 2) } else { (12, 4, 5) };
    let shards = 2usize;
    let sources = workload(distinct);
    let options = CompileOptions {
        training_instances: 300,
        expand_by: 1,
        ..CompileOptions::default()
    };
    let snapshot_path = std::env::temp_dir().join("bench_serve_snapshot.txt");
    let _ = std::fs::remove_file(&snapshot_path);
    let config = |snap: bool| ServeConfig {
        shards,
        options: options.clone(),
        snapshot_path: snap.then(|| snapshot_path.clone()),
        ..ServeConfig::default()
    };

    // Cold: fresh service per rep, every shape selected from scratch.
    let mut cold_s = f64::INFINITY;
    let mut reference = Vec::new();
    for _ in 0..reps {
        let mut service = CompileService::start(config(false)).expect("cold start");
        let t = Instant::now();
        let responses = submit_all(&mut service, &sources);
        cold_s = cold_s.min(t.elapsed().as_secs_f64());
        assert!(responses.iter().all(|r| !r.cache_hit), "cold = no hits");
        reference = files_of(&responses);
        let _ = service.shutdown();
    }

    // Warm: one service, replay the workload after a priming pass. With
    // `shard_hit`, rounds alternate between other names and the priming
    // ones, ending on the priming names (`warm_rounds` is even): the
    // service stores one rendering per shape, the previous round's, so
    // no request matches it and every request renders on its shard. The
    // shard-hit replay is measured twice — stage tracing on (the
    // default) and forced off — to price the recording itself
    // (`trace_overhead_pct`). The front-door run also writes the snapshot
    // used by the restored phase. Returns (best rep, rep spread %): the
    // spread across reps of the same measurement is the timer noise
    // floor the trace-overhead comparison is read against.
    let measure_warm = |mode: TraceMode, snap: bool, shard_hit: bool| -> (f64, f64) {
        force_trace_mode(Some(mode));
        let mut service = CompileService::start(config(snap)).expect("warm start");
        let primed = submit_all(&mut service, &sources);
        assert_eq!(files_of(&primed), reference, "priming matches cold");
        let (mut best_s, mut worst_s) = (f64::INFINITY, 0.0f64);
        for _ in 0..reps {
            let t = Instant::now();
            let mut last = Vec::new();
            for round in 0..warm_rounds {
                let other = shard_hit && round % 2 == 0;
                last = submit_named(&mut service, &sources, if other { "y" } else { "x" });
            }
            let rep_s = t.elapsed().as_secs_f64() / warm_rounds as f64;
            best_s = best_s.min(rep_s);
            worst_s = worst_s.max(rep_s);
            assert!(
                last.iter().all(|r| r.cache_hit),
                "every warm request must be a cache hit"
            );
            assert_eq!(
                files_of(&last),
                reference,
                "warm artifacts must be byte-identical to cold"
            );
        }
        let compiles: u64 = service
            .metrics()
            .shards
            .iter()
            .map(|s| s.compile_time.count)
            .sum();
        let replayed = if shard_hit { reps * warm_rounds } else { 0 };
        assert_eq!(
            compiles as usize,
            distinct * (1 + replayed),
            "the priming pass, and every shard-hit request, reaches a shard"
        );
        if snap {
            service
                .save_snapshot(&snapshot_path)
                .expect("write snapshot");
        }
        let _ = service.shutdown();
        (best_s, (worst_s / best_s - 1.0) * 100.0)
    };
    let (warm_s, _) = measure_warm(TraceMode::On, true, false);
    let (shard_hit_s, shard_hit_spread_pct) = measure_warm(TraceMode::On, false, true);
    let (shard_hit_off_s, shard_hit_off_spread_pct) = measure_warm(TraceMode::Off, false, true);
    let noise_floor_pct = shard_hit_spread_pct.max(shard_hit_off_spread_pct);
    force_trace_mode(None);
    let snapshot_bytes = std::fs::metadata(&snapshot_path)
        .map(|m| m.len())
        .unwrap_or(0);

    // Restored: brand-new service per rep, loading the snapshot from
    // disk; the whole workload must be cache hits with identical bytes.
    let mut restored_s = f64::INFINITY;
    for _ in 0..reps {
        let mut service = CompileService::start(config(true)).expect("restored start");
        let t = Instant::now();
        let responses = submit_all(&mut service, &sources);
        restored_s = restored_s.min(t.elapsed().as_secs_f64());
        assert!(
            responses.iter().all(|r| r.cache_hit),
            "every restored request must be a cache hit"
        );
        assert_eq!(
            files_of(&responses),
            reference,
            "restored artifacts must be byte-identical to cold"
        );
        let stats = service.shutdown();
        assert_eq!(stats.restored(), distinct as u64);
    }

    // Overload burst: a single deliberately slowed shard (25 ms injected
    // delay per compile) with a small admission queue and a 100 ms
    // deadline takes a burst of requests all at once. This measures the
    // *robustness* envelope, not throughput: how much of the burst is
    // shed at admission, how much expires in the queue, and the
    // completion-latency tail of what does get served. Asserts are
    // structural only (exactly one response per request, the three
    // outcome classes partition the burst) — the rates themselves are
    // the recorded result.
    let burst = if smoke { 40 } else { 120 };
    let overload = run_overload_burst(&options, burst);

    // Socket-load sweep (--load): a closed-loop generator against the
    // multiplexed socket transport, sweeping connections x shards with a
    // fixed injected per-compile service time (2 ms sleep) so the rows
    // measure transport concurrency and routing policy, deterministic
    // across host core counts. The last two rows hammer ONE hot shape
    // (maximal skew, deep per-connection pipelines): plain hash routing
    // would queue every request on the shape's home shard, which is the
    // one-shard row, while power-of-two-choices over two shards spills
    // to the alternate once the home queue is markedly deeper — the
    // measured server-side p99 gap is the routing win.
    type GreedyPair = Option<(GreedyContention, GreedyContention)>;
    let (load_rows, greedy_pair): (Vec<LoadRow>, GreedyPair) = if load {
        const SERVICE_MS: u64 = 2;
        let load_options = CompileOptions {
            training_instances: 60,
            ..CompileOptions::default()
        };
        let per_conn = if smoke { 40 } else { 150 };
        let skew_rounds = if smoke { 4 } else { 10 };
        let skew_window = 16;
        let hot: Vec<String> = vec![sources[0].clone()];
        let mut rows = vec![
            run_serial_baseline(&sources, 4, per_conn, SERVICE_MS, &load_options),
            run_load_row(
                "socket_c1_s4",
                &sources,
                1,
                4,
                0.0,
                per_conn,
                1,
                SERVICE_MS,
                &load_options,
            ),
            run_load_row(
                "socket_c2_s4",
                &sources,
                2,
                4,
                0.0,
                per_conn,
                1,
                SERVICE_MS,
                &load_options,
            ),
            run_load_row(
                "socket_c4_s4",
                &sources,
                4,
                4,
                0.0,
                per_conn,
                1,
                SERVICE_MS,
                &load_options,
            ),
            run_load_row(
                "socket_c4_s4_pipe8",
                &sources,
                4,
                4,
                0.0,
                per_conn,
                8,
                SERVICE_MS,
                &load_options,
            ),
            run_load_row(
                "socket_c4_s2",
                &sources,
                4,
                2,
                0.0,
                per_conn,
                1,
                SERVICE_MS,
                &load_options,
            ),
            run_load_row(
                "socket_c4_s4_paced",
                &sources,
                4,
                4,
                400.0,
                per_conn,
                1,
                SERVICE_MS,
                &load_options,
            ),
        ];
        rows.push(run_load_row(
            "skew_two_choices",
            &hot,
            4,
            2,
            0.0,
            skew_window * skew_rounds,
            skew_window,
            SERVICE_MS,
            &load_options,
        ));
        rows.push(run_load_row(
            "skew_one_shard",
            &hot,
            4,
            1,
            0.0,
            skew_window * skew_rounds,
            skew_window,
            SERVICE_MS,
            &load_options,
        ));
        if open_loop {
            // Same offered load as the paced closed-loop row, but fired
            // on the schedule: the two rows' p99 gap is the coordinated
            // omission the closed loop conceals.
            rows.push(run_open_loop_row(
                "openloop_c4_s4",
                &sources,
                4,
                4,
                400.0,
                per_conn,
                SERVICE_MS,
                &load_options,
            ));
            // Offered beyond one shard's ~500 QPS capacity: the backlog
            // grows for the whole run and the lateness-inclusive p99
            // shows it (a closed loop would self-throttle and report a
            // flat tail here).
            rows.push(run_open_loop_row(
                "openloop_c4_s1_over",
                &sources,
                4,
                1,
                800.0,
                per_conn,
                SERVICE_MS,
                &load_options,
            ));
        }
        let greedy_n = if smoke { 80 } else { 200 };
        let polite_n = if smoke { 10 } else { 20 };
        let caps_off =
            run_greedy_contention(&sources, 0, greedy_n, polite_n, SERVICE_MS, &load_options);
        let caps_on =
            run_greedy_contention(&sources, 8, greedy_n, polite_n, SERVICE_MS, &load_options);
        println!(
            "greedy pipeliner ({greedy_n} reqs, 1 shard) vs polite closed loop ({polite_n} reqs): \
             caps off p99 {:.1} ms -> cap 8 p99 {:.1} ms ({:.1}x better; \
             greedy shed {} of {greedy_n})",
            caps_off.polite_p99_ms,
            caps_on.polite_p99_ms,
            caps_off.polite_p99_ms / caps_on.polite_p99_ms,
            caps_on.greedy_shed,
        );
        for r in &rows {
            println!(
                "load {:>20}: {} conn x {} shard(s){}  {:7.0} QPS   \
                 client p50 {:7.2} ms  p99 {:7.2} ms   server p50 {:7.2} ms  p99 {:7.2} ms",
                r.label,
                r.connections,
                r.shards,
                if r.target_qps > 0.0 {
                    format!(
                        " @{:.0} QPS offered{}",
                        r.target_qps,
                        if r.open_loop { ", open loop" } else { "" }
                    )
                } else {
                    String::new()
                },
                r.qps,
                r.client_p50_ms,
                r.client_p99_ms,
                r.server_p50_ms,
                r.server_p99_ms,
            );
        }
        let baseline_qps = rows[0].qps;
        let multi_qps = rows
            .iter()
            .find(|r| r.label == "socket_c4_s4_pipe8")
            .unwrap()
            .qps;
        let tc = rows.iter().find(|r| r.label == "skew_two_choices").unwrap();
        let one = rows.iter().find(|r| r.label == "skew_one_shard").unwrap();
        println!(
            "load summary: multi-conn speedup vs serial {:.2}x (>= 2x target)   \
             skew p99 two-choices {:.1} ms vs one shard {:.1} ms ({:.2}x better)",
            multi_qps / baseline_qps,
            tc.server_p99_ms,
            one.server_p99_ms,
            one.server_p99_ms / tc.server_p99_ms,
        );
        (rows, Some((caps_off, caps_on)))
    } else {
        (Vec::new(), None)
    };

    let per_req = |s: f64| s * 1e3 / distinct as f64;
    let (cold_ms, warm_ms, restored_ms) = (per_req(cold_s), per_req(warm_s), per_req(restored_s));
    let (shard_hit_ms, shard_hit_notrace_ms) = (per_req(shard_hit_s), per_req(shard_hit_off_s));
    // A negative measured overhead just means the difference is below
    // the rep-to-rep noise floor; the acceptance check reads the
    // clamped value so it never compares against a negative number.
    let trace_overhead_measured_pct = (shard_hit_ms / shard_hit_notrace_ms - 1.0) * 100.0;
    let trace_overhead_pct = trace_overhead_measured_pct.max(0.0);
    let restored_speedup = cold_ms / restored_ms;
    let warm_speedup = cold_ms / warm_ms;
    println!(
        "serve {distinct} shapes x {shards} shards: cold {cold_ms:8.3} ms/req   \
         warm {warm_ms:8.3} ms/req ({warm_speedup:.1}x)   \
         restored {restored_ms:8.3} ms/req ({restored_speedup:.1}x, snapshot {snapshot_bytes} B)"
    );
    println!(
        "shard-hit replay: tracing on {shard_hit_ms:8.3} ms/req   \
         off {shard_hit_notrace_ms:8.3} ms/req   \
         recording overhead {trace_overhead_pct:.2}% \
         (measured {trace_overhead_measured_pct:+.2}%, noise floor {noise_floor_pct:.2}%, \
         target <= 3%)"
    );
    println!(
        "overload burst {burst} -> 1 shard (queue {cap}, +{delay} ms/compile, {dl} ms deadline): \
         served {served}   expired {expired}   shed {shed} ({rate:.0}%)   \
         completion p50 {p50:.1} ms   p99 {p99:.1} ms",
        burst = overload.burst,
        cap = overload.queue_cap,
        delay = overload.delay_ms,
        dl = overload.deadline_ms,
        served = overload.served,
        expired = overload.expired,
        shed = overload.shed,
        rate = overload.shed_rate * 100.0,
        p50 = overload.p50_ms,
        p99 = overload.p99_ms,
    );

    let mut json = String::from("{\n  \"bench\": \"serve_cold_warm_restored\",\n");
    let _ = writeln!(json, "  \"unit\": \"ms_per_request\",");
    let _ = writeln!(json, "  \"distinct_shapes\": {distinct},");
    let _ = writeln!(json, "  \"warm_rounds\": {warm_rounds},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"cold_ms_per_req\": {cold_ms:.4},");
    let _ = writeln!(json, "  \"warm_ms_per_req\": {warm_ms:.4},");
    let _ = writeln!(json, "  \"shard_hit_ms_per_req\": {shard_hit_ms:.4},");
    let _ = writeln!(
        json,
        "  \"shard_hit_notrace_ms_per_req\": {shard_hit_notrace_ms:.4},"
    );
    let _ = writeln!(json, "  \"trace_overhead_pct\": {trace_overhead_pct:.2},");
    let _ = writeln!(
        json,
        "  \"trace_overhead_measured_pct\": {trace_overhead_measured_pct:.2},"
    );
    let _ = writeln!(json, "  \"noise_floor_pct\": {noise_floor_pct:.2},");
    let _ = writeln!(json, "  \"restored_ms_per_req\": {restored_ms:.4},");
    let _ = writeln!(json, "  \"warm_speedup_vs_cold\": {warm_speedup:.2},");
    let _ = writeln!(
        json,
        "  \"restored_speedup_vs_cold\": {restored_speedup:.2},"
    );
    let _ = writeln!(json, "  \"snapshot_bytes\": {snapshot_bytes},");
    let _ = writeln!(json, "  \"overload_burst\": {},", overload.burst);
    let _ = writeln!(json, "  \"overload_queue_cap\": {},", overload.queue_cap);
    let _ = writeln!(json, "  \"overload_delay_ms\": {},", overload.delay_ms);
    let _ = writeln!(
        json,
        "  \"overload_deadline_ms\": {},",
        overload.deadline_ms
    );
    let _ = writeln!(json, "  \"overload_served\": {},", overload.served);
    let _ = writeln!(json, "  \"overload_expired\": {},", overload.expired);
    let _ = writeln!(json, "  \"overload_shed\": {},", overload.shed);
    let _ = writeln!(json, "  \"overload_shed_rate\": {:.4},", overload.shed_rate);
    let _ = writeln!(
        json,
        "  \"overload_completion_p50_ms\": {:.3},",
        overload.p50_ms
    );
    let _ = writeln!(
        json,
        "  \"overload_completion_p99_ms\": {:.3},",
        overload.p99_ms
    );
    if !load_rows.is_empty() {
        let baseline_qps = load_rows[0].qps;
        let multi_qps = load_rows
            .iter()
            .find(|r| r.label == "socket_c4_s4_pipe8")
            .unwrap()
            .qps;
        let tc = load_rows
            .iter()
            .find(|r| r.label == "skew_two_choices")
            .unwrap();
        let one = load_rows
            .iter()
            .find(|r| r.label == "skew_one_shard")
            .unwrap();
        let _ = writeln!(json, "  \"load\": {{");
        let _ = writeln!(json, "    \"transport\": \"unix_socket_jsonl\",");
        let _ = writeln!(json, "    \"service_ms_injected\": 2,");
        let _ = writeln!(
            json,
            "    \"multi_conn_speedup_vs_serial\": {:.2},",
            multi_qps / baseline_qps
        );
        let _ = writeln!(
            json,
            "    \"skew_two_choices_p99_ms\": {:.3},",
            tc.server_p99_ms
        );
        let _ = writeln!(
            json,
            "    \"skew_one_shard_p99_ms\": {:.3},",
            one.server_p99_ms
        );
        let _ = writeln!(
            json,
            "    \"skew_p99_improvement\": {:.2},",
            one.server_p99_ms / tc.server_p99_ms
        );
        if let Some((caps_off, caps_on)) = &greedy_pair {
            let _ = writeln!(json, "    \"greedy\": {{");
            let _ = writeln!(json, "      \"shards\": 1,");
            let _ = writeln!(
                json,
                "      \"greedy_requests\": {},",
                caps_on.greedy_requests
            );
            let _ = writeln!(
                json,
                "      \"polite_requests\": {},",
                caps_on.polite_requests
            );
            let _ = writeln!(json, "      \"conn_in_flight_cap\": {},", caps_on.conn_cap);
            let _ = writeln!(
                json,
                "      \"polite_p50_ms_caps_off\": {:.3},",
                caps_off.polite_p50_ms
            );
            let _ = writeln!(
                json,
                "      \"polite_p99_ms_caps_off\": {:.3},",
                caps_off.polite_p99_ms
            );
            let _ = writeln!(
                json,
                "      \"polite_p50_ms_caps_on\": {:.3},",
                caps_on.polite_p50_ms
            );
            let _ = writeln!(
                json,
                "      \"polite_p99_ms_caps_on\": {:.3},",
                caps_on.polite_p99_ms
            );
            let _ = writeln!(
                json,
                "      \"greedy_served_caps_on\": {},",
                caps_on.greedy_served
            );
            let _ = writeln!(
                json,
                "      \"greedy_shed_caps_on\": {},",
                caps_on.greedy_shed
            );
            let _ = writeln!(
                json,
                "      \"greedy_shed_caps_off\": {},",
                caps_off.greedy_shed
            );
            let _ = writeln!(
                json,
                "      \"polite_p99_improvement\": {:.2}",
                caps_off.polite_p99_ms / caps_on.polite_p99_ms
            );
            let _ = writeln!(json, "    }},");
        }
        let _ = writeln!(json, "    \"rows\": [");
        for (i, r) in load_rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"label\": \"{}\", \"connections\": {}, \"shards\": {}, \
                 \"target_qps\": {:.0}, \"open_loop\": {}, \
                 \"requests\": {}, \
                 \"qps\": {:.1}, \"client_p50_ms\": {:.3}, \"client_p99_ms\": {:.3}, \
                 \"server_p50_ms\": {:.3}, \"server_p99_ms\": {:.3}}}{}",
                r.label,
                r.connections,
                r.shards,
                r.target_qps,
                r.open_loop,
                r.requests,
                r.qps,
                r.client_p50_ms,
                r.client_p99_ms,
                r.server_p50_ms,
                r.server_p99_ms,
                if i + 1 < load_rows.len() { "," } else { "" },
            );
        }
        let _ = writeln!(json, "    ]");
        let _ = writeln!(json, "  }},");
    }
    let _ = writeln!(
        json,
        "  \"note\": \"warm, shard-hit and restored replays verified cache-hit and \
         byte-identical to cold; 1-core dev host, so shard threads interleave — ratios \
         measure per-request work saved, not parallel scaling\""
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
