//! `gmc-serve`: a supervised, sharded compile service on top of
//! [`gmc_core::CompileSession`].
//!
//! The one-shot `gmcc` pipeline dies cold after every invocation; this
//! crate is the serving layer that keeps it warm — and keeps it *up*.
//! It is the PlanB shape — a compact persisted structure plus a bounded
//! in-memory cache turns a per-request computation into a lookup — with
//! the failure/tail behavior of the data plane treated as a first-class
//! design axis:
//!
//! * **Shard pool.** [`CompileService::start`] spawns `shards` worker
//!   threads, each owning one `CompileSession` (sessions are
//!   single-threaded by design — one per worker, never shared). Beside
//!   its session a shard keeps the artifacts it rendered, per shape, in
//!   a [`gmc_core::lru::Lru`] as large as its chain cache
//!   ([`ServeConfig::cache_capacity`]; `0` stores nothing). Every
//!   request still compiles through the session; a cache hit is
//!   answered with the stored bytes when they were rendered for the
//!   same `name` and `emit`, and anything else renders afresh and
//!   replaces the shape's entry (see [`supervisor`]).
//! * **Two-choices routing with fallover.** [`CompileService::submit`]
//!   parses the request in the submitting thread and routes it by
//!   power-of-two-choices over live queue depths
//!   ([`pick_two_choices`]): [`route`] — a stable hash of the chain
//!   *shape* — names the cache-warm home shard, [`route_alt`] (a
//!   salted rehash, always distinct from home) names the alternative,
//!   and the request leaves home only when home's queue is more than
//!   [`ROUTE_AWAY_MARGIN`] entries deeper — sticky enough to keep the
//!   warm cache earning its keep, responsive enough to spill a backed-
//!   up shard's overflow. Ties break deterministically toward home;
//!   down shards are skipped (falling over to the least-loaded live
//!   shard when both candidates are down). Routing is a performance
//!   hint only: every shard can compile every shape, and compilation
//!   is deterministic, so artifacts are identical wherever a request
//!   lands — which is what makes both route-away and fallover safe.
//! * **Supervision.** Each worker wraps every compile in
//!   `catch_unwind`: a panic costs its request (answered with a typed
//!   `shard_panic` failure) but not the shard — the supervisor discards
//!   the poisoned session, sleeps a capped exponential backoff, and
//!   rebuilds a fresh session rewarmed from the latest snapshot, so the
//!   first repeat request after a restart is a cache hit. A circuit
//!   breaker (K failures in a window) takes a repeatedly-dying shard
//!   out of rotation instead of restart-looping; routing then falls
//!   over to its neighbors. See [`supervisor`] for the state machine.
//! * **Admission control and deadlines.** Per-shard queues are bounded
//!   ([`ServeConfig::queue_cap`]); submissions past the bound are shed
//!   with an in-band `overloaded` failure. Requests carry deadlines
//!   ([`CompileRequest::deadline`], defaulted by
//!   [`ServeConfig::default_deadline`]) enforced twice: at shard
//!   dequeue (stale work is answered without compiling) and in the
//!   submitter's receive path (a wedged shard cannot stall the stream).
//!   Every submitted request receives **exactly one** response: an
//!   internal sequence number deduplicates late shard responses against
//!   submitter-side write-offs.
//! * **Connection backpressure.** The socket transport extends the same
//!   discipline from the shard queues to the connection layer, so one
//!   abusive connection cannot grow daemon memory or starve its
//!   neighbors. A per-connection in-flight admission cap
//!   ([`TransportOptions::conn_in_flight_cap`]) sheds over-cap requests
//!   in band with retryable `overloaded` — cap → shed → client
//!   retry/backoff is the intended control loop, not an error path.
//!   Each socket connection has one output byte buffer, flushed by the
//!   dispatcher's poll loop: a line that arrives while 256 lines are
//!   unflushed slow-closes the connection, output that makes no
//!   progress for 2 s closes it, and while more than 8 MiB are
//!   unflushed the connection's requests are not read. Either way the
//!   connection's in-flight work is *written off* through the same
//!   exactly-once sequence numbers (late shard replies dropped and
//!   counted, never delivered to a dead socket). Lifecycle limits bound
//!   the population: [`TransportOptions::max_conns`] refuses extra
//!   connections with a typed in-band line before closing, and
//!   [`TransportOptions::idle_timeout`] reaps silent connections
//!   (in-flight work exempts). Every shed/refusal/slow-close/reap/
//!   write-off increments a [`TransportSnapshot`] counter exposed in
//!   band and in the Prometheus dump.
//! * **Warm-restart persistence.** [`CompileService::snapshot`] merges
//!   the per-shard caches into one [`gmc_core::SessionSnapshot`] —
//!   shape descriptors plus selected parenthesizations, *not* emitted
//!   code (see `gmc_core::persist` for the `gmc-session-snapshot v1`
//!   format). Saves are atomic (temp file + rename) and **rotated**:
//!   [`ServeConfig::snapshot_keep`] keeps the last K generations
//!   (`snap`, `snap.1`, …, shifted by a rename chain on every save),
//!   and startup restores the newest *decodable* generation — a
//!   corrupt generation is quarantined to `<path>.bad` and the next
//!   older one warms the service, so a torn final write costs one
//!   save's worth of history, not all of it. On start, each shard restores
//!   exactly the shapes that route to it under the *current* shard
//!   count, so snapshots survive resharding. Restored chains are
//!   bit-identical to freshly compiled ones (pinned by tests below).
//! * **Lock-free counters.** Each shard publishes its chain-cache
//!   counters after every compile, so `{"op":"stats"}` and
//!   `{"op":"health"}` answer from atomics without touching the queues.
//! * **Graceful drain.** The intended shutdown sequence — what the
//!   `gmcc --serve` daemon runs on SIGTERM/SIGINT or stdin EOF — is:
//!   stop accepting, answer everything in flight (the [`transport`]
//!   dispatcher drains every connection, stdin's connection 0
//!   included; in-process callers use [`CompileService::drain`]),
//!   [`CompileService::save_snapshot`] the final atomic snapshot, then
//!   [`CompileService::shutdown`]. Warm restarts are the normal path,
//!   not a lucky one.
//! * **Latency histograms and a metrics endpoint.** Every shard keeps
//!   three lock-free log-linear histograms ([`gmc_obs::Histogram`]) in
//!   its shared block: end-to-end response latency (recorded by the
//!   submitter, exactly once per shard-attributed response), queue
//!   wait (submission → dequeue), and compile time. `{"op":"health"}`
//!   reads per-shard `p99_ms`/`queue_wait_p99_ms` straight off the
//!   live buckets; `{"op":"metrics"}` returns the full
//!   [`CompileService::metrics`] snapshot (p50/p90/p99/max per
//!   histogram plus every cache/supervisor counter) in-band, and
//!   [`ServiceMetrics::to_prometheus`] renders the same snapshot as
//!   Prometheus text exposition for `gmcc --metrics-file`. Requests
//!   slower than `gmcc --slow-ms` log their per-stage breakdown
//!   (parse → enumerate → DP → select → expand → emit) to stderr.
//! * **Deterministic fault injection.** The [`fault`] module arms
//!   shard panics, compile delays, torn snapshot writes, and
//!   connection-level faults — dropped, stalled, and garbage-injecting
//!   connections — from a spec string
//!   (`GMC_FAULT=panic:0:3,delay:5,conn_drop:2:4,snapshot_torn`), once,
//!   at start-up ([`ServeConfig::faults`]), so every robustness claim
//!   above is exercised by tests (including a transport chaos property
//!   test) rather than asserted.
//!
//! Shards post each finished response to the service's one event
//! queue, tagged with the caller's request id (completion order is not
//! submission order). The same queue carries shard exits and nothing
//! else, so the submitter wakes the moment a response is ready and no
//! later than the earliest outstanding deadline — there is no poll
//! tick. Once the transport's `poll(2)` loop arms it, every post also
//! writes one byte to a wake socket that the loop watches, and the
//! loop reads no request before every shard has restored its share of
//! the snapshot; in-process callers of
//! [`CompileService::recv`] block on the queue alone. The [`transport`]
//! module fronts the service with JSONL ([`jsonl`]) through one
//! dispatcher: over unix/TCP sockets (`gmcc --listen`), with one
//! `poll(2)` loop owning every socket and per-connection request
//! ids remapped onto private tokens, so many clients pipeline
//! concurrently and each response returns to its submitting connection
//! (ids are scoped per connection; `gmcc --connect` is the matching
//! client); and over stdin/stdout (`gmcc --serve -`) as connection 0
//! of the same dispatcher, whose loop polls and reads the request
//! stream itself. `bench_serve` records the cold
//! vs. warm vs. restored-from-disk throughput trajectory plus
//! shed/deadline behavior under an overload burst in
//! `BENCH_serve.json`, and `bench_serve --load` drives the socket
//! stack closed-loop: a connections × shards QPS/latency sweep, a
//! skewed one-hot-shape workload whose two-choices tail latency is
//! recorded against the same load on one shard, and a
//! greedy-contention A/B where a polite client's p99 under a
//! co-resident greedy pipeliner must improve with the in-flight cap on
//! vs. off. `bench_serve --load --open-loop` adds fixed-rate open-loop
//! rows whose latency is measured from the *scheduled* send time, so
//! queueing delay under overload is charged to the tail instead of
//! hidden by coordinated omission.

#![warn(missing_docs)]

pub mod fault;
pub mod jsonl;
mod service;
pub mod supervisor;
pub mod transport;

pub use gmc_codegen::emit_runtime_header;
pub use service::{
    pick_two_choices, route, route_alt, Artifacts, CompileRequest, CompileResponse, CompileService,
    Emit, Failure, FailureKind, ServeConfig, ServeError, ServiceMetrics, ServiceStats,
    ShardMetrics, ShardStatus, DEFAULT_QUEUE_CAP, ROUTE_AWAY_MARGIN,
};
pub use supervisor::{RestartPolicy, ShardHealth, ShardState, ShardStats};
pub use transport::{
    Front, ListenAddr, SocketListener, SocketStream, TransportOptions, TransportReport,
    TransportSnapshot,
};

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_core::{CompileOptions, DEFAULT_CHAIN_CACHE_CAPACITY};

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

    fn fast_options() -> CompileOptions {
        CompileOptions {
            training_instances: 60,
            ..CompileOptions::default()
        }
    }

    fn config(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            options: fast_options(),
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

    fn by_id(mut responses: Vec<CompileResponse>) -> Vec<CompileResponse> {
        responses.sort_by_key(|r| r.id);
        responses
    }

    #[test]
    fn sharded_service_compiles_and_caches() {
        let mut service = CompileService::start(config(2)).unwrap();
        for round in 0..2u64 {
            for (i, src) in [SRC_A, SRC_B, SRC_C].iter().enumerate() {
                service.submit(request(round * 3 + i as u64, src));
            }
        }
        let responses = by_id(service.drain());
        assert_eq!(responses.len(), 6);
        for r in &responses {
            let artifacts = r.result.as_ref().expect("compiles succeed");
            assert_eq!(artifacts.files.len(), 2, "cpp + rust");
            assert!(artifacts.report.contains("variant 0"));
            assert_eq!(r.cache_hit, r.id >= 3, "second round hits, id {}", r.id);
        }
        // Identical sources repeat on the same shard and artifacts.
        for i in 0..3 {
            assert_eq!(responses[i].shard, responses[i + 3].shard);
            assert_eq!(
                responses[i].result.as_ref().unwrap(),
                responses[i + 3].result.as_ref().unwrap()
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.requests(), 6);
        assert_eq!(stats.cache_hits(), 3);
        assert_eq!(stats.panics(), 0);
        assert_eq!(stats.late_drops, 0);
    }

    #[test]
    fn in_band_stats_report_per_shard_cache_counters() {
        let mut service = CompileService::start(config(2)).unwrap();
        // Two distinct shapes plus one repeat: 3 requests, 1 hit.
        for (i, src) in [SRC_A, SRC_B, SRC_A].iter().enumerate() {
            service.submit(request(i as u64, src));
        }
        // Stats reports what the shards have answered so far.
        assert_eq!(service.drain().len(), 3);
        let stats = service.stats();
        assert_eq!(stats.len(), 2, "one status per shard");
        assert_eq!(stats.iter().map(|s| s.requests).sum::<u64>(), 3);
        assert_eq!(stats.iter().map(|s| s.cache.hits).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.cache.misses).sum::<u64>(), 2);
        assert_eq!(stats.iter().map(|s| s.cache.evictions).sum::<u64>(), 0);
        // The repeat landed on the shard that compiled SRC_A first: its
        // cache reports a nonzero hit rate (1/2 or 1/3 depending on
        // where SRC_B routed).
        let warm = stats.iter().find(|s| s.cache.hits == 1).unwrap();
        assert!(warm.cache.hit_rate() > 0.0);
        let _ = service.shutdown();
    }

    /// Stats reads the counters each shard publishes, like health: a
    /// shard held mid-compile still reports at once, with the request
    /// it dequeued.
    #[test]
    fn stats_answers_at_once_while_the_only_shard_is_busy() {
        let mut cfg = config(1);
        cfg.faults = fault::FaultPlan::parse("delay:2500").unwrap();
        let mut service = CompileService::start(cfg).unwrap();
        service.submit(request(1, SRC_B));
        // Let the shard dequeue the request and enter the delay.
        while service.metrics().shards[0].queue_wait.count == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let started = std::time::Instant::now();
        let stats = service.stats();
        assert!(started.elapsed() < std::time::Duration::from_millis(500));
        assert_eq!(stats.len(), 1, "the busy shard is listed");
        assert_eq!((stats[0].shard, stats[0].requests), (0, 1));
        assert_eq!(service.drain().len(), 1);
        let _ = service.shutdown();
    }

    #[test]
    fn health_reports_every_shard_up_without_touching_queues() {
        let mut service = CompileService::start(config(3)).unwrap();
        service.submit(request(0, SRC_A));
        let health = service.health();
        assert_eq!(health.len(), 3);
        for h in &health {
            assert_eq!(h.state, ShardState::Up);
            assert_eq!(h.restarts, 0);
            assert_eq!(h.shed, 0);
            assert_eq!(h.deadline_exceeded, 0);
        }
        assert_eq!(health.iter().map(|h| h.queue_depth).sum::<usize>(), 1);
        assert_eq!(service.drain().len(), 1);
        let _ = service.shutdown();
    }

    /// A shard's exit event (posted by the worker's drop guard) writes
    /// off its unanswered requests as `shard_down` at once and takes the
    /// shard out of routing.
    #[test]
    fn shard_exit_event_writes_off_its_requests() {
        let mut cfg = config(1);
        cfg.faults = fault::FaultPlan::parse("delay:300").unwrap();
        let mut service = CompileService::start(cfg).unwrap();
        service.submit(request(1, SRC_B));
        // Stand in for the guard of a worker that died mid-request.
        service
            .events_tx
            .send(service::Event::ShardExited(0))
            .unwrap();
        let started = std::time::Instant::now();
        let r = service.recv().expect("written off, not lost");
        assert!(started.elapsed() < std::time::Duration::from_millis(200));
        assert_eq!(r.result.unwrap_err().kind, FailureKind::ShardDown);
        assert_eq!(service.health()[0].state, ShardState::Down);
        assert!(service.recv().is_none(), "exactly one response");
        let _ = service.shutdown();
    }

    #[test]
    fn parse_errors_come_back_as_responses() {
        let mut service = CompileService::start(config(1)).unwrap();
        service.submit(request(7, "Matrix A <General, Singular>; X := B;"));
        service.submit(request(8, SRC_B));
        let responses = by_id(service.drain());
        assert_eq!(responses.len(), 2);
        let failure = responses[0].result.as_ref().unwrap_err();
        assert!(failure.message.contains("undefined"));
        assert_eq!(failure.kind, FailureKind::Parse);
        assert!(!failure.kind.retryable());
        assert_eq!(responses[0].shard, None);
        assert!(responses[1].result.is_ok(), "stream continues past errors");
    }

    /// A chain longer than `gmc_ir::MAX_OPERANDS` is refused before any
    /// work, in band: a 512-operand request (a 20 KB line) gets a typed
    /// `parse` failure at once, and the request behind it is served.
    #[test]
    fn over_long_chains_fail_to_parse_before_any_work() {
        let n = 512;
        let defs: String = (0..n)
            .map(|i| format!("Matrix M{i} <General, Singular>;"))
            .collect();
        let product: Vec<String> = (0..n).map(|i| format!("M{i}")).collect();
        let long = format!("{defs} X := {};", product.join(" * "));
        let mut service = CompileService::start(config(1)).unwrap();
        let started = std::time::Instant::now();
        service.submit(request(1, &long));
        let first = service.recv().expect("answered in band");
        let took = started.elapsed();
        let failure = first.result.unwrap_err();
        assert_eq!(failure.kind, FailureKind::Parse);
        assert!(
            failure.message.contains("at most 128 matrices"),
            "{failure:?}"
        );
        assert!(took < std::time::Duration::from_millis(10), "took {took:?}");
        service.submit(request(2, SRC_B));
        let second = service.recv().expect("the next request is served");
        assert!(second.result.is_ok());
        let _ = service.shutdown();
    }

    #[test]
    fn snapshot_restart_restores_warm_and_byte_identical() {
        let dir = std::env::temp_dir().join("gmc_serve_snapshot_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.txt");

        let mut cfg = config(2);
        cfg.snapshot_path = Some(path.clone());
        let mut cold = CompileService::start(cfg.clone()).unwrap();
        for (i, src) in [SRC_A, SRC_B, SRC_C].iter().enumerate() {
            cold.submit(request(i as u64, src));
        }
        let cold_responses = by_id(cold.drain());
        cold.save_snapshot(&path).unwrap();
        let cold_stats = cold.shutdown();
        assert_eq!(cold_stats.cache_hits(), 0);

        // Restart — same shard count: every first request is a cache hit
        // and every artifact is byte-identical to the cold compile.
        let mut warm = CompileService::start(cfg).unwrap();
        for (i, src) in [SRC_A, SRC_B, SRC_C].iter().enumerate() {
            warm.submit(request(i as u64, src));
        }
        let warm_responses = by_id(warm.drain());
        for (c, w) in cold_responses.iter().zip(&warm_responses) {
            assert!(w.cache_hit, "restored chain serves id {} warm", w.id);
            assert_eq!(
                c.result.as_ref().unwrap(),
                w.result.as_ref().unwrap(),
                "byte-identical artifacts for id {}",
                w.id
            );
        }
        let warm_stats = warm.shutdown();
        assert_eq!(warm_stats.restored(), 3);
        assert_eq!(warm_stats.cache_hits(), 3);

        // Resharding still works: shapes re-route, nothing is lost.
        let mut resharded_cfg = config(3);
        resharded_cfg.snapshot_path = Some(path.clone());
        let mut resharded = CompileService::start(resharded_cfg).unwrap();
        assert_eq!(resharded.shards(), 3);
        for (i, src) in [SRC_A, SRC_B, SRC_C].iter().enumerate() {
            resharded.submit(request(i as u64, src));
        }
        for r in resharded.drain() {
            assert!(r.cache_hit, "restored across reshard, id {}", r.id);
        }
        let stats = resharded.shutdown();
        assert_eq!(stats.restored(), 3);
    }

    #[test]
    fn snapshot_with_other_options_is_refused() {
        let dir = std::env::temp_dir().join("gmc_serve_mismatch_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.txt");
        let mut cfg = config(1);
        cfg.snapshot_path = Some(path.clone());
        let mut service = CompileService::start(cfg).unwrap();
        service.submit(request(0, SRC_B));
        service.drain();
        service.save_snapshot(&path).unwrap();
        let _ = service.shutdown();

        let mismatched = ServeConfig {
            shards: 1,
            options: CompileOptions {
                training_instances: 61,
                ..CompileOptions::default()
            },
            cache_capacity: DEFAULT_CHAIN_CACHE_CAPACITY,
            snapshot_path: Some(path),
            ..ServeConfig::default()
        };
        assert!(matches!(
            CompileService::start(mismatched),
            Err(ServeError::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_and_service_starts_cold() {
        let dir = std::env::temp_dir().join("gmc_serve_quarantine_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.txt");
        std::fs::write(
            &path,
            "gmc-session-snapshot v1\ngarbage that is not a snapshot",
        )
        .unwrap();

        let mut cfg = config(1);
        cfg.snapshot_path = Some(path.clone());
        let mut service = CompileService::start(cfg).unwrap();
        service.submit(request(0, SRC_B));
        let responses = service.drain();
        assert!(responses[0].result.is_ok());
        assert!(!responses[0].cache_hit, "cold start after quarantine");
        let stats = service.shutdown();
        assert_eq!(stats.restored(), 0);
        assert!(!path.exists(), "corrupt snapshot moved aside");
        let bad = dir.join("snapshot.txt.bad");
        assert!(bad.exists(), "quarantined copy kept for inspection");
    }

    #[test]
    fn snapshot_rotation_warms_from_next_newest_past_a_corrupt_generation() {
        let dir = std::env::temp_dir().join("gmc_serve_rotation_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.txt");

        let mut cfg = config(1);
        cfg.snapshot_path = Some(path.clone());
        cfg.snapshot_keep = 3;
        let mut service = CompileService::start(cfg.clone()).unwrap();
        // Three saves with keep=3: each shifts the generation chain, so
        // the generations hold {A}, {A,B}, {A,B,C} oldest to newest.
        for (i, src) in [SRC_A, SRC_B, SRC_C].iter().enumerate() {
            service.submit(request(i as u64, src));
            assert_eq!(service.drain().len(), 1);
            service.save_snapshot(&path).unwrap();
        }
        let _ = service.shutdown();
        let generation = |g: usize| gmc_core::SessionSnapshot::rotation_path(&path, g);
        assert_eq!(gmc_core::SessionSnapshot::load(&path).unwrap().len(), 3);
        assert_eq!(
            gmc_core::SessionSnapshot::load(generation(1))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            gmc_core::SessionSnapshot::load(generation(2))
                .unwrap()
                .len(),
            1
        );

        // Corrupt the newest generation; startup must quarantine it to
        // `<path>.bad` and warm from generation 1 instead of starting
        // cold.
        std::fs::write(&path, "gmc-session-snapshot v1\ngarbage").unwrap();
        let mut warm = CompileService::start(cfg).unwrap();
        for (i, src) in [SRC_A, SRC_B, SRC_C].iter().enumerate() {
            warm.submit(request(i as u64, src));
        }
        let responses = by_id(warm.drain());
        assert!(responses[0].cache_hit, "A restored from generation 1");
        assert!(responses[1].cache_hit, "B restored from generation 1");
        assert!(!responses[2].cache_hit, "C only existed in the bad newest");
        assert!(!path.exists(), "corrupt generation moved aside");
        assert!(dir.join("snapshot.txt.bad").exists(), "quarantined copy");
        assert!(generation(1).exists(), "fallback generation untouched");

        // Saving again rotates {A,B} one slot older and never grows the
        // chain past `keep` generations.
        warm.save_snapshot(&path).unwrap();
        let stats = warm.shutdown();
        assert_eq!(stats.restored(), 2);
        assert_eq!(gmc_core::SessionSnapshot::load(&path).unwrap().len(), 3);
        assert_eq!(
            gmc_core::SessionSnapshot::load(generation(2))
                .unwrap()
                .len(),
            2,
            "previous fallback shifted one slot older"
        );
        assert!(!generation(3).exists(), "keep=3 bounds the chain");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let program = gmc_ir::grammar::parse_program(SRC_A).unwrap();
        for shards in 1..=5 {
            let r = route(program.shape(), shards);
            assert!(r < shards);
            assert_eq!(r, route(program.shape(), shards), "stable");
        }
    }

    #[test]
    fn alternate_route_is_stable_distinct_and_in_range() {
        for src in [SRC_A, SRC_B, SRC_C] {
            let program = gmc_ir::grammar::parse_program(src).unwrap();
            let shape = program.shape();
            assert_eq!(route_alt(shape, 1), 0, "single shard has no alternate");
            for shards in 2..=5 {
                let alt = route_alt(shape, shards);
                assert!(alt < shards);
                assert_eq!(alt, route_alt(shape, shards), "stable");
                assert_ne!(alt, route(shape, shards), "candidates are distinct");
            }
        }
    }

    #[test]
    fn two_choices_picker_is_sticky_with_a_deterministic_tie_break() {
        let live = [true, true, true];
        // Equal depths: the cache-warm home shard wins (the tie-break).
        assert_eq!(pick_two_choices(0, 2, &[5, 0, 5], &live), Some(0));
        // Comparable depths (difference exactly the margin): still home.
        let depths = [ROUTE_AWAY_MARGIN, 0, 0];
        assert_eq!(pick_two_choices(0, 2, &depths, &live), Some(0));
        // One past the margin: route away to the alternate.
        let depths = [ROUTE_AWAY_MARGIN + 1, 0, 0];
        assert_eq!(pick_two_choices(0, 2, &depths, &live), Some(2));
        // The alternate being deeper never routes away from home.
        assert_eq!(pick_two_choices(1, 2, &[0, 3, 100], &live), Some(1));
    }

    #[test]
    fn two_choices_picker_avoids_down_shards() {
        // Home down: the alternate takes the traffic (hash-spread, not a
        // fixed successor).
        assert_eq!(
            pick_two_choices(0, 2, &[0, 0, 50], &[false, true, true]),
            Some(2)
        );
        // Alternate down: home keeps it even when deep.
        assert_eq!(
            pick_two_choices(0, 2, &[50, 0, 0], &[true, true, false]),
            Some(0)
        );
    }

    #[test]
    fn two_choices_picker_falls_over_to_all_live_shards() {
        // All but one shard down: every (home, alt) pair lands on the
        // lone live shard, wherever it is.
        for survivor in 0..4 {
            let mut live = [false; 4];
            live[survivor] = true;
            for home in 0..4 {
                for alt in 0..4 {
                    assert_eq!(
                        pick_two_choices(home, alt, &[3, 1, 4, 1], &live),
                        Some(survivor),
                        "home {home} alt {alt} survivor {survivor}"
                    );
                }
            }
        }
        // Both candidates down, several survivors: least-loaded wins,
        // equal depths break deterministically walking from home.
        let live = [false, true, false, true];
        assert_eq!(pick_two_choices(0, 2, &[0, 9, 0, 4], &live), Some(3));
        assert_eq!(pick_two_choices(0, 2, &[0, 6, 0, 6], &live), Some(1));
        assert_eq!(pick_two_choices(2, 0, &[0, 6, 0, 6], &live), Some(3));
        // Everything down: no shard to pick.
        assert_eq!(pick_two_choices(0, 1, &[0, 0], &[false, false]), None);
    }
}
