//! Workspace facade crate.
//!
//! Exists to anchor the repo-level `tests/` and `examples/` directories;
//! all functionality lives in the `crates/` members. Re-exports the
//! `gmc` facade so `symgmc::prelude` works as a convenience.
//!
//! # Architecture: the session pipeline
//!
//! The compiler is organized as one pipeline — parse `.gmc` → enumerate
//! the variant set `A` → select the Theorem-2 base set → expand it
//! greedily (Algorithm 1) → emit code / dispatch at run time — and the
//! production entry point to that pipeline is
//! `gmc_core::session::CompileSession`, a long-lived object that owns
//! every stage's state:
//!
//! | stage | session-owned state | crate |
//! |-------|--------------------|-------|
//! | parse | `ShapeInterner` (dense ids for distinct shapes) | `gmc-ir` |
//! | per-instance optimum | one `DpSolver` per shape (interner + memo + arena, allocation-free when warm) | `gmc-core::dp` |
//! | selection | flat `CostMatrix` + `ExpandScratch`, refilled in place | `gmc-core::expand` |
//! | emission | caller-owned `String` buffers (`emit_*_into`) | `gmc-codegen` |
//! | execution | `GemmWorkspace` packing buffers | `gmc-linalg` / `gmc-kernels` |
//!
//! The one-shot free functions (`all_variants`, `optimal_cost`,
//! `CompiledChain::compile`) remain and are documented as conveniences;
//! each is a thin wrapper over throwaway session state, and every
//! session method is **bit-identical** to its one-shot counterpart.
//!
//! # The serving layer (`gmc-serve`)
//!
//! On top of the session sits the serving subsystem, which keeps the
//! pipeline warm across requests *and across restarts*:
//!
//! * **Sharded service** (`gmc_serve::CompileService`): N worker
//!   threads, each owning one session, fed through a work queue.
//!   Requests are parsed in the submitting thread and routed by
//!   **power-of-two-choices over live queue depths**: a stable hash of
//!   the chain *shape* picks the cache-warm home shard, a second
//!   (salted) hash picks a distinct alternative, and the request
//!   routes away from home only when home's queue is deeper by more
//!   than a stickiness margin — so repeat shapes stay on the shard
//!   whose caches are warm until that shard is genuinely backed up
//!   (ties break deterministically toward home). Routing is purely a
//!   performance hint — compilation is deterministic, so artifacts are
//!   identical wherever a request lands.
//! * **Bounded chain cache**: each session's compiled-chain cache is
//!   LRU-bounded (`CompileSession::set_chain_cache_capacity`) with
//!   hit/miss/eviction counters (`cache_stats`) for observability; the
//!   one-shot CLI and the service share the same implementation. It
//!   sits on a hash-map-plus-linked-list LRU, so a hit, an insert and
//!   an eviction each cost O(1) however full the cache is.
//! * **Stored artifacts**: for each shard the service keeps the files
//!   and report the shard rendered for each shape in a second such LRU
//!   (`gmc_core::lru::Lru`), as large as the shard's chain cache and
//!   filled in the order the shard served them, so it evicts what the
//!   cache evicts. A repeat of the same shape, `name` and `emit` is
//!   answered from it by the thread that read the request, without a
//!   shard hop, when its shard has no compile job out; it counts as
//!   that shard's hit and reaches the shard's chain cache as a recency
//!   touch on its next job (`CompileSession::touch`), so counters,
//!   recency and snapshots stay as they would be had the repeat
//!   compiled there. Everything else goes to a shard, which renders
//!   it. The JSONL encoder escapes each file straight into the response
//!   line, eight bytes at a time.
//! * **Warm-restart persistence** (`gmc_core::persist`): the cache
//!   snapshots to a compact text format — shape descriptors (via
//!   `ShapeInterner` dense ids) plus selected parenthesizations, never
//!   emitted code or lowered fragments — and `restore()` re-lowers each
//!   tree with the
//!   deterministic builder, yielding **byte-identical** artifacts
//!   without re-running enumeration/DP/expansion.
//! * **`gmcc --serve <path|->`**: a JSONL daemon fronting the service
//!   (one request object per line in, one response line out;
//!   `--persist FILE` makes restarts warm). The request stream and
//!   stdout are connection 0 of the socket transport's dispatcher,
//!   which polls and reads the stream itself (no reader thread), so an
//!   interactive client gets each response the moment its shard
//!   finishes. Batch mode is hardened the same way: per-file
//!   diagnostics, healthy inputs still emit, dirty exit code.
//! * **Multiplexed socket transport** (`gmc_serve::transport`,
//!   `gmcc --listen unix:PATH|tcp:HOST:PORT`): the same JSONL protocol
//!   over unix/TCP sockets with many concurrent connections. One
//!   dispatcher thread owns every socket: it blocks in `poll(2)` over
//!   the listener, each connection and a wake socket that every shard
//!   result writes a byte to, reads and writes the JSONL lines itself
//!   (a connection costs no thread), and owns the `CompileService`,
//!   remapping per-connection request ids onto private tokens so
//!   clients can **pipeline** requests and receive responses out of
//!   order (matched by id, ids scoped per connection). The poll
//!   timeout is its nearest real obligation (request deadline, idle
//!   reap, write deadline) — no poll timers, so deadlines are exact
//!   and a warm hit costs lookup plus encode. Half-close (client
//!   shutdown of its write side) drains that connection's in-flight
//!   work before closing; transport
//!   counters (`gmc_connections`, accepted/closed totals, per-conn
//!   in-flight) ride the in-band health/metrics responses and the
//!   Prometheus dump. `gmcc --connect ADDR` is the matching pipelining
//!   client.
//! * **End-to-end connection backpressure**: the transport bounds what
//!   any single connection can cost the daemon. A per-connection
//!   in-flight admission cap (`--conn-in-flight-cap`, default 64) sheds
//!   over-cap requests *in band* with a retryable `overloaded` error —
//!   cap → shed → client retry/backoff is the intended control loop,
//!   and `gmcc --connect --retry N` closes it with jittered capped
//!   exponential backoff. Outbound buffers are **bounded**: each
//!   connection has one output byte buffer, and a connection that
//!   stops reading (slowloris, greedy pipeliner) is slow-closed once a
//!   line arrives with 256 lines unflushed, or once its output has made
//!   no progress for 2 s, and is not read while more than 8 MiB are
//!   unflushed. Its
//!   in-flight work is written off through the exactly-once
//!   bookkeeping (late shard replies dropped and counted) instead of
//!   buffering without bound. `--max-conns` refuses connections past
//!   a limit with a typed in-band line before closing;
//!   `--idle-timeout-ms` reaps silent connections (in-flight work
//!   exempts). Every shed/refusal/slow-close/reap increments a
//!   transport counter
//!   (`gmc_conn_shed_total`, `gmc_conn_slow_closed_total`, …) that
//!   rides health/metrics and the Prometheus dump, and connection-level
//!   fault injection (`GMC_FAULT=conn_drop:…`, `conn_stall:…`,
//!   `conn_garbage:…`) drives a transport chaos property test pinning
//!   the exactly-once and counter-balance invariants under dropped,
//!   stalled, and garbage-injecting connections.
//! * **Snapshot rotation**: `--persist-keep K` keeps the last K
//!   snapshot generations (`cache.snap`, `cache.snap.1`, …) via an
//!   atomic rename chain; startup restores the newest *decodable*
//!   generation, quarantining corrupt ones to `.bad` — a torn final
//!   write can no longer cost the whole warm-start history.
//! * **Supervision** (`gmc_serve::supervisor`): each compile runs under
//!   a per-shard panic boundary; a panicking shard answers the doomed
//!   request with a typed `shard_panic` error, then restarts with a
//!   fresh session rewarmed from the latest snapshot (capped
//!   exponential backoff). A circuit breaker takes a shard that fails
//!   K times inside a sliding window out of rotation, and routing
//!   falls over to the next live shard — degraded, never dropped.
//! * **Admission control and deadlines**: per-shard queues are bounded
//!   (`--queue-cap`); overflow is shed *in band* with a retryable
//!   `overloaded` error instead of queueing without bound. Requests
//!   carry optional deadlines (`deadline_ms` field, `--deadline-ms`
//!   default) enforced both at dequeue and in the submitter — which
//!   keeps them ordered and wakes exactly when the earliest is due — so
//!   a wedged shard cannot stall the response stream. The invariant the
//!   whole layer preserves: **every submitted request gets exactly one
//!   response** (pinned by a chaos property test in
//!   `crates/serve/tests/chaos.rs`).
//! * **Graceful drain**: on SIGTERM/SIGINT or stdin EOF the daemon
//!   stops accepting, drains in-flight work (one drain path for
//!   sockets and stdin's connection 0), persists a final snapshot
//!   (written atomically — temp file + rename; a corrupt snapshot is
//!   quarantined to `<path>.bad` on the next start, never fatal), and
//!   exits. `{"id":N,"op":"health"}` reports per-shard
//!   liveness/restart/shed counters without touching the work queues.
//! * **Deterministic fault injection** (`gmc_serve::fault`): the
//!   `GMC_FAULT` environment variable, read once at start-up, arms
//!   shard panics (`panic:<shard>:<nth>`), compile delays
//!   (`delay:<ms>`), and torn snapshot writes (`snapshot_torn`) — the
//!   same hooks the chaos tests, the CI fault smoke, and the
//!   `bench_serve` overload row drive. No request can arm a fault.
//!
//! # The vectorized selection engine (`gmc_core::simd`)
//!
//! Selection itself (cost-matrix fill → Theorem-2 base set →
//! Algorithm-1 expansion) runs on a SIMD engine behind the same
//! runtime-dispatch ladder the GEMM micro-kernel uses
//! (AVX-512 > AVX2 > portable, chosen per process by CPU feature
//! detection; the lower rungs run only when a test or bench names them
//! through the explicit `*_level` entry points):
//!
//! * **Cost-matrix fill**: each variant's symbolic FLOP polynomial is
//!   compiled once per row into a flat multiply chain
//!   (`CompiledPoly`, no B-tree walk, no `powi`) and streamed over the
//!   training instances transposed into symbol-major f64 lanes
//!   (`SizeLanes`), 8 instances per iteration on AVX-512. Custom cost
//!   models use the batched row API (`CostMatrix::fill_rows_with`) so
//!   per-variant model lookups hoist out of the per-instance loop
//!   (`PerfModels::variant_times_into`).
//! * **Canonical blocked reduction**: penalty sums reassociate, so the
//!   engine fixes one order — eight partial accumulators (element `i`
//!   into `acc[i % 8]`), scalar tail, deterministic tree reduce — and
//!   *every* rung, scalar included, follows it. Scalar, AVX2, and
//!   AVX-512 selection are therefore bit-identical (pinned by
//!   `crates/core/tests/simd_paths.rs` across ragged instance counts),
//!   and this blocked order **supersedes**
//!   the pre-engine straight left-to-right fold as the selection
//!   reference. The DP solver's final-state fold shares the engine's
//!   first-strict-minimum helper.
//! * **One fill per compile**: the Theorem-2 base set is chosen from the
//!   rows of the cost matrix the expansion scans
//!   (`gmc_core::theory::select_base_set_in`), so a compile costs each
//!   pool row once and lowers no variant outside its pool. The one-shot
//!   `select_base_set`, which lowers and costs the fanning-out variants
//!   itself, runs the same search.
//! * **Trajectory**: `BENCH_select.json` records the single-thread
//!   selection time and the cumulative speedup over the pre-engine
//!   scalar pipeline (~25x on the matrix fill itself).
//!
//! # The memoized enumeration engine (`gmc_core::pool`)
//!
//! With the fill vectorized, variant enumeration (`build_pool`) was the
//! dominant selection stage: every one of the `Catalan(n - 1)` trees
//! re-lowered its sub-spans from scratch, even though a sub-span's
//! association steps depend only on that span's leaf descriptors. The
//! engine now:
//!
//! * enumerates parenthesizations as a **span DAG**
//!   (`gmc_core::paren::SpanDag`): each distinct sub-tree interned once
//!   per `(i, j)` span — 301 nodes instead of 792 per-tree associations
//!   for `n = 7`;
//! * lowers each DAG node **exactly once** into a step *fragment*
//!   (rewrites, kernel assignment, feature inference) with span-local
//!   `ValRef`s and an exact cumulative cost polynomial;
//! * assembles each variant by splicing its fragments in the builder's
//!   leftmost-available-first order with a constant `Temp`-offset
//!   renumber — valid because that total order decomposes recursively
//!   as `order(left) ++ order(right) ++ [root]`, so a sub-tree's steps
//!   always form one contiguous, relocatable block.
//!
//! The assembled pool is **bit-identical** to per-tree `build_variant`
//! lowering (an ordinary function the tests and `bench_select` call by
//! name as the reference), pinned by a property test over random
//! structured/inverted/transposed shapes
//! (`crates/core/tests/pool_memo.rs`). Every session builds its pools
//! through the memoized engine, including the fanning-out pool of a
//! chain too long to enumerate. On the dev host it builds the `n = 7`
//! pool ~4.1x faster than naive lowering, taking cold single-thread
//! end-to-end selection from ~2.9 ms to ~1.05 ms — ~0.70 ms on the
//! memo-warm repeat a serving session sees (`BENCH_select.json`:
//! `enumerate_*` / `warm_session_ms` fields; ~7x cumulative vs the
//! PR 3 pipeline).
//!
//! The memo lives for one shape: a session keeps it while it compiles
//! that shape and lowers the next shape's fragments afresh.
//!
//! # Observability (`gmc-obs`)
//!
//! A dependency-free tracing and metrics layer spans the whole stack:
//!
//! * **Latency histograms** (`gmc_obs::Histogram`): fixed-size
//!   log-linear (HDR-style) buckets over the microsecond domain, u64
//!   atomic counters, so shard workers record lock-free while readers
//!   snapshot, merge across shards, and take p50/p90/p99/max — the one
//!   quantile definition shared by the serving layer, the JSONL
//!   endpoints, the Prometheus dump, and `bench_serve` (upper-edge
//!   nearest-rank: reported quantiles never understate, ≤ 12.5% bucket
//!   error; pinned by unit + property tests in `crates/obs`).
//! * **Pipeline tracing** (`gmc_obs::{Recorder, StageProfile}`): each
//!   session records per-stage spans (parse → enumerate → dp → select
//!   → expand → emit → execute) and per-kernel timings. `GMC_TRACE=off`
//!   (or `CompileSession::set_tracing(false)`) reduces every
//!   instrumented site to a single branch — the measured cost of
//!   tracing on vs off, over a replay of chain-cache hits that each
//!   render on a shard, is recorded in `BENCH_serve.json` as
//!   `trace_overhead_pct` (required ≤ 3%). `gmcc --timings` prints the
//!   per-file breakdown; `CompiledChain::timing_report` renders it
//!   programmatically.
//! * **Serving metrics**: every shard publishes end-to-end, queue-wait,
//!   and compile-time histograms through the same lock-free shared
//!   blocks as the supervision counters. `{"op":"health"}` adds
//!   `p99_ms`/`queue_wait_p99_ms` per shard; `{"op":"metrics"}` returns
//!   the full snapshot in-band; `gmcc --serve --metrics-file FILE`
//!   dumps Prometheus text exposition on drain and on every metrics
//!   request (CI greps both); `--slow-ms MS` logs slow requests to
//!   stderr with their stage breakdown. The e2e histograms record
//!   exactly one sample per shard-attributed response — an invariant
//!   the chaos proptest pins alongside exactly-one-response.
//!
//! Compilation scales across sessions, never inside one: every
//! `CompileSession` stage runs on its caller's thread, and the `gmcc`
//! driver compiles whole batches (`gmcc a.gmc b.gmc --jobs N`) with one
//! session per worker thread — or serves forever with `--serve`, one
//! session per shard. The `parallel` cargo feature only splits the
//! blocked GEMM into column stripes (`gmc-linalg`).
//!
//! Selection latency is tracked in `BENCH_select.json`
//! (`cargo run --release --bin bench_select`), the
//! serving trajectory (cold vs. warm vs. restored-from-disk, plus the
//! `--load` closed-loop socket sweep: connections × shards QPS/latency
//! table and the skewed-workload two-choices-vs-one-shard comparison) in
//! `BENCH_serve.json` (`cargo run --release --bin bench_serve`),
//! alongside `BENCH_gemm.json` for the kernel trajectory.

pub use gmc::prelude;
