//! Shard supervision: the worker loop that keeps a shard alive through
//! panics.
//!
//! Each shard runs `shard_main` on its own thread. The loop owns one
//! [`CompileSession`] and wraps every compile attempt in
//! [`std::panic::catch_unwind`], so a panic — injected by
//! [`fault`](crate::fault) or real — is a *request-level* failure, not a
//! shard death:
//!
//! ```text
//!            ┌────────────────────────────── panic ───────────────┐
//!            ▼                                                    │
//!  Up ── compile jobs ──► panic caught ── failures < K ──► Restarting
//!                              │                                │ backoff
//!                              │ failures ≥ K in window         │ (capped
//!                              ▼                                │  2^n)
//!                            Down ◄─────────────────────────────┘
//!                       (circuit open: queued jobs answered
//!                        `shard_down`, submitter routes new
//!                        traffic to the next live shard)
//! ```
//!
//! On each restart the poisoned session is discarded (its cumulative
//! cache counters are read off first and carried forward — plain `u64`
//! fields are safe to read after a panic) and a **fresh** session is
//! rebuilt, rewarmed from the service's latest snapshot via
//! [`CompileSession::restore_filtered`] filtered to the shapes that
//! route here. With a current snapshot, a restart costs one backoff
//! sleep plus a re-lowering pass — the first repeat request afterwards
//! is a cache hit, not a cold compile.
//!
//! Beside its session, each shard keeps the artifacts it rendered — the
//! emitted files and the [`CompiledChain::describe`] report — in an
//! [`Lru`] keyed by [`Shape`], bounded by the same capacity as the chain
//! cache (`0` stores nothing). Every job still goes through
//! [`CompileSession::compile`], so cache counters, the chain cache's
//! recency, snapshots and the `cache_hit` flag stay exact; only the
//! bytes of a hit are reused, and only when the stored entry was
//! rendered for the same `name` and `emit`. Any other outcome — a miss,
//! or a hit with no or a mismatched entry — renders and overwrites the
//! shape's entry, so a stored entry is always the rendering of the chain
//! the session holds now. A panic discards the stored artifacts together
//! with the poisoned session.
//!
//! Failures are counted in a sliding window; once `max_failures` accrue
//! the circuit breaker opens and the shard goes [`ShardState::Down`]
//! permanently (for this process): already-queued jobs are answered
//! with in-band `shard_down` errors and the submitter's routing falls
//! over to the next live shard, so traffic is degraded, never dropped
//! without an answer.

use crate::fault::FaultPlan;
use crate::service::{Event, EventTx, Job, Response};
use crate::{route, Artifacts, Emit, Failure, FailureKind};
use gmc_codegen::{emit_cpp_into, emit_rust_into};
use gmc_core::lru::Lru;
use gmc_core::{CacheStats, CompileOptions, CompileSession, CompiledChain, SessionSnapshot, Stage};
use gmc_ir::Shape;
use gmc_obs::Histogram;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// When a supervised shard restarts after a panic.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Backoff before the first restart; doubles per consecutive
    /// failure in the window.
    pub backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Circuit breaker: after this many failures inside `window`, the
    /// shard stays down and routing falls over to its neighbors.
    pub max_failures: u32,
    /// Sliding window for counting failures toward the breaker.
    pub window: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_failures: 5,
            window: Duration::from_secs(10),
        }
    }
}

/// Liveness of one supervised shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving normally.
    Up,
    /// Between a caught panic and the rebuilt session (backoff +
    /// rewarm); still routable — queued work runs after the restart.
    Restarting,
    /// Circuit breaker open (or worker thread dead): not routable.
    Down,
}

impl ShardState {
    /// Wire name (`up` / `restarting` / `down`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Restarting => "restarting",
            ShardState::Down => "down",
        }
    }

    fn from_u8(v: u8) -> ShardState {
        match v {
            0 => ShardState::Up,
            1 => ShardState::Restarting,
            _ => ShardState::Down,
        }
    }
}

/// Health of one shard, collected **without** riding the work queue
/// (see [`CompileService::health`](crate::CompileService::health)) so a
/// wedged or down shard still reports.
#[derive(Debug, Clone, Copy)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Liveness.
    pub state: ShardState,
    /// Completed supervisor restarts (panics recovered from).
    pub restarts: u64,
    /// Panics caught (each costs its in-flight request).
    pub panics: u64,
    /// Requests currently queued or in flight on this shard.
    pub queue_depth: usize,
    /// Requests answered `deadline_exceeded` (at dequeue or written off
    /// by the submitter).
    pub deadline_exceeded: u64,
    /// Requests shed with `overloaded` because this shard's queue was
    /// at capacity.
    pub shed: u64,
    /// Fraction of compiles served from the compiled-chain cache
    /// (cumulative across restarts; `0.0` before any compile).
    pub chain_hit_rate: f64,
    /// Upper-edge p99 of end-to-end request latency on this shard,
    /// milliseconds (`0.0` before any request). Read from the shard's
    /// lock-free latency histogram, so it reports even when the shard
    /// is wedged.
    pub p99_ms: f64,
    /// Upper-edge p99 of the time requests spent queued before this
    /// shard dequeued them, milliseconds.
    pub queue_wait_p99_ms: f64,
}

/// Counters a shard and the submitter share lock-free.
#[derive(Debug, Default)]
pub(crate) struct ShardShared {
    state: AtomicU8,
    /// Compile jobs dequeued (including panicked and expired ones).
    pub(crate) requests: AtomicU64,
    pub(crate) restarts: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) deadline_exceeded: AtomicU64,
    pub(crate) shed: AtomicU64,
    /// Cumulative chain-cache counters, published by the worker after
    /// every compile so health, metrics and stats stay pure atomic reads
    /// (a wedged shard still reports its last state):
    /// `[hits, misses, evictions, restored]`.
    chain: [AtomicU64; 4],
    /// Compile attempts, for the fault plan's deterministic `nth`.
    compile_attempts: AtomicU64,
    /// End-to-end latency of every *response* attributed to this shard
    /// (served, panicked, expired, shed, written off), recorded by the
    /// submitter exactly once per response so the count balances against
    /// delivered responses even when a written-off request is also
    /// answered late by the shard. Deliberately *not* gated by
    /// `GMC_TRACE`: recording is a handful of relaxed atomics per
    /// request, and the health/metrics endpoints depend on these
    /// histograms staying live.
    pub(crate) e2e: Histogram,
    /// Submission-to-dequeue wait, recorded by the worker. Counts
    /// *dequeues* — a request written off by the submitter but still
    /// dequeued late records here, so this count can exceed `e2e`'s.
    pub(crate) queue_wait: Histogram,
    /// Wall-clock of the compile attempt (the `catch_unwind` envelope),
    /// cache hits included: compile, plus rendering when nothing stored
    /// matches.
    pub(crate) compile_time: Histogram,
}

impl ShardShared {
    pub(crate) fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::Acquire))
    }

    pub(crate) fn set_state(&self, s: ShardState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// Publish the cumulative cache counters (worker thread only).
    fn publish_counters(&self, cache: &CacheStats) {
        let chain = [cache.hits, cache.misses, cache.evictions, cache.restored];
        for (cell, v) in self.chain.iter().zip(chain) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// The chain-cache counters last published.
    pub(crate) fn cache(&self) -> CacheStats {
        let [hits, misses, evictions, restored] = self.chain.each_ref().map(load);
        CacheStats {
            hits,
            misses,
            evictions,
            restored,
        }
    }
}

fn load(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

/// Everything one shard worker owns; [`shard_main`] consumes it.
pub(crate) struct ShardCtx {
    pub(crate) index: usize,
    pub(crate) shards: usize,
    pub(crate) jobs: Receiver<Job>,
    /// The service's event queue: finished requests go here as
    /// [`Event::Response`], and the thread's exit as
    /// [`Event::ShardExited`]. Each post also wakes the transport's poll
    /// loop once it has armed the queue.
    pub(crate) events: EventTx,
    pub(crate) options: CompileOptions,
    pub(crate) cache_capacity: usize,
    pub(crate) shared: Arc<ShardShared>,
    /// Latest merged snapshot, refreshed by
    /// [`CompileService::snapshot`](crate::CompileService::snapshot);
    /// restarts rewarm from it.
    pub(crate) latest: Arc<Mutex<Option<Arc<SessionSnapshot>>>>,
    pub(crate) policy: RestartPolicy,
    pub(crate) faults: FaultPlan,
    /// Log the per-stage breakdown of any request slower than this to
    /// stderr (`gmcc --slow-ms`); `None` disables the slow-request log.
    pub(crate) slow: Option<Duration>,
}

/// Per-shard counters returned by
/// [`CompileService::shutdown`](crate::CompileService::shutdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Compile requests this shard answered (including panicked and
    /// deadline-expired ones). Work the transport *wrote off* for a
    /// slow-closed connection still counts here: shards never cancel
    /// admitted work, the write-off only drops the reply at the
    /// connection layer — which is what makes `requests` equal the
    /// admitted-request count in the transport chaos invariants.
    pub requests: u64,
    /// Cumulative compiled-chain cache counters, carried across
    /// supervisor restarts.
    pub cache: CacheStats,
    /// Panics caught.
    pub panics: u64,
    /// Restarts completed.
    pub restarts: u64,
}

impl ShardCtx {
    /// Build a fresh session, rewarmed from the latest snapshot when one
    /// exists. Returns the session and how many chains were restored.
    fn build_session(&self) -> (CompileSession, u64) {
        let mut session = CompileSession::with_options(self.options.clone());
        session.set_chain_cache_capacity(self.cache_capacity);
        let snap = self.latest.lock().expect("latest snapshot lock").clone();
        if let Some(snap) = snap {
            // A rebuild failure (corrupted decisions) degrades to a
            // genuinely cold shard — restore inserts nothing on error —
            // and is worth a diagnostic, since the operator should
            // delete the snapshot.
            let index = self.index;
            match session.restore_filtered(&snap, |shape| route(shape, self.shards) == index) {
                Ok(_) => {}
                Err(e) => {
                    eprintln!("gmc-serve: shard {index}: snapshot restore failed: {e}");
                }
            }
        }
        let restored = session.cache_stats().restored;
        (session, restored)
    }
}

/// Posts [`Event::ShardExited`] when the worker thread ends, however it
/// ends — including a panic that escapes the per-request boundary.
struct ExitNotice {
    shard: usize,
    events: EventTx,
}

impl Drop for ExitNotice {
    fn drop(&mut self) {
        let _ = self.events.send(Event::ShardExited(self.shard));
    }
}

/// The supervised worker loop (see the [module docs](self)).
pub(crate) fn shard_main(ctx: ShardCtx) -> ShardStats {
    let index = ctx.index;
    let _exit = ExitNotice {
        shard: index,
        events: ctx.events.clone(),
    };
    let (initial, _) = ctx.build_session();
    ctx.shared.publish_counters(&initial.cache_stats());
    ctx.shared.set_state(ShardState::Up);
    // `None` while the circuit breaker is open; the loop keeps draining
    // the queue and answering `shard_down` so nothing hangs.
    let mut session: Option<CompileSession> = Some(initial);
    // Counters of sessions discarded after a panic; reads of plain u64
    // fields are safe on a poisoned session.
    let mut carried = CacheStats::default();
    let mut failures: Vec<Instant> = Vec::new();
    let mut buf = String::new();
    // What this shard rendered, per shape (see the module docs).
    let mut rendered: Lru<Shape, Rendered> = Lru::new(ctx.cache_capacity);

    while let Ok(job) = ctx.jobs.recv() {
        match job {
            Job::Compile(job) => {
                ctx.shared.requests.fetch_add(1, Ordering::Relaxed);
                ctx.shared.queue_wait.record(job.submitted.elapsed());
                // Deadline at dequeue: a request that went stale in the
                // queue is answered without compiling — the work would
                // be wasted and would stall everything behind it.
                if job.deadline.is_some_and(|d| Instant::now() > d) {
                    ctx.shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    let _ = ctx.events.send(Event::Response(Response {
                        seq: job.seq,
                        response: crate::CompileResponse::failure_on(
                            job.id,
                            Some(index),
                            FailureKind::DeadlineExceeded,
                            "deadline expired before the shard reached the request",
                        ),
                    }));
                    continue;
                }
                let Some(live) = session.as_mut() else {
                    // Breaker open: fail fast, exactly one response.
                    let _ = ctx.events.send(Event::Response(Response {
                        seq: job.seq,
                        response: crate::CompileResponse::failure_on(
                            job.id,
                            Some(index),
                            FailureKind::ShardDown,
                            format!("shard {index} is down (circuit breaker open)"),
                        ),
                    }));
                    continue;
                };
                let nth = ctx.shared.compile_attempts.fetch_add(1, Ordering::Relaxed) + 1;
                let faults = &ctx.faults;
                // The slow-request log reports the per-stage delta, so
                // the pre-compile profile is cloned off only when the
                // log is armed and the session traces.
                let profile_before = match ctx.slow {
                    Some(_) if live.tracing_enabled() => Some(live.stage_profile().clone()),
                    _ => None,
                };
                let compile_started = Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    faults.before_compile(index, nth);
                    serve_compile(live, &mut rendered, &mut buf, &job)
                }));
                ctx.shared.compile_time.record(compile_started.elapsed());
                let elapsed = job.submitted.elapsed();
                if let Some(threshold) = ctx.slow {
                    if elapsed >= threshold && outcome.is_ok() {
                        let breakdown = profile_before
                            .as_ref()
                            .map(|before| {
                                let alive = session.as_ref().expect("session was live");
                                alive.stage_profile().since(before).render(&format!(
                                    "request {} (shape n = {})",
                                    job.id,
                                    job.shape.len()
                                ))
                            })
                            .unwrap_or_else(|| {
                                "(no stage breakdown: tracing is off)\n".to_string()
                            });
                        eprintln!(
                            "gmc-serve: shard {index}: slow request id {}: {:.3} ms \
                             end-to-end\n{}",
                            job.id,
                            elapsed.as_secs_f64() * 1e3,
                            breakdown.trim_end()
                        );
                    }
                }
                match outcome {
                    Ok((cache_hit, result)) => {
                        let alive = session.as_ref().expect("session was live");
                        let mut cache = carried;
                        cache.absorb(&alive.cache_stats());
                        ctx.shared.publish_counters(&cache);
                        let _ = ctx.events.send(Event::Response(Response {
                            seq: job.seq,
                            response: crate::CompileResponse {
                                id: job.id,
                                shard: Some(index),
                                cache_hit,
                                result,
                            },
                        }));
                    }
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        ctx.shared.panics.fetch_add(1, Ordering::Relaxed);
                        // Salvage the counters, drop the session and
                        // what was rendered from it: their internal
                        // invariants can no longer be trusted.
                        let poisoned = session.take().expect("session was live");
                        rendered.clear();
                        carried.absorb(&poisoned.cache_stats());
                        ctx.shared.publish_counters(&carried);
                        let now = Instant::now();
                        failures.retain(|t| now.duration_since(*t) <= ctx.policy.window);
                        failures.push(now);
                        let tripped = failures.len() as u32 >= ctx.policy.max_failures;
                        if tripped {
                            ctx.shared.set_state(ShardState::Down);
                        } else {
                            ctx.shared.set_state(ShardState::Restarting);
                        }
                        let _ = ctx.events.send(Event::Response(Response {
                            seq: job.seq,
                            response: crate::CompileResponse::failure_on(
                                job.id,
                                Some(index),
                                FailureKind::ShardPanic,
                                format!("shard {index} panicked serving this request: {msg}"),
                            ),
                        }));
                        if tripped {
                            eprintln!(
                                "gmc-serve: shard {index}: circuit breaker open after {} \
                                 failure(s) in {:?}; shard down, routing falls over",
                                failures.len(),
                                ctx.policy.window
                            );
                        } else {
                            let exp = (failures.len() - 1).min(16) as u32;
                            let backoff = ctx
                                .policy
                                .backoff
                                .saturating_mul(1 << exp)
                                .min(ctx.policy.backoff_cap);
                            eprintln!(
                                "gmc-serve: shard {index}: caught panic ({msg}); \
                                 restarting in {backoff:?}"
                            );
                            std::thread::sleep(backoff);
                            let (fresh, restored) = ctx.build_session();
                            let mut cache = carried;
                            cache.absorb(&fresh.cache_stats());
                            ctx.shared.publish_counters(&cache);
                            session = Some(fresh);
                            ctx.shared.restarts.fetch_add(1, Ordering::Relaxed);
                            ctx.shared.set_state(ShardState::Up);
                            eprintln!(
                                "gmc-serve: shard {index}: restarted \
                                 ({restored} chain(s) rewarmed from snapshot)"
                            );
                        }
                    }
                }
            }
            Job::Snapshot(reply) => {
                // A down shard has nothing to contribute; dropping the
                // reply sender tells the collector to skip it.
                if let Some(live) = session.as_ref() {
                    let _ = reply.send(live.snapshot());
                }
            }
        }
    }
    // Every change to the counters was published as it happened.
    let shared = &ctx.shared;
    ShardStats {
        requests: shared.requests.load(Ordering::Relaxed),
        cache: shared.cache(),
        panics: shared.panics.load(Ordering::Relaxed),
        restarts: shared.restarts.load(Ordering::Relaxed),
    }
}

/// The artifacts a shard rendered for one shape, and the `name` and
/// `emit` they were rendered for.
struct Rendered {
    name: String,
    emit: Emit,
    artifacts: Artifacts,
}

/// Compile one job on the live session and answer it with its
/// artifacts: the stored ones when the compile was a hit and they were
/// rendered for the job's `name` and `emit`, otherwise a fresh rendering
/// that replaces the shape's entry. Runs inside the `catch_unwind`
/// envelope.
fn serve_compile(
    session: &mut CompileSession,
    rendered: &mut Lru<Shape, Rendered>,
    buf: &mut String,
    job: &crate::service::CompileJob,
) -> (bool, Result<Artifacts, Failure>) {
    let hits_before = session.cache_stats().hits;
    let chain = match session.compile(&job.shape) {
        Ok(chain) => chain,
        Err(e) => {
            let failure = Failure::new(FailureKind::Compile, format!("compile error: {e}"));
            return (false, Err(failure));
        }
    };
    let cache_hit = session.cache_stats().hits > hits_before;
    if cache_hit {
        if let Some(stored) = rendered.get(&job.shape) {
            if stored.name == job.name && stored.emit == job.emit {
                return (true, Ok(stored.artifacts.clone()));
            }
        }
    }
    let artifacts = render(session, &chain, buf, job);
    rendered.insert(
        job.shape.clone(),
        Rendered {
            name: job.name.clone(),
            emit: job.emit,
            artifacts: artifacts.clone(),
        },
    );
    (cache_hit, Ok(artifacts))
}

/// Emit `chain` as `job` asks and describe it.
fn render(
    session: &mut CompileSession,
    chain: &CompiledChain,
    buf: &mut String,
    job: &crate::service::CompileJob,
) -> Artifacts {
    let mut files = Vec::new();
    let span = session.recorder().start();
    if matches!(job.emit, Emit::Cpp | Emit::Both) {
        buf.clear();
        emit_cpp_into(buf, chain, &job.name);
        files.push((format!("{}.cpp", job.name), buf.clone()));
    }
    if matches!(job.emit, Emit::Rust | Emit::Both) {
        buf.clear();
        emit_rust_into(buf, chain, &job.name);
        files.push((format!("{}.rs", job.name), buf.clone()));
    }
    session.recorder_mut().stop(Stage::Emit, span);
    Artifacts {
        files,
        report: chain.describe(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
