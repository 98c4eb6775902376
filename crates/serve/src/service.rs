//! The sharded [`CompileService`]: request/response types, admission
//! control, deadlines, fallover routing, and exactly-once response
//! bookkeeping. The per-shard worker loop lives in
//! [`supervisor`](crate::supervisor); deterministic fault triggers in
//! [`fault`](crate::fault).

use crate::fault::FaultPlan;
use crate::supervisor::{
    shard_main, RestartPolicy, ShardCtx, ShardHealth, ShardShared, ShardState, ShardStats,
};
use gmc_core::{
    CacheStats, CompileOptions, CompileSession, PersistError, SessionSnapshot,
    DEFAULT_CHAIN_CACHE_CAPACITY,
};
use gmc_ir::grammar::parse_program;
use gmc_ir::Shape;
use gmc_obs::{write_prom_counter, Snapshot};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, SendError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on each shard's queue (queued + in-flight requests);
/// submissions beyond it are shed with an in-band `overloaded` error.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Stickiness margin of the two-choices picker: the cache-warm home
/// shard keeps a request unless its queue is deeper than the alternate
/// candidate's by **more than** this many entries. Small enough that a
/// hot shape class spills before its home queue melts down, large
/// enough that ordinary burst jitter (a handful of in-flight requests)
/// never sacrifices chain-cache locality.
pub const ROUTE_AWAY_MARGIN: usize = 8;

/// Which back-end(s) a request wants emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Emit {
    /// C++ translation unit (runtime header served separately).
    #[default]
    Cpp,
    /// Rust module.
    Rust,
    /// Both back-ends.
    Both,
}

impl Emit {
    /// Parse an emit selector (`cpp`, `rust`, or `both`).
    ///
    /// # Errors
    ///
    /// Returns the unknown value.
    pub fn parse(s: &str) -> Result<Emit, String> {
        match s {
            "cpp" => Ok(Emit::Cpp),
            "rust" => Ok(Emit::Rust),
            "both" => Ok(Emit::Both),
            other => Err(format!("unknown emit value `{other}`")),
        }
    }
}

/// One compile request.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Caller-chosen id, echoed in the response.
    pub id: u64,
    /// Base name for emitted functions/files; defaults to the program's
    /// left-hand-side identifier, lowercased.
    pub name: Option<String>,
    /// The `.gmc` program text.
    pub source: String,
    /// Back-end selection.
    pub emit: Emit,
    /// Time budget measured from submission; `None` uses the service's
    /// [`ServeConfig::default_deadline`]. Enforced twice: at shard
    /// dequeue (stale requests are answered without compiling) and in
    /// the submitter's receive path (a wedged shard cannot stall the
    /// response stream).
    pub deadline: Option<Duration>,
}

/// The artifacts of one successful compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifacts {
    /// Emitted `(file name, contents)` pairs.
    pub files: Vec<(String, String)>,
    /// Human-readable variant report
    /// ([`gmc_core::CompiledChain::describe`]).
    pub report: String,
}

/// Why a request failed — every failure is typed so callers (and the
/// JSONL wire format's `kind` field) can tell load-shedding from bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The `.gmc` source did not parse.
    Parse,
    /// The program parsed but could not be compiled.
    Compile,
    /// Shed by admission control: the target shard's queue was full.
    /// Retryable — the request was never enqueued.
    Overloaded,
    /// The deadline expired before a shard produced the artifacts.
    DeadlineExceeded,
    /// The serving shard panicked on this request (the supervisor
    /// restarts it; an immediate retry usually lands on a warm shard).
    ShardPanic,
    /// Every candidate shard is down (circuit breaker open) or the
    /// worker thread is gone.
    ShardDown,
    /// The request itself was malformed (bad JSONL, oversized line,
    /// unknown op, ...). Produced by the daemon, not this crate.
    BadRequest,
}

impl FailureKind {
    /// Wire name, stable for scripts (`parse`, `compile`, `overloaded`,
    /// `deadline_exceeded`, `shard_panic`, `shard_down`, `bad_request`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Parse => "parse",
            FailureKind::Compile => "compile",
            FailureKind::Overloaded => "overloaded",
            FailureKind::DeadlineExceeded => "deadline_exceeded",
            FailureKind::ShardPanic => "shard_panic",
            FailureKind::ShardDown => "shard_down",
            FailureKind::BadRequest => "bad_request",
        }
    }

    /// `true` for failures where an immediate retry can succeed
    /// (shedding, deadline, panic, down shard) — as opposed to failures
    /// deterministic in the request itself.
    #[must_use]
    pub fn retryable(self) -> bool {
        !matches!(
            self,
            FailureKind::Parse | FailureKind::Compile | FailureKind::BadRequest
        )
    }
}

/// A typed request failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail.
    pub message: String,
}

impl Failure {
    /// Build a failure.
    pub fn new(kind: FailureKind, message: impl Into<String>) -> Failure {
        Failure {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// One compile response (streamed; completion order ≠ submission order).
#[derive(Debug)]
pub struct CompileResponse {
    /// The request id.
    pub id: u64,
    /// Which shard served (or shed/expired) it; `None` if the request
    /// failed before routing, i.e. at parse.
    pub shard: Option<usize>,
    /// `true` if the shard's compiled-chain cache already held the shape
    /// (including chains restored from a snapshot).
    pub cache_hit: bool,
    /// The artifacts, or a typed failure.
    pub result: Result<Artifacts, Failure>,
}

impl CompileResponse {
    /// An unrouted failure response (used by front-ends, e.g. the JSONL
    /// daemon, for requests that never reach the service).
    #[must_use]
    pub fn failure(id: u64, kind: FailureKind, message: impl Into<String>) -> CompileResponse {
        CompileResponse::failure_on(id, None, kind, message)
    }

    pub(crate) fn failure_on(
        id: u64,
        shard: Option<usize>,
        kind: FailureKind,
        message: impl Into<String>,
    ) -> CompileResponse {
        CompileResponse {
            id,
            shard,
            cache_hit: false,
            result: Err(Failure::new(kind, message)),
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker count; each worker owns one session. `0` is treated as 1.
    pub shards: usize,
    /// Compile options for every shard (must match a restored snapshot's
    /// fingerprint).
    pub options: CompileOptions,
    /// Per-shard compiled-chain cache capacity.
    pub cache_capacity: usize,
    /// Snapshot file for warm restarts: the newest decodable generation
    /// is loaded on start (missing files = cold start; a corrupt
    /// generation is quarantined to `<generation>.bad` and the scan
    /// falls back to the next-newest); written by
    /// [`CompileService::save_snapshot`], rotated per
    /// [`ServeConfig::snapshot_keep`].
    pub snapshot_path: Option<PathBuf>,
    /// Admission control: max queued + in-flight requests per shard
    /// before submissions are shed with `overloaded`.
    pub queue_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    /// `None` = no deadline.
    pub default_deadline: Option<Duration>,
    /// Supervision policy: restart backoff and circuit breaker.
    pub restart: RestartPolicy,
    /// Fault-injection plan (inert by default), fixed for the service's
    /// lifetime: the shards read its shard faults, and the
    /// [`transport`](crate::transport) its connection faults.
    pub faults: FaultPlan,
    /// Slow-request log: any request whose end-to-end latency reaches
    /// this threshold gets its per-stage breakdown printed to stderr by
    /// the serving shard (`gmcc --slow-ms`). `None` disables the log.
    pub slow_request: Option<Duration>,
    /// Snapshot generations [`CompileService::save_snapshot`] keeps on
    /// disk (`<path>`, `<path>.1`, ... `<path>.{K-1}`, rotated by atomic
    /// renames). `0` or `1` keeps only the newest — the pre-rotation
    /// behavior. Startup restores the newest decodable generation.
    pub snapshot_keep: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            options: CompileOptions::default(),
            cache_capacity: DEFAULT_CHAIN_CACHE_CAPACITY,
            snapshot_path: None,
            queue_cap: DEFAULT_QUEUE_CAP,
            default_deadline: None,
            restart: RestartPolicy::default(),
            faults: FaultPlan::new(),
            slow_request: None,
            snapshot_keep: 1,
        }
    }
}

/// Whole-service counters returned by [`CompileService::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Responses that arrived after their request had been written off
    /// (deadline expiry or shard reap) and were dropped to preserve
    /// exactly-one-response semantics.
    pub late_drops: u64,
}

impl ServiceStats {
    /// Total requests across shards.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total cache hits across shards.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.hits).sum()
    }

    /// Total chains restored from snapshots (startup and supervisor
    /// restarts).
    #[must_use]
    pub fn restored(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.restored).sum()
    }

    /// Total panics caught by shard supervisors.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.shards.iter().map(|s| s.panics).sum()
    }

    /// Total supervisor restarts completed.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts).sum()
    }
}

/// Errors from starting or persisting the service.
#[derive(Debug)]
pub enum ServeError {
    /// Loading or saving the snapshot failed.
    Persist(PersistError),
    /// The snapshot was taken under different compile options.
    SnapshotMismatch {
        /// The snapshot's options fingerprint.
        found: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "snapshot error: {e}"),
            ServeError::SnapshotMismatch { found } => write!(
                f,
                "snapshot options fingerprint `{found}` does not match the service options \
                 (recompile cold or delete the snapshot)"
            ),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            ServeError::SnapshotMismatch { .. } => None,
        }
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

/// Stable **home** shard of a shape: hash of the chain shape modulo the
/// shard count.
///
/// Uses `DefaultHasher::new()` (fixed keys, process-independent), so a
/// restarted service with the same shard count routes every shape to the
/// shard that restored it — this is the function the startup restore and
/// supervisor rewarm filter snapshots with, which is why it stays purely
/// shape-determined even though live routing is load-aware. Correctness
/// never depends on this stability: any shard compiles any shape
/// identically. Live submission runs the two-choices picker over this
/// home shard and [`route_alt`] — see [`pick_two_choices`].
#[must_use]
pub fn route(shape: &Shape, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    shape.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

/// The shape's **alternate** candidate for two-choices routing: a second
/// independent hash, folded so it never collides with [`route`]'s home
/// shard when more than one shard exists. As stable across restarts as
/// `route` itself.
#[must_use]
pub fn route_alt(shape: &Shape, shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let n = shards.max(1);
    if n == 1 {
        return 0;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    // Salt so the alternate hash is independent of the home hash.
    0x9e37_79b9_7f4a_7c15_u64.hash(&mut h);
    shape.hash(&mut h);
    let step = 1 + (h.finish() % (n as u64 - 1)) as usize;
    (route(shape, n) + step) % n
}

/// The power-of-two-choices picker, pure so tests can pin it: choose
/// between the cache-warm `home` shard and the `alt`ernate candidate by
/// live queue depth.
///
/// Policy, in order:
/// - both candidates live: `home` wins unless `depths[home]` exceeds
///   `depths[alt]` by **more than** [`ROUTE_AWAY_MARGIN`] (ties and
///   comparable depths stay home, preserving chain-cache locality;
///   the strict inequality is the deterministic tie-break).
/// - exactly one candidate live: that one.
/// - both candidates down: the least-loaded live shard anywhere, walking
///   `home, home+1, ...` so equal depths break deterministically —
///   a down shard's traffic spreads over **all** live shards instead of
///   spilling onto one fixed successor.
/// - no live shard: `None` (the caller answers `shard_down`).
///
/// `depths` and `live` are indexed by shard; `home`/`alt` out of range
/// are reduced modulo the shard count.
#[must_use]
pub fn pick_two_choices(home: usize, alt: usize, depths: &[usize], live: &[bool]) -> Option<usize> {
    let n = depths.len().min(live.len());
    if n == 0 {
        return None;
    }
    let home = home % n;
    let alt = alt % n;
    match (live[home], live[alt]) {
        (true, true) => {
            if depths[home] > depths[alt] + ROUTE_AWAY_MARGIN {
                Some(alt)
            } else {
                Some(home)
            }
        }
        (true, false) => Some(home),
        (false, true) => Some(alt),
        (false, false) => (0..n)
            .map(|k| (home + k) % n)
            .filter(|&s| live[s])
            .min_by_key(|&s| depths[s]),
    }
}

/// Live observability counters of one shard, read by
/// [`CompileService::stats`] (unlike
/// [`ShardStats`](crate::supervisor::ShardStats), which is only
/// available at shutdown).
#[derive(Debug, Clone, Copy)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Requests this shard has taken off its queue so far (including
    /// panicked and expired ones, and one it may still be compiling).
    pub requests: u64,
    /// Cumulative compiled-chain cache counters (`restored` counts the
    /// chains rewarmed from snapshots), carried across supervisor
    /// restarts.
    pub cache: CacheStats,
    /// Always zero: shards keep no fragment cache beyond each session's
    /// per-shape pool memo. Kept so existing readers of the counters
    /// still build.
    pub frags: CacheStats,
}

/// One shard's latency histograms and robustness counters, snapshotted
/// lock-free by [`CompileService::metrics`].
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// Liveness at snapshot time.
    pub state: ShardState,
    /// End-to-end latency of every response attributed to this shard
    /// (one sample per delivered response — served, panicked, expired,
    /// shed, or written off).
    pub e2e: Snapshot,
    /// Submission-to-dequeue wait of every request this shard dequeued.
    pub queue_wait: Snapshot,
    /// Wall-clock of each compile + emit attempt (cache hits included).
    pub compile_time: Snapshot,
    /// Supervisor restarts completed.
    pub restarts: u64,
    /// Panics caught.
    pub panics: u64,
    /// Requests answered `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Compiled-chain cache hits (cumulative across restarts).
    pub chain_hits: u64,
    /// Compiled-chain cache misses.
    pub chain_misses: u64,
}

/// Service-wide metrics snapshot: per-shard histograms and counters
/// plus submitter-side bookkeeping, mergeable on demand.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardMetrics>,
    /// Late responses dropped to preserve exactly-one-response.
    pub late_drops: u64,
}

impl ServiceMetrics {
    /// Total responses recorded across shards (the end-to-end histogram
    /// counts, i.e. one per shard-attributed response).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.e2e.count).sum()
    }

    /// All shards' end-to-end histograms merged into one.
    #[must_use]
    pub fn merged_e2e(&self) -> Snapshot {
        let mut out = Snapshot::empty();
        for s in &self.shards {
            out.merge(&s.e2e);
        }
        out
    }

    /// All shards' queue-wait histograms merged into one.
    #[must_use]
    pub fn merged_queue_wait(&self) -> Snapshot {
        let mut out = Snapshot::empty();
        for s in &self.shards {
            out.merge(&s.queue_wait);
        }
        out
    }

    /// Render the snapshot in Prometheus text exposition format:
    /// per-shard counters (`gmc_requests_total`, `gmc_restarts_total`,
    /// `gmc_panics_total`, ...) labeled `shard="N"`, the three latency
    /// histograms as cumulative `_bucket{le="..."}` lines in seconds,
    /// and the service-wide `gmc_late_drops_total`. This is what
    /// `gmcc --serve --metrics-file PATH` writes on drain and on every
    /// in-band `{"op":"metrics"}` request.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        type CounterGet = fn(&ShardMetrics) -> u64;
        type SnapshotGet = fn(&ShardMetrics) -> &Snapshot;
        let mut out = String::new();
        let counters: [(&str, CounterGet); 7] = [
            ("gmc_requests_total", |s| s.e2e.count),
            ("gmc_restarts_total", |s| s.restarts),
            ("gmc_panics_total", |s| s.panics),
            ("gmc_deadline_exceeded_total", |s| s.deadline_exceeded),
            ("gmc_shed_total", |s| s.shed),
            ("gmc_chain_cache_hits_total", |s| s.chain_hits),
            ("gmc_chain_cache_misses_total", |s| s.chain_misses),
        ];
        for (name, get) in counters {
            for (i, s) in self.shards.iter().enumerate() {
                write_prom_counter(
                    &mut out,
                    name,
                    &format!("shard=\"{}\"", s.shard),
                    get(s),
                    i == 0,
                );
            }
        }
        write_prom_counter(&mut out, "gmc_late_drops_total", "", self.late_drops, true);
        let histograms: [(&str, SnapshotGet); 3] = [
            ("gmc_request_seconds", |s| &s.e2e),
            ("gmc_queue_wait_seconds", |s| &s.queue_wait),
            ("gmc_compile_seconds", |s| &s.compile_time),
        ];
        for (name, get) in histograms {
            for (i, s) in self.shards.iter().enumerate() {
                get(s).write_prometheus(&mut out, name, &format!("shard=\"{}\"", s.shard), i == 0);
            }
        }
        out
    }
}

/// Work items a shard receives.
pub(crate) enum Job {
    Compile(Box<CompileJob>),
    Snapshot(Sender<SessionSnapshot>),
}

pub(crate) struct CompileJob {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) shape: Shape,
    pub(crate) emit: Emit,
    /// Absolute deadline, checked again at dequeue.
    pub(crate) deadline: Option<Instant>,
    /// Internal sequence number for exactly-once accounting.
    pub(crate) seq: u64,
    /// When the submitter accepted the request; the zero point of the
    /// end-to-end and queue-wait latency histograms.
    pub(crate) submitted: Instant,
}

/// What a shard posts when it finishes a request: the response plus the
/// submission sequence number the service uses to deduplicate against
/// write-offs.
pub(crate) struct Response {
    pub(crate) seq: u64,
    pub(crate) response: CompileResponse,
}

/// Everything a shard tells the submitter, on one channel: finished
/// requests and its own exit. With one queue, a finished shard wakes
/// its front end at once.
pub(crate) enum Event {
    /// A shard finished a request (goes through the exactly-once accept
    /// step before anyone sees it).
    Response(Response),
    /// A shard's worker thread exited (posted by a drop guard in
    /// [`shard_main`]); its unanswered requests are written off.
    ShardExited(usize),
}

/// The sending half of the event queue. Once a poll loop has armed the
/// wake socket ([`CompileService::arm_wake`]), every post also writes
/// one byte to it, so the loop's `poll(2)` returns; unarmed, a post is
/// a plain channel send.
#[derive(Clone)]
pub(crate) struct EventTx {
    tx: Sender<Event>,
    wake: Arc<OnceLock<UnixStream>>,
}

impl EventTx {
    /// Post an event, then wake the poll loop if one is armed.
    pub(crate) fn send(&self, event: Event) -> Result<(), SendError<Event>> {
        self.tx.send(event)?;
        if let Some(mut wake) = self.wake.get() {
            // A full socket already holds a wake-up the loop has not
            // read, so a refused byte loses nothing.
            let _ = wake.write(&[1]);
        }
        Ok(())
    }
}

/// Submitter-side record of an enqueued request.
struct Outstanding {
    id: u64,
    shard: usize,
    deadline: Option<Instant>,
    submitted: Instant,
}

/// A running sharded compile service (see the
/// [crate docs](crate) for the architecture).
pub struct CompileService {
    job_txs: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<ShardStats>>,
    /// The one event queue: every shard posts through a clone of this
    /// sender. Holding it also means the queue never disconnects.
    pub(crate) events_tx: EventTx,
    events_rx: Receiver<Event>,
    /// Disconnects once every shard has built its first session: shards
    /// only drop their senders, and a shard that dies drops its too.
    started: Receiver<()>,
    /// Read end of the wake socket, once [`CompileService::arm_wake`]
    /// has armed it.
    wake_rx: Option<UnixStream>,
    /// Lock-free per-shard liveness + counters, shared with the workers.
    shared: Vec<Arc<ShardShared>>,
    /// Latest merged snapshot; supervisor restarts rewarm from it.
    latest: Arc<Mutex<Option<Arc<SessionSnapshot>>>>,
    options: CompileOptions,
    faults: FaultPlan,
    queue_cap: usize,
    default_deadline: Option<Duration>,
    snapshot_keep: usize,
    /// Enqueued-but-unanswered requests keyed by sequence number; the
    /// single source of truth for exactly-once delivery.
    outstanding: HashMap<u64, Outstanding>,
    /// `(deadline, seq)` of every outstanding request that has one,
    /// ordered so the earliest is the first entry.
    deadlines: BTreeSet<(Instant, u64)>,
    /// Responses synthesized by the submitter (parse errors, shed,
    /// expired, written-off), delivered ahead of the channel.
    ready: VecDeque<CompileResponse>,
    /// Queued + in-flight per shard (admission control reads this).
    pending_by_shard: Vec<usize>,
    next_seq: u64,
    late_drops: u64,
}

impl CompileService {
    /// Spawn the shard pool, restoring the newest decodable snapshot
    /// generation under `config.snapshot_path` (when present) into the
    /// shards its shapes route to. Generations are scanned newest-first
    /// (`<path>`, `<path>.1`, ... up to [`ServeConfig::snapshot_keep`]);
    /// a corrupt or truncated generation is quarantined to
    /// `<generation>.bad` with a logged warning and the scan falls back
    /// to the next-newest — a bad persist file must never take serving
    /// down, and with rotation it does not even cost the warm start.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if a snapshot generation exists but cannot
    /// be read (I/O, not corruption) or the restored snapshot was taken
    /// under different compile options.
    pub fn start(config: ServeConfig) -> Result<CompileService, ServeError> {
        let shards = config.shards.max(1);
        let snapshot = match &config.snapshot_path {
            Some(path) => {
                Self::load_newest_generation(path, config.snapshot_keep, &config.options)?
                    .map(Arc::new)
            }
            None => None,
        };
        let latest = Arc::new(Mutex::new(snapshot));
        let (tx, events_rx) = channel::<Event>();
        let events_tx = EventTx {
            tx,
            wake: Arc::new(OnceLock::new()),
        };
        let mut job_txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut shared = Vec::with_capacity(shards);
        let (started, all_started) = channel::<()>();
        for index in 0..shards {
            let (tx, rx) = channel();
            let shard_shared = Arc::new(ShardShared::default());
            let ctx = ShardCtx {
                index,
                shards,
                jobs: rx,
                events: events_tx.clone(),
                options: config.options.clone(),
                cache_capacity: config.cache_capacity,
                shared: Arc::clone(&shard_shared),
                latest: Arc::clone(&latest),
                policy: config.restart.clone(),
                faults: config.faults.clone(),
                slow: config.slow_request,
                started: Some(started.clone()),
            };
            handles.push(std::thread::spawn(move || shard_main(ctx)));
            job_txs.push(tx);
            shared.push(shard_shared);
        }
        drop(started);
        Ok(CompileService {
            job_txs,
            handles,
            events_tx,
            events_rx,
            started: all_started,
            wake_rx: None,
            shared,
            latest,
            options: config.options,
            faults: config.faults,
            queue_cap: config.queue_cap.max(1),
            default_deadline: config.default_deadline,
            snapshot_keep: config.snapshot_keep,
            outstanding: HashMap::new(),
            deadlines: BTreeSet::new(),
            ready: VecDeque::new(),
            pending_by_shard: vec![0; shards],
            next_seq: 0,
            late_drops: 0,
        })
    }

    /// Scan snapshot generations newest-first and return the first that
    /// decodes; quarantine corrupt generations to `<generation>.bad`.
    fn load_newest_generation(
        path: &PathBuf,
        keep: usize,
        options: &CompileOptions,
    ) -> Result<Option<SessionSnapshot>, ServeError> {
        for generation in 0..keep.max(1) {
            let gen_path = SessionSnapshot::rotation_path(path, generation);
            if !gen_path.exists() {
                continue;
            }
            match SessionSnapshot::load(&gen_path) {
                Ok(snap) => {
                    if !snap.compatible_with(options) {
                        return Err(ServeError::SnapshotMismatch {
                            found: snap.options_fingerprint().to_string(),
                        });
                    }
                    if generation > 0 {
                        eprintln!(
                            "gmc-serve: warm start from snapshot generation {generation} ({})",
                            gen_path.display()
                        );
                    }
                    if snap.skipped() > 0 {
                        eprintln!(
                            "gmc-serve: snapshot {} skipped {} chain(s) of more than {} matrices",
                            gen_path.display(),
                            snap.skipped(),
                            gmc_ir::MAX_OPERANDS
                        );
                    }
                    return Ok(Some(snap));
                }
                Err(e @ PersistError::Io(_)) => return Err(e.into()),
                Err(e) => {
                    // Corrupt/truncated (e.g. a torn write from a crash
                    // mid-save): move it aside and try the next-newest
                    // generation (cold start if none decodes).
                    let bad = Self::quarantine_path(&gen_path);
                    match std::fs::rename(&gen_path, &bad) {
                        Ok(()) => eprintln!(
                            "gmc-serve: snapshot {} is corrupt ({e}); \
                             quarantined to {}",
                            gen_path.display(),
                            bad.display()
                        ),
                        Err(mv) => eprintln!(
                            "gmc-serve: snapshot {} is corrupt ({e}); \
                             quarantine rename failed ({mv})",
                            gen_path.display()
                        ),
                    }
                }
            }
        }
        Ok(None)
    }

    /// First free quarantine name for a corrupt snapshot: `<path>.bad`,
    /// then `<path>.bad.1`, `.bad.2`, … — repeated corruption keeps
    /// every piece of evidence instead of overwriting the last one.
    fn quarantine_path(gen_path: &std::path::Path) -> PathBuf {
        let base = {
            let mut s = gen_path.to_path_buf().into_os_string();
            s.push(".bad");
            PathBuf::from(s)
        };
        if !base.exists() {
            return base;
        }
        for n in 1.. {
            let mut s = base.clone().into_os_string();
            s.push(format!(".{n}"));
            let candidate = PathBuf::from(s);
            if !candidate.exists() {
                return candidate;
            }
        }
        unreachable!("some quarantine suffix is free")
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.job_txs.len()
    }

    /// Outstanding responses (submitted minus received).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ready.len() + self.outstanding.len()
    }

    /// Select the serving shard for `shape` by [`pick_two_choices`];
    /// `None` when every shard is down.
    fn pick_shard(&self, shape: &Shape) -> Option<usize> {
        let n = self.shards();
        let live: Vec<bool> = self
            .shared
            .iter()
            .map(|s| s.state() != ShardState::Down)
            .collect();
        pick_two_choices(
            route(shape, n),
            route_alt(shape, n),
            &self.pending_by_shard,
            &live,
        )
    }

    /// Parse, admit, route, and enqueue a request. Every submission is
    /// answered exactly once through [`CompileService::recv`]; failures
    /// (parse, shed, all-shards-down) produce typed error *responses*,
    /// never errors here, so one bad request cannot stall a stream.
    ///
    /// Admission control: if the target shard already holds
    /// [`ServeConfig::queue_cap`] requests, the request is shed with an
    /// `overloaded` failure instead of growing the queue — on overload
    /// the service degrades by refusing work it could only serve late.
    /// Routing is load-aware ([`pick_two_choices`]) and never targets a
    /// shard whose circuit breaker is open.
    pub fn submit(&mut self, request: CompileRequest) {
        let submitted = Instant::now();
        let id = request.id;
        let program = match parse_program(&request.source) {
            Ok(p) => p,
            Err(e) => {
                self.ready.push_back(CompileResponse::failure(
                    id,
                    FailureKind::Parse,
                    format!("parse error: {e}"),
                ));
                return;
            }
        };
        let name = request.name.unwrap_or_else(|| program.lhs().to_lowercase());
        let shape = program.shape().clone();
        let Some(shard) = self.pick_shard(&shape) else {
            self.ready.push_back(CompileResponse::failure(
                id,
                FailureKind::ShardDown,
                "every shard is down (circuit breakers open)",
            ));
            return;
        };
        if self.pending_by_shard[shard] >= self.queue_cap {
            self.shared[shard]
                .shed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // Shed requests count in the end-to-end histogram too: every
            // response attributed to a shard is one recorded latency.
            self.shared[shard].e2e.record(submitted.elapsed());
            self.ready.push_back(CompileResponse::failure_on(
                id,
                Some(shard),
                FailureKind::Overloaded,
                format!(
                    "shard {shard} queue is full ({} outstanding); request shed",
                    self.queue_cap
                ),
            ));
            return;
        }
        let deadline = request
            .deadline
            .or(self.default_deadline)
            .map(|d| Instant::now() + d);
        let seq = self.next_seq;
        self.next_seq += 1;
        let job = Job::Compile(Box::new(CompileJob {
            id,
            name,
            shape,
            emit: request.emit,
            deadline,
            seq,
            submitted,
        }));
        // A send only fails if the worker thread is gone (it exited
        // outside supervision); answer in-band so accounting balances.
        if self.job_txs[shard].send(job).is_ok() {
            self.outstanding.insert(
                seq,
                Outstanding {
                    id,
                    shard,
                    deadline,
                    submitted,
                },
            );
            if let Some(deadline) = deadline {
                self.deadlines.insert((deadline, seq));
            }
            self.pending_by_shard[shard] += 1;
        } else {
            self.shared[shard].e2e.record(submitted.elapsed());
            self.ready.push_back(CompileResponse::failure_on(
                id,
                Some(shard),
                FailureKind::ShardDown,
                format!("shard {shard} worker terminated unexpectedly"),
            ));
        }
    }

    /// The exactly-once accept step: match a shard's posted response
    /// against the outstanding table; `None` for late responses to
    /// written-off requests (dropped to keep exactly-one-response).
    fn accept(&mut self, r: Response) -> Option<CompileResponse> {
        if self.settle(r.seq).is_some() {
            Some(r.response)
        } else {
            self.late_drops += 1;
            None
        }
    }

    /// Take `seq` out of the exactly-once tables (outstanding entry,
    /// deadline index, shard depth) and record its end-to-end sample;
    /// `None` if it was already answered or written off.
    fn settle(&mut self, seq: u64) -> Option<Outstanding> {
        let out = self.outstanding.remove(&seq)?;
        if let Some(deadline) = out.deadline {
            self.deadlines.remove(&(deadline, seq));
        }
        self.pending_by_shard[out.shard] = self.pending_by_shard[out.shard].saturating_sub(1);
        self.shared[out.shard].e2e.record(out.submitted.elapsed());
        Some(out)
    }

    /// Write off every outstanding request whose deadline has passed —
    /// the submitter-side half of deadline enforcement, so a shard
    /// sleeping inside a compile (or a fault-injected delay) cannot
    /// stall the response stream past the caller's budget.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(&(deadline, seq)) = self.deadlines.first() {
            if deadline > now {
                break;
            }
            let out = self.settle(seq).expect("indexed deadlines are outstanding");
            self.shared[out.shard]
                .deadline_exceeded
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.ready.push_back(CompileResponse::failure_on(
                out.id,
                Some(out.shard),
                FailureKind::DeadlineExceeded,
                format!("deadline expired awaiting shard {}", out.shard),
            ));
        }
    }

    /// The earliest deadline among outstanding requests.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.deadlines.first().map(|&(deadline, _)| deadline)
    }

    /// The fault plan the service was started with.
    pub(crate) fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Block until every shard has built its first session, restoring
    /// its share of the snapshot: counters read from then on include the
    /// restored chains.
    pub(crate) fn wait_started(&self) {
        while self.started.recv().is_ok() {}
    }

    /// Arm the wake socket: from now on every post to the event queue
    /// also writes one byte to it. Returns its non-blocking read end for
    /// a poll loop, which must drain it before it drains the queue so
    /// that no wake-up is lost. In-process callers never arm it, and
    /// their posts stay plain channel sends.
    ///
    /// # Errors
    ///
    /// Propagates socket creation failures.
    pub(crate) fn arm_wake(&mut self) -> std::io::Result<UnixStream> {
        if self.wake_rx.is_none() {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            let _ = self.events_tx.wake.set(tx);
            self.wake_rx = Some(rx);
        }
        self.wake_rx.as_ref().expect("armed above").try_clone()
    }

    /// A shard's worker thread exited while the service still holds its
    /// job sender: take it out of routing and write off its outstanding
    /// requests. Supervised shards do not die — panics are caught in the
    /// worker loop — so this is a backstop against bugs in the
    /// supervisor itself. Results the shard posted before exiting are
    /// ahead of this event in the queue, so only unanswered work is
    /// written off.
    fn shard_exited(&mut self, shard: usize) {
        self.shared[shard].set_state(ShardState::Down);
        let seqs: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.shard == shard)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in seqs {
            let out = self.settle(seq).expect("seq was just listed");
            self.ready.push_back(CompileResponse::failure_on(
                out.id,
                Some(shard),
                FailureKind::ShardDown,
                format!("shard {shard} worker terminated with this request in flight"),
            ));
        }
    }

    /// Write off one outstanding request by its request id — the socket
    /// transport's dropped-connection policy. The entry leaves the
    /// outstanding table (no response will be surfaced for it; there is
    /// no connection left to deliver one to), its shard's pending depth
    /// drops so routing and admission see the truth, and its end-to-end
    /// latency sample is recorded like every other shard-attributed
    /// outcome. The shard may still be working on the request; its
    /// eventual reply hits `accept`'s unknown-sequence
    /// path and is dropped and counted (`late_drops`) — exactly-once
    /// stays exact. Returns `false` if no such request is outstanding
    /// (it already completed or was shed).
    pub fn write_off(&mut self, id: u64) -> bool {
        let seq = self
            .outstanding
            .iter()
            .find(|(_, o)| o.id == id)
            .map(|(&seq, _)| seq);
        let Some(seq) = seq else { return false };
        self.settle(seq).is_some()
    }

    /// Block until the next response (expired deadlines first, then
    /// shard results through the exactly-once accept step), or `None`
    /// once `until` passes. The blocking wait ends no later than the
    /// earliest outstanding deadline, so deadlines expire when they are
    /// due. `until` in the past makes this a non-blocking poll.
    pub(crate) fn wait(&mut self, until: Option<Instant>) -> Option<CompileResponse> {
        loop {
            self.expire_deadlines();
            if let Some(r) = self.ready.pop_front() {
                return Some(r);
            }
            let wake_at = match (until, self.next_deadline()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            // The service holds a sender, so the queue never disconnects.
            let event = match wake_at {
                None => self.events_rx.recv().ok(),
                Some(at) => self
                    .events_rx
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                    .ok(),
            };
            match event {
                Some(Event::Response(r)) => {
                    if let Some(response) = self.accept(r) {
                        return Some(response);
                    }
                }
                Some(Event::ShardExited(shard)) => self.shard_exited(shard),
                None if until.is_some_and(|u| Instant::now() >= u) => return None,
                None => {}
            }
        }
    }

    /// Block for the next response; `None` once nothing is outstanding.
    /// Wakes the moment a shard posts a result or exits, and no later
    /// than the earliest outstanding deadline, so it cannot hang on a
    /// wedged or crashed shard past a request's budget.
    pub fn recv(&mut self) -> Option<CompileResponse> {
        if self.pending() == 0 {
            return None;
        }
        self.wait(None)
    }

    /// Receive every outstanding response (blocking, but deadline- and
    /// crash-safe like [`CompileService::recv`]).
    pub fn drain(&mut self) -> Vec<CompileResponse> {
        let mut out = Vec::with_capacity(self.pending());
        while let Some(r) = self.recv() {
            out.push(r);
        }
        out
    }

    /// Merge every live shard's compiled-chain cache into one snapshot
    /// and publish it as the rewarm source for supervisor restarts.
    /// Waits for shards to reach the snapshot job, so submit-then-
    /// snapshot sees all prior compiles of each shard's queue; down
    /// shards contribute nothing (their last published state lives on in
    /// the previous snapshot they merged into).
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut merged: Option<SessionSnapshot> = None;
        for tx in &self.job_txs {
            let (reply_tx, reply_rx) = channel();
            let _ = tx.send(Job::Snapshot(reply_tx));
            // A down shard drops the reply sender without answering.
            if let Ok(snap) = reply_rx.recv() {
                merged = Some(match merged.take() {
                    None => snap,
                    Some(mut m) => {
                        // Shards share one options fingerprint by
                        // construction, so merge cannot fail.
                        let _ = m.merge(snap);
                        m
                    }
                });
            }
        }
        let snap = merged.unwrap_or_else(|| {
            // Every shard down: publish an empty-but-valid snapshot so
            // persistence still works.
            CompileSession::with_options(self.options.clone()).snapshot()
        });
        *self.latest.lock().expect("latest snapshot lock") = Some(Arc::new(snap.clone()));
        snap
    }

    /// Every shard's observability counters in shard order, read like
    /// [`CompileService::health`] **without** touching the work queues:
    /// each shard publishes its counters as it dequeues and answers
    /// requests, so this reports what the shards have answered so far,
    /// not compiles still queued, and a wedged or down shard still
    /// reports its last state. This is what the daemon's in-band
    /// `{"op":"stats"}` request serves.
    #[must_use]
    pub fn stats(&self) -> Vec<ShardStatus> {
        self.shared
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardStatus {
                shard,
                requests: s.requests.load(std::sync::atomic::Ordering::Relaxed),
                cache: s.cache(),
                frags: CacheStats::default(),
            })
            .collect()
    }

    /// Per-shard liveness and robustness counters, collected **without**
    /// touching the work queues — pure atomic reads, so a wedged or down
    /// shard still reports. This is what the daemon's in-band
    /// `{"op":"health"}` request serves.
    #[must_use]
    pub fn health(&self) -> Vec<ShardHealth> {
        use std::sync::atomic::Ordering::Relaxed;
        self.shared
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardHealth {
                shard,
                state: s.state(),
                restarts: s.restarts.load(Relaxed),
                panics: s.panics.load(Relaxed),
                queue_depth: self.pending_by_shard[shard],
                deadline_exceeded: s.deadline_exceeded.load(Relaxed),
                shed: s.shed.load(Relaxed),
                chain_hit_rate: s.cache().hit_rate(),
                p99_ms: s.e2e.quantile_ms(0.99),
                queue_wait_p99_ms: s.queue_wait.quantile_ms(0.99),
            })
            .collect()
    }

    /// Full latency/counter snapshot of every shard, collected like
    /// [`CompileService::health`] **without** touching the work queues —
    /// pure atomic reads of the lock-free histograms and counters, so a
    /// wedged or down shard still reports its last state. This is what
    /// the daemon's in-band `{"op":"metrics"}` request and the
    /// `--metrics-file` Prometheus dump serve.
    #[must_use]
    pub fn metrics(&self) -> ServiceMetrics {
        use std::sync::atomic::Ordering::Relaxed;
        let shards = self
            .shared
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let cache = s.cache();
                ShardMetrics {
                    shard,
                    state: s.state(),
                    e2e: s.e2e.snapshot(),
                    queue_wait: s.queue_wait.snapshot(),
                    compile_time: s.compile_time.snapshot(),
                    restarts: s.restarts.load(Relaxed),
                    panics: s.panics.load(Relaxed),
                    deadline_exceeded: s.deadline_exceeded.load(Relaxed),
                    shed: s.shed.load(Relaxed),
                    chain_hits: cache.hits,
                    chain_misses: cache.misses,
                }
            })
            .collect();
        ServiceMetrics {
            shards,
            late_drops: self.late_drops,
        }
    }

    /// [`CompileService::snapshot`] straight to a file, atomically
    /// (temp file + rename, see [`SessionSnapshot::save`]) and with
    /// rotation when [`ServeConfig::snapshot_keep`] > 1 (the previous
    /// generations shift to `<path>.1`, `<path>.2`, ... first, see
    /// [`SessionSnapshot::save_rotated`]) — unless the
    /// `snapshot_torn` fault is armed, in which case a truncated file is
    /// written directly to the target path to simulate a crash
    /// mid-write.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        let snap = self.snapshot();
        if self.faults.tear_snapshot() {
            // Simulated crash mid-save: the rotation shift completed
            // (renames are atomic), the final write did not.
            SessionSnapshot::rotate_generations(path.as_ref(), self.snapshot_keep)?;
            // Cut mid-way through the final line: the tail of the write
            // never made it to disk. (Cutting at an arbitrary byte could
            // land inside the options header and masquerade as an
            // options mismatch instead of a corrupt file.)
            let encoded = snap.encode();
            let body = encoded.trim_end_matches('\n');
            let last_line_start = body.rfind('\n').map_or(0, |i| i + 1);
            let cut = last_line_start + (body.len() - last_line_start) / 2;
            let torn = &encoded.as_bytes()[..cut];
            std::fs::write(path.as_ref(), torn).map_err(PersistError::from)?;
            eprintln!(
                "gmc-serve: injected fault: snapshot_torn ({} of {} bytes written, no rename)",
                torn.len(),
                encoded.len()
            );
            return Ok(());
        }
        Ok(snap.save_rotated(path, self.snapshot_keep)?)
    }

    /// Stop accepting work, join every shard, and return the collected
    /// per-shard counters. Pending responses still in the channel are
    /// discarded — call [`CompileService::drain`] first for a graceful
    /// drain.
    #[must_use]
    pub fn shutdown(self) -> ServiceStats {
        let CompileService {
            job_txs,
            handles,
            late_drops,
            ..
        } = self;
        drop(job_txs);
        let shards = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect();
        ServiceStats { shards, late_drops }
    }
}
