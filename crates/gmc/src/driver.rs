//! The `gmcc` compiler driver: the command-line face of the code
//! generator in Fig. 1. Parses `.gmc` programs, selects variants through
//! a [`CompileSession`], and emits C++ and/or Rust sources plus the
//! runtime header.
//!
//! The driver is batch-first: it accepts any number of input programs in
//! one invocation, compiles them all through shared session state
//! (repeated shapes hit the session cache), and with `--jobs N` splits
//! the batch across `N` worker threads, each with its own session. The
//! emitted artifacts are identical for every jobs value.

use gmc_codegen::{emit_cpp_into, emit_runtime_header, emit_rust_into};
use gmc_core::{CompileOptions, CompileSession, Objective, Stage};
use gmc_ir::grammar::parse_program;
use gmc_ir::Shape;
use gmc_serve::Emit;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::os::fd::AsFd;
use std::path::{Path, PathBuf};

/// Driver configuration, filled from command-line arguments.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Input `.gmc` files (one compiled chain each).
    pub inputs: Vec<PathBuf>,
    /// Output directory for emitted sources.
    pub out_dir: PathBuf,
    /// Base name of emitted functions/files (defaults to each program's
    /// left-hand-side identifier; only honored for a single input).
    pub name: Option<String>,
    /// Back-end(s) to emit.
    pub emit: Emit,
    /// Algorithm-1 expansion steps beyond the Theorem-2 base set.
    pub expand: usize,
    /// Training-instance count for selection.
    pub train: usize,
    /// Worker threads for batch compilation (each owns a session); in
    /// serve mode, the shard count.
    pub jobs: usize,
    /// Print a human-readable variant report to stdout.
    pub report: bool,
    /// Serve mode: read JSONL compile requests from this path (`-` for
    /// stdin) and stream JSONL responses to stdout instead of compiling
    /// `inputs`.
    pub serve: Option<String>,
    /// Socket serve mode: accept JSONL connections on this address
    /// (`unix:<path>`, `tcp:<host:port>`, or a bare path/socket
    /// address) instead of reading stdin. Implies serve mode.
    pub listen: Option<String>,
    /// Client mode: connect to a listening daemon at this address,
    /// pipeline the request lines from the input file (or stdin), and
    /// print one response line each to stdout.
    pub connect: Option<String>,
    /// Snapshot generations kept by `--persist` rotation (serve mode):
    /// each save shifts `path` → `path.1` → … before writing, and
    /// startup warms from the newest decodable generation.
    pub persist_keep: usize,
    /// Per-shard compiled-chain cache capacity (serve mode).
    pub cache_cap: usize,
    /// Warm-restart snapshot file (serve mode): loaded on start if it
    /// exists, written on shutdown.
    pub persist: Option<PathBuf>,
    /// Default per-request deadline in milliseconds (serve mode);
    /// requests may override it with their own `deadline_ms` field.
    pub deadline_ms: Option<u64>,
    /// Admission control (serve mode): max queued + in-flight requests
    /// per shard before submissions are shed with `overloaded`.
    pub queue_cap: usize,
    /// Longest accepted JSONL request line in bytes (serve mode);
    /// oversized lines are answered with an in-band `bad_request` error.
    pub max_line_bytes: usize,
    /// Print a per-stage timing breakdown for each input (batch mode):
    /// enables session tracing and appends the stage profile to each
    /// program's report.
    pub timings: bool,
    /// Dump service metrics as Prometheus text exposition to this file
    /// (serve mode): written on drain and refreshed on every in-band
    /// `{"op":"metrics"}` request.
    pub metrics_file: Option<PathBuf>,
    /// Log any request slower than this many milliseconds end-to-end to
    /// stderr, with a per-stage breakdown when tracing is on (serve
    /// mode).
    pub slow_ms: Option<u64>,
    /// Per-connection in-flight cap (socket serve mode): a connection
    /// with this many unanswered compile requests has further requests
    /// shed in band with a retryable `overloaded` error. 0 disables.
    pub conn_in_flight_cap: usize,
    /// Max concurrently open connections (socket serve mode): beyond
    /// this the daemon accepts, answers one typed `overloaded` line,
    /// and closes. 0 disables.
    pub max_conns: usize,
    /// Idle-connection timeout in milliseconds (socket serve mode):
    /// connections with zero in-flight requests and no traffic for this
    /// long are closed.
    pub idle_timeout_ms: Option<u64>,
    /// Client mode: resend a request up to this many times when the
    /// daemon answers with a retryable failure (`overloaded`,
    /// `deadline_exceeded`, `shard_panic`, `shard_down`), with jittered
    /// capped exponential backoff. 0 disables; only requests carrying
    /// an explicit `id` are retried.
    pub retry: u32,
}

/// Default bound on a JSONL request line in serve mode (1 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Errors from the driver.
#[derive(Debug)]
pub enum DriverError {
    /// Bad command line.
    Usage(String),
    /// I/O failure (payload: path and cause).
    Io(PathBuf, std::io::Error),
    /// Parse or compilation failure.
    Compile(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Usage(msg) => write!(f, "usage error: {msg}"),
            DriverError::Io(path, e) => write!(f, "io error on {}: {e}", path.display()),
            DriverError::Compile(msg) => write!(f, "compile error: {msg}"),
        }
    }
}

impl Error for DriverError {}

/// Parse the `gmcc` command line (without the leading program name).
///
/// # Errors
///
/// Returns [`DriverError::Usage`] on malformed arguments.
pub fn parse_args(args: &[String]) -> Result<DriverConfig, DriverError> {
    let mut config = DriverConfig {
        inputs: Vec::new(),
        out_dir: PathBuf::from("."),
        name: None,
        emit: Emit::Cpp,
        expand: 0,
        train: 1000,
        jobs: 1,
        report: false,
        serve: None,
        listen: None,
        connect: None,
        persist_keep: 1,
        cache_cap: gmc_core::DEFAULT_CHAIN_CACHE_CAPACITY,
        persist: None,
        deadline_ms: None,
        queue_cap: gmc_serve::DEFAULT_QUEUE_CAP,
        max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        timings: false,
        metrics_file: None,
        slow_ms: None,
        conn_in_flight_cap: 64,
        max_conns: 0,
        idle_timeout_ms: None,
        retry: 3,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve" => {
                config.serve = Some(
                    it.next()
                        .ok_or_else(|| {
                            DriverError::Usage("--serve needs a path or `-` for stdin".into())
                        })?
                        .clone(),
                );
            }
            "--listen" => {
                config.listen = Some(
                    it.next()
                        .ok_or_else(|| {
                            DriverError::Usage(
                                "--listen needs an address (unix:<path> or tcp:<host:port>)".into(),
                            )
                        })?
                        .clone(),
                );
            }
            "--connect" => {
                config.connect = Some(
                    it.next()
                        .ok_or_else(|| {
                            DriverError::Usage(
                                "--connect needs an address (unix:<path> or tcp:<host:port>)"
                                    .into(),
                            )
                        })?
                        .clone(),
                );
            }
            "--persist-keep" => {
                config.persist_keep = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k: &usize| k >= 1)
                    .ok_or_else(|| {
                        DriverError::Usage("--persist-keep needs a positive integer".into())
                    })?;
            }
            "--cache-cap" => {
                config.cache_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| DriverError::Usage("--cache-cap needs an integer".into()))?;
            }
            "--persist" => {
                config.persist = Some(
                    it.next()
                        .ok_or_else(|| DriverError::Usage("--persist needs a file path".into()))?
                        .into(),
                );
            }
            "--deadline-ms" => {
                config.deadline_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms: &u64| ms >= 1)
                        .ok_or_else(|| {
                            DriverError::Usage("--deadline-ms needs a positive integer".into())
                        })?,
                );
            }
            "--queue-cap" => {
                config.queue_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&c: &usize| c >= 1)
                    .ok_or_else(|| {
                        DriverError::Usage("--queue-cap needs a positive integer".into())
                    })?;
            }
            "--max-line-bytes" => {
                config.max_line_bytes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 2)
                    .ok_or_else(|| {
                        DriverError::Usage("--max-line-bytes needs an integer >= 2".into())
                    })?;
            }
            "--conn-in-flight-cap" => {
                config.conn_in_flight_cap =
                    it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                        DriverError::Usage("--conn-in-flight-cap needs an integer (0 = off)".into())
                    })?;
            }
            "--max-conns" => {
                config.max_conns = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                    DriverError::Usage("--max-conns needs an integer (0 = off)".into())
                })?;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms: &u64| ms >= 1)
                        .ok_or_else(|| {
                            DriverError::Usage("--idle-timeout-ms needs a positive integer".into())
                        })?,
                );
            }
            "--retry" => {
                config.retry = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                    DriverError::Usage("--retry needs an integer (0 = off)".into())
                })?;
            }
            "--timings" => config.timings = true,
            "--metrics-file" => {
                config.metrics_file = Some(
                    it.next()
                        .ok_or_else(|| {
                            DriverError::Usage("--metrics-file needs a file path".into())
                        })?
                        .into(),
                );
            }
            "--slow-ms" => {
                config.slow_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms: &u64| ms >= 1)
                        .ok_or_else(|| {
                            DriverError::Usage("--slow-ms needs a positive integer".into())
                        })?,
                );
            }
            "--out" => {
                config.out_dir = it
                    .next()
                    .ok_or_else(|| DriverError::Usage("--out needs a directory".into()))?
                    .into();
            }
            "--name" => {
                config.name = Some(
                    it.next()
                        .ok_or_else(|| DriverError::Usage("--name needs a value".into()))?
                        .clone(),
                );
            }
            "--emit" => {
                let v = it
                    .next()
                    .ok_or_else(|| DriverError::Usage("--emit needs a value".into()))?;
                config.emit = Emit::parse(v).map_err(|_| {
                    DriverError::Usage(format!(
                        "unknown --emit value `{v}` (expected cpp, rust, or both)"
                    ))
                })?;
            }
            "--expand" => {
                config.expand = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| DriverError::Usage("--expand needs an integer".into()))?;
            }
            "--train" => {
                config.train = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| DriverError::Usage("--train needs an integer".into()))?;
            }
            "--jobs" => {
                config.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j: &usize| j >= 1)
                    .ok_or_else(|| DriverError::Usage("--jobs needs a positive integer".into()))?;
            }
            "--report" => config.report = true,
            other if other.starts_with("--") => {
                return Err(DriverError::Usage(format!("unknown flag `{other}`")));
            }
            path => config.inputs.push(PathBuf::from(path)),
        }
    }
    if config.serve.is_some() && config.listen.is_some() {
        return Err(DriverError::Usage(
            "--serve and --listen are mutually exclusive (one daemon, one transport)".into(),
        ));
    }
    if config.connect.is_some() && (config.serve.is_some() || config.listen.is_some()) {
        return Err(DriverError::Usage(
            "--connect is a client mode; it cannot be combined with --serve/--listen".into(),
        ));
    }
    if config.inputs.is_empty()
        && config.serve.is_none()
        && config.listen.is_none()
        && config.connect.is_none()
    {
        return Err(DriverError::Usage("missing input .gmc file".into()));
    }
    Ok(config)
}

/// One compiled program's artifacts: emitted `(file name, contents)`
/// pairs and the human-readable variant report.
pub type CompiledArtifacts = (Vec<(String, String)>, String);

fn compile_options(config: &DriverConfig) -> CompileOptions {
    CompileOptions {
        training_instances: config.train,
        expand_by: config.expand,
        objective: Objective::AvgPenalty,
        ..CompileOptions::default()
    }
}

/// Compile one named shape through `session` and emit its artifacts,
/// building into `buf` (reused across calls by batch workers). With
/// `--timings`, the session's stage-profile delta for this program
/// (compile + emit) is rendered and appended to the report.
fn compile_one(
    session: &mut CompileSession,
    buf: &mut String,
    shape: &Shape,
    name: &str,
    config: &DriverConfig,
) -> Result<CompiledArtifacts, DriverError> {
    let before = config.timings.then(|| session.stage_profile().clone());
    let chain = session
        .compile(shape)
        .map_err(|e| DriverError::Compile(format!("{name}: {e}")))?;

    let mut files = Vec::new();
    let span = session.recorder().start();
    if matches!(config.emit, Emit::Cpp | Emit::Both) {
        buf.clear();
        emit_cpp_into(buf, &chain, name);
        files.push((format!("{name}.cpp"), buf.clone()));
        files.push(("gmc_runtime.hpp".to_string(), emit_runtime_header()));
    }
    if matches!(config.emit, Emit::Rust | Emit::Both) {
        buf.clear();
        emit_rust_into(buf, &chain, name);
        files.push((format!("{name}.rs"), buf.clone()));
    }
    session.recorder_mut().stop(Stage::Emit, span);

    let mut report = chain.describe();
    if let Some(before) = &before {
        report.push_str(&chain.timing_report(&session.stage_profile().since(before)));
    }
    Ok((files, report))
}

/// Compile a batch of `.gmc` sources, in input order, through shared
/// session state — or, with `config.jobs > 1`, across that many worker
/// threads, each owning its own [`CompileSession`]. Output artifacts are
/// identical for every jobs value (compilation is per-program
/// deterministic); only wall-clock changes.
///
/// Every input gets its own `Result`, so one broken program in a batch
/// neither hides the diagnostics of the others nor suppresses their
/// artifacts; [`run`] emits the successes and reports each failure.
///
/// Function/file names default to each program's left-hand side
/// (lowercased); `config.name` overrides it for a single-source batch,
/// and repeated names get `_2`, `_3`, ... suffixes so artifacts never
/// collide. The C++ runtime header is attached to the first C++-emitting
/// program only.
pub fn compile_batch_results(
    sources: &[String],
    config: &DriverConfig,
) -> Vec<Result<CompiledArtifacts, DriverError>> {
    // Parse everything first: names must be fixed (and deduplicated)
    // before emission. Only successfully parsed programs claim names.
    let mut work: Vec<(usize, Shape, String)> = Vec::with_capacity(sources.len());
    let mut results: Vec<Option<Result<CompiledArtifacts, DriverError>>> =
        (0..sources.len()).map(|_| None).collect();
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (index, source) in sources.iter().enumerate() {
        let program = match parse_program(source) {
            Ok(p) => p,
            Err(e) => {
                results[index] = Some(Err(DriverError::Compile(e.to_string())));
                continue;
            }
        };
        let base = match (&config.name, sources.len()) {
            (Some(name), 1) => name.clone(),
            _ => program.lhs().to_lowercase(),
        };
        // Probe suffixes until free, against *final* names: `x, x_2` must
        // not collide with a literal `x_2` from another program.
        let mut name = base.clone();
        let mut k = 1usize;
        while !used.insert(name.clone()) {
            k += 1;
            name = format!("{base}_{k}");
        }
        work.push((index, program.shape().clone(), name));
    }

    let jobs = config.jobs.min(work.len()).max(1);
    let options = compile_options(config);
    let mut compiled: Vec<Option<Result<CompiledArtifacts, DriverError>>> =
        (0..work.len()).map(|_| None).collect();
    if jobs > 1 {
        let chunk = work.len().div_ceil(jobs);
        let options = &options;
        let config_ref = config;
        std::thread::scope(|s| {
            for (wchunk, rchunk) in work.chunks(chunk).zip(compiled.chunks_mut(chunk)) {
                s.spawn(move || {
                    let mut session = CompileSession::with_options(options.clone());
                    session.set_tracing(session.tracing_enabled() || config_ref.timings);
                    let mut buf = String::new();
                    for ((_, shape, name), slot) in wchunk.iter().zip(rchunk.iter_mut()) {
                        *slot = Some(compile_one(&mut session, &mut buf, shape, name, config_ref));
                    }
                });
            }
        });
    } else {
        let mut session = CompileSession::with_options(options);
        session.set_tracing(session.tracing_enabled() || config.timings);
        let mut buf = String::new();
        for ((_, shape, name), slot) in work.iter().zip(compiled.iter_mut()) {
            *slot = Some(compile_one(&mut session, &mut buf, shape, name, config));
        }
    }
    for ((index, _, _), result) in work.iter().zip(compiled) {
        results[*index] = Some(result.expect("every parsed program compiled"));
    }

    let mut results: Vec<Result<CompiledArtifacts, DriverError>> = results
        .into_iter()
        .map(|r| r.expect("every input produced a result"))
        .collect();
    // The runtime header is a constant: keep only the first copy.
    let mut header_seen = false;
    for files in results.iter_mut().filter_map(|r| r.as_mut().ok()) {
        files.0.retain(|(fname, _)| {
            if fname == "gmc_runtime.hpp" {
                if header_seen {
                    return false;
                }
                header_seen = true;
            }
            true
        });
    }
    results
}

/// What one `gmcc` invocation accomplished: the artifacts written, plus
/// the inputs that failed (each with its own diagnostic). The binary
/// exits nonzero when `failures` is non-empty, but every healthy input
/// still gets its artifacts — one broken file never takes down a batch.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Paths of all artifacts written.
    pub written: Vec<PathBuf>,
    /// `(input path, error)` for every input that failed to read, parse,
    /// or compile.
    pub failures: Vec<(PathBuf, DriverError)>,
}

/// Run the driver end to end: read the inputs, compile the batch, write
/// the artifacts of every input that succeeded, and report the rest in
/// [`RunOutcome::failures`].
///
/// # Errors
///
/// Only batch-fatal failures (e.g. an unwritable output directory) are
/// returned as `Err`; per-input problems land in the outcome.
pub fn run(config: &DriverConfig) -> Result<RunOutcome, DriverError> {
    let mut outcome = RunOutcome::default();
    // Read what we can; unreadable inputs become per-file failures.
    let mut readable: Vec<usize> = Vec::with_capacity(config.inputs.len());
    let mut sources: Vec<String> = Vec::with_capacity(config.inputs.len());
    for (i, path) in config.inputs.iter().enumerate() {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                readable.push(i);
                sources.push(text);
            }
            Err(e) => outcome
                .failures
                .push((path.clone(), DriverError::Io(path.clone(), e))),
        }
    }
    // `--name` is only honored for a single *requested* input; if read
    // failures shrink a multi-file batch to one source, the override
    // must not silently transfer to a different program.
    let mut batch_config = config.clone();
    if config.inputs.len() > 1 {
        batch_config.name = None;
    }
    let results = compile_batch_results(&sources, &batch_config);
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| DriverError::Io(config.out_dir.clone(), e))?;
    for (input_idx, result) in readable.into_iter().zip(results) {
        match result {
            Ok((files, report)) => {
                for (fname, contents) in files {
                    let path: PathBuf = Path::new(&config.out_dir).join(fname);
                    std::fs::write(&path, contents)
                        .map_err(|e| DriverError::Io(path.clone(), e))?;
                    outcome.written.push(path);
                }
                if config.report || config.timings {
                    print!("{report}");
                }
            }
            Err(e) => outcome.failures.push((config.inputs[input_idx].clone(), e)),
        }
    }
    // Keep diagnostics in input order even when reads and compiles fail
    // for different files.
    outcome
        .failures
        .sort_by_key(|(path, _)| config.inputs.iter().position(|p| p == path));
    Ok(outcome)
}

/// Interrupt flag shared with the signal handlers: SIGTERM/SIGINT set
/// it, the serving dispatcher checks it and switches to the graceful
/// drain sequence (stop accepting → drain → final snapshot → exit).
static SHUTDOWN_SIGNAL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only an atomic store: the handler must stay async-signal-safe.
    SHUTDOWN_SIGNAL.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT to [`SHUTDOWN_SIGNAL`]. Declared directly
/// against libc (which std already links) so the build stays
/// dependency-free; on non-unix targets this is a no-op and only stdin
/// EOF triggers the drain.
fn install_shutdown_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_shutdown_signal as *const () as usize);
            signal(SIGTERM, on_shutdown_signal as *const () as usize);
        }
    }
}

/// Serve mode (`gmcc --serve <path|->` or `gmcc --listen <addr>`):
/// front a [`gmc_serve::CompileService`] with JSONL requests, one
/// response line per request (see [`gmc_serve::jsonl`] for the wire
/// format). With `--listen` the daemon accepts unix/TCP connections;
/// otherwise the request file or stdin plus stdout are connection 0 of
/// the same dispatcher ([`gmc_serve::transport::Front::Stdio`]), which
/// reads the request stream itself (stdin through a duplicate of its
/// descriptor, left blocking), so a response is written the moment its
/// shard finishes. `--jobs` sets the shard count, `--cache-cap` bounds
/// each shard's compiled-chain cache, and `--persist FILE` makes
/// restarts warm: the snapshot is loaded on start (if present; a
/// corrupt file is quarantined to `<path>.bad`) and rewritten
/// atomically on shutdown. `--deadline-ms` and `--queue-cap` set the
/// admission-control defaults; `--max-line-bytes` bounds input lines.
/// Faults are armed only at start-up, from the `GMC_FAULT` environment
/// variable (a malformed spec refuses to start). The C++ runtime header
/// is attached to the first response of each connection that carries a
/// `.cpp` artifact.
///
/// Observability: `{"op":"metrics"}` returns per-shard latency
/// histograms and counters in-band; `--metrics-file FILE` dumps the
/// same snapshot as Prometheus text exposition on drain and on every
/// metrics request; `--slow-ms MS` logs requests slower than `MS`
/// milliseconds end-to-end to stderr with a per-stage breakdown (when
/// tracing is on).
///
/// Input ends on EOF (stdio) or on SIGTERM/SIGINT; both run the same
/// graceful drain: stop accepting, answer everything in flight, write
/// the final snapshot and metrics dump, exit. A closed stdout ends the
/// stdio session too, writing off what is still in flight.
///
/// Returns `(requests, failed requests)`; request failures are reported
/// in-band as `"ok":false` response lines with a typed `kind`, so the
/// daemon itself exits zero unless the transport or snapshot is broken.
///
/// # Errors
///
/// Returns [`DriverError`] for transport-level problems: an unreadable
/// request source or unbindable address, an incompatible snapshot, or a
/// malformed `GMC_FAULT` spec.
pub fn run_serve(config: &DriverConfig) -> Result<(u64, u64), DriverError> {
    use gmc_serve::fault::FaultPlan;
    use gmc_serve::transport::{self, Front, ListenAddr, SocketListener, TransportOptions};
    use gmc_serve::{CompileService, ServeConfig};

    let faults = FaultPlan::from_env().map_err(DriverError::Usage)?;
    if faults.is_armed() {
        eprintln!(
            "gmcc --serve: fault injection armed from {}",
            gmc_serve::fault::FAULT_ENV
        );
    }
    install_shutdown_handlers();
    let service = CompileService::start(ServeConfig {
        shards: config.jobs,
        options: compile_options(config),
        cache_capacity: config.cache_cap,
        snapshot_path: config.persist.clone(),
        snapshot_keep: config.persist_keep,
        queue_cap: config.queue_cap,
        default_deadline: config.deadline_ms.map(std::time::Duration::from_millis),
        restart: gmc_serve::RestartPolicy::default(),
        faults,
        slow_request: config.slow_ms.map(std::time::Duration::from_millis),
    })
    .map_err(|e| DriverError::Compile(e.to_string()))?;

    let options = TransportOptions {
        default_emit: config.emit,
        max_line_bytes: config.max_line_bytes,
        metrics_file: config.metrics_file.clone(),
        conn_in_flight_cap: config.conn_in_flight_cap,
        max_conns: config.max_conns,
        idle_timeout: config.idle_timeout_ms.map(std::time::Duration::from_millis),
    };
    // One dispatcher either way: `--listen` accepts socket connections,
    // otherwise the request source and stdout are its connection 0.
    let (front, source) = match &config.listen {
        Some(listen) => {
            let addr = ListenAddr::parse(listen);
            let label = PathBuf::from(addr.to_string());
            let listener =
                SocketListener::bind(&addr).map_err(|e| DriverError::Io(label.clone(), e))?;
            eprintln!("gmcc --serve: listening on {}", listener.local_addr());
            (Front::Listen(listener), label)
        }
        None => {
            let source = PathBuf::from(config.serve.as_deref().unwrap_or("-"));
            // Stdin is read through a duplicate of its descriptor, which
            // the dispatcher polls and never sets non-blocking.
            let input = if source == Path::new("-") {
                std::io::stdin()
                    .as_fd()
                    .try_clone_to_owned()
                    .map(File::from)
            } else {
                File::open(&source)
            }
            .map_err(|e| DriverError::Io(source.clone(), e))?;
            let output = Box::new(std::io::stdout());
            (Front::Stdio { input, output }, source)
        }
    };
    let sockets = matches!(front, Front::Listen(_));
    let (mut service, report) = transport::serve_front(front, service, options, &SHUTDOWN_SIGNAL)
        .map_err(|e| DriverError::Io(source, e))?;
    // The drain answered everything in flight; persist the final
    // snapshot atomically so the next start is warm.
    if let Some(path) = &config.persist {
        service
            .save_snapshot(path)
            .map_err(|e| DriverError::Compile(e.to_string()))?;
    }
    // Final Prometheus dump: everything the service recorded, including
    // the drained tail (and, on sockets, the transport counters).
    if let Some(path) = &config.metrics_file {
        let mut text = service.metrics().to_prometheus();
        if sockets {
            report.snapshot.write_prometheus(&mut text);
        }
        std::fs::write(path, text).map_err(|e| DriverError::Io(path.clone(), e))?;
    }
    let stats = service.shutdown();
    eprintln!(
        "gmcc --serve: {} request(s) over {} connection(s), {} failed, {} shard(s), \
         {} cache hit(s), {} restored from snapshot, {} panic(s) caught, {} restart(s)",
        report.requests,
        report.accepted,
        report.failures,
        stats.shards.len(),
        stats.cache_hits(),
        stats.restored(),
        stats.panics(),
        stats.restarts(),
    );
    Ok((report.requests, report.failures))
}

/// The explicit `"id":N` field of a JSONL request or response line, if
/// it has one.
fn jsonl_id(line: &str) -> Option<u64> {
    let rest = line[line.find("\"id\":")? + 5..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a `"ok":false` response line carries a retryable failure
/// kind (shedding, deadline, panic, down shard — transient daemon
/// states an identical resend can outlive).
fn retryable_response(line: &str) -> bool {
    let kind = line
        .split("\"kind\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next());
    matches!(
        kind,
        Some("overloaded" | "deadline_exceeded" | "shard_panic" | "shard_down")
    )
}

/// Jittered capped exponential backoff before resending request `id`
/// for the `attempt`-th time (1-based): base 10 ms doubling to a 200 ms
/// cap, with the actual sleep drawn deterministically from
/// `[cap/2, cap]` by hashing `(id, attempt)` — concurrent clients
/// retrying the same shed burst decorrelate without a shared RNG.
fn retry_backoff(id: u64, attempt: u32) -> std::time::Duration {
    let cap = (10u64 << attempt.min(5)).min(200);
    let hash = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03));
    std::time::Duration::from_millis(cap / 2 + hash % (cap / 2 + 1))
}

/// Client mode (`gmcc --connect <addr> [requests.jsonl|-]`): connect to
/// a listening daemon, pipeline every request line from the input file
/// (or stdin) without waiting for responses, and print each response
/// line to stdout as it arrives (completion order — match them to
/// requests by `id`). Responses with a retryable failure kind
/// (`overloaded` from admission control, `deadline_exceeded`,
/// `shard_panic`, `shard_down`) are resent up to `--retry` times with
/// jittered capped backoff instead of being printed, so shed traffic
/// converges; only requests carrying an explicit `id` participate
/// (positional ids shift on resend). Once every request has a final
/// response the socket is half-closed. Returns `(responses, failures)`
/// counting final responses only.
///
/// # Errors
///
/// Returns [`DriverError`] for connect/transport failures, including a
/// daemon that closes the connection before every request has its
/// final response (the responses that did arrive are printed first);
/// request failures come back in-band as `"ok":false` lines.
pub fn run_connect(config: &DriverConfig) -> Result<(u64, u64), DriverError> {
    use gmc_serve::transport::{ListenAddr, SocketStream};
    use std::io::{BufRead, BufReader, Write};

    let addr = ListenAddr::parse(
        config
            .connect
            .as_deref()
            .expect("client mode requires --connect"),
    );
    let addr_path = PathBuf::from(addr.to_string());
    let stream = SocketStream::connect(&addr).map_err(|e| DriverError::Io(addr_path.clone(), e))?;
    let mut write_half = stream
        .try_clone()
        .map_err(|e| DriverError::Io(addr_path.clone(), e))?;
    // Responses arrive on their own thread so a deep pipeline can't
    // deadlock on a full socket buffer; the main thread owns stdout,
    // the retry bookkeeping, and the write half.
    let (lines_tx, lines_rx) = std::sync::mpsc::channel::<String>();
    let reader_thread = std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if lines_tx.send(std::mem::take(&mut line)).is_err() {
                        break;
                    }
                }
            }
        }
    });
    let input: Box<dyn BufRead> = match config.inputs.first() {
        Some(path) if path != Path::new("-") => {
            let file = std::fs::File::open(path).map_err(|e| DriverError::Io(path.clone(), e))?;
            Box::new(BufReader::new(file))
        }
        _ => Box::new(BufReader::new(std::io::stdin())),
    };
    // Requests with an explicit id are kept around for resending.
    let mut sent: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    let mut outstanding = 0u64;
    for line in input.lines() {
        let line = line.map_err(|e| DriverError::Io(PathBuf::from("<requests>"), e))?;
        if line.trim().is_empty() {
            continue;
        }
        write_half
            .write_all(line.as_bytes())
            .and_then(|()| write_half.write_all(b"\n"))
            .map_err(|e| DriverError::Io(addr_path.clone(), e))?;
        outstanding += 1;
        if config.retry > 0 {
            if let Some(id) = jsonl_id(&line) {
                sent.insert(id, line);
            }
        }
    }
    write_half
        .flush()
        .map_err(|e| DriverError::Io(addr_path.clone(), e))?;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut attempts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let (mut responses, mut failures, mut retried) = (0u64, 0u64, 0u64);
    while outstanding > 0 {
        let Ok(line) = lines_rx.recv() else {
            break; // the daemon hung up early: reported below
        };
        let id = jsonl_id(&line);
        if line.contains("\"ok\":false") && retryable_response(&line) {
            if let Some(request) = id.filter(|i| sent.contains_key(i)).map(|i| &sent[&i]) {
                let attempt = attempts.entry(id.unwrap_or(0)).or_insert(0);
                if *attempt < config.retry {
                    *attempt += 1;
                    std::thread::sleep(retry_backoff(id.unwrap_or(0), *attempt));
                    let resent = write_half
                        .write_all(request.as_bytes())
                        .and_then(|()| write_half.write_all(b"\n"))
                        .and_then(|()| write_half.flush());
                    if resent.is_ok() {
                        retried += 1;
                        continue; // withhold the failure; await the retry's response
                    }
                    // The daemon hung up: fall through and report the
                    // failure we were about to swallow.
                }
            }
        }
        responses += 1;
        if line.contains("\"ok\":false") {
            failures += 1;
        }
        out.write_all(line.as_bytes())
            .map_err(|e| DriverError::Io(PathBuf::from("<stdout>"), e))?;
        outstanding -= 1;
    }
    out.flush()
        .map_err(|e| DriverError::Io(PathBuf::from("<stdout>"), e))?;
    // Every request has a final response (or the daemon hung up):
    // half-close so the daemon drains the connection.
    let _ = write_half.shutdown_write();
    drop(lines_rx);
    reader_thread.join().expect("reader thread panicked");
    if retried > 0 {
        eprintln!("gmcc --connect: {retried} retryable failure(s) resent with backoff");
    }
    if outstanding > 0 {
        return Err(DriverError::Io(
            addr_path,
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "the daemon closed the connection before {outstanding} response(s) arrived"
                ),
            ),
        ));
    }
    Ok((responses, failures))
}

/// Usage text for `gmcc --help`.
#[must_use]
pub fn usage() -> &'static str {
    "gmcc — code generator for generalized matrix chains with symbolic sizes

USAGE:
    gmcc <input.gmc>... [--out DIR] [--name IDENT] [--emit cpp|rust|both]
         [--expand K] [--train N] [--jobs N] [--report] [--timings]
    gmcc --serve <requests.jsonl|-> [--jobs SHARDS] [--cache-cap N]
         [--persist FILE] [--persist-keep K] [--deadline-ms MS]
         [--queue-cap N] [--max-line-bytes N] [--metrics-file FILE]
         [--slow-ms MS] [--emit cpp|rust|both] [--expand K] [--train N]
    gmcc --listen <unix:PATH|tcp:HOST:PORT> [same flags as --serve]
         [--conn-in-flight-cap N] [--max-conns N] [--idle-timeout-ms MS]
    gmcc --connect <unix:PATH|tcp:HOST:PORT> [requests.jsonl|-] [--retry N]

Multiple inputs compile as one batch ( --jobs N splits it across N
worker threads; artifacts are identical for every N). A failing input
is reported per file and exits nonzero, but the rest of the batch still
emits. Each input file uses the grammar of Fig. 2 of the paper:

    Matrix A <General, Singular>;
    Matrix L <LowerTri, NonSingular>;
    X := A * L^-1;

With --serve, gmcc becomes a sharded compile service: each line of the
request source is a JSON object like
    {\"id\": 1, \"name\": \"x\", \"emit\": \"both\", \"source\": \"...\"}
and each response is streamed back as one JSON line. --jobs sets the
shard count. Requests route by power-of-two-choices over live queue
depths: each shape has a stable cache-warm home shard and routes there
unless its queue is markedly deeper than the shape's alternate.
--persist FILE snapshots the compiled-chain caches on shutdown and
restores them on the next start; --persist-keep K rotates the last K
snapshot generations (FILE, FILE.1, ...) and startup warms from the
newest one that decodes, quarantining corrupt generations to FILE.bad.
Shards are supervised: a panicking shard restarts warm from the latest
snapshot, with a circuit breaker after repeated failures. --queue-cap
bounds each shard's queue (overflow is shed with an in-band
`overloaded` error), --deadline-ms sets the default per-request
deadline (requests may override it with a `deadline_ms` field), and
--max-line-bytes bounds request lines.
SIGTERM/SIGINT or EOF drain gracefully: in-flight requests are
answered and the final snapshot is written before exit. A line of
{\"op\": \"stats\"} returns per-shard cache counters of the
requests answered so far, {\"op\": \"health\"} per-shard liveness,
latency p99s, and robustness counters, {\"op\": \"metrics\"} full
per-shard latency histograms and counters; any other op is answered
with an in-band bad_request. Fault injection is armed only at startup,
from the GMC_FAULT environment variable. The daemon reads stdin itself,
in its one dispatcher thread.

With --listen, the same daemon serves a Unix-domain or TCP socket
instead of stdin: many clients connect concurrently, each may pipeline
requests without waiting, and responses come back on the submitting
connection in completion order, matched by id (ids are per-connection;
requests without one get their 1-based position in that connection's
stream). {\"op\": \"health\"} and {\"op\": \"metrics\"} responses
additionally carry a `transport` object (open/accepted/closed
connections, per-connection in-flight), and the Prometheus dump gains
a gmc_connections gauge. The socket daemon applies end-to-end
backpressure: --conn-in-flight-cap N (default 64, 0 = off) sheds a
connection's requests over N outstanding with a retryable `overloaded`
error; each connection's outbound buffer holds 256 lines, and a
client that lets it fill, or that accepts no bytes for 2 s, is closed
with its in-flight work written off (late shard replies are dropped
and counted); a connection with more than 8 MiB unsent is not read
until it drains; --max-conns N refuses connections beyond N with one
typed line; --idle-timeout-ms MS reaps connections with zero
in-flight. gmcc --connect ADDR [FILE|-]
is the matching client: it pipelines FILE's request lines over one
connection and prints each response line to stdout; retryable
failures (overloaded, deadline_exceeded, shard_panic, shard_down) are
resent up to --retry N times (default 3, 0 = off) with jittered
capped backoff before the failure is surfaced, so shed traffic
converges instead of failing. If the daemon hangs up before every
request is answered, the client prints what arrived and exits 1.

Observability: --timings prints a per-stage timing breakdown (parse,
enumerate, dp, select, expand, emit) for each input after its variant
report. In serve mode, --metrics-file FILE dumps service metrics as
Prometheus text exposition on drain and on every {\"op\":
\"metrics\"} request, and --slow-ms MS logs requests slower than MS
milliseconds end-to-end to stderr with their stage breakdown. Session
tracing defaults on; GMC_TRACE=off disables the stage spans (request
histograms stay live).
"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(extra: &[&str]) -> DriverConfig {
        let mut args: Vec<String> = vec!["in.gmc".into()];
        args.extend(extra.iter().map(|s| s.to_string()));
        parse_args(&args).unwrap()
    }

    const SRC: &str = "
        Matrix A <General, Singular>;
        Matrix L <LowerTri, NonSingular>;
        Matrix B <General, Singular>;
        X := A * L^-1 * B;
    ";

    const SRC2: &str = "
        Matrix H <General, Singular>;
        Matrix P <Symmetric, SPD>;
        Y := H * P^-1;
    ";

    /// Compile `sources` as one batch and unwrap every entry.
    fn compile_all(sources: &[&str], config: &DriverConfig) -> Vec<CompiledArtifacts> {
        let sources: Vec<String> = sources.iter().map(|s| s.to_string()).collect();
        compile_batch_results(&sources, config)
            .into_iter()
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn arg_parsing() {
        let c = cfg(&[
            "--emit",
            "both",
            "--expand",
            "2",
            "--name",
            "foo",
            "--report",
            "--jobs",
            "3",
            "--timings",
        ]);
        assert_eq!(c.emit, Emit::Both);
        assert_eq!(c.expand, 2);
        assert_eq!(c.name.as_deref(), Some("foo"));
        assert_eq!(c.jobs, 3);
        assert!(c.report);
        assert!(c.timings);
        assert_eq!(c.inputs, vec![PathBuf::from("in.gmc")]);
    }

    #[test]
    fn multiple_inputs_accepted() {
        let c = parse_args(&["a.gmc".into(), "b.gmc".into(), "c.gmc".into()]).unwrap();
        assert_eq!(c.inputs.len(), 3);
    }

    #[test]
    fn missing_input_is_usage_error() {
        assert!(matches!(
            parse_args(&["--report".to_string()]),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn bad_jobs_rejected() {
        assert!(matches!(
            parse_args(&["in.gmc".into(), "--jobs".into(), "0".into()]),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(matches!(
            parse_args(&["in.gmc".into(), "--frobnicate".into()]),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn compiles_to_cpp_and_rust() {
        let c = cfg(&["--emit", "both", "--train", "100"]);
        let (files, report) = compile_all(&[SRC], &c).remove(0);
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x.cpp", "gmc_runtime.hpp", "x.rs"]);
        assert!(report.contains("variant 0"));
        assert!(files[0].1.contains("void x("));
        assert!(files[2].1.contains("pub fn x("));
    }

    #[test]
    fn timings_append_stage_breakdown_to_report() {
        let c = cfg(&["--emit", "both", "--train", "60", "--timings"]);
        let (_, report) = compile_all(&[SRC], &c).remove(0);
        assert!(report.contains("variant 0"), "variant report still leads");
        assert!(
            report.contains("timings chain"),
            "stage breakdown appended: {report}"
        );
        for stage in ["enumerate", "select", "emit"] {
            assert!(report.contains(stage), "stage `{stage}` missing: {report}");
        }
        // Without the flag, no breakdown rides along.
        let c = cfg(&["--emit", "both", "--train", "60"]);
        let (_, report) = compile_all(&[SRC], &c).remove(0);
        assert!(!report.contains("timings chain"));
    }

    #[test]
    fn parse_errors_are_reported() {
        let c = cfg(&[]);
        let source = "Matrix A <General, Singular>; X := B;".to_string();
        let err = compile_batch_results(&[source], &c).remove(0).unwrap_err();
        assert!(err.to_string().contains("undefined matrix"));
    }

    #[test]
    fn batch_compiles_multiple_programs() {
        let c = cfg(&["--emit", "cpp", "--train", "50"]);
        let items = compile_all(&[SRC, SRC2], &c);
        assert_eq!(items.len(), 2);
        let names0: Vec<&str> = items[0].0.iter().map(|(n, _)| n.as_str()).collect();
        let names1: Vec<&str> = items[1].0.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names0, vec!["x.cpp", "gmc_runtime.hpp"]);
        assert_eq!(names1, vec!["y.cpp"], "runtime header emitted once");
    }

    #[test]
    fn batch_jobs_produce_identical_artifacts() {
        let serial = cfg(&["--emit", "both", "--train", "60"]);
        let mut parallel = serial.clone();
        parallel.jobs = 3;
        // The repeat's name must uniquify to x_2.
        let sources = [SRC, SRC2, SRC];
        let a = compile_all(&sources, &serial);
        let b = compile_all(&sources, &parallel);
        assert_eq!(a.len(), b.len());
        for ((fa, ra), (fb, rb)) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
            assert_eq!(ra, rb);
        }
        let last: Vec<&str> = a[2].0.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(last, vec!["x_2.cpp", "x_2.rs"]);
    }

    #[test]
    fn name_uniquification_avoids_literal_suffix_collisions() {
        // Two programs named X plus one literally named X_2: the second X
        // must skip past the taken x_2 to x_3.
        let src_x2 = "
            Matrix H <General, Singular>;
            Matrix P <Symmetric, SPD>;
            X_2 := H * P^-1;
        ";
        let c = cfg(&["--emit", "rust", "--train", "40"]);
        let items = compile_all(&[SRC, src_x2, SRC], &c);
        let names: Vec<&str> = items
            .iter()
            .flat_map(|(files, _)| files.iter().map(|(n, _)| n.as_str()))
            .collect();
        assert_eq!(names, vec!["x.rs", "x_2.rs", "x_3.rs"]);
    }

    #[test]
    fn end_to_end_writes_files() {
        let dir = std::env::temp_dir().join("gmcc_test_out");
        let _ = std::fs::remove_dir_all(&dir);
        let input = dir.join("chain.gmc");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&input, SRC).unwrap();
        let config = parse_args(&[
            input.to_string_lossy().into_owned(),
            "--out".into(),
            dir.to_string_lossy().into_owned(),
            "--emit".into(),
            "cpp".into(),
            "--train".into(),
            "50".into(),
        ])
        .unwrap();
        let outcome = run(&config).unwrap();
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.written.len(), 2);
        assert!(outcome.written.iter().all(|p| p.exists()));
    }

    #[test]
    fn end_to_end_batch_with_jobs() {
        let dir = std::env::temp_dir().join("gmcc_test_out_batch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let in1 = dir.join("one.gmc");
        let in2 = dir.join("two.gmc");
        std::fs::write(&in1, SRC).unwrap();
        std::fs::write(&in2, SRC2).unwrap();
        let config = parse_args(&[
            in1.to_string_lossy().into_owned(),
            in2.to_string_lossy().into_owned(),
            "--out".into(),
            dir.to_string_lossy().into_owned(),
            "--emit".into(),
            "both".into(),
            "--train".into(),
            "50".into(),
            "--jobs".into(),
            "2".into(),
        ])
        .unwrap();
        let outcome = run(&config).unwrap();
        assert!(outcome.failures.is_empty());
        // x.cpp, gmc_runtime.hpp, x.rs, y.cpp, y.rs
        assert_eq!(outcome.written.len(), 5);
        assert!(outcome.written.iter().all(|p| p.exists()));
    }

    #[test]
    fn batch_results_report_each_failure_without_stopping() {
        let c = cfg(&["--emit", "cpp", "--train", "40"]);
        let sources = vec![
            SRC.to_string(),
            "Matrix A <General, Singular>; X := B;".to_string(), // undefined B
            SRC2.to_string(),
        ];
        let results = compile_batch_results(&sources, &c);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok(), "healthy input before the failure");
        assert!(results[1]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("undefined matrix"));
        let after: Vec<&str> = results[2]
            .as_ref()
            .unwrap()
            .0
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(after, vec!["y.cpp"], "input after the failure still emits");
    }

    #[test]
    fn end_to_end_batch_emits_successes_and_exits_dirty() {
        let dir = std::env::temp_dir().join("gmcc_test_out_hardened");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.gmc");
        let bad = dir.join("bad.gmc");
        let missing = dir.join("missing.gmc");
        std::fs::write(&good, SRC).unwrap();
        std::fs::write(&bad, "Matrix A <General, Singular>; X := B;").unwrap();
        let config = parse_args(&[
            good.to_string_lossy().into_owned(),
            bad.to_string_lossy().into_owned(),
            missing.to_string_lossy().into_owned(),
            "--out".into(),
            dir.to_string_lossy().into_owned(),
            "--emit".into(),
            "cpp".into(),
            "--train".into(),
            "40".into(),
        ])
        .unwrap();
        let outcome = run(&config).unwrap();
        // The good program's artifacts exist despite two sick siblings.
        assert_eq!(outcome.written.len(), 2, "x.cpp + runtime header");
        assert!(outcome.written.iter().all(|p| p.exists()));
        // Each failure is tagged with its own input path, in input order.
        assert_eq!(outcome.failures.len(), 2);
        assert_eq!(outcome.failures[0].0, bad);
        assert!(outcome.failures[0]
            .1
            .to_string()
            .contains("undefined matrix"));
        assert_eq!(outcome.failures[1].0, missing);
        assert!(matches!(outcome.failures[1].1, DriverError::Io(..)));
    }

    #[test]
    fn serve_flags_parse() {
        let c = parse_args(&[
            "--serve".into(),
            "-".into(),
            "--jobs".into(),
            "3".into(),
            "--cache-cap".into(),
            "17".into(),
            "--persist".into(),
            "snap.txt".into(),
            "--deadline-ms".into(),
            "250".into(),
            "--queue-cap".into(),
            "8".into(),
            "--max-line-bytes".into(),
            "4096".into(),
            "--metrics-file".into(),
            "metrics.prom".into(),
            "--slow-ms".into(),
            "75".into(),
        ])
        .unwrap();
        assert_eq!(c.serve.as_deref(), Some("-"));
        assert_eq!(c.jobs, 3);
        assert_eq!(c.cache_cap, 17);
        assert_eq!(c.persist, Some(PathBuf::from("snap.txt")));
        assert_eq!(c.deadline_ms, Some(250));
        assert_eq!(c.queue_cap, 8);
        assert_eq!(c.max_line_bytes, 4096);
        assert_eq!(c.metrics_file, Some(PathBuf::from("metrics.prom")));
        assert_eq!(c.slow_ms, Some(75));
        assert!(c.inputs.is_empty(), "serve mode needs no inputs");
        // A zero slow threshold would log every request; rejected.
        assert!(matches!(
            parse_args(&["--serve".into(), "-".into(), "--slow-ms".into(), "0".into()]),
            Err(DriverError::Usage(_))
        ));
        // Zero deadlines/queues make no sense and are rejected.
        assert!(matches!(
            parse_args(&[
                "--serve".into(),
                "-".into(),
                "--queue-cap".into(),
                "0".into()
            ]),
            Err(DriverError::Usage(_))
        ));
        assert!(matches!(
            parse_args(&[
                "--serve".into(),
                "-".into(),
                "--deadline-ms".into(),
                "0".into()
            ]),
            Err(DriverError::Usage(_))
        ));
        // Without --serve, missing inputs stay an error.
        assert!(matches!(
            parse_args(&["--cache-cap".into(), "9".into()]),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn serve_end_to_end_streams_jsonl_and_persists() {
        let dir = std::env::temp_dir().join("gmcc_serve_e2e");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let snapshot = dir.join("cache.snap");
        let src = SRC.replace('\n', " ");
        std::fs::write(
            &requests,
            format!(
                "{{\"id\": 1, \"emit\": \"both\", \"source\": \"{src}\"}}\n\
                 {{\"id\": 2, \"source\": \"not a program\"}}\n\
                 {{\"id\": 3, \"source\": \"{src}\"}}\n"
            ),
        )
        .unwrap();
        let config = parse_args(&[
            "--serve".into(),
            requests.to_string_lossy().into_owned(),
            "--jobs".into(),
            "2".into(),
            "--train".into(),
            "40".into(),
            "--persist".into(),
            snapshot.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let (requests_seen, failures) = run_serve(&config).unwrap();
        assert_eq!((requests_seen, failures), (3, 1));
        // The snapshot persisted the one distinct shape for warm restarts.
        let text = std::fs::read_to_string(&snapshot).unwrap();
        assert!(text.starts_with("gmc-session-snapshot v1"));
        assert_eq!(text.matches("\nshape ").count(), 1);
        let (_, failures_again) = run_serve(&config).unwrap();
        assert_eq!(failures_again, 1, "restart serves the same stream");
    }

    #[test]
    fn serve_answers_stats_op_in_band() {
        let dir = std::env::temp_dir().join("gmcc_serve_stats_op");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let src = SRC.replace('\n', " ");
        // Two compiles of the same shape, then a stats query, then an
        // unknown op: 4 request lines, 1 in-band failure.
        std::fs::write(
            &requests,
            format!(
                "{{\"id\": 1, \"source\": \"{src}\"}}\n\
                 {{\"id\": 2, \"source\": \"{src}\"}}\n\
                 {{\"id\": 3, \"op\": \"stats\"}}\n\
                 {{\"id\": 4, \"op\": \"frobnicate\"}}\n"
            ),
        )
        .unwrap();
        let config = parse_args(&[
            "--serve".into(),
            requests.to_string_lossy().into_owned(),
            "--jobs".into(),
            "2".into(),
            "--train".into(),
            "40".into(),
        ])
        .unwrap();
        let (requests_seen, failures) = run_serve(&config).unwrap();
        assert_eq!(
            (requests_seen, failures),
            (4, 1),
            "unknown op fails in-band"
        );
    }

    #[test]
    fn serve_bounds_line_length_and_answers_health_in_band() {
        let dir = std::env::temp_dir().join("gmcc_serve_bounded_lines");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let src = SRC.replace('\n', " ");
        // An oversized line, a non-UTF-8 line, a health query, and a
        // healthy compile: 4 requests, 2 in-band failures, and the
        // stream stays in sync past both bad lines.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            format!("{{\"id\": 1, \"source\": \"{:65000}\"}}\n", "x").as_bytes(),
        );
        bytes.extend_from_slice(b"{\"id\": 2, \"source\": \"\xff\xfe bad\"}\n");
        bytes.extend_from_slice(b"{\"id\": 3, \"op\": \"health\"}\n");
        bytes.extend_from_slice(format!("{{\"id\": 4, \"source\": \"{src}\"}}\n").as_bytes());
        std::fs::write(&requests, bytes).unwrap();
        let config = parse_args(&[
            "--serve".into(),
            requests.to_string_lossy().into_owned(),
            "--train".into(),
            "40".into(),
            "--max-line-bytes".into(),
            "4096".into(),
        ])
        .unwrap();
        let (requests_seen, failures) = run_serve(&config).unwrap();
        assert_eq!((requests_seen, failures), (4, 2));
    }

    #[test]
    fn serve_metrics_op_answers_in_band_and_dumps_prometheus() {
        let dir = std::env::temp_dir().join("gmcc_serve_metrics_op");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let prom = dir.join("metrics.prom");
        let src = SRC.replace('\n', " ");
        std::fs::write(
            &requests,
            format!(
                "{{\"id\": 1, \"source\": \"{src}\"}}\n\
                 {{\"id\": 2, \"source\": \"{src}\"}}\n\
                 {{\"id\": 3, \"op\": \"metrics\"}}\n"
            ),
        )
        .unwrap();
        let config = parse_args(&[
            "--serve".into(),
            requests.to_string_lossy().into_owned(),
            "--jobs".into(),
            "2".into(),
            "--train".into(),
            "40".into(),
            "--metrics-file".into(),
            prom.to_string_lossy().into_owned(),
            "--slow-ms".into(),
            "60000".into(), // threshold no test compile reaches
        ])
        .unwrap();
        let (requests_seen, failures) = run_serve(&config).unwrap();
        assert_eq!((requests_seen, failures), (3, 0), "metrics op succeeds");
        // The drain rewrote the dump with every recorded request.
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE gmc_requests_total counter"), "{text}");
        let total: u64 = (0..2)
            .map(|s| {
                text.lines()
                    .find_map(|l| l.strip_prefix(&format!("gmc_requests_total{{shard=\"{s}\"}} ")))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 2, "both compiles recorded across shards: {text}");
        assert!(
            text.contains("# TYPE gmc_request_seconds histogram"),
            "{text}"
        );
        assert!(text.contains("gmc_request_seconds_bucket{"), "{text}");
    }

    /// Faults arm only at start-up: `--enable-faults` is a usage error
    /// like any unknown flag, and a `{"op":"fault"}` line is answered
    /// in band like any unknown op and arms nothing — the `panic:0:1`
    /// it carries would fail the compile after it.
    #[test]
    fn serve_fault_op_is_an_unknown_op_and_arms_nothing() {
        assert!(matches!(
            parse_args(&["--serve".into(), "-".into(), "--enable-faults".into()]),
            Err(DriverError::Usage(_))
        ));
        let dir = std::env::temp_dir().join("gmcc_serve_fault_op");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let src = SRC.replace('\n', " ");
        std::fs::write(
            &requests,
            format!(
                "{{\"id\": 1, \"op\": \"fault\", \"spec\": \"panic:0:1\"}}\n\
                 {{\"id\": 2, \"source\": \"{src}\"}}\n"
            ),
        )
        .unwrap();
        let config = parse_args(&[
            "--serve".into(),
            requests.to_string_lossy().into_owned(),
            "--train".into(),
            "40".into(),
        ])
        .unwrap();
        assert_eq!(
            run_serve(&config).unwrap(),
            (2, 1),
            "the fault op fails in band; the compile after it succeeds"
        );
    }

    #[test]
    fn backpressure_and_client_flags_parse() {
        let c = parse_args(&[
            "--listen".into(),
            "unix:/tmp/gmc.sock".into(),
            "--conn-in-flight-cap".into(),
            "8".into(),
            "--max-conns".into(),
            "2".into(),
            "--idle-timeout-ms".into(),
            "500".into(),
        ])
        .unwrap();
        assert_eq!(c.conn_in_flight_cap, 8);
        assert_eq!(c.max_conns, 2);
        assert_eq!(c.idle_timeout_ms, Some(500));
        // Defaults: cap on at 64, no conn limit, no idle reaping, 3 retries.
        let d = parse_args(&["--listen".into(), "unix:/tmp/gmc.sock".into()]).unwrap();
        assert_eq!(d.conn_in_flight_cap, 64);
        assert_eq!(d.max_conns, 0);
        assert_eq!(d.idle_timeout_ms, None);
        assert_eq!(d.retry, 3);
        // 0 disables the cap and retries explicitly; a zero idle
        // timeout would reap every connection and is rejected.
        let z = parse_args(&[
            "--listen".into(),
            "unix:/tmp/gmc.sock".into(),
            "--conn-in-flight-cap".into(),
            "0".into(),
        ])
        .unwrap();
        assert_eq!(z.conn_in_flight_cap, 0);
        let r = parse_args(&[
            "--connect".into(),
            "unix:/tmp/gmc.sock".into(),
            "--retry".into(),
            "0".into(),
        ])
        .unwrap();
        assert_eq!(r.retry, 0);
        assert!(matches!(
            parse_args(&[
                "--listen".into(),
                "unix:/tmp/gmc.sock".into(),
                "--idle-timeout-ms".into(),
                "0".into()
            ]),
            Err(DriverError::Usage(_))
        ));
    }

    #[test]
    fn retry_helpers_classify_and_bound() {
        assert_eq!(jsonl_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(jsonl_id("{\"id\": 7, \"source\": \"...\"}"), Some(7));
        assert_eq!(jsonl_id("{\"ok\":true}"), None);
        assert!(retryable_response(
            "{\"id\":1,\"ok\":false,\"kind\":\"overloaded\",\"error\":\"x\"}"
        ));
        assert!(retryable_response(
            "{\"id\":1,\"ok\":false,\"kind\":\"shard_panic\",\"error\":\"x\"}"
        ));
        assert!(!retryable_response(
            "{\"id\":1,\"ok\":false,\"kind\":\"parse\",\"error\":\"x\"}"
        ));
        assert!(!retryable_response("{\"id\":1,\"ok\":false}"));
        for id in 0..20u64 {
            for attempt in 1..=8u32 {
                let d = retry_backoff(id, attempt).as_millis() as u64;
                let cap = (10u64 << attempt.min(5)).min(200);
                assert!(d >= cap / 2 && d <= cap, "backoff in [cap/2, cap]");
            }
        }
        // Jitter actually varies across ids (decorrelated retries).
        let spread: std::collections::HashSet<u128> = (0..50u64)
            .map(|id| retry_backoff(id, 3).as_millis())
            .collect();
        assert!(spread.len() > 10, "ids decorrelate: {spread:?}");
    }

    /// End to end: a daemon that severs the connection before every
    /// pipelined request is answered makes the client fail, not exit
    /// clean with part of its responses.
    #[test]
    fn connect_fails_when_the_daemon_hangs_up_early() {
        use gmc_serve::transport::{self, Front, ListenAddr, SocketListener, TransportOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join("gmcc_connect_hangup_e2e");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("gmc.sock");
        let requests = dir.join("requests.jsonl");
        let src = SRC.replace('\n', " ");
        std::fs::write(
            &requests,
            format!(
                "{{\"id\": 1, \"source\": \"{src}\"}}\n\
                 {{\"id\": 2, \"source\": \"{src}\"}}\n\
                 {{\"id\": 3, \"source\": \"{src}\"}}\n"
            ),
        )
        .unwrap();

        // The daemon severs connection 1 in place of its second response.
        let service = gmc_serve::CompileService::start(gmc_serve::ServeConfig {
            options: gmc_core::CompileOptions {
                training_instances: 40,
                ..gmc_core::CompileOptions::default()
            },
            faults: gmc_serve::fault::FaultPlan::parse("conn_drop:1:2").unwrap(),
            ..gmc_serve::ServeConfig::default()
        })
        .unwrap();
        let listener = SocketListener::bind(&ListenAddr::Unix(sock.clone())).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let serve_shutdown = Arc::clone(&shutdown);
        let daemon = std::thread::spawn(move || {
            let options = TransportOptions::default();
            transport::serve_front(Front::Listen(listener), service, options, &serve_shutdown)
        });

        let config = parse_args(&[
            "--connect".into(),
            format!("unix:{}", sock.display()),
            requests.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let err = run_connect(&config).expect_err("two responses never came");
        assert!(
            err.to_string().contains("before 2 response(s) arrived"),
            "{err}"
        );

        shutdown.store(true, Ordering::SeqCst);
        let (service, _) = daemon.join().unwrap().unwrap();
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// End to end: a daemon with a per-connection in-flight cap of 1
    /// sheds the pipelined burst, and the client's retry/backoff loop
    /// converges it to zero final failures.
    #[test]
    fn connect_retries_shed_requests_until_they_converge() {
        use gmc_serve::transport::{self, Front, ListenAddr, SocketListener, TransportOptions};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join("gmcc_connect_retry_e2e");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("gmc.sock");
        let requests = dir.join("requests.jsonl");
        let src = SRC.replace('\n', " ");
        std::fs::write(
            &requests,
            format!(
                "{{\"id\": 1, \"source\": \"{src}\"}}\n\
                 {{\"id\": 2, \"source\": \"{src}\"}}\n\
                 {{\"id\": 3, \"source\": \"{src}\"}}\n"
            ),
        )
        .unwrap();

        let service = gmc_serve::CompileService::start(gmc_serve::ServeConfig {
            options: gmc_core::CompileOptions {
                training_instances: 40,
                ..gmc_core::CompileOptions::default()
            },
            faults: gmc_serve::fault::FaultPlan::parse("delay:10").unwrap(),
            ..gmc_serve::ServeConfig::default()
        })
        .unwrap();
        let listener = SocketListener::bind(&ListenAddr::Unix(sock.clone())).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let serve_shutdown = Arc::clone(&shutdown);
        let options = TransportOptions {
            conn_in_flight_cap: 1,
            ..TransportOptions::default()
        };
        let daemon = std::thread::spawn(move || {
            transport::serve_front(Front::Listen(listener), service, options, &serve_shutdown)
        });

        let config = parse_args(&[
            "--connect".into(),
            format!("unix:{}", sock.display()),
            requests.to_string_lossy().into_owned(),
            "--retry".into(),
            "5".into(),
        ])
        .unwrap();
        let (responses, failures) = run_connect(&config).unwrap();
        assert_eq!(responses, 3, "every request gets one final response");
        assert_eq!(failures, 0, "the shed burst converged through retries");

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = daemon.join().unwrap().unwrap();
        assert!(
            report.snapshot.conn_shed >= 1,
            "the cap actually shed at least one pipelined request"
        );
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
