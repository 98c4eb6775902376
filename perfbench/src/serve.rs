//! `serve` workload: the `gmcc --listen unix:` daemon under a closed loop.
//!
//! Set-up compiles a hot set of paper-distribution shapes (n 5–7)
//! in-process and writes their snapshot; the daemon (2 shards, default
//! compile options) warm-starts from it. Two connections each keep one
//! request in flight (`emit: both`): 90% repeat a hot shape (chain-cache
//! reads), 10% are near-miss edits of a hot shape with one operand
//! swapped (chain-cache inserts that can reuse fragments). Every
//! artifact must be byte-identical to an in-process
//! `CompileSession::compile` plus emit of the same source.

use crate::speed::Probe;
use crate::stats::{hit_rate, mean, median, ms, overhead_pct, peak_rss_mib, quantile, Outcome};
use crate::trace::Tracer;
use crate::{seed_mix, Args, SETUP_PROBES, SETUP_REPS};
use gmc_bench::ShapeSampler;
use gmc_codegen::{emit_cpp, emit_rust};
use gmc_core::{all_variants, CompileOptions, CompileSession, CompiledChain, SessionSnapshot};
use gmc_ir::emit::emit_program;
use gmc_ir::{InstanceSampler, Operand, Shape};
use gmc_serve::{
    emit_runtime_header, jsonl, Artifacts, CompileRequest, CompileResponse, CompileService, Emit,
    ServeConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Hot shapes in the snapshot and in 90% of the traffic.
const HOT: usize = 64;
/// Seed of the hot set (not the workload seed: how many n = 7 chains
/// the hot set holds would move the miss cost from seed to seed).
const HOT_SEED: u64 = 0x5e7;
/// Traffic runs in slices; between two slices both connections are idle
/// while connection 0 times `PAUSE_PROBES` host-speed probes.
const SLICE: Duration = Duration::from_millis(500);
const PAUSE_PROBES: usize = 4;
/// Nominal probe time of this workload (`crate::speed`).
const PROBE_NOMINAL_US: f64 = 850.0;
/// Share of requests that are near-miss edits of a hot shape.
const MISS_PROB: f64 = 0.1;
/// Client connections, each with one request in flight.
const CONNS: usize = 2;
/// Daemon shards.
const SHARDS: usize = 2;
/// Requests every connection sends; the seed-determined metrics cover
/// exactly these (2 × 500 is also the p99 sample floor).
const MIN_PER_CONN: usize = 500;
/// Requests of connection 0's stream replayed in-process in the traced
/// run (JSONL decode, service, encode, emit).
const REPLAY: usize = 1000;
/// Held-out validation instances per served set.
const VALIDATION: usize = 100;
/// Artifact base name sent with every request.
const NAME: &str = "x";
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The hot set and the near-miss generator.
struct Traffic {
    hot: Vec<Shape>,
    options: Vec<Operand>,
}

impl Traffic {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(HOT_SEED);
        let sampler = ShapeSampler::uniform();
        let mut hot: Vec<Shape> = Vec::new();
        while hot.len() < HOT {
            let n = rng.gen_range(5..=7usize);
            let shape = sampler.sample(&mut rng, n);
            if !hot.contains(&shape) {
                hot.push(shape);
            }
        }
        Traffic {
            hot,
            options: Operand::experiment_options(),
        }
    }

    /// Connection `conn`'s request stream.
    fn stream(&self, seed: u64, conn: usize) -> impl Iterator<Item = Pick> + '_ {
        let mut rng = StdRng::seed_from_u64(seed_mix(seed, 0xc011 + conn as u64));
        std::iter::repeat_with(move || {
            let h = rng.gen_range(0..HOT);
            if !rng.gen_bool(MISS_PROB) {
                return Pick::Hot(h);
            }
            loop {
                let mut ops = self.hot[h].operands().to_vec();
                let at = rng.gen_range(0..ops.len());
                ops[at] = self.options[rng.gen_range(0..self.options.len())];
                if let Ok(shape) = Shape::new(ops) {
                    if shape.has_rectangular() && !self.hot.contains(&shape) {
                        return Pick::Miss(shape);
                    }
                }
            }
        })
    }

    fn shape<'a>(&'a self, pick: &'a Pick) -> &'a Shape {
        match pick {
            Pick::Hot(h) => &self.hot[*h],
            Pick::Miss(s) => s,
        }
    }
}

enum Pick {
    Hot(usize),
    Miss(Shape),
}

fn request_line(id: u64, shape: &Shape) -> String {
    format!(
        "{{\"id\":{id},\"name\":\"{NAME}\",\"emit\":\"both\",\"source\":\"{}\"}}\n",
        jsonl::escape(&emit_program(shape, "X"))
    )
}

/// The part of a response line that depends only on the artifacts: from
/// `,"files":` to the end. The runtime header rides along on a
/// connection's first C++ response.
fn artifact_suffix(chain: &CompiledChain, header: bool) -> String {
    let mut files = Vec::new();
    if header {
        files.push(("gmc_runtime.hpp".to_string(), emit_runtime_header()));
    }
    files.push((format!("{NAME}.cpp"), emit_cpp(chain, NAME)));
    files.push((format!("{NAME}.rs"), emit_rust(chain, NAME)));
    let line = jsonl::response_line(&CompileResponse {
        id: 0,
        shard: None,
        cache_hit: false,
        result: Ok(Artifacts {
            files,
            report: chain.describe(),
        }),
    });
    suffix(&line).expect("an ok response has files").to_string()
}

fn suffix(line: &str) -> Option<&str> {
    line.find(",\"files\":").map(|at| &line[at..])
}

/// The in-process reference: compile and emit exactly as a daemon shard.
struct Reference {
    session: CompileSession,
    suffixes: HashMap<Shape, [String; 2]>,
}

impl Reference {
    fn new() -> Self {
        let mut session = CompileSession::with_options(CompileOptions::default());
        session.set_tracing(false);
        Reference {
            session,
            suffixes: HashMap::new(),
        }
    }

    fn chain(&mut self, shape: &Shape) -> Result<CompiledChain, String> {
        self.session
            .compile(shape)
            .map_err(|e| format!("{shape}: {e}"))
    }

    fn suffix(&mut self, shape: &Shape, header: bool) -> Result<&str, String> {
        if !self.suffixes.contains_key(shape) {
            let chain = self.chain(shape)?;
            let pair = [
                artifact_suffix(&chain, false),
                artifact_suffix(&chain, true),
            ];
            self.suffixes.insert(shape.clone(), pair);
        }
        Ok(&self.suffixes[shape][usize::from(header)])
    }
}

/// A running daemon; dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Start the daemon and return it with the time until the first
    /// response to `probe` arrived.
    fn start(gmcc: &Path, sock: &Path, snap: &Path, probe: &str) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(sock);
        let t = Instant::now();
        let child = Command::new(gmcc)
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .args(["--jobs", &SHARDS.to_string(), "--emit", "both", "--persist"])
            .arg(snap)
            .env("GMC_TRACE", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gmcc.display()))?;
        let mut daemon = Daemon {
            child,
            sock: sock.to_path_buf(),
        };
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(_) if t.elapsed() < IO_TIMEOUT => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("cannot connect to the daemon: {e}")),
            }
        };
        let mut conn = Conn::new(stream)?;
        let reply = conn.call(probe)?;
        let setup = t.elapsed().as_secs_f64();
        if !reply.contains("\"ok\":true") {
            return Err(format!("first response failed: {}", truncate(&reply)));
        }
        Ok((daemon, setup))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Conn, String> {
        Conn::new(UnixStream::connect(&self.sock).map_err(|e| e.to_string())?)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// One client connection: write a line, read its response line.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    line: String,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    fn call(&mut self, request: &str) -> Result<String, String> {
        self.send(request)?;
        Ok(self.line.clone())
    }

    /// Send one request and read its response into `self.line`.
    fn send(&mut self, request: &str) -> Result<(), String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

/// What one client connection saw.
struct ClientLog {
    rtt_ms: Vec<f64>,
    /// Slice of each untraced request, by `rtt_ms` index.
    rtt_slice: Vec<usize>,
    traced_rtt_ms: Vec<f64>,
    attempted: u64,
    errors: Vec<String>,
    /// Near-miss responses, checked after the run: shape, whether the
    /// runtime header rode along, and the artifact suffix.
    misses: Vec<(Shape, bool, String)>,
    /// Shapes of the seed-determined prefix of the stream.
    prefix: Vec<Shape>,
    elapsed: f64,
    tracer: Tracer,
}

/// Cuts the connections' traffic into slices with probe pauses between.
struct Pacer {
    barrier: Barrier,
    sent: [AtomicUsize; CONNS],
    failed: AtomicBool,
    window: Duration,
    probe: Mutex<Probe>,
    paused: Mutex<Duration>,
}

impl Pacer {
    fn new(window: Duration) -> Self {
        Pacer {
            barrier: Barrier::new(CONNS),
            sent: std::array::from_fn(|_| AtomicUsize::new(0)),
            failed: AtomicBool::new(false),
            window,
            probe: Mutex::new(Probe::new(PROBE_NOMINAL_US)),
            paused: Mutex::new(Duration::ZERO),
        }
    }

    /// Every connection calls this before its first slice and after each
    /// slice, with the requests it has sent and the slices run so far.
    /// Returns whether traffic goes on; every connection gets the same
    /// answer.
    fn pause(&self, conn: usize, sent: usize, slices: u32) -> bool {
        self.sent[conn].store(sent, Ordering::SeqCst);
        self.barrier.wait();
        if conn == 0 {
            let t = Instant::now();
            self.probe.lock().unwrap().run_n(PAUSE_PROBES);
            *self.paused.lock().unwrap() += t.elapsed();
        }
        self.barrier.wait();
        let fewest = self.sent.iter().map(|s| s.load(Ordering::SeqCst)).min();
        !self.failed.load(Ordering::SeqCst)
            && (SLICE * slices < self.window || fewest < Some(MIN_PER_CONN))
    }

    /// Correction factor for slice `j`: the probes of the pauses before
    /// and after it.
    fn scale(&self, j: usize) -> f64 {
        let at = j * PAUSE_PROBES;
        self.probe
            .lock()
            .unwrap()
            .scale_of(at..at + 2 * PAUSE_PROBES)
    }
}

fn client(
    traffic: &Traffic,
    hot_suffixes: &[[String; 2]],
    daemon: &Daemon,
    args: &Args,
    conn_id: usize,
    pacer: &Pacer,
    epoch: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        rtt_ms: Vec::new(),
        rtt_slice: Vec::new(),
        traced_rtt_ms: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        misses: Vec::new(),
        prefix: Vec::new(),
        elapsed: 0.0,
        tracer: Tracer::with_epoch(args.trace, epoch),
    };
    let start = Instant::now();
    let mut conn = match daemon.connect() {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connection {conn_id}: {e}"));
            pacer.failed.store(true, Ordering::SeqCst);
            pacer.pause(conn_id, 0, 0);
            return log;
        }
    };
    let mut header_seen = false;
    let mut stream = traffic.stream(args.seed, conn_id).enumerate();
    let mut slice = 0;
    while pacer.pause(conn_id, log.attempted as usize, slice as u32) {
        let slice_start = Instant::now();
        while slice_start.elapsed() < SLICE {
            let (k, pick) = stream.next().expect("the stream is endless");
            let shape = traffic.shape(&pick);
            if k < MIN_PER_CONN {
                log.prefix.push(shape.clone());
            }
            let id = k as u64 + 1;
            let line = request_line(id, shape);
            let traced = args.trace && k % 2 == 1;
            log.attempted += 1;
            let t = Instant::now();
            let span = if traced {
                log.tracer.begin("serve.rtt", ((conn_id as u64) << 32) | id)
            } else {
                None
            };
            let sent = conn.send(&line);
            log.tracer.end(span);
            let rtt = ms(t.elapsed());
            if let Err(e) = sent {
                log.errors
                    .push(format!("connection {conn_id} request {id}: {e}"));
                pacer.failed.store(true, Ordering::SeqCst);
                break;
            }
            let reply = conn.line.trim_end();
            if traced {
                log.traced_rtt_ms.push(rtt);
            } else {
                log.rtt_ms.push(rtt);
                log.rtt_slice.push(slice);
            }
            let ok_prefix = format!("{{\"id\":{id},\"ok\":true");
            let Some(got) = suffix(reply).filter(|_| reply.starts_with(&ok_prefix)) else {
                log.errors
                    .push(format!("request {id}: error response {}", truncate(reply)));
                continue;
            };
            // The daemon attaches the runtime header to a connection's
            // first successful C++ response and to no other.
            let header = !header_seen;
            header_seen = true;
            match pick {
                Pick::Hot(h) => {
                    if got != hot_suffixes[h][usize::from(header)] {
                        log.errors
                            .push(format!("request {id}: artifacts differ from in-process"));
                    }
                }
                Pick::Miss(shape) => log.misses.push((shape, header, got.to_string())),
            }
        }
        slice += 1;
    }
    log.elapsed = start.elapsed().as_secs_f64();
    log
}

/// Numbers in a flat JSON line: every value of `"key":`.
fn nums(line: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    line.match_indices(&pat)
        .filter_map(|(at, _)| {
            let rest = &line[at + pat.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+')))
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

fn sum(line: &str, key: &str) -> f64 {
    nums(line, key).iter().sum()
}

/// Count-weighted mean over shards of quantile `q` (`p50`/`p99`) of the
/// per-shard histogram `key`, in microseconds.
fn shard_quantile_us(line: &str, key: &str, q: &str) -> f64 {
    let pat = format!("\"{key}\":{{");
    let (mut weighted, mut count) = (0.0, 0.0);
    for (at, _) in line.match_indices(&pat) {
        let body = &line[at..];
        let body = &body[..body.find('}').unwrap_or(body.len())];
        let c = nums(body, "count").first().copied().unwrap_or(0.0);
        let v = nums(body, q).first().copied().unwrap_or(0.0);
        weighted += c * v;
        count += c;
    }
    if count > 0.0 {
        weighted / count * 1e3
    } else {
        0.0
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let traffic = Traffic::new();
    let mut reference = Reference::new();
    for shape in &traffic.hot {
        reference.suffix(shape, false)?;
    }
    let hot_suffixes: Vec<[String; 2]> = traffic
        .hot
        .iter()
        .map(|s| reference.suffixes[s].clone())
        .collect();
    let tag = format!("{}-{}", args.seed, std::process::id());
    let snap = args.work_dir.join(format!("serve-{tag}.snap"));
    reference
        .session
        .snapshot()
        .save(&snap)
        .map_err(|e| format!("cannot write {}: {e}", snap.display()))?;
    // Unix socket paths are limited to ~100 bytes: keep the name short.
    let sock = args.work_dir.join(format!("s{}.sock", std::process::id()));
    let first = request_line(1, &traffic.hot[0]);

    let mut setup_probe = Probe::new(PROBE_NOMINAL_US);
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        drop(daemon.take());
        let probes = setup_probe.run_n(SETUP_PROBES);
        let (d, secs) = Daemon::start(&args.gmcc, &sock, &snap, &first)?;
        setups.push(secs * setup_probe.scale_of(probes));
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let pacer = Pacer::new(Duration::from_secs_f64(args.seconds));
    let epoch = tracer.epoch();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let (traffic, hot, daemon, pacer) = (&traffic, &hot_suffixes, &daemon, &pacer);
                s.spawn(move || client(traffic, hot, daemon, args, c, pacer, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut admin = daemon.connect()?;
    let metrics = admin.call("{\"op\":\"metrics\"}\n")?;
    // The transport object repeats some counter names; keep the shards'.
    let metrics = metrics
        .split(",\"transport\":")
        .next()
        .unwrap_or("")
        .to_string();
    let rss = peak_rss_mib(&daemon.pid()).unwrap_or(0.0);
    drop(admin);
    drop(daemon);

    let mut rtt = Vec::new();
    // Round trips corrected for host speed, for p99 and throughput: both
    // are set by compile work, the near misses' and that of the hits
    // queued behind them. p50, a hit's round trip, is mostly the
    // dispatcher's poll wait, which does not scale with host speed, and
    // comes from the round trips as measured.
    let mut corrected = Vec::new();
    let mut traced_rtt = Vec::new();
    let mut prefix = Vec::new();
    let mut elapsed = 0.0f64;
    for log in logs {
        for (&t, &slice) in log.rtt_ms.iter().zip(&log.rtt_slice) {
            corrected.push(t * pacer.scale(slice));
        }
        out.attempted += log.attempted;
        for e in &log.errors {
            out.fail(e);
        }
        for (shape, header, got) in &log.misses {
            if reference.suffix(shape, *header)? != got {
                out.fail(format!(
                    "near-miss {shape}: artifacts differ from in-process"
                ));
            }
        }
        rtt.extend(log.rtt_ms);
        traced_rtt.extend(log.traced_rtt_ms);
        prefix.extend(log.prefix);
        elapsed = elapsed.max(log.elapsed);
        tracer.absorb(log.tracer);
    }

    // Selection quality of the hot set's served sets (the near misses
    // differ from seed to seed, and their worst case with them), and the
    // mean artifact size of the seed's requests.
    let mut bytes = Vec::new();
    for shape in &prefix {
        let chain = reference.chain(shape)?;
        bytes.push((emit_cpp(&chain, NAME).len() + emit_rust(&chain, NAME).len()) as f64);
    }
    let mut ratios = Vec::new();
    for (h, shape) in traffic.hot.iter().enumerate() {
        let chain = reference.chain(shape)?;
        let pool = all_variants(shape).map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed_mix(args.seed, h as u64));
        for q in InstanceSampler::new(shape, 2, 1000).sample_many(&mut rng, VALIDATION) {
            let opt = pool
                .iter()
                .map(|v| v.flops(&q))
                .fold(f64::INFINITY, f64::min);
            let best = chain
                .variants()
                .iter()
                .map(|v| v.flops(&q))
                .fold(f64::INFINITY, f64::min);
            ratios.push(best / opt);
        }
    }
    let penalty_mean = mean(&ratios);
    let penalty_max = ratios.iter().copied().fold(0.0, f64::max);
    let emitted_kib = mean(&bytes) / 1024.0;
    out.deterministic.push(("flop_penalty_mean", penalty_mean));
    out.deterministic.push(("flop_penalty_max", penalty_max));
    out.deterministic.push(("emitted_kib", emitted_kib));

    if tracer.enabled() {
        let e2e_p50 = nums(&metrics, "e2e_p50_ms").first().copied().unwrap_or(0.0) * 1e3;
        let queue_p50 = shard_quantile_us(&metrics, "queue_wait_ms", "p50");
        let compile_p50 = shard_quantile_us(&metrics, "compile_ms", "p50");
        out.set("serve.server_e2e_us.p50", e2e_p50);
        out.set(
            "serve.server_e2e_us.p99",
            nums(&metrics, "e2e_p99_ms").first().copied().unwrap_or(0.0) * 1e3,
        );
        out.set("serve.queue_wait_us.p50", queue_p50);
        out.set(
            "serve.queue_wait_us.p99",
            nums(&metrics, "queue_wait_p99_ms")
                .first()
                .copied()
                .unwrap_or(0.0)
                * 1e3,
        );
        out.set("serve.compile_us.p50", compile_p50);
        out.set(
            "serve.compile_us.p99",
            shard_quantile_us(&metrics, "compile_ms", "p99"),
        );
        let rtt_p50_us = median(&mut rtt) * 1e3;
        out.set("serve.transport_us.p50", rtt_p50_us - e2e_p50);
        out.set(
            "serve.unattributed_us.p50",
            e2e_p50 - queue_p50 - compile_p50,
        );
        let (ch, cm) = (sum(&metrics, "chain_hits"), sum(&metrics, "chain_misses"));
        out.set("serve.chain_hit_rate", hit_rate(ch as u64, cm as u64));
        let (fh, fm) = (sum(&metrics, "frag_hits"), sum(&metrics, "frag_misses"));
        out.set("serve.frag_hit_rate", hit_rate(fh as u64, fm as u64));
        out.set("serve.shed", sum(&metrics, "shed"));
        out.set("serve.late_drops", sum(&metrics, "late_drops"));
        out.set("serve.restarts", sum(&metrics, "restarts"));
        out.set(
            "trace_overhead_pct",
            overhead_pct(&mut traced_rtt, &mut rtt),
        );
        out.set("host.probe_us", pacer.probe.lock().unwrap().median_us());
        in_process(args, tracer, &traffic, &mut reference, &snap, &mut out)?;
    } else {
        let traffic_secs = elapsed - pacer.paused.lock().unwrap().as_secs_f64();
        eprintln!(
            "perfbench serve: uncorrected p50 {:.4} ms, p99 {:.3} ms, {:.1} requests/s; probe {:.1} us",
            quantile(&mut rtt, 0.50),
            quantile(&mut rtt, 0.99),
            out.attempted as f64 / traffic_secs,
            pacer.probe.lock().unwrap().median_us()
        );
        out.set("setup_s", median(&mut setups));
        out.set("latency_ms_p50", quantile(&mut rtt, 0.50));
        out.set("latency_ms_p99", quantile(&mut corrected, 0.99));
        // Closed loop: each connection has one request in flight, so the
        // rate is the connections over the mean round trip.
        out.set(
            "throughput_per_s",
            (CONNS * corrected.len()) as f64 / (corrected.iter().sum::<f64>() / 1e3),
        );
        out.set("peak_rss_mib", rss);
        out.set("flop_penalty_mean", penalty_mean);
        out.set("flop_penalty_max", penalty_max);
        out.set("emitted_kib", emitted_kib);
    }
    let _ = std::fs::remove_file(&snap);
    eprintln!(
        "perfbench serve: {} requests over {CONNS} connections in {elapsed:.1} s",
        out.attempted
    );
    Ok(out)
}

/// The traced run's in-process layers: snapshot restore, and connection
/// 0's traffic through JSONL decode, `CompileService` (no socket),
/// JSONL encode and the emitters.
fn in_process(
    args: &Args,
    tr: &mut Tracer,
    traffic: &Traffic,
    reference: &mut Reference,
    snap: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut restores = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let restored = tr.span("persist.restore", 0, || {
            let snapshot = SessionSnapshot::load(snap)?;
            CompileSession::with_options(CompileOptions::default()).restore(&snapshot)
        });
        restores.push(ms(t.elapsed()));
        if restored.map_err(|e| e.to_string())? != HOT {
            out.fail("snapshot restore did not bring back the hot set");
        }
    }
    out.set("persist.restore_ms", median(&mut restores));

    let mut service = CompileService::start(ServeConfig {
        shards: SHARDS,
        options: CompileOptions::default(),
        snapshot_path: Some(snap.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let (mut decode, mut serve, mut encode, mut emit) = (vec![], vec![], vec![], vec![]);
    for (k, pick) in traffic.stream(args.seed, 0).take(REPLAY).enumerate() {
        let shape = traffic.shape(&pick);
        let line = request_line(k as u64 + 1, shape);
        let req = (1u64 << 40) | k as u64;
        out.attempted += 1;
        let root = tr.begin("serve.inproc", req);
        let t = Instant::now();
        let raw = tr.span("serve.jsonl.decode", req, || {
            jsonl::parse_request(line.trim_end())
        });
        decode.push(t.elapsed());
        let raw = raw?;
        let t = Instant::now();
        let response = tr.span("serve.service", req, || {
            service.submit(CompileRequest {
                id: raw.id.unwrap_or(0),
                name: raw.name,
                source: raw.source,
                emit: Emit::Both,
                deadline: None,
            });
            service.recv()
        });
        serve.push(t.elapsed());
        let Some(response) = response else {
            out.fail(format!("in-process request {k}: no response"));
            tr.end(root);
            continue;
        };
        let t = Instant::now();
        let text = tr.span("serve.jsonl.encode", req, || {
            jsonl::response_line(&response)
        });
        encode.push(t.elapsed());
        tr.end(root);
        if !text.contains("\"ok\":true") {
            out.fail(format!("in-process request {k}: {}", truncate(&text)));
        }
        let chain = reference.chain(shape)?;
        let t = Instant::now();
        tr.span("codegen.emit", req, || {
            std::hint::black_box((emit_cpp(&chain, NAME), emit_rust(&chain, NAME)))
        });
        emit.push(t.elapsed());
    }
    let frags = service
        .stats()
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.frags.hits, m + s.frags.misses));
    let _ = service.shutdown();
    let us = |v: Vec<Duration>| {
        let mut v: Vec<f64> = v.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        median(&mut v)
    };
    out.set("serve.jsonl.decode_us", us(decode));
    out.set("serve.service_us", us(serve));
    out.set("serve.jsonl.encode_us", us(encode));
    out.set("codegen.emit_us", us(emit));
    out.set("core.frag_hit_rate", hit_rate(frags.0, frags.1));
    Ok(())
}
