//! Multiplexed transport for the serving layer: one dispatcher fronts
//! one shared [`CompileService`] with many concurrent JSONL connections
//! — Unix-domain or TCP sockets (`gmcc --serve --listen <addr>`), or a
//! single stdin/stdout stream as connection 0 (`gmcc --serve -`).
//!
//! # Threading model
//!
//! ```text
//!            accept thread ──┐ (one per socket daemon; blocks in
//!                            │  accept, woken by a self-connect)
//!   conn 1: reader thread ───┤
//!   conn 1: writer thread ───┤ one event queue   ┌── shard 0 thread
//!   conn 2: reader thread ───┼──────────────────►│── shard 1 thread
//!   conn 2: writer thread ───┤      dispatcher   └── ...
//!            ...             │ (owns the          (finished requests
//!   shard threads ───────────┘  CompileService)    post to the queue)
//! ```
//!
//! Every connection gets **one reader thread** (bounded-line JSONL
//! parsing, so a hostile client cannot grow daemon memory) and **one
//! writer thread** (owns the write half; responses to one connection
//! never block another); both loops are generic over `Read`/`Write`.
//! The single **dispatcher** — the thread that called [`serve`] —
//! owns the [`CompileService`] unchanged: admission control,
//! deadlines, two-choices routing, and exactly-once response
//! bookkeeping are shared across all connections because there is
//! still exactly one submitter.
//!
//! The dispatcher blocks on **one event queue**. The accept loop,
//! connection readers, and the shard workers all post to it, so a
//! finished request wakes the dispatcher the moment its shard posts it
//! and is written straight away. The blocking wait has one timeout: the
//! nearest instant the dispatcher owes something — the earliest
//! outstanding request deadline or idle-reap time — so deadlines are
//! exact. Only while nothing is timed does a coarse cap re-check the
//! shutdown flag.
//!
//! # Stdin/stdout as connection 0
//!
//! [`Front::Stdio`] serves one request stream (stdin or a file) and
//! its response sink as connection 0 of the same dispatcher: same
//! reader, writer, op dispatch and id rules. Connection 0 keeps the
//! stdin daemon's contract: no in-flight cap, idle reap, or slow-close
//! applies to it, a slow consumer stalls the daemon instead of losing
//! lines, ops answer without the `"transport"` object, and serving
//! ends once the stream reaches EOF and everything in flight is
//! answered.
//!
//! # Pipelining and id remapping
//!
//! Clients may pipeline requests without waiting: responses come back
//! on the submitting connection in **completion order**, matched by
//! `id`. Ids are the client's own namespace — two connections may both
//! use id 1 — so the dispatcher submits under a private token and
//! remaps each response back to the submitting connection's id on
//! delivery. Requests without an id get their 1-based position in that
//! connection's stream.
//!
//! # Backpressure and the connection lifecycle
//!
//! Per-shard admission ([`ServeConfig::queue_cap`](crate::ServeConfig))
//! bounds the *fleet*; this layer bounds each *connection* so one
//! misbehaving client cannot starve the rest:
//!
//! * **Per-connection admission**
//!   ([`TransportOptions::conn_in_flight_cap`]): a request arriving
//!   while the connection already has `cap` compiles in flight is
//!   answered in band with retryable `overloaded` — the cap → shed →
//!   client-retry loop (`gmcc --connect`'s jittered backoff) converges
//!   instead of letting a greedy pipeliner fill every shard queue. Ops
//!   (`stats`/`health`/`metrics`/`fault`) bypass the cap so a saturated
//!   daemon stays observable.
//! * **Bounded writers**: each writer thread is fed through a bounded
//!   queue of 256 lines, the connection's only outbound buffer; the
//!   dispatcher never blocks on a slow peer. A line that finds the
//!   queue full **slow-closes** the connection: the socket is shut down
//!   and its in-flight work written off through the exactly-once
//!   bookkeeping ([`CompileService::write_off`]; late shard replies are
//!   dropped and counted). A peer that stops reading with fewer lines
//!   queued trips the writer's 2 s write deadline instead; the writer
//!   exits, and the next line for that connection closes it. Daemon
//!   memory stays bounded under a client that pipelines forever and
//!   never reads.
//! * **Lifecycle limits**: [`TransportOptions::max_conns`] refuses
//!   connections over the limit with a typed in-band `overloaded` line
//!   before closing; [`TransportOptions::idle_timeout`] reaps
//!   connections with zero in-flight work; reads poll on a timeout and
//!   writes carry an OS-level deadline, so no socket thread can block
//!   forever on a dead peer.
//!
//! Every shed/refusal/slow-close/reap increments a transport counter
//! (`conn_shed`, `conn_refused`, `conn_slow_closed`, `conn_idle_reaped`,
//! `conn_written_off`) that rides health/metrics responses and the
//! Prometheus dump.
//!
//! # Shutdown
//!
//! The dispatcher sees the shutdown flag (SIGTERM/SIGINT in `gmcc`) on
//! its next event or, when idle, within the coarse shutdown check. It
//! then answers the requests already queued, stops intake — readers
//! stop pulling lines and the blocked accept is woken by a
//! self-connect and exits — answers everything in flight to its
//! connection, flushes the writers, and returns the service (still
//! running) so the caller can write the final snapshot and metrics
//! dump before [`CompileService::shutdown`]. Stdin EOF runs the same
//! drain for connection 0.
//!
//! # Transport counters
//!
//! The dispatcher keeps live transport counters — connections open /
//! accepted / closed, per-connection in-flight, and the backpressure
//! counters above — snapshotted as [`TransportSnapshot`]:
//! `{"op":"health"}` and `{"op":"metrics"}` responses on a socket carry
//! them as a `"transport"` object, and the Prometheus dump gains a
//! `gmc_connections` gauge (plus accepted/closed totals, per-connection
//! in-flight gauges, and `gmc_conn_*_total` counters).

use crate::fault::FaultPlan;
use crate::jsonl;
use crate::service::{
    CompileRequest, CompileResponse, CompileService, Emit, Event, FailureKind, Wake,
};
use gmc_obs::{write_prom_counter, write_prom_gauge};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle dispatcher waits before re-checking the shutdown
/// flag (a signal handler can only store an atomic), and how long a
/// socket read blocks before its reader re-checks the closing flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Lines a connection's writer queue holds: its only outbound buffer.
/// A line that finds it full slow-closes a socket connection.
const WRITER_QUEUE: usize = 256;

/// How long one socket write may block before the writer gives up on
/// its peer.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// A parsed `--listen` address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// Unix-domain socket at this path.
    Unix(PathBuf),
    /// TCP socket at this `host:port`.
    Tcp(String),
}

impl ListenAddr {
    /// Parse an address: `unix:<path>` and `tcp:<host:port>` are
    /// explicit; a bare value that parses as a socket address (e.g.
    /// `127.0.0.1:7070`) is TCP, anything else is a Unix socket path.
    #[must_use]
    pub fn parse(s: &str) -> ListenAddr {
        if let Some(path) = s.strip_prefix("unix:") {
            ListenAddr::Unix(PathBuf::from(path))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            ListenAddr::Tcp(addr.to_string())
        } else if s.parse::<std::net::SocketAddr>().is_ok() {
            ListenAddr::Tcp(s.to_string())
        } else {
            ListenAddr::Unix(PathBuf::from(s))
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            ListenAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

enum ListenerKind {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// A bound-but-not-yet-serving socket listener.
pub struct SocketListener {
    inner: ListenerKind,
    /// The path to unlink when serving ends (Unix sockets only).
    cleanup: Option<PathBuf>,
    local: ListenAddr,
}

impl SocketListener {
    /// Bind the address. A stale Unix socket file at the path is
    /// removed first — the daemon takes over the address — and removed
    /// again when [`serve`] returns.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &ListenAddr) -> std::io::Result<SocketListener> {
        match addr {
            ListenAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok(SocketListener {
                    inner: ListenerKind::Unix(listener),
                    cleanup: Some(path.clone()),
                    local: addr.clone(),
                })
            }
            ListenAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)?;
                let local = ListenAddr::Tcp(
                    listener
                        .local_addr()
                        .map(|a| a.to_string())
                        .unwrap_or_else(|_| spec.clone()),
                );
                Ok(SocketListener {
                    inner: ListenerKind::Tcp(listener),
                    cleanup: None,
                    local,
                })
            }
        }
    }

    /// The actually-bound address (TCP port 0 resolves to the assigned
    /// port, which is how tests bind without collisions).
    #[must_use]
    pub fn local_addr(&self) -> &ListenAddr {
        &self.local
    }

    fn accept(&self) -> std::io::Result<SocketStream> {
        match &self.inner {
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| SocketStream::Tcp(s)),
        }
    }
}

/// One connected socket stream (either family), used by the transport
/// internally and by clients (tests, `bench_serve --load`,
/// `gmcc --connect`) via [`SocketStream::connect`].
#[derive(Debug)]
pub enum SocketStream {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream.
    Tcp(TcpStream),
}

impl SocketStream {
    /// Connect to a listening daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: &ListenAddr) -> std::io::Result<SocketStream> {
        match addr {
            ListenAddr::Unix(path) => UnixStream::connect(path).map(SocketStream::Unix),
            ListenAddr::Tcp(spec) => TcpStream::connect(spec).map(SocketStream::Tcp),
        }
    }

    /// Clone the handle (reader/writer halves share one socket).
    ///
    /// # Errors
    ///
    /// Propagates the underlying `try_clone` failure.
    pub fn try_clone(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketStream::Unix(s) => s.try_clone().map(SocketStream::Unix),
            SocketStream::Tcp(s) => s.try_clone().map(SocketStream::Tcp),
        }
    }

    /// Bound the blocking time of reads (the transport's readers poll
    /// the shutdown flag between timeouts).
    ///
    /// # Errors
    ///
    /// Propagates the underlying setter failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.set_read_timeout(timeout),
            SocketStream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bound the blocking time of writes — the transport's write
    /// deadline, so a writer thread cannot block forever on a peer
    /// that stopped reading.
    ///
    /// # Errors
    ///
    /// Propagates the underlying setter failure.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.set_write_timeout(timeout),
            SocketStream::Tcp(s) => s.set_write_timeout(timeout),
        }
    }

    /// Close the write half, signalling EOF to the daemon while
    /// responses can still stream back (how a client says "no more
    /// requests").
    ///
    /// # Errors
    ///
    /// Propagates the underlying shutdown failure.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Sever the connection in both directions: blocked reads see EOF
    /// and blocked writes fail immediately, on every clone of the
    /// underlying socket — how the dispatcher force-closes a
    /// connection whose reader/writer threads hold their own handles.
    ///
    /// # Errors
    ///
    /// Propagates the underlying shutdown failure.
    pub fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Unix(s) => s.read(buf),
            SocketStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Unix(s) => s.write(buf),
            SocketStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.flush(),
            SocketStream::Tcp(s) => s.flush(),
        }
    }
}

/// Transport configuration: how the dispatcher treats its connections
/// (the `gmcc --serve`/`--listen` flags).
#[derive(Debug, Clone)]
pub struct TransportOptions {
    /// Emit selector applied to requests without an `emit` field.
    pub default_emit: Emit,
    /// Honor in-band `{"op":"fault"}` requests (`--enable-faults`).
    pub enable_faults: bool,
    /// The fault plan `{"op":"fault"}` re-arms (shared with the
    /// service's plan by cloning).
    pub faults: FaultPlan,
    /// Bound on one request line (`--max-line-bytes`); oversized lines
    /// are consumed and answered `bad_request` without being buffered.
    pub max_line_bytes: usize,
    /// Prometheus dump refreshed on every `{"op":"metrics"}` request,
    /// with transport gauges appended (`--metrics-file`).
    pub metrics_file: Option<PathBuf>,
    /// Per-connection admission cap (`--conn-in-flight-cap`): a compile
    /// request arriving while the connection already has this many in
    /// flight is shed in band with retryable `overloaded`. `0` disables
    /// the cap.
    pub conn_in_flight_cap: usize,
    /// Connection limit (`--max-conns`): a connection accepted past the
    /// limit is refused with one typed in-band `overloaded` line and
    /// closed. `0` disables the limit.
    pub max_conns: usize,
    /// Reap connections with zero in-flight work after this long
    /// without a request line (`--idle-timeout-ms`); `None` disables.
    pub idle_timeout: Option<Duration>,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            default_emit: Emit::default(),
            enable_faults: false,
            faults: FaultPlan::new(),
            max_line_bytes: 1 << 20,
            metrics_file: None,
            conn_in_flight_cap: 64,
            max_conns: 0,
            idle_timeout: None,
        }
    }
}

/// Point-in-time transport counters, rendered into `{"op":"health"}` /
/// `{"op":"metrics"}` responses ([`jsonl::health_line_with_transport`])
/// and the Prometheus dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Connections currently open.
    pub open: u64,
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections closed since start.
    pub closed: u64,
    /// `(connection id, in-flight compile requests)` per open
    /// connection, in accept order. Connection ids are 1-based and
    /// never reused within a daemon's lifetime.
    pub connections: Vec<(u64, u64)>,
    /// Requests shed at the per-connection in-flight cap.
    pub conn_shed: u64,
    /// Connections closed by the slow-consumer policy: a line arrived
    /// with the connection's writer queue full.
    pub conn_slow_closed: u64,
    /// Connections reaped by the idle timeout.
    pub conn_idle_reaped: u64,
    /// Connections refused at the `max_conns` limit.
    pub conn_refused: u64,
    /// In-flight requests written off because their connection died
    /// (slow-close, idle reap with a racing request, peer gone,
    /// injected `conn_drop`).
    pub conn_written_off: u64,
}

impl TransportSnapshot {
    /// Append the transport gauges/counters in Prometheus text
    /// exposition format: the `gmc_connections` open-connection gauge,
    /// accepted/closed totals, and one `gmc_conn_in_flight` gauge per
    /// open connection.
    pub fn write_prometheus(&self, out: &mut String) {
        write_prom_gauge(out, "gmc_connections", "", self.open, true);
        write_prom_counter(
            out,
            "gmc_connections_accepted_total",
            "",
            self.accepted,
            true,
        );
        write_prom_counter(out, "gmc_connections_closed_total", "", self.closed, true);
        write_prom_counter(out, "gmc_conn_shed_total", "", self.conn_shed, true);
        write_prom_counter(
            out,
            "gmc_conn_slow_closed_total",
            "",
            self.conn_slow_closed,
            true,
        );
        write_prom_counter(
            out,
            "gmc_conn_idle_reaped_total",
            "",
            self.conn_idle_reaped,
            true,
        );
        write_prom_counter(out, "gmc_conn_refused_total", "", self.conn_refused, true);
        write_prom_counter(
            out,
            "gmc_conn_written_off_total",
            "",
            self.conn_written_off,
            true,
        );
        for (i, (conn, in_flight)) in self.connections.iter().enumerate() {
            write_prom_gauge(
                out,
                "gmc_conn_in_flight",
                &format!("conn=\"{conn}\""),
                *in_flight,
                i == 0,
            );
        }
    }
}

/// What [`serve`] reports when the daemon drains.
#[derive(Debug, Clone, Default)]
pub struct TransportReport {
    /// Connections accepted over the daemon's lifetime.
    pub accepted: u64,
    /// Request lines processed (all connections, ops included).
    pub requests: u64,
    /// In-band failure responses delivered (`"ok":false`).
    pub failures: u64,
    /// Final transport counters (for the drain-time Prometheus dump).
    pub snapshot: TransportSnapshot,
}

/// What connection readers and the accept loop post to the service's
/// event queue (wrapped in [`Event::Conn`]).
pub(crate) enum ConnEvent {
    Opened {
        conn: u64,
        writer: WriterHandle,
        /// A control clone of the socket: `shutdown_both` on it severs
        /// the reader's and writer's handles too (force-close).
        ctrl: SocketStream,
    },
    Line {
        conn: u64,
        line_no: u64,
        line: String,
    },
    /// A line that is not a request (oversized or not UTF-8),
    /// answered `bad_request` at its position.
    Rejected {
        conn: u64,
        line_no: u64,
        reason: String,
    },
    Eof {
        conn: u64,
    },
}

const NOT_UTF8: &str = "request line is not valid UTF-8";

/// One bounded line read from a connection.
enum BoundedLine {
    /// A complete line within the bound (trailing `\r` stripped).
    Text(String),
    /// Not a request: why (oversized lines are consumed, not buffered).
    Rejected(String),
    /// Stop reading: end of input, the peer is gone, or the daemon is
    /// closing.
    Eof,
}

/// Read one `\n`-terminated line without ever buffering more than `max`
/// bytes of it: an oversized line is *consumed* (so the stream stays in
/// sync) but reported instead of returned, which keeps a hostile or
/// buggy client from growing daemon memory without bound. Socket reads
/// time out so the `closing` flag is re-checked while a peer is quiet.
fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize, closing: &AtomicBool) -> BoundedLine {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if closing.load(Ordering::SeqCst) {
                    // Drain: stop pulling new requests (a partial line
                    // is abandoned, exactly like unread input).
                    return BoundedLine::Eof;
                }
                continue;
            }
            // Connection reset and friends: the peer is gone.
            Err(_) => return BoundedLine::Eof,
        };
        if chunk.is_empty() {
            if buf.is_empty() && !oversized {
                return BoundedLine::Eof;
            }
            break; // final line without trailing newline
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !oversized && buf.len() + pos <= max {
                    buf.extend_from_slice(&chunk[..pos]);
                } else {
                    oversized = true;
                }
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                if !oversized && buf.len() + len <= max {
                    buf.extend_from_slice(chunk);
                } else {
                    oversized = true;
                    buf.clear();
                }
                reader.consume(len);
            }
        }
    }
    if oversized {
        return BoundedLine::Rejected(format!("request line exceeds {max} bytes"));
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => BoundedLine::Text(s),
        Err(_) => BoundedLine::Rejected(NOT_UTF8.into()),
    }
}

fn reader_loop<R: Read>(
    input: R,
    conn: u64,
    max_line: usize,
    events: &Sender<Event>,
    closing: &AtomicBool,
    faults: &FaultPlan,
) {
    let post = |event: ConnEvent| events.send(Event::Conn(event)).is_ok();
    let mut reader = BufReader::new(input);
    let mut line_no: u64 = 0;
    while !closing.load(Ordering::SeqCst) {
        let event = match read_bounded_line(&mut reader, max_line, closing) {
            BoundedLine::Text(line) if line.trim().is_empty() => continue,
            BoundedLine::Text(line) => {
                line_no += 1;
                // Injected garbage: this request line arrives as
                // non-UTF-8 bytes (answered in band as bad_request).
                if faults.conn_garbage_hit(conn, line_no) {
                    ConnEvent::Rejected {
                        conn,
                        line_no,
                        reason: NOT_UTF8.into(),
                    }
                } else {
                    ConnEvent::Line {
                        conn,
                        line_no,
                        line,
                    }
                }
            }
            BoundedLine::Rejected(reason) => {
                line_no += 1;
                ConnEvent::Rejected {
                    conn,
                    line_no,
                    reason,
                }
            }
            BoundedLine::Eof => break,
        };
        if !post(event) {
            break;
        }
    }
    post(ConnEvent::Eof { conn });
}

fn spawn_reader<R: Read + Send + 'static>(
    input: R,
    conn: u64,
    max_line: usize,
    events: Sender<Event>,
    closing: Arc<AtomicBool>,
    faults: FaultPlan,
) {
    std::thread::spawn(move || reader_loop(input, conn, max_line, &events, &closing, &faults));
}

/// The dispatcher's side of a connection's writer thread.
pub(crate) struct WriterHandle {
    lines: SyncSender<String>,
    thread: JoinHandle<()>,
}

impl WriterHandle {
    /// Close the queue and wait for the writer to flush it (or fail).
    fn close(self) {
        drop(self.lines);
        let _ = self.thread.join();
    }
}

fn spawn_writer<W: Write + Send + 'static>(
    output: W,
    conn: u64,
    faults: FaultPlan,
) -> WriterHandle {
    let (lines, rx) = sync_channel::<String>(WRITER_QUEUE);
    let thread = std::thread::spawn(move || writer_loop(output, &rx, conn, &faults));
    WriterHandle { lines, thread }
}

fn writer_loop<W: Write>(output: W, lines: &Receiver<String>, conn: u64, faults: &FaultPlan) {
    let mut out = std::io::BufWriter::new(output);
    while let Ok(line) = lines.recv() {
        // Injected slowloris: this connection's peer reads slowly, so
        // every line takes `conn_stall` ms to leave the daemon.
        if let Some(stall) = faults.conn_stall(conn) {
            std::thread::sleep(stall);
        }
        let write = out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
        if write.is_err() {
            // Peer gone, or the write deadline passed: the dispatcher
            // closes the connection on its next line.
            break;
        }
    }
}

/// Dispatcher-side state of one open connection.
struct ConnState {
    writer: WriterHandle,
    /// Control clone of the socket for force-closes; `None` for the
    /// stdio connection, which is exempt from the connection policies
    /// (in-flight cap, idle reap, slow-close) and whose writes block
    /// on a full queue instead.
    ctrl: Option<SocketStream>,
    in_flight: u64,
    header_sent: bool,
    /// Reader saw EOF: close once `in_flight` drains.
    draining: bool,
    /// Last request line (or delivery) — feeds the idle timeout.
    last_activity: Instant,
    /// Outbound lines handed to this connection (1-based when the next
    /// line is `sent_lines + 1`); drives the `conn_drop` fault.
    sent_lines: u64,
}

impl ConnState {
    fn new(writer: WriterHandle, ctrl: Option<SocketStream>) -> ConnState {
        ConnState {
            writer,
            ctrl,
            in_flight: 0,
            header_sent: false,
            draining: false,
            last_activity: Instant::now(),
            sent_lines: 0,
        }
    }

    fn is_stdio(&self) -> bool {
        self.ctrl.is_none()
    }

    /// Idle with nothing owed to it: the idle timeout may reap it.
    fn reapable(&self) -> bool {
        !self.is_stdio() && self.in_flight == 0 && !self.draining
    }

    /// When the idle timeout reaps this connection, if it is reapable.
    fn wake_at(&self, idle_timeout: Option<Duration>) -> Option<Instant> {
        idle_timeout
            .filter(|_| self.reapable())
            .map(|idle| self.last_activity + idle)
    }
}

/// How a connection is torn down.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseMode {
    /// Flush everything queued to the peer, then sever: drop the
    /// writer's sender (it drains the queue), join it, shut the socket
    /// down so the peer sees EOF even if it never half-closed.
    Graceful,
    /// Sever first, then reap: shut the socket down (unblocking a
    /// writer stuck in a send to a non-reading peer), drop the sender,
    /// join. Queued lines are discarded.
    Abort,
}

struct Dispatcher {
    service: CompileService,
    options: TransportOptions,
    /// Serving a listener: ops carry the `"transport"` object and the
    /// Prometheus dump carries connection gauges.
    sockets: bool,
    /// Cleared at shutdown: request lines still in the queue are then
    /// not accepted.
    accepting: bool,
    conns: HashMap<u64, ConnState>,
    /// Accept order of open connections (snapshot stability).
    conn_order: Vec<u64>,
    /// Private submission token → (connection, client id).
    pending: HashMap<u64, (u64, u64)>,
    next_token: u64,
    accepted: u64,
    closed: u64,
    requests: u64,
    failures: u64,
    conn_shed: u64,
    conn_slow_closed: u64,
    conn_idle_reaped: u64,
    conn_refused: u64,
    conn_written_off: u64,
}

impl Dispatcher {
    fn new(service: CompileService, options: TransportOptions, sockets: bool) -> Dispatcher {
        Dispatcher {
            service,
            options,
            sockets,
            accepting: true,
            conns: HashMap::new(),
            conn_order: Vec::new(),
            pending: HashMap::new(),
            next_token: 1,
            accepted: 0,
            closed: 0,
            requests: 0,
            failures: 0,
            conn_shed: 0,
            conn_slow_closed: 0,
            conn_idle_reaped: 0,
            conn_refused: 0,
            conn_written_off: 0,
        }
    }

    fn transport_snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            open: self.conns.len() as u64,
            accepted: self.accepted,
            closed: self.closed,
            connections: self
                .conn_order
                .iter()
                .filter_map(|conn| self.conns.get(conn).map(|state| (*conn, state.in_flight)))
                .collect(),
            conn_shed: self.conn_shed,
            conn_slow_closed: self.conn_slow_closed,
            conn_idle_reaped: self.conn_idle_reaped,
            conn_refused: self.conn_refused,
            conn_written_off: self.conn_written_off,
        }
    }

    fn open(&mut self, conn: u64, writer: WriterHandle, ctrl: Option<SocketStream>) {
        self.accepted += 1;
        self.conn_order.push(conn);
        self.conns.insert(conn, ConnState::new(writer, ctrl));
    }

    /// The instant the dispatcher must wake by if no event arrives: the
    /// earliest outstanding request deadline or idle-reap time. `None`
    /// when nothing is timed — the dispatcher then waits for the next
    /// event, bounded only by its shutdown check.
    fn next_wake(&self) -> Option<Instant> {
        let idle = self.options.idle_timeout;
        self.conns
            .values()
            .filter_map(|state| state.wake_at(idle))
            .chain(self.service.next_deadline())
            .min()
    }

    /// Close a connection and write off whatever it still has in
    /// flight: each pending token leaves the exactly-once tables
    /// ([`CompileService::write_off`]) so late shard replies are
    /// dropped and counted instead of delivered to nowhere.
    fn close_conn(&mut self, conn: u64, mode: CloseMode) {
        let Some(state) = self.conns.remove(&conn) else {
            return;
        };
        self.conn_order.retain(|&c| c != conn);
        self.closed += 1;
        let tokens: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, (c, _))| *c == conn)
            .map(|(&t, _)| t)
            .collect();
        for token in tokens {
            self.pending.remove(&token);
            self.conn_written_off += 1;
            // `false` means the response already left the service and
            // sits in our delivery path; `deliver` drops it (the token
            // is no longer pending) — still exactly once.
            let _ = self.service.write_off(token);
        }
        let sever = || {
            if let Some(ctrl) = &state.ctrl {
                let _ = ctrl.shutdown_both();
            }
        };
        if mode == CloseMode::Abort {
            // Sever before joining: a writer blocked mid-send to a
            // non-reading peer wakes with an error instead of wedging
            // the dispatcher on the join below.
            sever();
        }
        state.writer.close();
        if mode == CloseMode::Graceful {
            // Writer has flushed; now tell a peer that never
            // half-closed that this side is done.
            sever();
        }
    }

    /// Hand a rendered line to a connection's writer. Socket
    /// connections never block the dispatcher: a full queue slow-closes
    /// the connection, and a dead writer or an injected `conn_drop`
    /// closes it. The stdio connection blocks instead, so a slow
    /// consumer stalls the daemon and no line is dropped. Returns
    /// `false` iff the line will never reach the peer.
    fn send_line(&mut self, conn: u64, line: String) -> bool {
        let next = match self.conns.get(&conn) {
            Some(state) => state.sent_lines + 1,
            None => return false,
        };
        if self.options.faults.conn_drop_hit(conn, next) {
            // Abrupt disconnect in place of this line.
            self.close_conn(conn, CloseMode::Abort);
            return false;
        }
        let state = self.conns.get_mut(&conn).expect("conn checked above");
        state.sent_lines = next;
        let sent = if state.is_stdio() {
            state.writer.lines.send(line).is_ok()
        } else {
            match state.writer.lines.try_send(line) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    self.conn_slow_closed += 1;
                    false
                }
                // Writer thread exited: the peer is gone.
                Err(TrySendError::Disconnected(_)) => false,
            }
        };
        if !sent {
            self.close_conn(conn, CloseMode::Abort);
        }
        sent
    }

    /// Reap connections with zero in-flight work that have been silent
    /// past the idle timeout. A request that reached the dispatcher
    /// first wins: its connection has in-flight work and is exempt.
    fn reap_idle(&mut self) {
        let Some(timeout) = self.options.idle_timeout else {
            return;
        };
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| s.reapable() && s.last_activity.elapsed() >= timeout)
            .map(|(&c, _)| c)
            .collect();
        for conn in idle {
            self.conn_idle_reaped += 1;
            self.close_conn(conn, CloseMode::Graceful);
        }
    }

    /// Deliver a service response to its submitting connection,
    /// remapping the private token back to the client's id.
    fn deliver(&mut self, mut response: CompileResponse) {
        let Some((conn, client_id)) = self.pending.remove(&response.id) else {
            // Unknown token: a response for a request whose connection
            // was closed and written off while it was in flight (or,
            // defensively, a token we never submitted). Drop it — the
            // write-off already accounted for it.
            return;
        };
        response.id = client_id;
        if response.result.is_err() {
            self.failures += 1;
        }
        let Some(state) = self.conns.get_mut(&conn) else {
            return; // connection closed while the request was in flight
        };
        state.in_flight = state.in_flight.saturating_sub(1);
        state.last_activity = Instant::now();
        // Every client needs the C++ runtime header once: it rides the
        // first `.cpp`-carrying response of each connection.
        if !state.header_sent {
            if let Ok(artifacts) = &mut response.result {
                if artifacts.files.iter().any(|(n, _)| n.ends_with(".cpp")) {
                    artifacts.files.insert(
                        0,
                        ("gmc_runtime.hpp".to_string(), crate::emit_runtime_header()),
                    );
                    state.header_sent = true;
                }
            }
        }
        let close = state.draining && state.in_flight == 0;
        if !self.send_line(conn, jsonl::response_line(&response)) {
            // The connection died with this response in hand; the
            // request is written off like its siblings.
            self.conn_written_off += 1;
        } else if close {
            self.close_conn(conn, CloseMode::Graceful);
        }
    }

    fn bad_request(&mut self, conn: u64, id: u64, message: String) {
        self.failures += 1;
        let response = CompileResponse::failure(id, FailureKind::BadRequest, message);
        let _ = self.send_line(conn, jsonl::response_line(&response));
    }

    fn handle_line(&mut self, conn: u64, line_no: u64, line: &str) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return; // closed (slow-close/reap/refusal) while the line was in transit
        };
        state.last_activity = Instant::now();
        self.requests += 1;
        let raw = match jsonl::parse_request(line) {
            Ok(raw) => raw,
            Err(msg) => {
                self.bad_request(conn, line_no, format!("bad request line: {msg}"));
                return;
            }
        };
        // Requests without an explicit id get their 1-based position in
        // the connection's stream; explicit ids pass through untouched.
        let id = raw.id.unwrap_or(line_no);
        match raw.op.as_deref() {
            // Stats, health and metrics read the counters each shard
            // publishes, so they answer at once even when shards are
            // wedged; stats counts what the shards have answered so
            // far, not compiles still queued behind it.
            Some("stats") => {
                let line = jsonl::stats_line(id, &self.service.stats());
                self.send_line(conn, line);
            }
            Some("health") => {
                let health = self.service.health();
                let line = if self.sockets {
                    jsonl::health_line_with_transport(id, &health, &self.transport_snapshot())
                } else {
                    jsonl::health_line(id, &health)
                };
                self.send_line(conn, line);
            }
            Some("metrics") => {
                let metrics = self.service.metrics();
                let transport = self.sockets.then(|| self.transport_snapshot());
                // A metrics query also refreshes the Prometheus dump, so
                // scrapers watching the file see the snapshot the client
                // got in band.
                if let Some(path) = &self.options.metrics_file {
                    let mut text = metrics.to_prometheus();
                    if let Some(transport) = &transport {
                        transport.write_prometheus(&mut text);
                    }
                    if let Err(e) = std::fs::write(path, text) {
                        eprintln!(
                            "gmc-serve: writing metrics file {} failed: {e}",
                            path.display()
                        );
                    }
                }
                let line = match &transport {
                    Some(transport) => jsonl::metrics_line_with_transport(id, &metrics, transport),
                    None => jsonl::metrics_line(id, &metrics),
                };
                self.send_line(conn, line);
            }
            Some("fault") if !self.options.enable_faults => {
                self.bad_request(
                    conn,
                    id,
                    "fault injection is disabled (run with --enable-faults)".into(),
                );
            }
            Some("fault") => match raw.spec.as_deref() {
                Some(spec) => match self.options.faults.arm(spec) {
                    Ok(()) => {
                        self.send_line(conn, jsonl::ack_line(id, "fault"));
                    }
                    Err(e) => self.bad_request(conn, id, format!("bad fault spec: {e}")),
                },
                None => self.bad_request(conn, id, "fault op needs a `spec` field".into()),
            },
            Some(other) => self.bad_request(conn, id, format!("unknown op `{other}`")),
            None => {
                let emit = match raw.emit.as_deref().map(Emit::parse) {
                    None => self.options.default_emit,
                    Some(Ok(emit)) => emit,
                    Some(Err(msg)) => {
                        self.bad_request(conn, id, msg);
                        return;
                    }
                };
                // Per-connection admission: over the cap, shed in band
                // with retryable `overloaded` (ops bypass the cap, so a
                // saturated daemon stays observable).
                let cap = self.options.conn_in_flight_cap;
                if cap > 0
                    && self
                        .conns
                        .get(&conn)
                        .is_some_and(|s| !s.is_stdio() && s.in_flight >= cap as u64)
                {
                    self.conn_shed += 1;
                    self.failures += 1;
                    let response = CompileResponse::failure(
                        id,
                        FailureKind::Overloaded,
                        format!(
                            "connection in-flight cap reached ({cap} outstanding); \
                             read a response before sending more, or retry"
                        ),
                    );
                    let _ = self.send_line(conn, jsonl::response_line(&response));
                    return;
                }
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, (conn, id));
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.in_flight += 1;
                }
                self.service.submit(CompileRequest {
                    id: token,
                    name: raw.name,
                    source: raw.source,
                    emit,
                    deadline: raw.deadline_ms.map(Duration::from_millis),
                });
            }
        }
    }

    fn handle_event(&mut self, event: ConnEvent) {
        match event {
            ConnEvent::Opened { conn, writer, ctrl } => {
                if self.options.max_conns > 0 && self.conns.len() >= self.options.max_conns {
                    // Accept-then-refuse: the peer gets one typed line
                    // telling it why (and that retrying is sane), then
                    // the connection closes.
                    self.accepted += 1;
                    self.conn_refused += 1;
                    self.closed += 1;
                    self.failures += 1;
                    let refusal = CompileResponse::failure(
                        0,
                        FailureKind::Overloaded,
                        format!(
                            "connection refused: daemon at max-conns ({}); retry later",
                            self.options.max_conns
                        ),
                    );
                    let _ = writer.lines.try_send(jsonl::response_line(&refusal));
                    writer.close();
                    let _ = ctrl.shutdown_both();
                    return;
                }
                self.open(conn, writer, Some(ctrl));
            }
            // Shutdown stops intake: request lines still queued behind
            // the shutdown check are not accepted.
            ConnEvent::Line { .. } | ConnEvent::Rejected { .. } if !self.accepting => {}
            ConnEvent::Line {
                conn,
                line_no,
                line,
            } => self.handle_line(conn, line_no, &line),
            ConnEvent::Rejected {
                conn,
                line_no,
                reason,
            } => {
                if self.conns.contains_key(&conn) {
                    self.requests += 1;
                    self.bad_request(conn, line_no, reason);
                }
            }
            ConnEvent::Eof { conn } => {
                let close_now = match self.conns.get_mut(&conn) {
                    Some(state) => {
                        state.draining = true;
                        state.in_flight == 0
                    }
                    None => false,
                };
                if close_now {
                    self.close_conn(conn, CloseMode::Graceful);
                }
            }
        }
    }

    /// Block until the next response, connection event, or `until`, and
    /// act on it; `false` if `until` passed with nothing to do.
    fn step(&mut self, until: Option<Instant>) -> bool {
        match self.service.wait(until) {
            Wake::Response(response) => self.deliver(response),
            Wake::Conn(event) => self.handle_event(event),
            Wake::Timeout => return false,
        }
        true
    }
}

/// The accept thread and what stopping it needs.
struct Acceptor {
    thread: JoinHandle<std::io::Result<()>>,
    addr: ListenAddr,
    /// The path to unlink when serving ends (Unix sockets only).
    cleanup: Option<PathBuf>,
}

impl Acceptor {
    /// Accept connections until `closing` is set; each gets a reader
    /// and a writer thread, announced to the dispatcher as
    /// [`ConnEvent::Opened`].
    fn spawn(
        listener: SocketListener,
        events: &Sender<Event>,
        closing: &Arc<AtomicBool>,
        options: &TransportOptions,
    ) -> Acceptor {
        let addr = listener.local.clone();
        let cleanup = listener.cleanup.clone();
        let (events, closing) = (events.clone(), Arc::clone(closing));
        let faults = options.faults.clone();
        let max_line = options.max_line_bytes;
        let thread = std::thread::spawn(move || {
            let mut next_conn: u64 = 0;
            loop {
                let stream = match listener.accept() {
                    Ok(stream) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                // Woken by the dispatcher's self-connect (or a client
                // racing the shutdown): stop accepting.
                if closing.load(Ordering::SeqCst) {
                    return Ok(());
                }
                next_conn += 1;
                let conn = next_conn;
                stream.set_read_timeout(Some(POLL_INTERVAL))?;
                let write_half = stream.try_clone()?;
                write_half.set_write_timeout(Some(WRITE_DEADLINE))?;
                let ctrl = stream.try_clone()?;
                let writer = spawn_writer(write_half, conn, faults.clone());
                // Opened is enqueued before the reader spawns, so the
                // dispatcher never sees a Line for an unknown connection.
                let opened = ConnEvent::Opened { conn, writer, ctrl };
                if events.send(Event::Conn(opened)).is_err() {
                    return Ok(());
                }
                let (events, closing, faults) =
                    (events.clone(), Arc::clone(&closing), faults.clone());
                spawn_reader(stream, conn, max_line, events, closing, faults);
            }
        });
        Acceptor {
            thread,
            addr,
            cleanup,
        }
    }

    /// Wake the blocked `accept` with a self-connect, join the thread,
    /// and unlink the socket file. Call after setting `closing`.
    fn stop(self) -> std::io::Result<()> {
        let woke = SocketStream::connect(&self.addr).is_ok();
        // Without a wake-up (the socket file was removed from under us)
        // a thread still blocked in accept is left behind, not joined.
        let result = if woke || self.thread.is_finished() {
            self.thread.join().unwrap_or(Ok(()))
        } else {
            Ok(())
        };
        if let Some(path) = &self.cleanup {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Where a dispatcher's connections come from.
pub enum Front {
    /// Accept unix/TCP connections until the shutdown flag is set.
    Listen(SocketListener),
    /// Serve one JSONL stream — stdin/stdout, or a request file — as
    /// connection 0, until it reaches EOF and drains, or until the
    /// shutdown flag is set. Connection 0 keeps the stdin daemon's
    /// contract: no in-flight cap, idle reap, or slow-close applies, a
    /// slow consumer stalls the daemon instead of losing lines, and ops
    /// answer without the `"transport"` object.
    Stdio {
        /// The request stream.
        input: Box<dyn Read + Send>,
        /// Where response lines go.
        output: Box<dyn Write + Send>,
    },
}

/// Run the socket daemon: accept connections on `listener` and serve
/// them from one shared `service` until `shutdown` is set (or the
/// listener dies), then drain gracefully. Returns the still-running
/// service — the caller persists the final snapshot and metrics dump,
/// then calls [`CompileService::shutdown`] — plus the transport report.
///
/// The calling thread becomes the dispatcher (see the module docs for
/// the full threading model).
///
/// # Errors
///
/// Propagates listener I/O failures surfaced by the accept loop.
pub fn serve(
    listener: SocketListener,
    service: CompileService,
    options: TransportOptions,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<(CompileService, TransportReport)> {
    serve_front(Front::Listen(listener), service, options, &shutdown)
}

/// [`serve`] for any [`Front`], watching a borrowed shutdown flag (a
/// signal handler's static works). The calling thread becomes the
/// dispatcher; it returns once the front is done — shutdown, or the
/// stdio stream drained — and everything in flight is answered.
///
/// # Errors
///
/// Propagates listener I/O failures surfaced by the accept loop.
pub fn serve_front(
    front: Front,
    service: CompileService,
    options: TransportOptions,
    shutdown: &AtomicBool,
) -> std::io::Result<(CompileService, TransportReport)> {
    let events = service.events();
    // Set once shutdown is seen: readers stop pulling requests and the
    // accept loop exits on its next wake-up.
    let closing = Arc::new(AtomicBool::new(false));
    let mut d = Dispatcher::new(service, options, matches!(front, Front::Listen(_)));
    let acceptor = match front {
        Front::Listen(listener) => Some(Acceptor::spawn(listener, &events, &closing, &d.options)),
        Front::Stdio { input, output } => {
            let faults = d.options.faults.clone();
            d.open(0, spawn_writer(output, 0, faults.clone()), None);
            let max_line = d.options.max_line_bytes;
            spawn_reader(input, 0, max_line, events, Arc::clone(&closing), faults);
            None
        }
    };
    loop {
        d.reap_idle();
        if acceptor.is_none() && d.conns.is_empty() {
            break; // connection 0 reached EOF and drained
        }
        if shutdown.load(Ordering::SeqCst) {
            eprintln!("gmc-serve: shutdown signal received; draining connections");
            closing.store(true, Ordering::SeqCst);
            // Requests that already reached the queue get answered;
            // lines that arrive from now on are not accepted.
            while d.step(Some(Instant::now())) {}
            d.accepting = false;
            break;
        }
        // Block until the next event or timed obligation. The cap only
        // re-checks the shutdown flag: a signal handler can only store
        // an atomic.
        let check = Instant::now() + POLL_INTERVAL;
        d.step(Some(d.next_wake().map_or(check, |wake| wake.min(check))));
    }

    // Graceful drain: answer everything in flight to its connection. A
    // peer that won't read is slow-closed once its queue fills, and
    // each writer gives up after its write deadline, so this and the
    // closes below terminate.
    loop {
        d.reap_idle();
        if d.service.pending() == 0 {
            break;
        }
        d.step(d.next_wake());
    }
    for conn in d.conn_order.clone() {
        d.close_conn(conn, CloseMode::Graceful);
    }
    if let Some(acceptor) = acceptor {
        acceptor.stop()?;
    }
    let report = TransportReport {
        accepted: d.accepted,
        requests: d.requests,
        failures: d.failures,
        snapshot: d.transport_snapshot(),
    };
    Ok((d.service, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;

    #[test]
    fn listen_addresses_parse_both_families() {
        assert_eq!(
            ListenAddr::parse("unix:/tmp/gmc.sock"),
            ListenAddr::Unix(PathBuf::from("/tmp/gmc.sock"))
        );
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:7070"),
            ListenAddr::Tcp("127.0.0.1:7070".into())
        );
        // A bare socket address is TCP; anything else is a path.
        assert_eq!(
            ListenAddr::parse("127.0.0.1:0"),
            ListenAddr::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            ListenAddr::parse("/run/gmc.sock"),
            ListenAddr::Unix(PathBuf::from("/run/gmc.sock"))
        );
        assert_eq!(
            ListenAddr::parse("unix:/a b/c.sock").to_string(),
            "unix:/a b/c.sock"
        );
    }

    #[test]
    fn transport_snapshot_renders_prometheus_gauges() {
        let snapshot = TransportSnapshot {
            open: 2,
            accepted: 3,
            closed: 1,
            connections: vec![(2, 4), (3, 0)],
            conn_shed: 7,
            conn_slow_closed: 2,
            conn_idle_reaped: 5,
            conn_refused: 1,
            conn_written_off: 6,
        };
        let mut out = String::new();
        snapshot.write_prometheus(&mut out);
        assert!(out.contains("# TYPE gmc_connections gauge"));
        assert!(out.contains("gmc_connections 2\n"));
        assert!(out.contains("# TYPE gmc_connections_accepted_total counter"));
        assert!(out.contains("gmc_connections_accepted_total 3\n"));
        assert!(out.contains("gmc_connections_closed_total 1\n"));
        assert!(out.contains("# TYPE gmc_conn_shed_total counter"));
        assert!(out.contains("gmc_conn_shed_total 7\n"));
        assert!(out.contains("gmc_conn_slow_closed_total 2\n"));
        assert!(out.contains("gmc_conn_idle_reaped_total 5\n"));
        assert!(out.contains("gmc_conn_refused_total 1\n"));
        assert!(out.contains("gmc_conn_written_off_total 6\n"));
        assert!(out.contains("gmc_conn_in_flight{conn=\"2\"} 4\n"));
        assert!(out.contains("gmc_conn_in_flight{conn=\"3\"} 0\n"));
        // One TYPE line covers every per-connection gauge.
        assert_eq!(out.matches("# TYPE gmc_conn_in_flight").count(), 1);
    }

    const SRC: &str = "
        Matrix A <General, Singular>;
        Matrix L <LowerTri, NonSingular>;
        X := A * L^-1;
    ";

    fn fast_config(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            options: gmc_core::CompileOptions {
                training_instances: 60,
                ..gmc_core::CompileOptions::default()
            },
            ..ServeConfig::default()
        }
    }

    fn request_line(id: u64) -> String {
        format!(
            "{{\"id\":{id},\"emit\":\"cpp\",\"source\":\"{}\"}}",
            SRC.replace('\n', "\\n")
        )
    }

    /// Two clients pipeline requests over one Unix socket daemon:
    /// every id is answered exactly once on the submitting connection
    /// (both clients reuse the same ids — the id namespace is
    /// per-connection), ops interleave with compiles, and the report
    /// sees both connections.
    #[test]
    fn socket_round_trip_pipelines_and_remaps_ids() {
        let dir = std::env::temp_dir().join("gmc_transport_roundtrip_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr = ListenAddr::Unix(dir.join("gmc.sock"));
        let listener = SocketListener::bind(&addr).unwrap();
        let service = CompileService::start(fast_config(2)).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let serve_shutdown = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            serve(
                listener,
                service,
                TransportOptions::default(),
                serve_shutdown,
            )
        });

        let run_client = |ids: &[u64], with_health: bool| {
            let mut stream = SocketStream::connect(&addr).unwrap();
            for id in ids {
                stream.write_all(request_line(*id).as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
            }
            if with_health {
                stream
                    .write_all(b"{\"op\":\"health\",\"id\":9000}\n")
                    .unwrap();
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

        let ids_a: Vec<u64> = vec![100, 1, 7];
        let ids_b: Vec<u64> = vec![7, 100];
        let (lines_a, lines_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| run_client(&ids_a, true));
            let b = scope.spawn(|| run_client(&ids_b, false));
            (a.join().unwrap(), b.join().unwrap())
        });

        // Exactly one response per submitted id, on the right
        // connection, every compile ok.
        let collect_ids = |lines: &[String]| -> Vec<u64> {
            lines
                .iter()
                .filter(|l| !l.contains("\"op\":\"health\""))
                .map(|l| {
                    assert!(l.contains("\"ok\":true"), "unexpected failure: {l}");
                    let rest = &l[l.find("\"id\":").unwrap() + 5..];
                    rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
                })
                .collect()
        };
        let mut got_a = collect_ids(&lines_a);
        got_a.sort_unstable();
        assert_eq!(got_a, vec![1, 7, 100]);
        let mut got_b = collect_ids(&lines_b);
        got_b.sort_unstable();
        assert_eq!(got_b, vec![7, 100]);

        // Client A's health response carries the transport object.
        let health = lines_a
            .iter()
            .find(|l| l.contains("\"op\":\"health\""))
            .expect("health answered");
        assert!(health.contains("\"id\":9000"));
        assert!(health.contains("\"transport\":{\"open\":"));
        assert!(health.contains("\"accepted\":"));

        // The runtime header rides the first .cpp response of EACH
        // connection (generated .cpp files merely *include* it, so
        // match the attached-file name, not the include line).
        for lines in [&lines_a, &lines_b] {
            let headers = lines
                .iter()
                .filter(|l| l.contains("{\"name\":\"gmc_runtime.hpp\""))
                .count();
            assert_eq!(headers, 1, "one header per connection");
        }

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.requests, 6, "5 compiles + 1 health");
        assert_eq!(report.failures, 0);
        assert_eq!(report.snapshot.open, 0, "both clients drained and closed");
        assert_eq!(report.snapshot.closed, 2);
        let stats = service.shutdown();
        assert_eq!(stats.requests(), 5);
        assert!(!addr.to_string().is_empty());
        assert!(
            !dir.join("gmc.sock").exists(),
            "socket file cleaned up after serve"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    type DaemonHandle = JoinHandle<std::io::Result<(CompileService, TransportReport)>>;

    fn start_daemon(
        dir: &std::path::Path,
        config: ServeConfig,
        options: TransportOptions,
    ) -> (ListenAddr, Arc<AtomicBool>, DaemonHandle) {
        let addr = ListenAddr::Unix(dir.join("gmc.sock"));
        let listener = SocketListener::bind(&addr).unwrap();
        let service = CompileService::start(config).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let serve_shutdown = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || serve(listener, service, options, serve_shutdown));
        (addr, shutdown, handle)
    }

    fn read_all_lines(stream: SocketStream) -> Vec<String> {
        let mut lines = Vec::new();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            lines.push(std::mem::take(&mut line).trim_end().to_string());
        }
        lines
    }

    /// Exactly at the cap requests are admitted; one past the cap is
    /// shed in band with retryable `overloaded`; once responses drain
    /// the window, the connection is under the cap again and new
    /// requests are served.
    #[test]
    fn in_flight_cap_sheds_at_cap_and_frees_as_responses_drain() {
        let dir = std::env::temp_dir().join("gmc_transport_cap_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let faults = FaultPlan::parse("delay:100").unwrap();
        let mut config = fast_config(1);
        config.faults = faults.clone();
        let options = TransportOptions {
            conn_in_flight_cap: 2,
            faults,
            ..TransportOptions::default()
        };
        let (addr, shutdown, handle) = start_daemon(&dir, config, options);

        let mut stream = SocketStream::connect(&addr).unwrap();
        // Pipeline cap + 1 requests while the shard sleeps in the
        // injected delay: ids 1 and 2 occupy the window, id 3 is shed.
        for id in [1, 2, 3] {
            stream.write_all(request_line(id).as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut lines = Vec::new();
        let mut line = String::new();
        for _ in 0..3 {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0);
            lines.push(line.trim_end().to_string());
        }
        let shed = lines
            .iter()
            .find(|l| l.contains("\"id\":3"))
            .expect("shed response for id 3");
        assert!(shed.contains("\"ok\":false"), "shed in band: {shed}");
        assert!(
            shed.contains("\"kind\":\"overloaded\""),
            "retryable: {shed}"
        );
        assert!(shed.contains("connection in-flight cap reached"));
        for id in [1, 2] {
            let ok = lines
                .iter()
                .find(|l| l.contains(&format!("\"id\":{id}")))
                .expect("admitted response");
            assert!(ok.contains("\"ok\":true"), "under the cap: {ok}");
        }
        // Window drained: the next request is admitted again.
        stream.write_all(request_line(4).as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        stream.shutdown_write().unwrap();
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        assert!(line.contains("\"id\":4") && line.contains("\"ok\":true"));

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_shed, 1);
        assert_eq!(report.failures, 1);
        assert_eq!(report.snapshot.conn_written_off, 0);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Over `max_conns`, a connection is accepted, refused with one
    /// typed in-band `overloaded` line, and closed — and once the
    /// population drops, new connections are served again.
    #[test]
    fn max_conns_refuses_with_a_typed_line_then_recovers() {
        let dir = std::env::temp_dir().join("gmc_transport_maxconns_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let options = TransportOptions {
            max_conns: 1,
            ..TransportOptions::default()
        };
        let (addr, shutdown, handle) = start_daemon(&dir, fast_config(1), options);

        // First client occupies the only slot.
        let mut first = SocketStream::connect(&addr).unwrap();
        first.write_all(request_line(1).as_bytes()).unwrap();
        first.write_all(b"\n").unwrap();
        first.flush().unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut line = String::new();
        assert!(first_reader.read_line(&mut line).unwrap() > 0);
        assert!(line.contains("\"ok\":true"));

        // Second client is refused with exactly one typed line, then EOF.
        let second = SocketStream::connect(&addr).unwrap();
        let refused = read_all_lines(second);
        assert_eq!(
            refused,
            vec!["{\"id\":0,\"ok\":false,\"kind\":\"overloaded\",\
                 \"error\":\"connection refused: daemon at max-conns (1); retry later\"}"
                .to_string()]
        );

        // Slot freed: a third client is served.
        first.shutdown_write().unwrap();
        line.clear();
        assert_eq!(first_reader.read_line(&mut line).unwrap(), 0, "drained");
        let mut third = SocketStream::connect(&addr).unwrap();
        third.write_all(request_line(1).as_bytes()).unwrap();
        third.write_all(b"\n").unwrap();
        third.flush().unwrap();
        third.shutdown_write().unwrap();
        let lines = read_all_lines(third);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"ok\":true"));

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_refused, 1);
        assert_eq!(report.accepted, 3, "refused connections count as accepted");
        assert_eq!(report.snapshot.closed, 3);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A client that pipelines forever and never reads is slow-closed
    /// the moment a response finds its writer queue full, even though
    /// it half-closed first; its in-flight work is written off through
    /// the exactly-once tables, daemon memory stays bounded by the
    /// queue, and the daemon keeps serving polite clients.
    #[test]
    fn never_reading_pipeliner_is_slow_closed_and_written_off() {
        let dir = std::env::temp_dir().join("gmc_transport_slowclose_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The connection's writer stalls 500 ms per line while the shard
        // answers hits in microseconds, so responses pile up in the
        // queue and the one past `WRITER_QUEUE` closes the connection.
        let faults = FaultPlan::parse("conn_stall:1:500").unwrap();
        let mut config = fast_config(1);
        config.faults = faults.clone();
        let options = TransportOptions {
            conn_in_flight_cap: 0,
            faults,
            ..TransportOptions::default()
        };
        let (addr, shutdown, handle) = start_daemon(&dir, config, options);

        let sent = WRITER_QUEUE + 64;
        let mut greedy = SocketStream::connect(&addr).unwrap();
        let burst: String = (1..=sent as u64)
            .map(|id| request_line(id) + "\n")
            .collect();
        // The write may fail if the daemon closes the connection first.
        let _ = greedy.write_all(burst.as_bytes());
        // Half-close before the queue fills: the draining connection
        // must still be torn down by the slow-consumer policy, not
        // leaked.
        let _ = greedy.shutdown_write();
        let lines = read_all_lines(greedy);
        assert!(
            lines.len() < sent,
            "slow-closed before all responses: {} lines",
            lines.len()
        );

        // The daemon is healthy: a polite client still gets served.
        let mut polite = SocketStream::connect(&addr).unwrap();
        polite.write_all(request_line(1).as_bytes()).unwrap();
        polite.write_all(b"\n").unwrap();
        polite.flush().unwrap();
        polite.shutdown_write().unwrap();
        let polite_lines = read_all_lines(polite);
        assert_eq!(polite_lines.len(), 1);
        assert!(polite_lines[0].contains("\"ok\":true"));

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_slow_closed, 1);
        assert!(
            report.snapshot.conn_written_off >= 1,
            "the response that found the queue full is written off"
        );
        assert_eq!(report.snapshot.conn_shed, 0);
        let stats = service.shutdown();
        // Every admitted line, written off or not, reaches its shard
        // exactly once (late replies are dropped, not double-served).
        assert_eq!(stats.requests(), report.requests);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A burst that exactly fills the writer queue is no slow consumer:
    /// a client that reads its responses gets all `WRITER_QUEUE` op
    /// answers, which the dispatcher queues as fast as it reads the
    /// requests.
    #[test]
    fn reading_client_gets_a_full_queue_burst() {
        let dir = std::env::temp_dir().join("gmc_transport_burst_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (addr, shutdown, handle) =
            start_daemon(&dir, fast_config(1), TransportOptions::default());

        let mut client = SocketStream::connect(&addr).unwrap();
        let burst: String = (1..=WRITER_QUEUE)
            .map(|id| format!("{{\"op\":\"health\",\"id\":{id}}}\n"))
            .collect();
        client.write_all(burst.as_bytes()).unwrap();
        client.shutdown_write().unwrap();
        let lines = read_all_lines(client);
        assert_eq!(lines.len(), WRITER_QUEUE);
        assert!(lines.iter().all(|l| l.contains("\"ok\":true")));

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_slow_closed, 0);
        assert_eq!(report.snapshot.conn_written_off, 0);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Idle connections are reaped after the timeout; in-flight work
    /// exempts a connection even when the compile outlasts the idle
    /// window (a request racing the reaper wins — events are drained
    /// before the reap check runs).
    #[test]
    fn idle_connections_are_reaped_but_in_flight_work_is_exempt() {
        let dir = std::env::temp_dir().join("gmc_transport_idle_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let faults = FaultPlan::parse("delay:200").unwrap();
        let mut config = fast_config(1);
        config.faults = faults.clone();
        let options = TransportOptions {
            idle_timeout: Some(Duration::from_millis(80)),
            faults,
            ..TransportOptions::default()
        };
        let (addr, shutdown, handle) = start_daemon(&dir, config, options);

        let (silent_lines, busy_lines) = std::thread::scope(|scope| {
            let silent = scope.spawn(|| {
                // Never sends anything: reaped at the idle timeout.
                let stream = SocketStream::connect(&addr).unwrap();
                read_all_lines(stream)
            });
            let busy = scope.spawn(|| {
                // One request whose compile (injected 200 ms delay)
                // outlasts the 80 ms idle window: in-flight work
                // exempts the connection, so the response arrives;
                // only then does idleness reap it.
                let mut stream = SocketStream::connect(&addr).unwrap();
                stream.write_all(request_line(1).as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.flush().unwrap();
                read_all_lines(stream)
            });
            (silent.join().unwrap(), busy.join().unwrap())
        });
        assert!(silent_lines.is_empty(), "reaped without a response");
        assert_eq!(busy_lines.len(), 1);
        assert!(busy_lines[0].contains("\"ok\":true"));

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_idle_reaped, 2);
        assert_eq!(report.snapshot.conn_written_off, 0);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A response sink shared with the test.
    #[derive(Clone, Default)]
    struct Sink(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A stdio stream is connection 0: served to EOF and drained,
    /// requests without an id get their line position, the runtime
    /// header rides once, ops answer without the transport object, and
    /// the connection policies do not apply — a pipelined stream is
    /// never shed, even under a cap of 1.
    #[test]
    fn stdio_front_serves_connection_zero_to_eof() {
        let no_id = format!(
            "{{\"emit\":\"cpp\",\"source\":\"{}\"}}",
            SRC.replace('\n', "\\n")
        );
        let input = format!(
            "{}\n\n{no_id}\n{{\"op\":\"health\"}}\n{no_id}\n",
            request_line(7)
        );
        let sink = Sink::default();
        let front = Front::Stdio {
            input: Box::new(std::io::Cursor::new(input)),
            output: Box::new(sink.clone()),
        };
        let options = TransportOptions {
            conn_in_flight_cap: 1,
            ..TransportOptions::default()
        };
        let service = CompileService::start(fast_config(1)).unwrap();
        let (service, report) =
            serve_front(front, service, options, &AtomicBool::new(false)).unwrap();
        let _ = service.shutdown();

        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut ids: Vec<u64> = lines
            .iter()
            .map(|l| {
                assert!(l.contains("\"ok\":true"), "{l}");
                let rest = &l[l.find("\"id\":").unwrap() + 5..];
                rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3, 4, 7], "blank lines take no position");
        let health = lines
            .iter()
            .find(|l| l.contains("\"op\":\"health\""))
            .unwrap();
        assert!(!health.contains("\"transport\""), "{health}");
        assert_eq!(text.matches("{\"name\":\"gmc_runtime.hpp\"").count(), 1);
        assert_eq!((report.requests, report.failures), (4, 0));
        assert_eq!(report.snapshot.open, 0, "connection 0 closed after EOF");
        assert_eq!(report.snapshot.conn_shed, 0);
    }

    /// The dispatcher's wake-up instant is its earliest timed obligation:
    /// with nothing timed it is `None` (wait for the next event, bounded
    /// only by the shutdown check); otherwise it is exactly the one
    /// request deadline or idle-reap time — or the earliest of several.
    #[test]
    fn next_wake_is_the_earliest_timed_obligation() {
        let idle = Duration::from_millis(80);
        let options = TransportOptions {
            idle_timeout: Some(idle),
            ..TransportOptions::default()
        };
        let service = CompileService::start(fast_config(1)).unwrap();
        let mut d = Dispatcher::new(service, options, true);
        let conn = |socket: bool, last_activity: Instant| {
            let writer = WriterHandle {
                lines: sync_channel(1).0,
                thread: std::thread::spawn(|| {}),
            };
            let ctrl = socket.then(|| SocketStream::Unix(UnixStream::pair().unwrap().0));
            ConnState {
                last_activity,
                ..ConnState::new(writer, ctrl)
            }
        };
        let t0 = Instant::now();

        // Nothing pending: connection 0 is never reaped.
        d.conns.insert(0, conn(false, t0));
        assert_eq!(d.next_wake(), None);

        // Only the idle timeout.
        d.conns.insert(1, conn(true, t0));
        assert_eq!(d.next_wake(), Some(t0 + idle));

        // Only a request deadline.
        d.conns.remove(&1);
        let budget = Duration::from_secs(10);
        let before = Instant::now();
        d.service.submit(CompileRequest {
            id: 1,
            name: None,
            source: SRC.into(),
            emit: Emit::Cpp,
            deadline: Some(budget),
        });
        let after = Instant::now();
        let deadline = d.next_wake().expect("a request deadline is pending");
        assert!(before + budget <= deadline && deadline <= after + budget);

        // Several at once: the earliest, whichever kind it is.
        d.conns.insert(2, conn(true, t0));
        d.conns
            .insert(3, conn(true, t0 + Duration::from_millis(50)));
        assert_eq!(d.next_wake(), Some(t0 + idle), "idle reap first");

        let mut service = d.service;
        assert_eq!(service.drain().len(), 1);
        let _ = service.shutdown();
    }

    /// TCP binds to an ephemeral port and resolves the real address.
    #[test]
    fn tcp_listener_resolves_ephemeral_port() {
        let listener = SocketListener::bind(&ListenAddr::parse("127.0.0.1:0")).unwrap();
        let local = listener.local_addr().clone();
        match &local {
            ListenAddr::Tcp(addr) => assert!(!addr.ends_with(":0"), "real port resolved: {addr}"),
            ListenAddr::Unix(_) => panic!("bound TCP, got unix"),
        }
        let service = CompileService::start(fast_config(1)).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let serve_shutdown = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            serve(
                listener,
                service,
                TransportOptions::default(),
                serve_shutdown,
            )
        });
        let mut stream = SocketStream::connect(&local).unwrap();
        stream.write_all(request_line(1).as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        stream.shutdown_write().unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.contains("\"id\":1"));
        assert!(response.contains("\"ok\":true"));
        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.accepted, 1);
        let _ = service.shutdown();
    }
}
