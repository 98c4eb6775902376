//! Multiplexed transport for the serving layer: one dispatcher fronts
//! one shared [`CompileService`] with many concurrent JSONL connections
//! — Unix-domain or TCP sockets (`gmcc --serve --listen <addr>`), or a
//! single stdin/stdout stream as connection 0 (`gmcc --serve -`).
//!
//! # Threading model
//!
//! ```text
//!   listener ────┐   poll(2)                     ┌── shard 0 thread
//!   conn 1 ◄────►├──────────► dispatcher ────────┤── shard 1 thread
//!   conn 2 ◄────►│           (owns the           └── ...
//!     ...        │            CompileService)          │
//!   wake socket ─┘ ◄── one byte per event-queue post ──┘
//! ```
//!
//! One thread reads every request and writes every response: the
//! **dispatcher**, the thread that called [`serve_front`]. It blocks in
//! `poll(2)` over the listener, every connection — connection 0's
//! request stream included — and one wake socket, accepts connections,
//! frames request lines under the line cap (a hostile client cannot
//! grow daemon memory), and writes response lines itself, so a
//! connection costs no thread. It owns the [`CompileService`] unchanged:
//! admission control, deadlines, two-choices routing and exactly-once
//! bookkeeping are shared by all connections because there is still
//! exactly one submitter. Shards post finished requests to the
//! service's **one event queue**, and every post also writes a byte to
//! the wake socket, so a response is written the moment its shard
//! finishes; the loop drains the wake socket before the queue, so no
//! wake-up is lost. The poll timeout is the nearest instant the
//! dispatcher owes something — a request deadline, idle reap, write
//! deadline or `conn_stall` hold — so deadlines are exact; only while
//! nothing is timed does a coarse cap re-check the shutdown flag.
//!
//! # Stdin/stdout as connection 0
//!
//! [`Front::Stdio`] serves one request stream (a duplicate of stdin's
//! descriptor, or a file) and its response sink as connection 0 of the
//! same dispatcher, with the same framing, op dispatch and id rules.
//! The loop polls the stream beside the sockets and reads it once per
//! readiness. The descriptor stays blocking, since setting `O_NONBLOCK`
//! on a duplicate of an inherited stdin would leak to the parent's open
//! file description; a read after `poll(2)` reports the stream ready
//! does not block. Responses are written with blocking writes: a slow
//! consumer stalls the daemon instead of losing lines. No in-flight
//! cap, idle reap or slow-close applies, ops answer without the
//! `"transport"` object, and serving ends once the stream reaches EOF
//! and everything in flight is answered.
//!
//! # Pipelining and id remapping
//!
//! Clients may pipeline requests: responses come back on the submitting
//! connection in **completion order**, matched by `id`. Ids are the
//! client's own namespace — two connections may both use id 1 — so the
//! dispatcher submits under a private token and remaps each response
//! back on delivery. Requests without an id get their 1-based position
//! in that connection's stream.
//!
//! # Backpressure and the connection lifecycle
//!
//! Per-shard admission ([`ServeConfig::queue_cap`](crate::ServeConfig))
//! bounds the *fleet*; this layer bounds each *connection*:
//!
//! * **Per-connection admission**
//!   ([`TransportOptions::conn_in_flight_cap`]): a compile arriving
//!   while the connection has `cap` in flight is answered in band with
//!   retryable `overloaded`, so the cap → shed → client-retry loop
//!   (`gmcc --connect`'s jittered backoff) converges. Ops bypass the
//!   cap so a saturated daemon stays observable.
//! * **Bounded outbound buffers**: a socket connection has one output
//!   byte buffer; a line is appended and flushed at once, and what the
//!   socket does not take waits for `POLLOUT`. A line that arrives
//!   while 256 lines are unflushed **slow-closes** the connection: the
//!   socket is shut down and its in-flight work written off through the
//!   exactly-once bookkeeping ([`CompileService::write_off`]; late shard
//!   replies are dropped and counted). Output that makes no progress
//!   for 2 s (the write deadline) closes the connection with the same
//!   write-off. While more than 8 MiB are unflushed the connection's
//!   requests are not read, so its buffer holds at most 8 MiB plus the
//!   responses to requests already in flight, and a client that
//!   pipelines large responses and reads them is held back, not closed.
//! * **Lifecycle limits**: [`TransportOptions::max_conns`] refuses
//!   connections over the limit with a typed in-band `overloaded` line;
//!   [`TransportOptions::idle_timeout`] reaps connections with nothing
//!   in flight. A graceful close (half-closed and answered, reaped, or
//!   shutdown) stops reading, flushes through the loop under the write
//!   deadline, then shuts the socket down, so a slow reader never
//!   stalls another connection; until then the connection still counts
//!   against `max_conns`.
//!
//! Every shed/refusal/slow-close/reap increments a transport counter
//! (`conn_shed`, `conn_refused`, `conn_slow_closed`, `conn_idle_reaped`,
//! `conn_written_off`) that rides health/metrics responses and the
//! Prometheus dump.
//!
//! # Shutdown
//!
//! The dispatcher sees the shutdown flag (SIGTERM/SIGINT in `gmcc`)
//! when its poll returns — a signal interrupts it — or within the
//! coarse check. It answers the requests already queued, stops
//! accepting and reading, answers everything in flight, flushes every
//! buffer under the write deadline, closes the connections, unlinks
//! the socket file, and returns the still-running service so the
//! caller can write the final snapshot and metrics dump before
//! [`CompileService::shutdown`]. Stdin EOF runs the same drain.
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
use crate::service::{CompileRequest, CompileResponse, CompileService, Emit, FailureKind};
use gmc_obs::{write_prom_counter, write_prom_gauge};
use std::collections::HashMap;
use std::fs::File;
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long an idle dispatcher waits before re-checking the shutdown
/// flag: a signal handler can only store an atomic.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Unflushed lines a socket connection may hold; a line that arrives
/// while it holds this many slow-closes it.
const WRITER_QUEUE: usize = 256;

/// Unflushed bytes past which a socket connection's requests are not
/// read until its output drains back under: it then holds at most this
/// plus the responses to the requests it already has in flight.
const OUTBOX_BYTES: usize = 8 << 20;

/// How long a connection's output may make no progress before the
/// connection is closed.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// Bytes read per readiness of a request stream.
const READ_CHUNK: usize = 64 << 10;

/// `poll(2)`, declared against the libc that std already links.
mod sys {
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::time::Duration;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: c_int, events: c_short) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Block until a descriptor in `fds` is ready or `timeout` (rounded up
    /// to whole ms) passes; a signal ends the wait early, like a timeout.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `pollfd`s, valid for `fds.len()` elements for the whole call,
        // and poll(2) writes nothing but their `revents` fields.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
        let err = std::io::Error::last_os_error();
        if ready < 0 && err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
        Ok(())
    }

    /// An `accept(2)` error that belongs to one pending connection, not
    /// to the listener (Linux errno values): `ECONNABORTED`, `EPERM`
    /// (firewall rules), and the network errors accept(2) passes on —
    /// `ENETDOWN`, `EPROTO`, `ENOPROTOOPT`, `EHOSTDOWN`, `ENONET`,
    /// `EHOSTUNREACH`, `EOPNOTSUPP` and `ENETUNREACH`.
    pub(super) fn peer_error(e: &std::io::Error) -> bool {
        matches!(
            e.raw_os_error(),
            Some(103 | 1 | 100 | 71 | 92 | 112 | 64 | 113 | 95 | 101)
        )
    }
}

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
    /// Bind the address, non-blocking for the dispatcher's poll loop. A
    /// stale Unix socket file at the path is removed first — the daemon
    /// takes over the address — and removed again when [`serve_front`]
    /// returns.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &ListenAddr) -> std::io::Result<SocketListener> {
        match addr {
            ListenAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok(SocketListener {
                    inner: ListenerKind::Unix(listener),
                    cleanup: Some(path.clone()),
                    local: addr.clone(),
                })
            }
            ListenAddr::Tcp(spec) => {
                let listener = TcpListener::bind(spec)?;
                listener.set_nonblocking(true)?;
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

    /// Accept a pending connection as a non-blocking stream (Linux
    /// `accept` does not pass the listener's `O_NONBLOCK` on).
    fn accept(&self) -> std::io::Result<SocketStream> {
        let stream = match &self.inner {
            ListenerKind::Unix(l) => SocketStream::Unix(l.accept()?.0),
            ListenerKind::Tcp(l) => SocketStream::Tcp(l.accept()?.0),
        };
        match &stream {
            SocketStream::Unix(s) => s.set_nonblocking(true)?,
            SocketStream::Tcp(s) => s.set_nonblocking(true)?,
        }
        Ok(stream)
    }

    fn fd(&self) -> RawFd {
        match &self.inner {
            ListenerKind::Unix(l) => l.as_raw_fd(),
            ListenerKind::Tcp(l) => l.as_raw_fd(),
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

    /// Shut both directions down: the peer sees EOF even if it never
    /// half-closed.
    fn sever(&self) {
        let _ = match self {
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn fd(&self) -> RawFd {
        match self {
            SocketStream::Unix(s) => s.as_raw_fd(),
            SocketStream::Tcp(s) => s.as_raw_fd(),
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
    /// while the connection's outbound buffer held 256 unflushed lines.
    pub conn_slow_closed: u64,
    /// Connections reaped by the idle timeout.
    pub conn_idle_reaped: u64,
    /// Connections refused at the `max_conns` limit.
    pub conn_refused: u64,
    /// In-flight requests written off because their connection died
    /// (slow-close, write deadline, idle reap with a racing request,
    /// peer gone, injected `conn_drop`).
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

/// What [`serve_front`] reports when the daemon drains.
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

/// What framing a request stream yields; the dispatcher acts on each at
/// once.
enum ConnEvent {
    /// The line at 1-based position `line_no`, or why it is not a
    /// request (oversized or not UTF-8: answered `bad_request` there).
    Line {
        conn: u64,
        line_no: u64,
        line: Result<String, String>,
    },
    Eof(u64),
}

const NOT_UTF8: &str = "request line is not valid UTF-8";

/// Splits one connection's byte stream into `\n`-terminated request
/// lines without ever holding more than `max_line_bytes` of a line: an
/// oversized line is *consumed* (so the stream stays in sync) but
/// reported instead of returned, which keeps a hostile or buggy client
/// from growing daemon memory without bound.
#[derive(Default)]
struct Framer {
    conn: u64,
    max: usize,
    faults: FaultPlan,
    /// The unfinished line so far (released once it goes oversized).
    partial: Vec<u8>,
    oversized: bool,
    /// Positions handed out so far; blank lines take none.
    line_no: u64,
    /// Events framed and not yet taken.
    frames: Vec<ConnEvent>,
}

impl Framer {
    fn new(conn: u64, max: usize, faults: &FaultPlan) -> Framer {
        Framer {
            conn,
            max,
            faults: faults.clone(),
            ..Framer::default()
        }
    }

    /// Read once from `input` into `buf` and frame one event per
    /// completed line. Once the stream has ended (EOF or the peer gone),
    /// frame a final unterminated line and [`ConnEvent::Eof`].
    fn read_from(&mut self, input: &mut impl Read, buf: &mut [u8]) {
        match input.read(buf) {
            Ok(0) if !self.partial.is_empty() || self.oversized => self.finish_line(),
            Ok(0) => {}
            Ok(n) => {
                let mut rest = &buf[..n];
                while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
                    self.extend(&rest[..pos]);
                    self.finish_line();
                    rest = &rest[pos + 1..];
                }
                self.extend(rest);
                return;
            }
            Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => return,
            // Connection reset and friends: the peer is gone.
            Err(_) => {}
        }
        self.frames.push(ConnEvent::Eof(self.conn));
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.oversized |= self.partial.len() + bytes.len() > self.max;
        if self.oversized {
            self.partial = Vec::new();
        } else {
            self.partial.extend_from_slice(bytes);
        }
    }

    fn finish_line(&mut self) {
        let mut bytes = std::mem::take(&mut self.partial);
        let line = if std::mem::take(&mut self.oversized) {
            Err(format!("request line exceeds {} bytes", self.max))
        } else {
            if bytes.last() == Some(&b'\r') {
                bytes.pop();
            }
            String::from_utf8(bytes).map_err(|_| NOT_UTF8.to_string())
        };
        if line.as_ref().is_ok_and(|line| line.trim().is_empty()) {
            return;
        }
        self.line_no += 1;
        let (conn, line_no) = (self.conn, self.line_no);
        // Injected garbage: this request line arrives as non-UTF-8 bytes.
        let garbage = line.is_ok() && self.faults.conn_garbage_hit(conn, line_no);
        self.frames.push(ConnEvent::Line {
            conn,
            line_no,
            line: if garbage { Err(NOT_UTF8.into()) } else { line },
        });
    }
}

/// A connection's unflushed output: whole response lines, written as
/// far as the peer takes them.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    /// Bytes of `buf` already written.
    sent: usize,
    /// Lines not yet written in full.
    lines: usize,
    /// The last write stopped partway through a line.
    mid_line: bool,
    /// When the peer last refused bytes, with no progress since: the
    /// write deadline runs from here, and the loop polls for `POLLOUT`.
    blocked_since: Option<Instant>,
    /// Injected `conn_stall`: the next line is held until then.
    held_until: Option<Instant>,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.sent == self.buf.len()
    }

    /// Past `OUTBOX_BYTES` unflushed: the connection is not read until
    /// its output drains back under.
    fn is_over_bytes(&self) -> bool {
        self.buf.len() - self.sent > OUTBOX_BYTES
    }

    /// When the loop owes this output a retry: a stall hold's end or the
    /// write deadline.
    fn wake_at(&self) -> Option<Instant> {
        let deadline = self.blocked_since.map(|since| since + WRITE_DEADLINE);
        deadline.into_iter().chain(self.held_until).min()
    }

    fn push(&mut self, line: String) {
        if self.is_empty() {
            // Nothing unflushed: the line's allocation becomes the buffer.
            self.buf = line.into_bytes();
            self.sent = 0;
        } else {
            if self.sent >= self.buf.len() / 2 {
                self.buf.drain(..self.sent);
                self.sent = 0;
            }
            self.buf.extend_from_slice(line.as_bytes());
        }
        self.buf.push(b'\n');
        self.lines += 1;
    }

    /// Write as much as `sink` takes now; under an injected `conn_stall`
    /// each line first waits out its hold, as a timer. Fails when the
    /// peer is gone or no progress was made for the write deadline.
    fn flush(&mut self, sink: &mut impl Write, stall: Option<Duration>) -> std::io::Result<()> {
        let now = Instant::now();
        while !self.is_empty() {
            let mut end = self.buf.len();
            if let Some(stall) = stall {
                if !self.mid_line {
                    let until = *self.held_until.get_or_insert(now + stall);
                    if now < until {
                        return Ok(());
                    }
                    self.held_until = None;
                }
                let newline = self.buf[self.sent..].iter().position(|&b| b == b'\n');
                end = newline.map_or(end, |p| self.sent + p + 1);
            }
            match sink.write(&self.buf[self.sent..end]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    let written = &self.buf[self.sent..self.sent + n];
                    self.lines -= written.iter().filter(|&&b| b == b'\n').count();
                    self.mid_line = written.last() != Some(&b'\n');
                    self.sent += n;
                    self.blocked_since = None;
                }
                Err(e) if e.kind() == Interrupted => {}
                Err(e) if e.kind() == WouldBlock => {
                    let since = *self.blocked_since.get_or_insert(now);
                    if now >= since + WRITE_DEADLINE {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        // All out: release the buffer.
        *self = Outbox::default();
        Ok(())
    }
}

/// Where a connection's requests come from and its responses go.
enum Link {
    /// Connection 0: a blocking request stream the loop polls and reads
    /// once per readiness, and a sink written with blocking writes.
    Stdio(File, Box<dyn Write + Send>),
    /// A non-blocking socket the loop polls.
    Socket(SocketStream),
}

/// Dispatcher-side state of one open connection.
struct ConnState {
    link: Link,
    framer: Framer,
    out: Outbox,
    in_flight: u64,
    header_sent: bool,
    /// Reader saw EOF: close once `in_flight` drains.
    draining: bool,
    /// Closed gracefully with output unflushed: no longer open or read,
    /// it is shut down and dropped once the loop has flushed it.
    closed: bool,
    /// Last request line (or delivery) — feeds the idle timeout.
    last_activity: Instant,
    /// Outbound lines handed to this connection (1-based when the next
    /// line is `sent_lines + 1`); drives the `conn_drop` fault.
    sent_lines: u64,
}

impl ConnState {
    fn new(link: Link, framer: Framer) -> ConnState {
        ConnState {
            link,
            framer,
            out: Outbox::default(),
            in_flight: 0,
            header_sent: false,
            draining: false,
            closed: false,
            last_activity: Instant::now(),
            sent_lines: 0,
        }
    }

    /// Connection 0 is exempt from the connection policies (in-flight
    /// cap, idle reap, slow-close).
    fn is_stdio(&self) -> bool {
        matches!(self.link, Link::Stdio(..))
    }

    /// Idle with nothing owed to it: the idle timeout may reap it.
    /// Unflushed output is owed: while it is over the byte bound, the
    /// requests the client sent are still unread.
    fn reapable(&self) -> bool {
        !self.is_stdio() && self.in_flight == 0 && !self.draining && self.out.is_empty()
    }

    /// When the loop owes this connection something: its idle reap, if
    /// it is reapable, or its output's stall hold or write deadline.
    fn wake_at(&self, idle_timeout: Option<Duration>) -> Option<Instant> {
        let reap = idle_timeout
            .filter(|_| self.reapable())
            .map(|idle| self.last_activity + idle);
        reap.into_iter().chain(self.out.wake_at()).min()
    }
}

/// How a connection is torn down.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CloseMode {
    /// Stop reading, flush through the loop under the write deadline,
    /// then shut the socket down (the peer sees EOF).
    Graceful,
    /// Shut the socket down at once; queued lines are discarded.
    Abort,
}

struct Dispatcher {
    service: CompileService,
    options: TransportOptions,
    /// Cleared at shutdown: from then on nothing is accepted or read.
    accepting: bool,
    /// Serving a listener: ops also carry the `"transport"` object.
    listener: Option<SocketListener>,
    /// The listener failed: serving drains and returns this error.
    listen_error: Option<std::io::Error>,
    /// Read end of the service's wake socket.
    wake: UnixStream,
    conns: HashMap<u64, ConnState>,
    /// Accept order of open connections (snapshot stability).
    conn_order: Vec<u64>,
    /// Private submission token → (connection, client id).
    pending: HashMap<u64, (u64, u64)>,
    next_token: u64,
    /// Reused read buffer.
    read_buf: Vec<u8>,
    requests: u64,
    failures: u64,
    /// The transport counters (`open` and `connections` are filled in
    /// by [`Dispatcher::transport_snapshot`]).
    counters: TransportSnapshot,
}

impl Dispatcher {
    fn new(mut service: CompileService, options: TransportOptions) -> std::io::Result<Dispatcher> {
        let wake = service.arm_wake()?;
        // A stats request read from now on sees every shard's restore.
        service.wait_started();
        Ok(Dispatcher {
            service,
            options,
            accepting: true,
            listener: None,
            listen_error: None,
            wake,
            conns: HashMap::new(),
            conn_order: Vec::new(),
            pending: HashMap::new(),
            next_token: 1,
            read_buf: vec![0; READ_CHUNK],
            requests: 0,
            failures: 0,
            counters: TransportSnapshot::default(),
        })
    }

    fn transport_snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            open: self.conn_order.len() as u64,
            connections: self
                .conn_order
                .iter()
                .filter_map(|conn| self.conns.get(conn).map(|state| (*conn, state.in_flight)))
                .collect(),
            ..self.counters.clone()
        }
    }

    fn open(&mut self, conn: u64, link: Link) {
        self.counters.accepted += 1;
        self.conn_order.push(conn);
        let framer = Framer::new(conn, self.options.max_line_bytes, self.service.faults());
        self.conns.insert(conn, ConnState::new(link, framer));
    }

    /// The instant the dispatcher must wake by if no socket gets ready:
    /// the earliest outstanding request deadline, idle-reap time, write
    /// deadline or stall hold. `None` when nothing is timed — the
    /// dispatcher then waits for the next event, bounded only by its
    /// shutdown check.
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
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        state.draining = true;
        if !std::mem::replace(&mut state.closed, true) {
            self.conn_order.retain(|&c| c != conn);
            self.counters.closed += 1;
            self.pending.retain(|&token, &mut (c, _)| {
                if c == conn {
                    self.counters.conn_written_off += 1;
                    // `false` means the response already left the service
                    // and sits in our delivery path; `deliver` drops it
                    // (the token is no longer pending) — still exactly once.
                    let _ = self.service.write_off(token);
                }
                c != conn
            });
        }
        if mode == CloseMode::Graceful && !self.conns[&conn].out.is_empty() {
            return; // flushed through the loop, then shut down
        }
        if let Some(Link::Socket(sock)) = self.conns.remove(&conn).map(|state| state.link) {
            sock.sever();
        }
    }

    /// Hand a rendered line to a connection and flush it. Socket
    /// connections never block the dispatcher: a line that arrives
    /// while `WRITER_QUEUE` lines are unflushed slow-closes the
    /// connection, and a dead peer or an injected `conn_drop` closes
    /// it. The stdio connection blocks instead, so a slow consumer
    /// stalls the daemon and no line is dropped. Returns `false` iff
    /// the line will never reach the peer.
    fn send_line(&mut self, conn: u64, line: String) -> bool {
        let Some(next) = self.conns.get(&conn).map(|state| state.sent_lines + 1) else {
            return false;
        };
        if self.service.faults().conn_drop_hit(conn, next) {
            // Abrupt disconnect in place of this line.
            self.close_conn(conn, CloseMode::Abort);
            return false;
        }
        let state = self.conns.get_mut(&conn).expect("conn checked above");
        state.sent_lines = next;
        if !state.is_stdio() && state.out.lines >= WRITER_QUEUE {
            self.counters.conn_slow_closed += 1;
            self.close_conn(conn, CloseMode::Abort);
            return false;
        }
        state.out.push(line);
        self.flush(conn)
    }

    /// Write what the peer takes now; the rest waits for `POLLOUT` or its
    /// stall hold. A dead peer, or output stuck past the write deadline,
    /// closes the connection. Returns `false` iff it was closed.
    fn flush(&mut self, conn: u64) -> bool {
        let stall = self.service.faults().conn_stall(conn);
        let Some(state) = self.conns.get_mut(&conn) else {
            return false;
        };
        let flushed = match &mut state.link {
            Link::Socket(sock) => state.out.flush(sock, stall),
            Link::Stdio(_, sink) => state.out.flush(sink, stall).and_then(|()| sink.flush()),
        };
        // A dead peer closes the connection; a closed one whose output
        // is out is shut down.
        if flushed.is_err() || (state.closed && state.out.is_empty()) {
            self.close_conn(conn, CloseMode::Abort);
        }
        flushed.is_ok()
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
            self.counters.conn_written_off += 1;
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
                let line = if self.listener.is_some() {
                    jsonl::health_line_with_transport(id, &health, &self.transport_snapshot())
                } else {
                    jsonl::health_line(id, &health)
                };
                self.send_line(conn, line);
            }
            Some("metrics") => {
                let metrics = self.service.metrics();
                let transport = self.listener.is_some().then(|| self.transport_snapshot());
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
                    self.counters.conn_shed += 1;
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
            ConnEvent::Line {
                conn,
                line_no,
                line,
            } => match line {
                Ok(line) => self.handle_line(conn, line_no, &line),
                Err(reason) if self.conns.contains_key(&conn) => {
                    self.requests += 1;
                    self.bad_request(conn, line_no, reason);
                }
                Err(_) => {}
            },
            ConnEvent::Eof(conn) => {
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

    /// Deliver every response already queued, and answer every request
    /// deadline already due, without blocking.
    fn drain_events(&mut self) {
        let now = Instant::now();
        while let Some(response) = self.service.wait(Some(now)) {
            self.deliver(response);
        }
    }

    /// Read once from what a connection has sent and act on each
    /// complete request line; end of input starts the connection's
    /// drain.
    fn read_conn(&mut self, conn: u64) {
        let Some(state) = self.conns.get_mut(&conn).filter(|s| !s.draining) else {
            return;
        };
        match &mut state.link {
            Link::Socket(sock) => state.framer.read_from(sock, &mut self.read_buf),
            Link::Stdio(input, _) => state.framer.read_from(input, &mut self.read_buf),
        }
        for frame in std::mem::take(&mut state.framer.frames) {
            self.handle_event(frame);
        }
    }

    /// Accept every pending connection. One past `max_conns` is
    /// accepted, told why in one typed line (and that retrying is sane),
    /// and closed. A connection still flushing after its close counts
    /// against the limit: it holds its socket and its output.
    fn accept(&mut self) {
        loop {
            let sock = match self.listener.as_ref().map(SocketListener::accept) {
                Some(Ok(sock)) => sock,
                // The listener itself failed (out of descriptors, say):
                // serving drains and returns the error.
                Some(Err(e))
                    if !matches!(e.kind(), WouldBlock | Interrupted) && !sys::peer_error(&e) =>
                {
                    self.listen_error = Some(e);
                    return;
                }
                // Nothing pending, or an error of one peer: poll again.
                _ => return,
            };
            let conn = self.counters.accepted + 1; // 1-based, never reused
            let max = self.options.max_conns;
            let refuse = max > 0 && self.conns.len() >= max;
            self.open(conn, Link::Socket(sock));
            if refuse {
                self.counters.conn_refused += 1;
                self.failures += 1;
                let refusal = CompileResponse::failure(
                    0,
                    FailureKind::Overloaded,
                    format!("connection refused: daemon at max-conns ({max}); retry later"),
                );
                if self.send_line(conn, jsonl::response_line(&refusal)) {
                    self.close_conn(conn, CloseMode::Graceful);
                }
            }
        }
    }

    /// One turn of the loop: block in `poll(2)` until a connection or
    /// the wake socket is ready or `until` passes (capped by the
    /// shutdown check), then act on everything ready and every timer
    /// due.
    fn turn(&mut self, until: Option<Instant>) -> std::io::Result<()> {
        let now = Instant::now();
        let timeout = until.map_or(POLL_INTERVAL, |u| {
            u.saturating_duration_since(now).min(POLL_INTERVAL)
        });
        // The wake socket, the listener (poll skips a negative fd), then
        // every connection that wants input or has socket output
        // blocked. A socket over its byte bound is not read: its client
        // is held back until its output drains.
        let listener = self.listener.as_ref().filter(|_| self.accepting);
        let mut fds = vec![
            sys::PollFd::new(self.wake.as_raw_fd(), sys::POLLIN),
            sys::PollFd::new(listener.map_or(-1, SocketListener::fd), sys::POLLIN),
        ];
        let mut polled = Vec::new();
        for (&conn, state) in &self.conns {
            let read = self.accepting && !state.draining && !state.out.is_over_bytes();
            let (fd, write) = match &state.link {
                Link::Socket(sock) => (sock.fd(), state.out.blocked_since.is_some()),
                Link::Stdio(input, _) => (input.as_raw_fd(), false),
            };
            let events = (sys::POLLIN * i16::from(read)) | (sys::POLLOUT * i16::from(write));
            if events != 0 {
                fds.push(sys::PollFd::new(fd, events));
                polled.push(conn);
            }
        }
        sys::wait(&mut fds, timeout)?;
        if fds[0].revents != 0 {
            // Drained before the event queue, so no wake-up is lost.
            while matches!((&self.wake).read(&mut self.read_buf), Ok(READ_CHUNK)) {}
        }
        if fds[1].revents != 0 {
            self.accept();
        }
        for (fd, conn) in fds[2..].iter().zip(polled) {
            if fd.events & sys::POLLIN != 0 && fd.revents & !sys::POLLOUT != 0 {
                self.read_conn(conn);
            }
            if fd.events & sys::POLLOUT != 0 && fd.revents & !sys::POLLIN != 0 {
                self.flush(conn);
            }
        }
        self.drain_events();
        // Timers: idle reaps, stall holds and write deadlines. A request
        // that reached the dispatcher first wins: its connection has work
        // in flight and is not reaped.
        let (now, idle) = (Instant::now(), self.options.idle_timeout);
        let due: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, s)| s.wake_at(idle).is_some_and(|at| at <= now))
            .map(|(&c, _)| c)
            .collect();
        for conn in due {
            let state = &self.conns[&conn];
            if idle.is_some_and(|idle| state.reapable() && state.last_activity + idle <= now) {
                self.counters.conn_idle_reaped += 1;
                self.close_conn(conn, CloseMode::Graceful);
            } else {
                self.flush(conn);
            }
        }
        Ok(())
    }
}

/// Where a dispatcher's connections come from.
pub enum Front {
    /// Accept unix/TCP connections until the shutdown flag is set.
    Listen(SocketListener),
    /// Serve one JSONL stream — stdin/stdout, or a request file — as
    /// connection 0 (see the module docs), until it reaches EOF and
    /// drains, or until the shutdown flag is set.
    Stdio {
        /// The request stream: a file, or a duplicate of stdin's
        /// descriptor. It is read with blocking reads once `poll(2)`
        /// reports it ready, and never set non-blocking.
        input: File,
        /// Where response lines go.
        output: Box<dyn Write + Send>,
    },
}

/// Run the daemon: serve the connections of `front` from one shared
/// `service` until `shutdown` is set (a signal handler's static works),
/// the listener dies, or the stdio stream reaches EOF, then drain
/// gracefully. Returns the still-running service — the caller persists
/// the final snapshot and metrics dump, then calls
/// [`CompileService::shutdown`] — plus the transport report.
///
/// The calling thread becomes the dispatcher (see the module docs for
/// the full threading model).
///
/// # Errors
///
/// Propagates listener and poll failures.
pub fn serve_front(
    front: Front,
    service: CompileService,
    options: TransportOptions,
    shutdown: &AtomicBool,
) -> std::io::Result<(CompileService, TransportReport)> {
    let mut d = Dispatcher::new(service, options)?;
    match front {
        Front::Listen(listener) => d.listener = Some(listener),
        Front::Stdio { input, output } => d.open(0, Link::Stdio(input, output)),
    }
    loop {
        if d.listener.is_none() && d.conns.is_empty() {
            break; // connection 0 reached EOF and drained
        }
        if shutdown.load(Ordering::SeqCst) || d.listen_error.is_some() {
            let why = match &d.listen_error {
                Some(e) => format!("listener failed ({e})"),
                None => "shutdown signal received".into(),
            };
            eprintln!("gmc-serve: {why}; draining connections");
            // Requests already read get answered; nothing more is read.
            d.accepting = false;
            break;
        }
        d.turn(d.next_wake())?;
    }

    // Graceful drain: answer everything in flight to its connection,
    // then close every connection, flushing each buffer under its
    // write deadline.
    while d.service.pending() > 0 {
        d.turn(d.next_wake())?;
    }
    for conn in d.conn_order.clone() {
        d.close_conn(conn, CloseMode::Graceful);
    }
    while !d.conns.is_empty() {
        d.turn(d.next_wake())?;
    }
    if let Some(path) = d.listener.take().and_then(|l| l.cleanup) {
        let _ = std::fs::remove_file(path);
    }
    if let Some(e) = d.listen_error.take() {
        return Err(e);
    }
    let report = TransportReport {
        accepted: d.counters.accepted,
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
    use std::io::{BufRead, BufReader};
    use std::sync::Arc;
    use std::thread::JoinHandle;

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
            serve_front(
                Front::Listen(listener),
                service,
                TransportOptions::default(),
                &serve_shutdown,
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
        let handle = std::thread::spawn(move || {
            serve_front(Front::Listen(listener), service, options, &serve_shutdown)
        });
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
        let mut config = fast_config(1);
        config.faults = FaultPlan::parse("delay:100").unwrap();
        let options = TransportOptions {
            conn_in_flight_cap: 2,
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
    /// population drops, new connections are served again. A connection
    /// that half-closed but is still flushing to a slow reader keeps
    /// its slot until its output is out.
    #[test]
    fn max_conns_refuses_with_a_typed_line_then_recovers() {
        let dir = std::env::temp_dir().join("gmc_transport_maxconns_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = fast_config(1);
        // Connection 4's output is held 300 ms per line.
        config.faults = FaultPlan::parse("conn_stall:4:300").unwrap();
        let options = TransportOptions {
            max_conns: 1,
            ..TransportOptions::default()
        };
        let (addr, shutdown, handle) = start_daemon(&dir, config, options);

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

        // Connection 4 pipelines two requests and half-closes: it is
        // closed once both are answered, but its second line is still
        // held when its first arrives, so connection 5 is refused.
        let mut fourth = SocketStream::connect(&addr).unwrap();
        for id in [1, 2] {
            fourth.write_all(request_line(id).as_bytes()).unwrap();
            fourth.write_all(b"\n").unwrap();
        }
        fourth.shutdown_write().unwrap();
        let mut fourth_reader = BufReader::new(fourth);
        line.clear();
        assert!(fourth_reader.read_line(&mut line).unwrap() > 0);
        // Half-closed, so an admitted connection would end with no line.
        let fifth = SocketStream::connect(&addr).unwrap();
        let _ = fifth.shutdown_write();
        let fifth = read_all_lines(fifth);
        assert_eq!(fifth.len(), 1, "refused with one line");
        assert!(fifth[0].contains("daemon at max-conns (1)"), "{}", fifth[0]);
        line.clear();
        assert!(fourth_reader.read_line(&mut line).unwrap() > 0);
        assert!(line.contains("\"ok\":true"));
        line.clear();
        assert_eq!(fourth_reader.read_line(&mut line).unwrap(), 0, "drained");

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_refused, 2);
        assert_eq!(report.accepted, 5, "refused connections count as accepted");
        assert_eq!(report.snapshot.closed, 5);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A client that pipelines forever and never reads is slow-closed
    /// the moment a response finds its outbound buffer full, even though
    /// it half-closed first; its in-flight work is written off through
    /// the exactly-once tables, daemon memory stays bounded by the
    /// buffer, and the daemon keeps serving polite clients.
    #[test]
    fn never_reading_pipeliner_is_slow_closed_and_written_off() {
        let dir = std::env::temp_dir().join("gmc_transport_slowclose_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // The connection's output is held 500 ms per line while the shard
        // answers hits in microseconds, so responses pile up in its
        // buffer and the one past `WRITER_QUEUE` closes the connection.
        let mut config = fast_config(1);
        config.faults = FaultPlan::parse("conn_stall:1:500").unwrap();
        let options = TransportOptions {
            conn_in_flight_cap: 0,
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

    /// A burst of `WRITER_QUEUE` lines is no slow consumer: a client
    /// that reads its responses gets all `WRITER_QUEUE` op answers,
    /// which the dispatcher writes as fast as it reads the requests.
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

    /// A graceful close flushes through the loop instead of blocking
    /// it: connection 1 pipelines 40 requests and half-closes while
    /// each of its lines is held 100 ms (`conn_stall`), so its close has
    /// seconds of output to flush — and `health` on connection 2 is
    /// answered at once throughout. The slow reader still gets every
    /// response.
    #[test]
    fn graceful_close_of_a_slow_reader_stalls_no_other_connection() {
        let dir = std::env::temp_dir().join("gmc_transport_linger_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = fast_config(1);
        config.faults = FaultPlan::parse("conn_stall:1:100").unwrap();
        let (addr, shutdown, handle) = start_daemon(&dir, config, TransportOptions::default());

        let mut slow = SocketStream::connect(&addr).unwrap();
        let burst: String = (1..=40).map(|id| request_line(id) + "\n").collect();
        slow.write_all(burst.as_bytes()).unwrap();
        slow.shutdown_write().unwrap();
        let received = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&received);
        let slow_reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(slow);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                counter.fetch_add(1, Ordering::SeqCst);
                line.clear();
            }
        });

        // Ask for health on connection 2 until it reports connection 1
        // closed: its graceful close is then flushing held lines, and no
        // answer may wait behind it.
        let mut polite = SocketStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(polite.try_clone().unwrap());
        loop {
            let started = Instant::now();
            polite.write_all(b"{\"op\":\"health\"}\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let took = started.elapsed();
            assert!(line.contains("\"op\":\"health\""), "{line}");
            assert!(
                took < Duration::from_millis(100),
                "health waited {took:?} behind a graceful close"
            );
            if line.contains("\"closed\":1") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            received.load(Ordering::SeqCst) < 40,
            "the close was still flushing when health was answered"
        );
        slow_reader.join().unwrap();
        assert_eq!(
            received.load(Ordering::SeqCst),
            40,
            "every response delivered"
        );

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_slow_closed, 0);
        assert_eq!(report.snapshot.conn_written_off, 0);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An `emit: both` request for a 32-matrix chain: its response is
    /// over 0.4 MB.
    fn large_request_line(id: u64) -> String {
        let defs: String = (0..32)
            .map(|i| format!("Matrix M{i} <General, Singular>;"))
            .collect();
        let product: Vec<String> = (0..32).map(|i| format!("M{i}")).collect();
        format!(
            "{{\"id\":{id},\"emit\":\"both\",\"source\":\"{defs} X := {};\"}}\n",
            product.join(" * ")
        )
    }

    /// A client that pipelines large responses and reads them is held
    /// back at the byte bound, not closed: while each of its lines is
    /// held 50 ms (`conn_stall`, a slow link), its 40 `emit: both`
    /// responses pile up past `OUTBOX_BYTES`, and all of them reach its
    /// reader thread.
    #[test]
    fn pipelining_reader_gets_every_large_response() {
        let dir = std::env::temp_dir().join("gmc_transport_pipelined_large_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = fast_config(1);
        config.faults = FaultPlan::parse("conn_stall:1:50").unwrap();
        let (addr, shutdown, handle) = start_daemon(&dir, config, TransportOptions::default());

        let sent = 40;
        let mut client = SocketStream::connect(&addr).unwrap();
        let reader = client.try_clone().unwrap();
        let reading = std::thread::spawn(move || read_all_lines(reader));
        let burst: String = (1..=sent).map(large_request_line).collect();
        client.write_all(burst.as_bytes()).unwrap();
        client.shutdown_write().unwrap();
        let lines = reading.join().unwrap();
        assert_eq!(lines.len(), sent as usize, "every response delivered");
        assert!(lines.iter().all(|l| l.contains("\"ok\":true")));
        let total: usize = lines.iter().map(String::len).sum();
        assert!(total > OUTBOX_BYTES * 3 / 2, "{total} bytes of responses");

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(report.snapshot.conn_slow_closed, 0);
        assert_eq!(report.snapshot.conn_written_off, 0);
        let _ = service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A client that never reads its large responses is not read once
    /// more than `OUTBOX_BYTES` are unflushed: the requests it sends
    /// after that are never taken in, so its buffer stops growing, and
    /// the write deadline closes it while another connection is served.
    #[test]
    fn never_reading_client_is_not_read_past_the_byte_bound() {
        let dir = std::env::temp_dir().join("gmc_transport_bytes_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (addr, shutdown, handle) =
            start_daemon(&dir, fast_config(1), TransportOptions::default());

        // 40 responses of over 0.4 MB: about twice the bound, unread.
        let mut greedy = SocketStream::connect(&addr).unwrap();
        let first: String = (1..=40).map(large_request_line).collect();
        greedy.write_all(first.as_bytes()).unwrap();
        let mut probe = SocketStream::connect(&addr).unwrap();
        let mut probe_reader = BufReader::new(probe.try_clone().unwrap());
        let mut ask_until = |op: &str, wanted: &str| loop {
            probe
                .write_all(format!("{{\"op\":\"{op}\"}}\n").as_bytes())
                .unwrap();
            let mut line = String::new();
            probe_reader.read_line(&mut line).unwrap();
            if line.contains(wanted) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        ask_until("stats", "\"requests\":40,");
        // Sent while the buffer is over the bound: never read.
        let second: String = (41..=50).map(large_request_line).collect();
        greedy.write_all(second.as_bytes()).unwrap();
        ask_until("health", "\"closed\":1,");
        assert!(
            read_all_lines(greedy).len() < 40,
            "closed with output unsent"
        );

        shutdown.store(true, Ordering::SeqCst);
        let (service, report) = handle.join().unwrap().unwrap();
        assert_eq!(
            report.snapshot.conn_slow_closed, 0,
            "the write deadline closed it"
        );
        assert_eq!(
            report.snapshot.conn_written_off, 0,
            "every request read was answered"
        );
        let stats = service.shutdown();
        assert_eq!(stats.requests(), 40, "no request read past the bound");
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
        let mut config = fast_config(1);
        config.faults = FaultPlan::parse("delay:200").unwrap();
        let options = TransportOptions {
            idle_timeout: Some(Duration::from_millis(80)),
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
        // The request stream is one end of a socket pair, closed for
        // writing once the requests are in.
        let (mut writer, reader) = UnixStream::pair().unwrap();
        writer.write_all(input.as_bytes()).unwrap();
        drop(writer);
        let sink = Sink::default();
        let front = Front::Stdio {
            input: File::from(std::os::fd::OwnedFd::from(reader)),
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
    /// request deadline, idle-reap time, write deadline or stall hold —
    /// or the earliest of several.
    #[test]
    fn next_wake_is_the_earliest_timed_obligation() {
        let idle = Duration::from_millis(80);
        let options = TransportOptions {
            idle_timeout: Some(idle),
            ..TransportOptions::default()
        };
        let service = CompileService::start(fast_config(1)).unwrap();
        let mut d = Dispatcher::new(service, options).unwrap();
        let conn = |socket: bool, last_activity: Instant| {
            let sock = UnixStream::pair().unwrap().0;
            let link = if socket {
                Link::Socket(SocketStream::Unix(sock))
            } else {
                Link::Stdio(
                    File::from(std::os::fd::OwnedFd::from(sock)),
                    Box::new(std::io::sink()),
                )
            };
            ConnState {
                last_activity,
                ..ConnState::new(link, Framer::default())
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

        // Output blocked on its socket: the write deadline, even on a
        // connection with work in flight (never reaped).
        d.conns.clear();
        let mut blocked = conn(true, t0);
        blocked.in_flight = 1;
        blocked.out.blocked_since = Some(t0);
        d.conns.insert(4, blocked);
        assert_eq!(d.next_wake(), Some(t0 + WRITE_DEADLINE));

        // A stall hold that ends before the write deadline.
        let held = t0 + Duration::from_millis(30);
        d.conns.get_mut(&4).unwrap().out.held_until = Some(held);
        assert_eq!(d.next_wake(), Some(held), "stall hold first");

        let mut service = d.service;
        assert_eq!(service.drain().len(), 1);
        let _ = service.shutdown();
    }

    /// An `accept` error of one peer skips that connection; only the
    /// listener's own errors end serving.
    #[test]
    fn accept_errors_of_one_peer_are_not_fatal() {
        let errno = std::io::Error::from_raw_os_error;
        // ECONNABORTED, EPROTO, EHOSTUNREACH, ENETUNREACH.
        for peer in [103, 71, 113, 101] {
            assert!(sys::peer_error(&errno(peer)), "errno {peer}");
        }
        // EMFILE, ENFILE, ENOBUFS, EBADF, EINVAL.
        for listener in [24, 23, 105, 9, 22] {
            assert!(!sys::peer_error(&errno(listener)), "errno {listener}");
        }
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
            serve_front(
                Front::Listen(listener),
                service,
                TransportOptions::default(),
                &serve_shutdown,
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
