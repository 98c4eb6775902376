//! Minimal JSONL wire format for the `gmcc --serve` daemon.
//!
//! One JSON object per line. Requests are flat objects:
//!
//! ```text
//! {"id": 1, "name": "x", "emit": "both", "deadline_ms": 500,
//!  "source": "Matrix A <General, Singular>; ..."}
//! ```
//!
//! `source` is required; `id` (default: position in the stream), `name`
//! (default: the program's left-hand side), `emit`
//! (`cpp`/`rust`/`both`, default: the daemon's `--emit`), and
//! `deadline_ms` (default: the daemon's `--deadline-ms`) are optional.
//! Responses are one line per request, in completion order. Failures
//! carry a stable `kind` ([`crate::FailureKind::as_str`]) so callers
//! can tell load-shedding (`overloaded`, `deadline_exceeded`,
//! `shard_panic`, `shard_down` — retryable) from bad requests (`parse`,
//! `compile`, `bad_request` — not):
//!
//! ```text
//! {"id":1,"ok":true,"shard":0,"cache_hit":false,
//!  "files":[{"name":"x.cpp","content":"..."}],"report":"..."}
//! {"id":2,"ok":false,"kind":"parse","error":"parse error: ..."}
//! {"id":3,"ok":false,"shard":1,"kind":"overloaded","error":"..."}
//! ```
//!
//! A request may instead carry an `op` field for in-band service
//! queries (no `source` needed):
//!
//! * `{"op": "stats"}` — per-shard cache counters (see [`stats_line`]),
//!   as each shard last published them: what the shards have answered
//!   so far, not compiles still queued, so it answers at once even
//!   when shards are busy:
//!
//!   ```text
//!   {"id":3,"ok":true,"op":"stats","shards":[{"shard":0,"requests":2,
//!    "hits":1,"misses":1,"evictions":0,"hit_rate":0.5000,"restored":0}],
//!    "total_requests":2,"total_hits":1}
//!   ```
//!
//! * `{"op": "health"}` — per-shard liveness and robustness counters,
//!   answered even when shards are wedged or down (see [`health_line`]);
//!   `chain_hit_rate` summarizes the chain cache from lock-free
//!   counters, and `p99_ms`/`queue_wait_p99_ms` are read straight off
//!   the shard's live latency histograms:
//!
//!   ```text
//!   {"id":4,"ok":true,"op":"health","shards":[{"shard":0,"state":"up",
//!    "restarts":1,"panics":1,"queue_depth":0,"deadline_exceeded":0,
//!    "shed":2,"chain_hit_rate":0.5000,"p99_ms":12.287,
//!    "queue_wait_p99_ms":0.479}],"live":1}
//!   ```
//!
//! * `{"op": "metrics"}` — the full latency/counter snapshot (see
//!   [`metrics_line`]): per shard, the end-to-end / queue-wait /
//!   compile-time histograms as `count` + `p50`/`p90`/`p99`/`max`/
//!   `mean` milliseconds, plus every supervisor and cache counter, and
//!   service-wide merged percentiles:
//!
//!   ```text
//!   {"id":5,"ok":true,"op":"metrics","shards":[{"shard":0,"state":"up",
//!    "e2e_ms":{"count":4,"p50":1.151,"p90":11.263,"p99":11.263,
//!    "max":11.021,"mean":3.702},"queue_wait_ms":{...},
//!    "compile_ms":{...},"restarts":0,"panics":0,"deadline_exceeded":0,
//!    "shed":0,"chain_hits":2,"chain_misses":2}],"total_requests":4,
//!    "e2e_p50_ms":1.151,"e2e_p99_ms":11.263,"queue_wait_p99_ms":0.031,
//!    "late_drops":0}
//!   ```
//!
//! Any other `op` is answered in band as `bad_request`. Faults are
//! armed only at start-up ([`crate::fault`]), never by a request.
//!
//! The build environment vendors no JSON crate, so this module carries a
//! deliberately small hand parser: flat objects, string/unsigned-integer
//! /boolean/null values, full string escapes (including `\uXXXX` with
//! surrogate pairs). Nested containers are rejected — the protocol never
//! produces them in requests.
//!
//! Responses are written by hand too. A compile response is mostly
//! emitted code, so [`response_line`] sizes the line once and
//! [`escape_into`] escapes each file and the report straight into it,
//! copying the runs that need no escape whole.

use crate::CompileResponse;
use std::fmt::Write as _;

/// A parsed request line, before defaults are applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RawRequest {
    /// Explicit request id, if given.
    pub id: Option<u64>,
    /// Artifact base name, if given.
    pub name: Option<String>,
    /// Emit selector (`cpp`/`rust`/`both`), if given.
    pub emit: Option<String>,
    /// In-band service operation (`stats`/`health`/`metrics`), if
    /// given; such requests need no `source`.
    pub op: Option<String>,
    /// Per-request deadline in milliseconds, if given.
    pub deadline_ms: Option<u64>,
    /// The `.gmc` program text.
    pub source: String,
}

/// Parse one request line.
///
/// # Errors
///
/// Returns a human-readable description of the malformed JSON or a
/// missing `source` field (compile requests only — `op` requests carry
/// no program).
pub fn parse_request(line: &str) -> Result<RawRequest, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let mut request = RawRequest::default();
    let mut have_source = false;
    p.ws();
    p.eat(b'{')?;
    p.ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.ws();
            let key = p.string()?;
            p.ws();
            p.eat(b':')?;
            p.ws();
            match key.as_str() {
                "id" => request.id = Some(p.unsigned()?),
                "name" => request.name = Some(p.string()?),
                "emit" => request.emit = Some(p.string()?),
                "op" => request.op = Some(p.string()?),
                "deadline_ms" => request.deadline_ms = Some(p.unsigned()?),
                "source" => {
                    request.source = p.string()?;
                    have_source = true;
                }
                _ => p.skip_scalar()?,
            }
            p.ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected `,` or `}}`, got {}", show(other))),
            }
        }
    }
    p.ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after the JSON object".into());
    }
    if !have_source && request.op.is_none() {
        return Err("request is missing the `source` field".into());
    }
    Ok(request)
}

/// Render one response line (newline not included).
///
/// The line is sized once up front, and every name, content and report
/// is escaped straight into it ([`escape_into`]).
#[must_use]
pub fn response_line(response: &CompileResponse) -> String {
    let mut out = String::new();
    if let Ok(artifacts) = &response.result {
        let text: usize = artifacts
            .files
            .iter()
            .map(|(name, contents)| name.len() + contents.len() + FILE_KEYS.len())
            .sum::<usize>()
            + artifacts.report.len();
        // Room for the fixed keys, and for escapes growing the text by
        // up to an eighth.
        out.reserve(text + text / 8 + 96);
    }
    let _ = write!(out, "{{\"id\":{}", response.id);
    match &response.result {
        Ok(artifacts) => {
            out.push_str(",\"ok\":true");
            if let Some(shard) = response.shard {
                let _ = write!(out, ",\"shard\":{shard}");
            }
            let _ = write!(out, ",\"cache_hit\":{}", response.cache_hit);
            out.push_str(",\"files\":[");
            for (i, (name, contents)) in artifacts.files.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\",\"content\":\"");
                escape_into(&mut out, contents);
                out.push_str("\"}");
            }
            out.push_str("],\"report\":\"");
            escape_into(&mut out, &artifacts.report);
            out.push_str("\"}");
        }
        Err(e) => {
            out.push_str(",\"ok\":false");
            if let Some(shard) = response.shard {
                let _ = write!(out, ",\"shard\":{shard}");
            }
            let _ = write!(out, ",\"kind\":\"{}\",\"error\":\"", e.kind.as_str());
            escape_into(&mut out, &e.message);
            out.push_str("\"}");
        }
    }
    out
}

/// The fixed text around one file in a response line.
const FILE_KEYS: &str = r#",{"name":"","content":""}"#;

/// Render the response line of an in-band `{"op":"stats"}` request:
/// one object per shard (hits/misses/evictions/hit-rate of its
/// compiled-chain cache, requests served, chains restored at startup)
/// plus service-wide totals.
#[must_use]
pub fn stats_line(id: u64, shards: &[crate::ShardStatus]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"op\":\"stats\",\"shards\":["
    );
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"requests\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"hit_rate\":{:.4},\"restored\":{}}}",
            s.shard,
            s.requests,
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache.hit_rate(),
            s.cache.restored,
        );
    }
    let total_requests: u64 = shards.iter().map(|s| s.requests).sum();
    let total_hits: u64 = shards.iter().map(|s| s.cache.hits).sum();
    let _ = write!(
        out,
        "],\"total_requests\":{total_requests},\"total_hits\":{total_hits}}}"
    );
    out
}

/// Render the response line of an in-band `{"op":"health"}` request:
/// liveness (`up`/`restarting`/`down`), restart/panic counts, current
/// queue depth, the deadline-exceeded/shed robustness counters, the
/// chain-cache hit rate, and the end-to-end/queue-wait
/// p99 latencies (milliseconds, upper-edge) of every shard, plus the
/// number of live (non-down) shards. Collected without touching the
/// work queues, so it answers even when shards are wedged.
#[must_use]
pub fn health_line(id: u64, shards: &[crate::ShardHealth]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"op\":\"health\",\"shards\":["
    );
    for (i, h) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"state\":\"{}\",\"restarts\":{},\"panics\":{},\
             \"queue_depth\":{},\"deadline_exceeded\":{},\"shed\":{},\
             \"chain_hit_rate\":{:.4},\"p99_ms\":{:.3},\"queue_wait_p99_ms\":{:.3}}}",
            h.shard,
            h.state.as_str(),
            h.restarts,
            h.panics,
            h.queue_depth,
            h.deadline_exceeded,
            h.shed,
            h.chain_hit_rate,
            h.p99_ms,
            h.queue_wait_p99_ms,
        );
    }
    let live = shards
        .iter()
        .filter(|h| h.state != crate::ShardState::Down)
        .count();
    let _ = write!(out, "],\"live\":{live}}}");
    out
}

fn write_histogram_ms(out: &mut String, key: &str, s: &gmc_obs::Snapshot) {
    let _ = write!(
        out,
        "\"{key}\":{{\"count\":{},\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3},\
         \"max\":{:.3},\"mean\":{:.3}}}",
        s.count,
        s.quantile_ms(0.50),
        s.quantile_ms(0.90),
        s.quantile_ms(0.99),
        s.max_ms(),
        s.mean_ms(),
    );
}

/// Render the response line of an in-band `{"op":"metrics"}` request:
/// per shard, the end-to-end (`e2e_ms`), queue-wait (`queue_wait_ms`),
/// and compile-time (`compile_ms`) histograms as count +
/// p50/p90/p99/max/mean milliseconds (upper-edge quantiles) plus the
/// supervisor and cache counters; then service-wide totals merged from
/// every shard's buckets and the submitter's `late_drops`.
#[must_use]
pub fn metrics_line(id: u64, metrics: &crate::ServiceMetrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"op\":\"metrics\",\"shards\":["
    );
    for (i, s) in metrics.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"state\":\"{}\",",
            s.shard,
            s.state.as_str()
        );
        write_histogram_ms(&mut out, "e2e_ms", &s.e2e);
        out.push(',');
        write_histogram_ms(&mut out, "queue_wait_ms", &s.queue_wait);
        out.push(',');
        write_histogram_ms(&mut out, "compile_ms", &s.compile_time);
        let _ = write!(
            out,
            ",\"restarts\":{},\"panics\":{},\"deadline_exceeded\":{},\"shed\":{},\
             \"chain_hits\":{},\"chain_misses\":{}}}",
            s.restarts, s.panics, s.deadline_exceeded, s.shed, s.chain_hits, s.chain_misses,
        );
    }
    let e2e = metrics.merged_e2e();
    let queue_wait = metrics.merged_queue_wait();
    let _ = write!(
        out,
        "],\"total_requests\":{},\"e2e_p50_ms\":{:.3},\"e2e_p99_ms\":{:.3},\
         \"queue_wait_p99_ms\":{:.3},\"late_drops\":{}}}",
        metrics.requests(),
        e2e.quantile_ms(0.50),
        e2e.quantile_ms(0.99),
        queue_wait.quantile_ms(0.99),
        metrics.late_drops,
    );
    out
}

/// Render a [`TransportSnapshot`](crate::transport::TransportSnapshot)
/// as a JSON object: open/accepted/closed connection counters, the
/// backpressure counters (shed/slow-closed/idle-reaped/refused/
/// written-off), plus one `{"conn":N,"in_flight":N}` entry per open
/// connection in accept order.
#[must_use]
pub fn transport_json(transport: &crate::transport::TransportSnapshot) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"open\":{},\"accepted\":{},\"closed\":{},\"shed\":{},\"slow_closed\":{},\
         \"idle_reaped\":{},\"refused\":{},\"written_off\":{},\"connections\":[",
        transport.open,
        transport.accepted,
        transport.closed,
        transport.conn_shed,
        transport.conn_slow_closed,
        transport.conn_idle_reaped,
        transport.conn_refused,
        transport.conn_written_off,
    );
    for (i, (conn, in_flight)) in transport.connections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"conn\":{conn},\"in_flight\":{in_flight}}}");
    }
    out.push_str("]}");
    out
}

/// Splice an extra `"transport"` field into a rendered response line
/// (the socket daemon's health/metrics responses carry the transport
/// counters; the stdin daemon's lines are unchanged).
fn with_transport(mut line: String, transport: &crate::transport::TransportSnapshot) -> String {
    debug_assert!(line.ends_with('}'));
    line.pop();
    let _ = write!(line, ",\"transport\":{}}}", transport_json(transport));
    line
}

/// [`health_line`] plus a `"transport"` object of connection counters —
/// what the socket daemon answers for `{"op":"health"}`.
#[must_use]
pub fn health_line_with_transport(
    id: u64,
    shards: &[crate::ShardHealth],
    transport: &crate::transport::TransportSnapshot,
) -> String {
    with_transport(health_line(id, shards), transport)
}

/// [`metrics_line`] plus a `"transport"` object of connection counters —
/// what the socket daemon answers for `{"op":"metrics"}`.
#[must_use]
pub fn metrics_line_with_transport(
    id: u64,
    metrics: &crate::ServiceMetrics,
    transport: &crate::transport::TransportSnapshot,
) -> String {
    with_transport(metrics_line(id, metrics), transport)
}

/// JSON-escape a string (quotes, backslashes, and control characters).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// JSON-escape `s` onto the end of `out`: quotes, backslashes, and
/// control characters (`\n`, `\r` and `\t` by name, the rest as
/// `\u00XX`); everything else, DEL and non-ASCII included, is copied
/// as is.
///
/// Each run that needs no escape is found eight bytes at a time and
/// copied whole. Scanning bytes is sound on UTF-8: every byte that needs
/// an escape is ASCII, and an ASCII byte never occurs inside a
/// multi-byte sequence, so each run starts and ends on a character
/// boundary.
pub fn escape_into(out: &mut String, s: &str) {
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        let at = next_escape(bytes, run);
        out.push_str(&s[run..at]);
        let Some(&b) = bytes.get(at) else {
            return;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = at + 1;
    }
}

/// Index of the first byte at or after `from` that needs an escape (a
/// control character, `"` or `\`), or `bytes.len()` if none does.
///
/// Eight bytes are tested at once with the zero-byte trick: for a byte
/// `x`, `(x - 0x20) & !x & 0x80` is set exactly when `x < 0x20`, and
/// `(y - 1) & !y & 0x80` exactly when `y` is 0, which for `y = x ^ b'"'`
/// means `x` is a quote. In a whole word a borrow can only flag bytes
/// after a true match, so the lowest flag is always exact.
fn next_escape(bytes: &[u8], mut from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    while let Some(word) = bytes.get(from..from + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let quote = w ^ (LO * u64::from(b'"'));
        let backslash = w ^ (LO * u64::from(b'\\'));
        let flags = ((w.wrapping_sub(LO * 0x20) & !w)
            | (quote.wrapping_sub(LO) & !quote)
            | (backslash.wrapping_sub(LO) & !backslash))
            & HI;
        if flags != 0 {
            return from + flags.trailing_zeros() as usize / 8;
        }
        from += 8;
    }
    from + bytes[from..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .unwrap_or(bytes.len() - from)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn show(b: Option<u8>) -> String {
    match b {
        Some(b) => format!("`{}`", b as char),
        None => "end of line".to_string(),
    }
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {}", want as char, show(other))),
        }
    }

    fn unsigned(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a number, got {}", show(self.peek())));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are utf8")
            .parse()
            .map_err(|_| "number out of range".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .next()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| "bad \\u escape".to_string())?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require the low half.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err("lone high surrogate".into());
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("bad low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?);
                    }
                    other => return Err(format!("bad escape {}", show(other))),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole scalar.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf8 in string".to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    /// Skip an ignored scalar value (string, number, boolean, null).
    fn skip_scalar(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                self.pos += 1;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    self.pos += 1;
                }
                Ok(())
            }
            other => Err(format!(
                "unsupported value starting with {} (nested objects/arrays are not part of the protocol)",
                show(other)
            )),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal, expected `{word}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Artifacts;
    use proptest::prelude::*;

    /// The char-by-char escaper [`escape`] used to be: the oracle it is
    /// held to byte for byte.
    fn escape_by_chars(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Every C0 control, the characters JSON escapes or may escape
    /// (`"`, `\`, `/`), DEL, the ASCII letters, and 2-, 3- and 4-byte
    /// scalars (U+2028 is a line separator JSON leaves as is).
    fn escape_alphabet() -> Vec<char> {
        (0u8..0x20)
            .chain([b'"', b'\\', b'/', 0x7f])
            .chain(b'a'..=b'z')
            .chain(b'A'..=b'Z')
            .map(char::from)
            .chain(['é', '€', '\u{2028}', '😀'])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `escape` copies unescaped runs whole, eight bytes at a time;
        /// on any text it still writes exactly what the char-by-char
        /// escaper wrote, and a request carrying it parses back to the
        /// text.
        #[test]
        fn escape_matches_the_char_by_char_escaper(
            chars in proptest::collection::vec(proptest::sample::select(escape_alphabet()), 0..64),
        ) {
            let text: String = chars.into_iter().collect();
            let escaped = escape(&text);
            prop_assert_eq!(&escaped, &escape_by_chars(&text));
            let line = format!(r#"{{"source":"{escaped}"}}"#);
            match parse_request(&line) {
                Ok(request) => prop_assert_eq!(request.source, text),
                Err(e) => prop_assert!(false, "{line:?} does not parse: {e}"),
            }
        }
    }

    #[test]
    fn transport_object_renders_counters_and_connections() {
        let snapshot = crate::transport::TransportSnapshot {
            open: 2,
            accepted: 5,
            closed: 3,
            connections: vec![(4, 1), (5, 0)],
            conn_shed: 9,
            conn_slow_closed: 2,
            conn_idle_reaped: 4,
            conn_refused: 1,
            conn_written_off: 6,
        };
        assert_eq!(
            transport_json(&snapshot),
            r#"{"open":2,"accepted":5,"closed":3,"shed":9,"slow_closed":2,"idle_reaped":4,"refused":1,"written_off":6,"connections":[{"conn":4,"in_flight":1},{"conn":5,"in_flight":0}]}"#
        );
        let empty = crate::transport::TransportSnapshot::default();
        assert_eq!(
            transport_json(&empty),
            r#"{"open":0,"accepted":0,"closed":0,"shed":0,"slow_closed":0,"idle_reaped":0,"refused":0,"written_off":0,"connections":[]}"#
        );
    }

    #[test]
    fn transport_field_is_spliced_into_health_and_metrics_lines() {
        let snapshot = crate::transport::TransportSnapshot {
            open: 1,
            accepted: 1,
            closed: 0,
            connections: vec![(1, 0)],
            ..crate::transport::TransportSnapshot::default()
        };
        let health = health_line_with_transport(9, &[], &snapshot);
        assert_eq!(
            health,
            r#"{"id":9,"ok":true,"op":"health","shards":[],"live":0,"transport":{"open":1,"accepted":1,"closed":0,"shed":0,"slow_closed":0,"idle_reaped":0,"refused":0,"written_off":0,"connections":[{"conn":1,"in_flight":0}]}}"#
        );
        assert!(health.ends_with("}}"));
        let plain = health_line(9, &[]);
        assert!(health.starts_with(&plain[..plain.len() - 1]));
    }

    #[test]
    fn parses_a_full_request() {
        let line = r#"{"id": 7, "name": "kalman", "emit": "both", "source": "X := A * B;\n", "extra": null}"#;
        let r = parse_request(line).unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.name.as_deref(), Some("kalman"));
        assert_eq!(r.emit.as_deref(), Some("both"));
        assert_eq!(r.source, "X := A * B;\n");
    }

    #[test]
    fn defaults_stay_unset() {
        let r = parse_request(r#"{"source":"X := A;"}"#).unwrap();
        assert_eq!(
            r,
            RawRequest {
                id: None,
                name: None,
                emit: None,
                op: None,
                deadline_ms: None,
                source: "X := A;".into(),
            }
        );
    }

    #[test]
    fn deadlines_and_fault_specs_parse() {
        let r = parse_request(r#"{"id": 2, "deadline_ms": 250, "source": "X := A;"}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(250));
        // A fault spec is an unknown key like any other: skipped, so the
        // line parses and the daemon answers its op as unknown.
        let r = parse_request(r#"{"op": "fault", "spec": "panic:0:3,delay:5"}"#).unwrap();
        assert_eq!(r, parse_request(r#"{"op": "fault"}"#).unwrap());
    }

    #[test]
    fn op_requests_need_no_source() {
        let r = parse_request(r#"{"op": "stats"}"#).unwrap();
        assert_eq!(r.op.as_deref(), Some("stats"));
        assert_eq!(r.id, None);
        assert!(r.source.is_empty());
        let r = parse_request(r#"{"id": 9, "op": "stats"}"#).unwrap();
        assert_eq!((r.id, r.op.as_deref()), (Some(9), Some("stats")));
        // A plain compile request still requires `source`.
        assert!(parse_request(r#"{"id": 9}"#).is_err());
    }

    #[test]
    fn stats_lines_render_per_shard_counters() {
        let shards = vec![
            crate::ShardStatus {
                shard: 0,
                requests: 3,
                cache: gmc_core::CacheStats {
                    hits: 1,
                    misses: 2,
                    evictions: 0,
                    restored: 0,
                },
                frags: gmc_core::CacheStats::default(),
            },
            crate::ShardStatus {
                shard: 1,
                requests: 1,
                cache: gmc_core::CacheStats {
                    hits: 0,
                    misses: 1,
                    evictions: 0,
                    restored: 1,
                },
                frags: gmc_core::CacheStats::default(),
            },
        ];
        let line = stats_line(7, &shards);
        assert_eq!(
            line,
            "{\"id\":7,\"ok\":true,\"op\":\"stats\",\"shards\":[\
             {\"shard\":0,\"requests\":3,\"hits\":1,\"misses\":2,\"evictions\":0,\
             \"hit_rate\":0.3333,\"restored\":0},\
             {\"shard\":1,\"requests\":1,\"hits\":0,\"misses\":1,\"evictions\":0,\
             \"hit_rate\":0.0000,\"restored\":1}],\
             \"total_requests\":4,\"total_hits\":1}"
        );
    }

    #[test]
    fn escapes_round_trip_through_parse() {
        let source = "line1\nline2\t\"quoted\" \\ backslash \u{8} ünïcode 🦀";
        let line = format!(r#"{{"source":"{}"}}"#, escape(source));
        let r = parse_request(&line).unwrap();
        assert_eq!(r.source, source);
        // Explicit \u escapes, including a surrogate pair.
        let r = parse_request("{\"source\":\"\\u0041\\uD83E\\uDD80\"}").unwrap();
        assert_eq!(r.source, "A\u{1F980}");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"id": 1}"#,
            r#"{"source": "x" "#,
            r#"{"source": "x"} trailing"#,
            r#"{"source": ["x"]}"#,
            r#"{"id": -3, "source": "x"}"#,
            r#"{"source": "\uD800"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn response_lines_are_valid_and_escaped() {
        let ok = CompileResponse {
            id: 3,
            shard: Some(1),
            cache_hit: true,
            result: Ok(Artifacts {
                files: vec![("x.cpp".into(), "void x();\n// \"quoted\"".into())],
                report: "chain G\n".into(),
            }),
        };
        let line = response_line(&ok);
        assert_eq!(
            line,
            "{\"id\":3,\"ok\":true,\"shard\":1,\"cache_hit\":true,\"files\":[{\"name\":\"x.cpp\",\
             \"content\":\"void x();\\n// \\\"quoted\\\"\"}],\"report\":\"chain G\\n\"}"
        );
        let err = CompileResponse::failure(4, crate::FailureKind::Parse, "parse error: line 1");
        assert_eq!(
            response_line(&err),
            "{\"id\":4,\"ok\":false,\"kind\":\"parse\",\"error\":\"parse error: line 1\"}"
        );
        let shed = CompileResponse {
            id: 5,
            shard: Some(1),
            cache_hit: false,
            result: Err(crate::Failure::new(
                crate::FailureKind::Overloaded,
                "shard 1 queue is full",
            )),
        };
        assert_eq!(
            response_line(&shed),
            "{\"id\":5,\"ok\":false,\"shard\":1,\"kind\":\"overloaded\",\
             \"error\":\"shard 1 queue is full\"}"
        );
    }

    #[test]
    fn health_lines_render_liveness_and_counters() {
        let shards = vec![
            crate::ShardHealth {
                shard: 0,
                state: crate::ShardState::Up,
                restarts: 1,
                panics: 1,
                queue_depth: 2,
                deadline_exceeded: 0,
                shed: 3,
                chain_hit_rate: 0.5,
                p99_ms: 12.287,
                queue_wait_p99_ms: 0.479,
            },
            crate::ShardHealth {
                shard: 1,
                state: crate::ShardState::Down,
                restarts: 0,
                panics: 5,
                queue_depth: 0,
                deadline_exceeded: 4,
                shed: 0,
                chain_hit_rate: 0.0,
                p99_ms: 0.0,
                queue_wait_p99_ms: 0.0,
            },
        ];
        assert_eq!(
            health_line(9, &shards),
            "{\"id\":9,\"ok\":true,\"op\":\"health\",\"shards\":[\
             {\"shard\":0,\"state\":\"up\",\"restarts\":1,\"panics\":1,\
             \"queue_depth\":2,\"deadline_exceeded\":0,\"shed\":3,\
             \"chain_hit_rate\":0.5000,\
             \"p99_ms\":12.287,\"queue_wait_p99_ms\":0.479},\
             {\"shard\":1,\"state\":\"down\",\"restarts\":0,\"panics\":5,\
             \"queue_depth\":0,\"deadline_exceeded\":4,\"shed\":0,\
             \"chain_hit_rate\":0.0000,\
             \"p99_ms\":0.000,\"queue_wait_p99_ms\":0.000}],\"live\":1}"
        );
    }

    #[test]
    fn metrics_lines_render_histograms_and_counters() {
        let mut e2e = gmc_obs::Snapshot::empty();
        // Exact values in the linear bucket region (< 8 us) so the
        // pinned quantiles are reproducible: 2, 4, 6 us.
        e2e.record_us(2);
        e2e.record_us(4);
        e2e.record_us(6);
        let metrics = crate::ServiceMetrics {
            shards: vec![crate::ShardMetrics {
                shard: 0,
                state: crate::ShardState::Up,
                e2e,
                queue_wait: gmc_obs::Snapshot::empty(),
                compile_time: gmc_obs::Snapshot::empty(),
                restarts: 1,
                panics: 2,
                deadline_exceeded: 3,
                shed: 4,
                chain_hits: 5,
                chain_misses: 6,
            }],
            late_drops: 9,
        };
        assert_eq!(
            metrics_line(11, &metrics),
            "{\"id\":11,\"ok\":true,\"op\":\"metrics\",\"shards\":[\
             {\"shard\":0,\"state\":\"up\",\
             \"e2e_ms\":{\"count\":3,\"p50\":0.004,\"p90\":0.006,\"p99\":0.006,\
             \"max\":0.006,\"mean\":0.004},\
             \"queue_wait_ms\":{\"count\":0,\"p50\":0.000,\"p90\":0.000,\"p99\":0.000,\
             \"max\":0.000,\"mean\":0.000},\
             \"compile_ms\":{\"count\":0,\"p50\":0.000,\"p90\":0.000,\"p99\":0.000,\
             \"max\":0.000,\"mean\":0.000},\
             \"restarts\":1,\"panics\":2,\"deadline_exceeded\":3,\"shed\":4,\
             \"chain_hits\":5,\"chain_misses\":6}],\
             \"total_requests\":3,\"e2e_p50_ms\":0.004,\"e2e_p99_ms\":0.006,\
             \"queue_wait_p99_ms\":0.000,\"late_drops\":9}"
        );
    }

    #[test]
    fn prometheus_dump_renders_counters_and_buckets() {
        let mut e2e = gmc_obs::Snapshot::empty();
        e2e.record_us(1_000);
        e2e.record_us(50_000);
        let metrics = crate::ServiceMetrics {
            shards: vec![crate::ShardMetrics {
                shard: 0,
                state: crate::ShardState::Up,
                e2e,
                queue_wait: gmc_obs::Snapshot::empty(),
                compile_time: gmc_obs::Snapshot::empty(),
                restarts: 0,
                panics: 1,
                deadline_exceeded: 0,
                shed: 0,
                chain_hits: 1,
                chain_misses: 1,
            }],
            late_drops: 0,
        };
        let text = metrics.to_prometheus();
        assert!(text.contains("# TYPE gmc_requests_total counter"));
        assert!(text.contains("gmc_requests_total{shard=\"0\"} 2"));
        assert!(text.contains("gmc_panics_total{shard=\"0\"} 1"));
        assert!(text.contains("gmc_late_drops_total 0"));
        assert!(text.contains("# TYPE gmc_request_seconds histogram"));
        assert!(text.contains("gmc_request_seconds_bucket{shard=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("gmc_request_seconds_count{shard=\"0\"} 2"));
        // One TYPE header per metric, no matter how many label sets.
        assert_eq!(text.matches("# TYPE gmc_request_seconds").count(), 1);
    }
}
