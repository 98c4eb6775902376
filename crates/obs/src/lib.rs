//! Low-overhead observability substrate for the gmc pipeline.
//!
//! Three pieces, no external dependencies, shim-compatible offline:
//!
//! * [`Histogram`] — a fixed-size log-linear latency histogram
//!   (HDR-style). Recording is three relaxed atomic adds plus one
//!   `fetch_max`, so a histogram can sit behind an `Arc` and be written
//!   from a shard thread while readers take consistent-enough
//!   [`Snapshot`]s without any lock. Snapshots merge exactly (buckets
//!   are additive) and answer p50/p90/p99/max queries.
//! * [`Recorder`] / [`StageProfile`] — monotonic stage timers for the
//!   compile pipeline (parse → enumerate → DP → select → expand →
//!   emit → execute) plus per-kernel execution timings. A disabled
//!   recorder costs one branch per span: [`Recorder::start`] returns
//!   an empty [`SpanGuard`] and [`Recorder::stop`] discards it.
//! * Prometheus text exposition — [`Snapshot::write_prometheus`] and
//!   [`write_prom_counter`] render the classic
//!   `name_bucket{le="..."} N` cumulative form.
//!
//! # Bucket layout
//!
//! Values are recorded in **microseconds**. The first 8 buckets are
//! linear (one per microsecond, values `0..8`); above that each
//! power-of-two octave is split into 8 sub-buckets, giving a relative
//! quantization error of at most 12.5% everywhere. 496 buckets cover
//! the full `u64` range, so the array never saturates and `record_us`
//! is branch-light: a leading-zeros count and two shifts. Quantiles
//! report the **inclusive upper edge** of the selected bucket (the
//! same `le` boundary the Prometheus exposition uses), so a reported
//! p99 is always ≥ the true sample p99 and within one bucket of it.
//!
//! # Overhead contract
//!
//! The session-level toggle (`GMC_TRACE`, [`force_trace_mode`])
//! governs the *pipeline tracing* — stage spans and per-kernel timers.
//! When it is off, a [`Recorder`] records nothing and each
//! instrumented site pays a single predictable branch (no clock
//! read). The serving-layer request histograms are not gated: they
//! are a handful of relaxed atomics per *request* (not per stage) and
//! the health/metrics endpoints depend on them. The measured
//! end-to-end cost of tracing on vs off, over requests that render on
//! a shard, is recorded in `BENCH_serve.json` (`trace_overhead_pct`,
//! required ≤ 3%).
//!
//! # Exposition format
//!
//! [`Snapshot::write_prometheus`] emits, for a metric `name` with
//! label set `labels` (possibly empty):
//!
//! ```text
//! # TYPE name histogram
//! name_bucket{labels,le="0.000123"} 4     // cumulative, seconds
//! name_bucket{labels,le="+Inf"} 9
//! name_sum{labels} 0.001234
//! name_count{labels} 9
//! ```
//!
//! Only buckets that contain samples are listed (plus `+Inf`); a
//! cumulative histogram stays valid under any subset of boundaries,
//! and this keeps a 496-bucket histogram to a few lines per shard.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of sub-bucket bits per octave (8 sub-buckets, ≤ 12.5% error).
const SUB_BITS: u32 = 3;
/// Number of sub-buckets per octave.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 8 linear buckets + 8 per octave for the 61
/// octaves needed to cover `u64::MAX` microseconds.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS as usize) + SUB as usize;

/// Bucket index for a value in microseconds. Monotone non-decreasing
/// in the value; every `u64` maps to a valid index.
#[must_use]
pub fn bucket_index(value_us: u64) -> usize {
    if value_us < SUB {
        return value_us as usize;
    }
    let msb = 63 - u64::from(value_us.leading_zeros());
    let octave = msb - u64::from(SUB_BITS) + 1;
    let offset = (value_us >> (msb - u64::from(SUB_BITS))) - SUB;
    ((octave << SUB_BITS) + offset) as usize
}

/// Inclusive upper edge (microseconds) of bucket `index` — the `le`
/// boundary used for quantiles and the Prometheus exposition.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_le(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index out of range");
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let octave = index >> SUB_BITS;
    let offset = index & (SUB - 1);
    let width = 1u64 << (octave - 1);
    ((SUB + offset) << (octave - 1)) + (width - 1)
}

// ---------------------------------------------------------------------------
// Trace toggle: `GMC_TRACE`, the one environment mode switch the
// compiler reads.
// ---------------------------------------------------------------------------

/// Whether pipeline tracing (stage spans, kernel timers) is active.
///
/// Tracing never changes selection decisions or emitted artifacts, so
/// the mode is excluded from persistence fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record stage spans and kernel timings (the default).
    On,
    /// Skip all recording; instrumented sites pay one branch.
    Off,
}

static FORCED_TRACE: AtomicU8 = AtomicU8::new(0);

/// Force the tracing mode for the process, overriding `GMC_TRACE`
/// (`None` restores env/default resolution). Takes effect for
/// recorders created afterwards.
pub fn force_trace_mode(mode: Option<TraceMode>) {
    let v = match mode {
        None => 0,
        Some(TraceMode::On) => 1,
        Some(TraceMode::Off) => 2,
    };
    FORCED_TRACE.store(v, Ordering::Relaxed);
}

fn env_trace_mode() -> TraceMode {
    static ENV: OnceLock<TraceMode> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("GMC_TRACE") {
        Ok(v) if v.eq_ignore_ascii_case("off") || v == "0" => TraceMode::Off,
        _ => TraceMode::On,
    })
}

/// The tracing mode in effect: forced value if set, else `GMC_TRACE`
/// (`off`/`0` disables), else [`TraceMode::On`].
#[must_use]
pub fn active_trace_mode() -> TraceMode {
    match FORCED_TRACE.load(Ordering::Relaxed) {
        1 => TraceMode::On,
        2 => TraceMode::Off,
        _ => env_trace_mode(),
    }
}

// ---------------------------------------------------------------------------
// Atomic histogram + plain snapshot.
// ---------------------------------------------------------------------------

/// Lock-free log-linear latency histogram (microsecond domain).
///
/// Writers call [`Histogram::record`] from any thread; readers take
/// [`Histogram::snapshot`]s or query quantiles directly. All accesses
/// are relaxed: counts are eventually consistent, which is the usual
/// (and sufficient) contract for telemetry.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one value in microseconds.
    pub fn record_us(&self, value_us: u64) {
        self.buckets[bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(value_us, Ordering::Relaxed);
        self.max_us.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Record one duration (saturating at `u64::MAX` microseconds).
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper-edge quantile in microseconds (`0.0 < q <= 1.0`); 0 when
    /// empty. Reads the live buckets without snapshotting.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_le(i);
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Upper-edge quantile in milliseconds.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let us = self.quantile_us(q) as f64;
        us / 1e3
    }

    /// A plain, mergeable copy of the current contents.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain (non-atomic) histogram contents: mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (microseconds).
    pub sum_us: u64,
    /// Largest recorded value (microseconds).
    pub max_us: u64,
    buckets: Vec<u64>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl Snapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        Snapshot {
            count: 0,
            sum_us: 0,
            max_us: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Record into a plain snapshot (for offline aggregation, e.g. the
    /// bench harness pooling per-request latencies).
    pub fn record_us(&mut self, value_us: u64) {
        self.buckets[bucket_index(value_us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(value_us);
        self.max_us = self.max_us.max(value_us);
    }

    /// Merge `other` into `self`. Histograms are exactly additive:
    /// `merge(a, b)` holds precisely the multiset union of buckets.
    pub fn merge(&mut self, other: &Snapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Upper-edge quantile in microseconds (`0.0 < q <= 1.0`); 0 when
    /// empty.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_le(i);
            }
        }
        self.max_us
    }

    /// Upper-edge quantile in milliseconds.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let us = self.quantile_us(q) as f64;
        us / 1e3
    }

    /// Largest recorded value in milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let us = self.max_us as f64;
        us / 1e3
    }

    /// Mean recorded value in milliseconds (0 when empty).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let mean = self.sum_us as f64 / self.count as f64;
        mean / 1e3
    }

    /// The non-empty cumulative buckets as `(le_us, cumulative_count)`
    /// pairs, in increasing `le` order (the `+Inf` bucket is implied
    /// by [`Snapshot::count`]).
    #[must_use]
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if *b > 0 {
                cum += b;
                out.push((bucket_le(i), cum));
            }
        }
        out
    }

    /// Append this histogram in Prometheus text exposition format (see
    /// the crate docs). `labels` is the inner label list without
    /// braces (e.g. `shard="0"`), or empty for none; `le` boundaries
    /// and `_sum` are rendered in seconds. Set `with_type` for the
    /// first label set of a metric only — the `# TYPE` header must not
    /// repeat within one exposition.
    pub fn write_prometheus(&self, out: &mut String, name: &str, labels: &str, with_type: bool) {
        use std::fmt::Write as _;
        let sep = if labels.is_empty() { "" } else { "," };
        if with_type {
            let _ = writeln!(out, "# TYPE {name} histogram");
        }
        for (le_us, cum) in self.cumulative_buckets() {
            #[allow(clippy::cast_precision_loss)]
            let le_s = le_us as f64 / 1e6;
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le_s:.6}\"}} {cum}");
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count
        );
        #[allow(clippy::cast_precision_loss)]
        let sum_s = self.sum_us as f64 / 1e6;
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {sum_s:.6}");
            let _ = writeln!(out, "{name}_count {}", self.count);
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {sum_s:.6}");
            let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
        }
    }
}

/// Append one Prometheus counter line (with its `# TYPE` header when
/// `with_type` is set — emit it for the first label set of a metric
/// only). `labels` is the inner label list without braces, or empty.
pub fn write_prom_counter(out: &mut String, name: &str, labels: &str, value: u64, with_type: bool) {
    use std::fmt::Write as _;
    if with_type {
        let _ = writeln!(out, "# TYPE {name} counter");
    }
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Append one Prometheus gauge line — same shape as
/// [`write_prom_counter`] but typed `gauge`, for values that go down as
/// well as up (e.g. the serving layer's open-connection count).
pub fn write_prom_gauge(out: &mut String, name: &str, labels: &str, value: u64, with_type: bool) {
    use std::fmt::Write as _;
    if with_type {
        let _ = writeln!(out, "# TYPE {name} gauge");
    }
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

// ---------------------------------------------------------------------------
// Pipeline stages, stage profile, recorder.
// ---------------------------------------------------------------------------

/// The compile-pipeline stages a [`StageProfile`] accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Source parsing (`.gmc` → shape).
    Parse,
    /// Variant-pool enumeration (span DAG / naive lowering).
    Enumerate,
    /// Per-instance optimum via the DP solver.
    Dp,
    /// Cost-matrix fill + Theorem-2 base-set selection.
    Select,
    /// Algorithm-1 greedy expansion.
    Expand,
    /// Code emission (C++/Rust renderers).
    Emit,
    /// Run-time variant execution (kernel calls).
    Execute,
}

/// Number of pipeline stages.
pub const NUM_STAGES: usize = 7;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Parse,
        Stage::Enumerate,
        Stage::Dp,
        Stage::Select,
        Stage::Expand,
        Stage::Emit,
        Stage::Execute,
    ];

    /// Stable lower-case stage name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Enumerate => "enumerate",
            Stage::Dp => "dp",
            Stage::Select => "select",
            Stage::Expand => "expand",
            Stage::Emit => "emit",
            Stage::Execute => "execute",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Enumerate => 1,
            Stage::Dp => 2,
            Stage::Select => 3,
            Stage::Expand => 4,
            Stage::Emit => 5,
            Stage::Execute => 6,
        }
    }
}

/// Accumulated per-stage spans and per-kernel execution timings.
///
/// Plain data: cloneable, diffable (for per-file reports out of a
/// long-lived session), mergeable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    totals_us: [u64; NUM_STAGES],
    calls: [u64; NUM_STAGES],
    /// `(kernel name, calls, total_us)`, insertion-ordered.
    kernels: Vec<(String, u64, u64)>,
}

impl StageProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span of `us` microseconds against `stage`.
    pub fn record(&mut self, stage: Stage, us: u64) {
        let i = stage.index();
        self.totals_us[i] = self.totals_us[i].saturating_add(us);
        self.calls[i] += 1;
    }

    /// Record one kernel call of `us` microseconds.
    pub fn record_kernel(&mut self, name: &str, us: u64) {
        if let Some(k) = self.kernels.iter_mut().find(|k| k.0 == name) {
            k.1 += 1;
            k.2 = k.2.saturating_add(us);
        } else {
            self.kernels.push((name.to_owned(), 1, us));
        }
    }

    /// Total microseconds recorded against `stage`.
    #[must_use]
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.totals_us[stage.index()]
    }

    /// Number of spans recorded against `stage`.
    #[must_use]
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.calls[stage.index()]
    }

    /// Sum of all stage totals, microseconds.
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.totals_us.iter().sum()
    }

    /// Per-kernel `(name, calls, total_us)` rows, insertion-ordered.
    #[must_use]
    pub fn kernels(&self) -> &[(String, u64, u64)] {
        &self.kernels
    }

    /// True when no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0) && self.kernels.is_empty()
    }

    /// The spans recorded since `earlier` (which must be a past copy
    /// of this profile): saturating per-stage and per-kernel
    /// subtraction.
    #[must_use]
    pub fn since(&self, earlier: &StageProfile) -> StageProfile {
        let mut out = StageProfile::new();
        for i in 0..NUM_STAGES {
            out.totals_us[i] = self.totals_us[i].saturating_sub(earlier.totals_us[i]);
            out.calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
        }
        for (name, calls, us) in &self.kernels {
            let (c0, u0) = earlier
                .kernels
                .iter()
                .find(|k| &k.0 == name)
                .map_or((0, 0), |k| (k.1, k.2));
            let (dc, du) = (calls.saturating_sub(c0), us.saturating_sub(u0));
            if dc > 0 || du > 0 {
                out.kernels.push((name.clone(), dc, du));
            }
        }
        out
    }

    /// Merge `other`'s spans into `self`.
    pub fn merge(&mut self, other: &StageProfile) {
        for i in 0..NUM_STAGES {
            self.totals_us[i] = self.totals_us[i].saturating_add(other.totals_us[i]);
            self.calls[i] += other.calls[i];
        }
        for (name, calls, us) in &other.kernels {
            if let Some(k) = self.kernels.iter_mut().find(|k| &k.0 == name) {
                k.1 += calls;
                k.2 = k.2.saturating_add(*us);
            } else {
                self.kernels.push((name.clone(), *calls, *us));
            }
        }
    }

    /// The human-readable per-stage breakdown printed by
    /// `gmcc --timings` and the slow-request log: one line per stage
    /// that ran, then one per kernel.
    #[must_use]
    pub fn render(&self, label: &str) -> String {
        use std::fmt::Write as _;
        #[allow(clippy::cast_precision_loss)]
        let total_ms = self.total_us() as f64 / 1e3;
        let mut out = format!("timings {label}: total {total_ms:.3} ms\n");
        for stage in Stage::ALL {
            let calls = self.stage_calls(stage);
            if calls == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let ms = self.stage_us(stage) as f64 / 1e3;
            let _ = writeln!(out, "  {:<9} {ms:>9.3} ms  ({calls} span(s))", stage.name());
        }
        for (name, calls, us) in &self.kernels {
            #[allow(clippy::cast_precision_loss)]
            let ms = *us as f64 / 1e3;
            let _ = writeln!(out, "  kernel {name:<7} {ms:>9.3} ms  ({calls} call(s))");
        }
        out
    }
}

/// An in-flight span: holds the start instant, or nothing when the
/// recorder is disabled.
#[derive(Debug)]
pub struct SpanGuard(Option<Instant>);

/// Per-session tracing frontend: an enabled flag (resolved from
/// [`active_trace_mode`] at construction) in front of a
/// [`StageProfile`]. Disabled recorders skip the clock entirely.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    profile: StageProfile,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose enabled flag follows [`active_trace_mode`].
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            enabled: active_trace_mode() == TraceMode::On,
            profile: StageProfile::new(),
        }
    }

    /// A recorder that never records.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            profile: StageProfile::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Override the session-level toggle for this recorder.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Begin a span (reads the clock only when enabled).
    #[must_use]
    pub fn start(&self) -> SpanGuard {
        SpanGuard(if self.enabled {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Close a span against `stage`; a guard from a disabled recorder
    /// is discarded for free.
    pub fn stop(&mut self, stage: Stage, guard: SpanGuard) {
        if let Some(start) = guard.0 {
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.profile.record(stage, us);
        }
    }

    /// Record one kernel call (no-op when disabled).
    pub fn record_kernel(&mut self, name: &str, d: Duration) {
        if self.enabled {
            let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
            self.profile.record_kernel(name, us);
        }
    }

    /// The accumulated profile.
    #[must_use]
    pub fn profile(&self) -> &StageProfile {
        &self.profile
    }

    /// Take the accumulated profile, leaving an empty one.
    pub fn take(&mut self) -> StageProfile {
        std::mem::take(&mut self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_covers_u64() {
        let samples = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            100,
            1_000,
            65_535,
            65_536,
            1 << 30,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &samples {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_le_is_the_inclusive_upper_edge() {
        for v in (0u64..4096).chain([1 << 20, 1 << 40, u64::MAX]) {
            let idx = bucket_index(v);
            let le = bucket_le(idx);
            assert!(le >= v, "le {le} below value {v}");
            assert_eq!(
                bucket_index(le),
                idx,
                "upper edge {le} leaves bucket of {v}"
            );
            if idx > 0 {
                assert!(
                    bucket_le(idx - 1) < v,
                    "value {v} also fits the previous bucket"
                );
            }
        }
    }

    #[test]
    fn linear_region_is_exact_and_octaves_bound_error() {
        for v in 0..8u64 {
            assert_eq!(bucket_le(bucket_index(v)), v);
        }
        // Above the linear region the upper edge overshoots by < 12.5%.
        for v in [8u64, 100, 5_000, 123_456, 1 << 33] {
            let le = bucket_le(bucket_index(v));
            assert!((le - v) * 8 <= v, "quantization error over 12.5% at {v}");
        }
    }

    #[test]
    fn histogram_records_and_reports_percentiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record_us(v * 10);
        }
        assert_eq!(h.count(), 100);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 1000);
        // Upper-edge quantiles are >= the exact sample quantiles and
        // within one bucket (12.5%) of them.
        let p50 = s.quantile_us(0.50);
        let p99 = s.quantile_us(0.99);
        assert!((500..=570).contains(&p50), "p50 {p50}");
        assert!((990..=1120).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile_us(1.0), bucket_le(bucket_index(1000)));
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut s = Snapshot::empty();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            s.record_us(x % 1_000_000);
        }
        let qs = [0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            assert!(
                s.quantile_us(w[0]) <= s.quantile_us(w[1]),
                "quantiles not monotone at {w:?}"
            );
        }
        assert!(s.quantile_us(1.0) <= bucket_le(bucket_index(s.max_us)));
    }

    #[test]
    fn merge_is_exactly_additive() {
        let (a, b) = (Histogram::new(), Histogram::new());
        let mut pooled = Snapshot::empty();
        for v in 0..500u64 {
            let val = v * v % 10_000;
            if v % 2 == 0 {
                a.record_us(val)
            } else {
                b.record_us(val)
            }
            pooled.record_us(val);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, pooled);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile_us(0.99), 0);
        assert_eq!(s.max_ms(), 0.0);
        assert_eq!(s.mean_ms(), 0.0);
        assert!(s.cumulative_buckets().is_empty());
    }

    #[test]
    fn prometheus_exposition_renders_cumulative_buckets() {
        let h = Histogram::new();
        h.record_us(1_000); // 1 ms
        h.record_us(1_000);
        h.record_us(50_000); // 50 ms
        let mut out = String::new();
        h.snapshot()
            .write_prometheus(&mut out, "gmc_request_seconds", "shard=\"0\"", true);
        assert!(out.contains("# TYPE gmc_request_seconds histogram"));
        assert!(out.contains("gmc_request_seconds_bucket{shard=\"0\",le=\"+Inf\"} 3"));
        assert!(out.contains("gmc_request_seconds_count{shard=\"0\"} 3"));
        // Cumulative: the 50 ms bucket line must count all 3 samples.
        let last_bucket = out
            .lines()
            .rfind(|l| l.contains("_bucket") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_bucket.ends_with(" 3"), "not cumulative: {last_bucket}");
        let mut counter = String::new();
        write_prom_counter(&mut counter, "gmc_requests_total", "shard=\"0\"", 3, true);
        assert_eq!(
            counter,
            "# TYPE gmc_requests_total counter\ngmc_requests_total{shard=\"0\"} 3\n"
        );
    }

    #[test]
    fn stage_profile_records_diffs_and_renders() {
        let mut p = StageProfile::new();
        p.record(Stage::Enumerate, 1_500);
        p.record(Stage::Dp, 300);
        p.record(Stage::Dp, 200);
        p.record_kernel("GEMM", 42);
        let before = p.clone();
        p.record(Stage::Select, 1_000);
        p.record_kernel("GEMM", 8);
        p.record_kernel("TRSM", 5);
        let delta = p.since(&before);
        assert_eq!(delta.stage_us(Stage::Select), 1_000);
        assert_eq!(delta.stage_us(Stage::Dp), 0);
        assert_eq!(delta.total_us(), 1_000);
        assert_eq!(
            delta.kernels(),
            &[("GEMM".to_owned(), 1, 8), ("TRSM".to_owned(), 1, 5)]
        );
        let mut merged = before.clone();
        merged.merge(&delta);
        assert_eq!(merged, p);
        let text = p.render("test.gmc");
        assert!(text.contains("timings test.gmc"));
        assert!(text.contains("enumerate"));
        assert!(text.contains("kernel GEMM"));
        assert!(!text.contains("parse"), "unused stages are omitted");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        force_trace_mode(Some(TraceMode::Off));
        let mut r = Recorder::new();
        assert!(!r.enabled());
        let g = r.start();
        r.stop(Stage::Parse, g);
        r.record_kernel("GEMM", Duration::from_millis(1));
        assert!(r.profile().is_empty());
        force_trace_mode(Some(TraceMode::On));
        let mut r = Recorder::new();
        assert!(r.enabled());
        let g = r.start();
        r.stop(Stage::Parse, g);
        assert_eq!(r.profile().stage_calls(Stage::Parse), 1);
        force_trace_mode(None);
    }

    #[test]
    fn recorder_take_resets_the_profile() {
        let mut r = Recorder::disabled();
        r.set_enabled(true);
        let g = r.start();
        r.stop(Stage::Emit, g);
        let taken = r.take();
        assert_eq!(taken.stage_calls(Stage::Emit), 1);
        assert!(r.profile().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merging two histograms answers quantile queries within one
        /// bucket of the exact pooled-sample quantile.
        #[test]
        fn merged_quantiles_track_pooled_samples(
            xs in proptest::collection::vec(0u64..2_000_000, 1..120),
            ys in proptest::collection::vec(0u64..2_000_000, 1..120),
            qi in 0usize..5,
        ) {
            let q = [0.5, 0.9, 0.95, 0.99, 1.0][qi];
            let (ha, hb) = (Histogram::new(), Histogram::new());
            for &x in &xs { ha.record_us(x); }
            for &y in &ys { hb.record_us(y); }
            let mut merged = ha.snapshot();
            merged.merge(&hb.snapshot());

            let mut pooled: Vec<u64> = xs.iter().chain(&ys).copied().collect();
            pooled.sort_unstable();
            let n = pooled.len();
            prop_assert_eq!(merged.count, n as u64);
            // Nearest-rank exact quantile over the pooled samples.
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_sign_loss)]
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = pooled[rank - 1];

            let got = merged.quantile_us(q);
            let (bi_exact, bi_got) = (bucket_index(exact), bucket_index(got));
            prop_assert!(
                bi_got >= bi_exact.saturating_sub(1) && bi_got <= bi_exact + 1,
                "quantile {} of merged histogram {} (bucket {}) not within one bucket of exact {} (bucket {})",
                q, got, bi_got, exact, bi_exact
            );
        }

        /// Merge order is irrelevant and counts are conserved.
        #[test]
        fn merge_commutes(
            xs in proptest::collection::vec(0u64..1_000_000, 0..80),
            ys in proptest::collection::vec(0u64..1_000_000, 0..80),
        ) {
            let (ha, hb) = (Histogram::new(), Histogram::new());
            for &x in &xs { ha.record_us(x); }
            for &y in &ys { hb.record_us(y); }
            let mut ab = ha.snapshot();
            ab.merge(&hb.snapshot());
            let mut ba = hb.snapshot();
            ba.merge(&ha.snapshot());
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(ab.count, (xs.len() + ys.len()) as u64);
        }
    }
}
