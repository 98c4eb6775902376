//! Deterministic fault injection for the serving layer.
//!
//! The supervision machinery in [`supervisor`](crate::supervisor) only
//! earns its keep if shard deaths, latency spikes, and torn snapshot
//! writes can be *reproduced on demand* — otherwise every robustness
//! claim is asserted, not tested. This module is that switchboard. It is
//! compiled unconditionally (an empty plan's hooks compare against empty
//! lists) and armed once, at start-up: a [`FaultPlan`] is parsed from the
//! `GMC_FAULT` environment variable by the `gmcc --serve` daemon
//! ([`FaultPlan::from_env`]), or built with [`FaultPlan::parse`] by a
//! test, and handed to [`ServeConfig::faults`](crate::ServeConfig). The
//! plan never changes while the service runs; the shards and the
//! [`transport`](crate::transport) read the same one.
//!
//! # Fault matrix
//!
//! A spec is a comma-separated list of faults:
//!
//! | spec | effect | exercises |
//! |------|--------|-----------|
//! | `panic:<shard>:<nth>` | shard `<shard>` panics on its `<nth>` compile attempt (1-based, cumulative across restarts) | panic catch, warm restart, backoff, circuit breaker, exactly-one-response |
//! | `delay:<ms>` | every compile attempt on every shard sleeps `<ms>` ms first | queue growth, admission control (shedding), deadline expiry at dequeue and in the submitter |
//! | `snapshot_torn` | snapshot saves write a truncated file directly to the target path, bypassing the atomic rename | corrupt-snapshot quarantine and cold start on the next boot |
//! | `conn_drop:<conn>:<nth>` | socket connection `<conn>` (1-based accept order) is severed in place of its `<nth>` outbound line — an abrupt disconnect mid-response | killed-connection write-off: in-flight work leaves the exactly-once tables, late shard replies are dropped and counted |
//! | `conn_stall:<conn>:<ms>` | connection `<conn>`'s output is held `<ms>` ms before every line, by a dispatcher timer (a slow reader / slowloris peer) | bounded outbound buffers: a full buffer slow-closes the connection; a graceful close flushes without stalling other connections |
//! | `conn_garbage:<conn>` | connection `<conn>`'s 2nd request line is read as non-UTF-8 garbage | in-band `bad_request` answers keep per-connection id accounting exact even mid-stream |
//!
//! Panics fire *before* the session is touched, so a killed shard's
//! session never observes a half-applied compile — which also keeps the
//! cache counters exact for the chaos tests' bookkeeping invariants.
//! Shard faults act on shard compile attempts only: a repeat the service
//! answers from its stored artifacts
//! ([`CompileService::submit`](crate::CompileService::submit)) is no
//! attempt, so it is neither delayed nor counted toward `<nth>`, and a
//! test that needs a repeat to panic gives it another `name` or `emit`.
//! All triggers are deterministic functions of the request stream; no
//! clocks or randomness decide *whether* a fault fires.

use std::time::Duration;

/// Environment variable the `gmcc --serve` daemon reads fault specs
/// from (e.g. `GMC_FAULT=panic:0:3,delay:5`).
pub const FAULT_ENV: &str = "GMC_FAULT";

/// A parsed fault spec (see the [module docs](self) for the grammar),
/// fixed once built. The default plan is inert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(shard, nth compile attempt)` pairs that panic, 1-based.
    panics: Vec<(usize, u64)>,
    /// Injected latency before every compile.
    delay: Option<Duration>,
    /// Tear every snapshot save (truncated write, no rename).
    snapshot_torn: bool,
    /// `(connection, nth outbound line)` pairs that sever the
    /// connection in place of that line, 1-based.
    conn_drops: Vec<(u64, u64)>,
    /// Per-connection writer stall before every outbound line.
    conn_stalls: Vec<(u64, Duration)>,
    /// Connections whose 2nd request line is read as garbage.
    conn_garbage: Vec<u64>,
}

impl FaultPlan {
    /// An empty (inert) plan.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse a fault spec like `panic:0:3,delay:5,snapshot_torn` (panic
    /// and connection triggers accumulate; a later `delay` replaces an
    /// earlier one).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let mut parts = clause.split(':');
            match parts.next().unwrap_or("") {
                "panic" => {
                    let shard = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("`{clause}`: expected panic:<shard>:<nth>"))?;
                    let nth: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!("`{clause}`: expected panic:<shard>:<nth> with nth >= 1")
                        })?;
                    plan.panics.push((shard, nth));
                }
                "delay" => {
                    let ms: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("`{clause}`: expected delay:<ms>"))?;
                    plan.delay = Some(Duration::from_millis(ms));
                }
                "snapshot_torn" => plan.snapshot_torn = true,
                "conn_drop" => {
                    let conn: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| format!("`{clause}`: expected conn_drop:<conn>:<nth>"))?;
                    let nth: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!("`{clause}`: expected conn_drop:<conn>:<nth> with nth >= 1")
                        })?;
                    plan.conn_drops.push((conn, nth));
                }
                "conn_stall" => {
                    let conn: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| format!("`{clause}`: expected conn_stall:<conn>:<ms>"))?;
                    let ms: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("`{clause}`: expected conn_stall:<conn>:<ms>"))?;
                    plan.conn_stalls.push((conn, Duration::from_millis(ms)));
                }
                "conn_garbage" => {
                    let conn: u64 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| format!("`{clause}`: expected conn_garbage:<conn>"))?;
                    plan.conn_garbage.push(conn);
                }
                other => return Err(format!("unknown fault `{other}` in `{clause}`")),
            }
            if parts.next().is_some() {
                return Err(format!("`{clause}`: trailing components"));
            }
        }
        Ok(plan)
    }

    /// Build a plan from the [`FAULT_ENV`] environment variable; an
    /// unset or empty variable yields an inert plan.
    ///
    /// # Errors
    ///
    /// Returns the parse error of a malformed spec (a daemon should
    /// refuse to start rather than silently run without the faults an
    /// operator asked for).
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var(FAULT_ENV) {
            Ok(v) if !v.trim().is_empty() => {
                FaultPlan::parse(v.trim()).map_err(|e| format!("bad {FAULT_ENV} spec: {e}"))
            }
            _ => Ok(FaultPlan::new()),
        }
    }

    /// `true` if any fault is armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        *self != FaultPlan::default()
    }

    /// Shard-side hook, called by the worker at the top of every compile
    /// attempt (`nth` is 1-based and cumulative across restarts):
    /// injects the armed delay, then panics if a `panic:<shard>:<nth>`
    /// trigger matches. The panic message is stable and grep-able.
    pub(crate) fn before_compile(&self, shard: usize, nth: u64) {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        if self.panics.contains(&(shard, nth)) {
            panic!("injected fault: panic at shard {shard} compile {nth}");
        }
    }

    /// `true` if snapshot saves should be torn (truncated, non-atomic).
    pub(crate) fn tear_snapshot(&self) -> bool {
        self.snapshot_torn
    }

    /// Transport hook: `true` if connection `conn`'s `nth` outbound
    /// line (1-based) should sever the connection instead of being
    /// written — an abrupt disconnect mid-response.
    pub(crate) fn conn_drop_hit(&self, conn: u64, nth: u64) -> bool {
        self.conn_drops.contains(&(conn, nth))
    }

    /// Transport hook: the armed output stall for connection `conn`,
    /// held (as a timer, never a sleep) before every line the
    /// dispatcher flushes to it (a slow reader from the daemon's point
    /// of view).
    pub(crate) fn conn_stall(&self, conn: u64) -> Option<Duration> {
        self.conn_stalls
            .iter()
            .find(|(c, _)| *c == conn)
            .map(|(_, d)| *d)
    }

    /// Transport hook: `true` if connection `conn`'s request line
    /// `line_no` should be read as non-UTF-8 garbage. The trigger is
    /// pinned to the 2nd line so the fault lands mid-stream (after the
    /// connection has proven it can speak the protocol) and stays a
    /// deterministic function of the request stream.
    pub(crate) fn conn_garbage_hit(&self, conn: u64, line_no: u64) -> bool {
        line_no == 2 && self.conn_garbage.contains(&conn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_matrix() {
        let plan = FaultPlan::parse(
            "panic:0:3, delay:7 ,snapshot_torn,panic:1:2,\
             conn_drop:2:5,conn_stall:1:40,conn_garbage:3",
        )
        .unwrap();
        assert!(plan.is_armed());
        assert!(plan.tear_snapshot());
        assert_eq!(plan.panics, vec![(0, 3), (1, 2)]);
        assert_eq!(plan.delay, Some(Duration::from_millis(7)));
        assert_eq!(plan.conn_drops, vec![(2, 5)]);
        assert_eq!(plan.conn_stalls, vec![(1, Duration::from_millis(40))]);
        assert_eq!(plan.conn_garbage, vec![3]);
    }

    #[test]
    fn connection_hooks_trigger_exactly() {
        let plan = FaultPlan::parse("conn_drop:2:5,conn_stall:1:40,conn_garbage:3").unwrap();
        assert!(plan.conn_drop_hit(2, 5));
        assert!(!plan.conn_drop_hit(2, 4), "nth is exact");
        assert!(!plan.conn_drop_hit(1, 5), "conn is exact");
        assert_eq!(plan.conn_stall(1), Some(Duration::from_millis(40)));
        assert_eq!(plan.conn_stall(2), None);
        assert!(plan.conn_garbage_hit(3, 2), "pinned to the 2nd line");
        assert!(!plan.conn_garbage_hit(3, 1));
        assert!(!plan.conn_garbage_hit(3, 3));
        assert!(!plan.conn_garbage_hit(1, 2));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(!plan.is_armed());
        assert!(!plan.tear_snapshot());
        plan.before_compile(0, 1); // must not panic or sleep
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "panic",
            "panic:0",
            "panic:x:1",
            "panic:0:0",
            "panic:0:1:2",
            "delay",
            "delay:x",
            "frobnicate",
            "snapshot_torn:5",
            "conn_drop",
            "conn_drop:1",
            "conn_drop:0:1",
            "conn_drop:1:0",
            "conn_drop:1:2:3",
            "conn_stall:1",
            "conn_stall:0:5",
            "conn_stall:1:x",
            "conn_garbage",
            "conn_garbage:0",
            "conn_garbage:1:2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn panic_trigger_is_exact_and_one_shot_by_count() {
        let plan = FaultPlan::parse("panic:1:2").unwrap();
        plan.before_compile(1, 1);
        plan.before_compile(0, 2); // other shard
        let caught = std::panic::catch_unwind(|| plan.before_compile(1, 2));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "injected fault: panic at shard 1 compile 2");
        plan.before_compile(1, 3); // counter moved past the trigger
    }
}
