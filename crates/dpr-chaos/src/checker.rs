//! The online DPR invariant checker.
//!
//! Runs *beside* a live cluster and continuously asserts the paper's
//! correctness properties from three independent observation channels:
//!
//! * the [`libdpr::audit`] tap — every commit report (token + dependency
//!   set) and every cut the finder publishes, from which the checker keeps
//!   its own shadow precedence graph;
//! * the [`dpr_telemetry`] span ring — `recovery_begin`,
//!   `worker_rollback` and `recovery_complete` events, consumed
//!   incrementally via [`dpr_telemetry::MetricsRegistry::spans_since`];
//! * the metadata store itself — the published cut, the per-shard
//!   persisted watermarks and the world-line, polled each tick.
//!
//! Checked invariants (each maps to a §9 row in `docs/PROTOCOL.md`):
//!
//! 1. **Cut monotonicity** — `read_cut()` never regresses per shard while
//!    the shard stays a member (Definition 3.1's cuts form a chain).
//! 2. **Downward closure** — every published cut, merged with the floor,
//!    is dependency-closed over the shadow graph (Definition 3.1, modulo
//!    dependencies on drained-and-removed workers — see
//!    `closed_modulo_removed`).
//! 3. **Prefix recoverability** — every `worker_rollback` restores to a
//!    version at or above the last cut the checker saw for that shard:
//!    committed operations are never lost by recovery.
//! 4. **Recovery completeness** — a `recovery_begin` naming N shards is
//!    followed by exactly N rollbacks on that world-line before
//!    `recovery_complete`, and the restored cut is itself closed.
//! 5. **Bounded cut lag** — per-shard `persisted − cut` stays under a
//!    bound except while an injected stall / membership change legitimately
//!    freezes the cut (the driver registers exemption windows).
//! 6. **Monotone reports** — no commit report carries a dependency above
//!    its own token's version (§3.2: "no version ever depends on a larger
//!    version"), so the shadow graph is exactly the graph the servers
//!    reported.
//!
//! Exactly-once session replay (invariant 7) is driven by the ledger in
//! [`crate::driver`], which reports violations here via
//! [`InvariantChecker::report_violation`].

use dpr_core::{ShardId, Token, Version};
use dpr_metadata::{Cut, MetadataStore};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on stored violation strings (counts keep accumulating).
const MAX_STORED_VIOLATIONS: usize = 64;

/// Tracks one in-flight recovery parsed from spans.
struct RecoveryTrack {
    world_line: u64,
    expected: usize,
    rollbacks: BTreeMap<ShardId, Version>,
}

struct CheckerState {
    /// Shadow precedence graph: token → cross-shard dependency set.
    graph: BTreeMap<Token, Vec<Token>>,
    /// Per-shard high-water of the metadata cut (pruned on membership
    /// removal).
    cut_floor: Cut,
    /// Commit reports at or below this per-shard version are pre-recovery
    /// stragglers (rolled back, or already covered) and are not added to
    /// the shadow graph; see `recovery_complete` handling.
    stale_floor: Cut,
    /// Span ring read cursor.
    span_cursor: u64,
    recovery: Option<RecoveryTrack>,
    lag_exempt_until: Option<Instant>,
    max_lag: u64,
    checks: u64,
    violation_count: u64,
    violations: Vec<String>,
}

/// The checker. Install it as the process-global [`libdpr::audit`] sink
/// and call [`InvariantChecker::tick`] periodically from a dedicated
/// thread.
pub struct InvariantChecker {
    lag_bound: u64,
    state: Mutex<CheckerState>,
    /// Audit events are buffered here by the (hot) finder threads and
    /// drained on the (cold) checker tick, keeping sink calls cheap.
    pending_commits: Mutex<Vec<(Token, Vec<Token>)>>,
    pending_cuts: Mutex<Vec<Cut>>,
}

impl InvariantChecker {
    /// A checker asserting `lag_bound` as the maximum tolerated per-shard
    /// cut lag (in versions). The span cursor starts at the current end of
    /// the ring so events from earlier runs in the same process are
    /// ignored.
    #[must_use]
    pub fn new(lag_bound: u64) -> InvariantChecker {
        let span_cursor = dpr_telemetry::global()
            .spans()
            .last()
            .map_or(0, |e| e.seq + 1);
        InvariantChecker {
            lag_bound,
            state: Mutex::new(CheckerState {
                graph: BTreeMap::new(),
                cut_floor: Cut::new(),
                stale_floor: Cut::new(),
                span_cursor,
                recovery: None,
                lag_exempt_until: None,
                max_lag: 0,
                checks: 0,
                violation_count: 0,
                violations: Vec::new(),
            }),
            pending_commits: Mutex::new(Vec::new()),
            pending_cuts: Mutex::new(Vec::new()),
        }
    }

    /// Suppress the lag-bound assertion for `window` from now (injected
    /// checkpoint stalls and membership changes legitimately freeze the
    /// cut). Lag is still *measured* during the window.
    pub fn exempt_lag(&self, window: Duration) {
        let until = Instant::now() + window;
        let mut s = self.state.lock().unwrap();
        s.lag_exempt_until = Some(match s.lag_exempt_until {
            Some(existing) => existing.max(until),
            None => until,
        });
    }

    /// The driver removed `shard` from the cluster: drop its monotonicity
    /// floor and purge it from the shadow graph (its durable data was
    /// migrated away before removal, so dependencies on it are satisfied).
    pub fn note_shard_removed(&self, shard: ShardId) {
        let mut s = self.state.lock().unwrap();
        s.cut_floor.remove(&shard);
        s.stale_floor.remove(&shard);
        s.graph.retain(|t, _| t.shard != shard);
        for deps in s.graph.values_mut() {
            deps.retain(|d| d.shard != shard);
        }
    }

    /// Record an externally detected violation (ledger bounds, fault
    /// execution errors, recovery timeouts).
    pub fn report_violation(&self, msg: impl Into<String>) {
        self.state.lock().unwrap().record(msg.into());
    }

    /// Number of tick passes performed.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.state.lock().unwrap().checks
    }

    /// Total violations detected (stored strings are capped).
    #[must_use]
    pub fn violation_count(&self) -> u64 {
        self.state.lock().unwrap().violation_count
    }

    /// The stored violation descriptions.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().unwrap().violations.clone()
    }

    /// Maximum per-shard cut lag (versions) observed so far.
    #[must_use]
    pub fn max_lag(&self) -> u64 {
        self.state.lock().unwrap().max_lag
    }

    /// One checking pass: drain buffered audit events, consume new spans,
    /// and poll the metadata store.
    pub fn tick(&self, meta: &Arc<dyn MetadataStore>) {
        let commits = std::mem::take(&mut *self.pending_commits.lock().unwrap());
        let cuts = std::mem::take(&mut *self.pending_cuts.lock().unwrap());
        let spans = {
            let cursor = self.state.lock().unwrap().span_cursor;
            dpr_telemetry::global().spans_since(cursor)
        };

        let mut s = self.state.lock().unwrap();
        for (token, deps) in commits {
            // Invariant 6: the §3.2 lower-bound discipline as the servers
            // report it. Checked on every report, stragglers included.
            for d in deps.iter().filter(|d| d.version > token.version) {
                s.record(format!(
                    "reported dependency above its token: shard {} v{} depends on shard {} v{}",
                    token.shard.0, token.version.0, d.shard.0, d.version.0
                ));
            }
            let stale = s
                .stale_floor
                .get(&token.shard)
                .is_some_and(|&f| token.version <= f);
            if !stale {
                s.graph.insert(token, deps);
            }
        }

        // Invariant 2: downward closure of every published cut (merged
        // with the floor — published cuts form a chain, so the merge is
        // just the later of the two and remains a genuine cut).
        for cut in cuts {
            let mut merged = cut;
            for (shard, v) in &s.cut_floor {
                let e = merged.entry(*shard).or_insert(Version::ZERO);
                *e = (*e).max(*v);
            }
            if !closed_modulo_removed(&s.graph, &merged) {
                s.record(format!(
                    "downward closure violated: published cut {merged:?} includes a token \
                     whose dependency is outside the cut"
                ));
            }
        }

        for span in &spans {
            s.span_cursor = span.seq + 1;
            if span.target != "dpr-cluster" {
                continue;
            }
            match span.name {
                "recovery_begin" => {
                    if s.recovery.is_some() {
                        s.record(
                            "recovery began while a previous recovery was still pending"
                                .to_string(),
                        );
                    }
                    match parse_recovery_begin(&span.detail) {
                        Some((world_line, expected)) => {
                            s.recovery = Some(RecoveryTrack {
                                world_line,
                                expected,
                                rollbacks: BTreeMap::new(),
                            });
                        }
                        None => s.record(format!(
                            "unparseable recovery_begin detail: {}",
                            span.detail
                        )),
                    }
                }
                "worker_rollback" => match parse_worker_rollback(&span.detail) {
                    Some((shard, version, world_line)) => {
                        // Invariant 3: never roll back below the guaranteed
                        // cut the checker already saw published.
                        let floor = s.cut_floor.get(&shard).copied().unwrap_or(Version::ZERO);
                        if version < floor {
                            s.record(format!(
                                "prefix recoverability violated: shard {} rolled back to \
                                 v{} below the guaranteed cut v{}",
                                shard.0, version.0, floor.0
                            ));
                        }
                        let tracked = match &mut s.recovery {
                            Some(track) if track.world_line == world_line => {
                                track.rollbacks.insert(shard, version);
                                true
                            }
                            _ => false,
                        };
                        if !tracked {
                            s.record(format!(
                                "worker_rollback (shard {}, world-line {world_line}) \
                                 outside any tracked recovery",
                                shard.0
                            ));
                        }
                    }
                    None => s.record(format!(
                        "unparseable worker_rollback detail: {}",
                        span.detail
                    )),
                },
                "recovery_complete" => match s.recovery.take() {
                    Some(track) => {
                        // Invariant 4: every named shard rolled back.
                        if track.rollbacks.len() != track.expected {
                            s.record(format!(
                                "recovery completeness violated: world-line {} expected {} \
                                 rollbacks, saw {}",
                                track.world_line,
                                track.expected,
                                track.rollbacks.len()
                            ));
                        }
                        // The restored cut must itself be closed over
                        // everything reported before the crash.
                        let rec_cut: Cut = track.rollbacks.into_iter().collect();
                        if !closed_modulo_removed(&s.graph, &rec_cut) {
                            s.record(format!("recovery cut {rec_cut:?} is not dependency-closed"));
                        }
                        // Pre-recovery tokens are now either committed
                        // (≤ rec_cut) or rolled back (> rec_cut, their
                        // version numbers are skipped, never reused); both
                        // classes leave the shadow graph. Straggler reports
                        // of pre-recovery checkpoints are fenced off by the
                        // persisted watermark: post-recovery versions start
                        // strictly above it.
                        s.graph.clear();
                        if let Ok(persisted) = meta.persisted_versions() {
                            for (shard, v) in persisted {
                                let e = s.stale_floor.entry(shard).or_insert(Version::ZERO);
                                *e = (*e).max(v);
                            }
                        }
                        for (shard, v) in rec_cut {
                            let e = s.cut_floor.entry(shard).or_insert(Version::ZERO);
                            *e = (*e).max(v);
                        }
                    }
                    None => {
                        s.record("recovery_complete without a tracked recovery_begin".to_string())
                    }
                },
                _ => {}
            }
        }

        // Invariant 1: the metadata cut never regresses per shard.
        if let Ok(cut) = meta.read_cut() {
            for (shard, v) in &cut {
                let floor = s.cut_floor.get(shard).copied().unwrap_or(Version::ZERO);
                if *v < floor {
                    s.record(format!(
                        "cut monotonicity violated: shard {} regressed v{} -> v{}",
                        shard.0, floor.0, v.0
                    ));
                } else {
                    s.cut_floor.insert(*shard, *v);
                }
            }
            // Shards absent from the cut left the membership.
            let members: Vec<ShardId> = cut.keys().copied().collect();
            s.cut_floor.retain(|shard, _| members.contains(shard));
            // Drop shadow-graph entries the floor already covers: their
            // closure was asserted when their covering cut was published.
            let floor = s.cut_floor.clone();
            s.graph.retain(|t, _| {
                floor
                    .get(&t.shard)
                    .is_none_or(|&committed| t.version > committed)
            });

            // Invariant 5: bounded per-shard cut lag.
            if let Ok(persisted) = meta.persisted_versions() {
                let mut lag = 0u64;
                for (shard, p) in &persisted {
                    if let Some(c) = cut.get(shard) {
                        lag = lag.max(p.0.saturating_sub(c.0));
                    }
                }
                s.max_lag = s.max_lag.max(lag);
                let exempt =
                    s.lag_exempt_until.is_some_and(|t| Instant::now() < t) || s.recovery.is_some();
                if !exempt && lag > self.lag_bound {
                    s.record(format!(
                        "cut lag bound violated: {lag} versions > bound {}",
                        self.lag_bound
                    ));
                }
            }
        }

        s.checks += 1;
    }
}

impl CheckerState {
    fn record(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(msg);
        }
    }
}

impl libdpr::audit::AuditSink for InvariantChecker {
    fn commit_reported(&self, token: Token, deps: &[Token]) {
        self.pending_commits
            .lock()
            .unwrap()
            .push((token, deps.to_vec()));
    }

    fn cut_published(&self, cut: &Cut) {
        self.pending_cuts.lock().unwrap().push(cut.clone());
    }
}

/// Definition 3.1 closure over the shadow graph, modulo membership: a
/// dependency on a shard with no entry in `cut` refers to a worker that
/// was *removed* — `Cluster::remove_worker` migrates all of its durable
/// state away before dropping its metadata row, so every version a client
/// can still depend on is permanently durable and the dependency is
/// vacuously satisfied. (Client sessions keep carrying such shards in
/// their dependency vectors long after the removal, so the reported graph
/// legitimately references shards no cut will ever contain again.)
fn closed_modulo_removed(graph: &BTreeMap<Token, Vec<Token>>, cut: &Cut) -> bool {
    graph.iter().all(|(token, deps)| {
        let included = cut.get(&token.shard).is_some_and(|&v| token.version <= v);
        !included
            || deps.iter().all(|d| match cut.get(&d.shard) {
                Some(&v) => d.version <= v,
                None => true,
            })
    })
}

/// Parse `"[crashed shard S, ]world-line W (N shards to roll back)"`.
fn parse_recovery_begin(detail: &str) -> Option<(u64, usize)> {
    let rest = match detail.split_once("world-line ") {
        Some((_, rest)) => rest,
        None => return None,
    };
    let (wl, rest) = rest.split_once(" (")?;
    let world_line = wl.trim().parse().ok()?;
    let expected = rest.split_whitespace().next()?.parse().ok()?;
    Some((world_line, expected))
}

/// Parse `"shard S -> vV (world-line W)"`.
fn parse_worker_rollback(detail: &str) -> Option<(ShardId, Version, u64)> {
    let rest = detail.strip_prefix("shard ")?;
    let (shard, rest) = rest.split_once(" -> v")?;
    let (version, rest) = rest.split_once(" (world-line ")?;
    let world_line = rest.strip_suffix(')')?;
    Some((
        ShardId(shard.trim().parse().ok()?),
        Version(version.trim().parse().ok()?),
        world_line.trim().parse().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_recovery_begin_with_and_without_blame() {
        assert_eq!(
            parse_recovery_begin("crashed shard 2, world-line 3 (4 shards to roll back)"),
            Some((3, 4))
        );
        assert_eq!(
            parse_recovery_begin("world-line 7 (2 shards to roll back)"),
            Some((7, 2))
        );
        assert_eq!(parse_recovery_begin("nonsense"), None);
    }

    #[test]
    fn parses_worker_rollback() {
        assert_eq!(
            parse_worker_rollback("shard 1 -> v42 (world-line 2)"),
            Some((ShardId(1), Version(42), 2))
        );
        assert_eq!(parse_worker_rollback("shard x -> vy (world-line z)"), None);
    }
}
