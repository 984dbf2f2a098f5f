//! Property-based tests of the DPR-cut finders (Definition 3.1): every cut
//! any finder emits must be closed under the dependency relation, must
//! never regress, and — for monotone graphs, the ones the §3.2 version
//! clock actually produces — must make progress.

use dpr::core::{ShardId, Token, Version};
use dpr::metadata::{MetadataStore, PartitionedSqlStore};
use dpr::protocol::finder::{compute_closure_cut_capped, cut_is_closed};
use dpr::protocol::{
    ApproximateFinder, BatchHeader, CommitDescriptor, Cut, CutEngine, DprFinder, DprServer,
    ExactFinder, HybridFinder, StateObject,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: u32 = 4;

/// A randomly generated commit event: shard, version bump, and dependency
/// versions on the other shards (clamped for monotonicity when requested).
#[derive(Debug, Clone)]
struct Commit {
    shard: u32,
    deps: Vec<(u32, u64)>,
}

fn commit_strategy() -> impl Strategy<Value = Commit> {
    (
        0..SHARDS,
        prop::collection::vec((0..SHARDS, 0..20u64), 0..3),
    )
        .prop_map(|(shard, deps)| Commit { shard, deps })
}

/// Replay commits against a finder with per-shard version counters.
/// `monotone` clamps dependency versions to ≤ the issuing token's version
/// (what the Lamport clock guarantees).
fn replay(
    finder: &dyn DprFinder,
    commits: &[Commit],
    monotone: bool,
) -> BTreeMap<Token, Vec<Token>> {
    let mut versions = [0u64; SHARDS as usize];
    let mut graph = BTreeMap::new();
    for c in commits {
        versions[c.shard as usize] += 1;
        let v = versions[c.shard as usize];
        let deps: Vec<Token> = c
            .deps
            .iter()
            .filter(|(s, _)| *s != c.shard)
            .map(|(s, dv)| {
                let dv = if monotone { (*dv).min(v) } else { *dv };
                Token::new(ShardId(*s), Version(dv))
            })
            .collect();
        let token = Token::new(ShardId(c.shard), Version(v));
        graph.insert(token, deps.clone());
        finder.report_commit(token, deps).unwrap();
    }
    graph
}

/// One step of a shard's life as its gate sees it.
#[derive(Debug, Clone)]
enum GateStep {
    /// A batch executes in the shard's current version with a dependency on
    /// `on` at `version` (clamped to the executing version, as the §3.2
    /// lower bound guarantees).
    Record { shard: u32, on: u32, version: u64 },
    /// The shard seals its current version and moves to the next.
    Seal { shard: u32 },
    /// The shard's commit pump runs.
    Pump { shard: u32 },
}

fn gate_step_strategy() -> impl Strategy<Value = GateStep> {
    prop_oneof![
        4 => (0..SHARDS, 0..SHARDS, 1..20u64)
            .prop_map(|(shard, on, version)| GateStep::Record { shard, on, version }),
        2 => (0..SHARDS).prop_map(|shard| GateStep::Seal { shard }),
        1 => (0..SHARDS).prop_map(|shard| GateStep::Pump { shard }),
    ]
}

/// A shard whose versions the test seals by hand.
struct SealedByHand {
    shard: ShardId,
    current: AtomicU64,
    sealed: Mutex<Vec<CommitDescriptor>>,
}

impl SealedByHand {
    fn seal(&self) {
        let version = Version(self.current.fetch_add(1, Ordering::SeqCst));
        self.sealed
            .lock()
            .unwrap()
            .push(CommitDescriptor { version });
    }
}

impl StateObject for SealedByHand {
    fn shard(&self) -> ShardId {
        self.shard
    }
    fn current_version(&self) -> Version {
        Version(self.current.load(Ordering::SeqCst))
    }
    fn durable_version(&self) -> Version {
        Version(self.current.load(Ordering::SeqCst) - 1)
    }
    fn request_commit(&self, _target: Option<Version>) -> bool {
        false
    }
    fn take_commits(&self) -> Vec<CommitDescriptor> {
        std::mem::take(&mut *self.sealed.lock().unwrap())
    }
    fn restore(&self, _version: Version) -> dpr::core::Result<()> {
        Ok(())
    }
}

fn setup() -> Arc<PartitionedSqlStore> {
    let meta = Arc::new(PartitionedSqlStore::new(8));
    for s in 0..SHARDS {
        meta.register_worker(ShardId(s)).unwrap();
    }
    meta
}

/// Whatever a hybrid coordinator crash loses, the next cut it publishes is
/// still closed under the real dependencies.
fn hybrid_survives_crash(before: &[Commit], after: &[Commit]) -> TestCaseResult {
    let meta = setup();
    let hybrid = HybridFinder::new(meta);
    let mut versions = [0u64; SHARDS as usize];
    let mut graph = BTreeMap::new();
    let mut feed = |commits: &[Commit]| {
        for c in commits {
            versions[c.shard as usize] += 1;
            let v = versions[c.shard as usize];
            let deps: Vec<Token> = c
                .deps
                .iter()
                .filter(|(s, _)| *s != c.shard)
                .map(|(s, dv)| Token::new(ShardId(*s), Version((*dv).min(v))))
                .collect();
            let token = Token::new(ShardId(c.shard), Version(v));
            graph.insert(token, deps.clone());
            hybrid.report_commit(token, deps).unwrap();
        }
    };
    feed(before);
    hybrid.refresh().unwrap();
    hybrid.simulate_coordinator_crash();
    feed(after);
    hybrid.refresh().unwrap();
    let cut = hybrid.current_cut();
    prop_assert!(
        cut_is_closed(&graph, &cut),
        "post-crash cut {cut:?} not closed"
    );
    Ok(())
}

/// The case real proptest once shrank a failure of
/// `hybrid_survives_crash_with_closed_cut` to: shard 2's second version
/// depends on a shard that never commits, and the crash falls between it and
/// the third. The vendored proptest stand-in keeps no regression file, so
/// the case is replayed here.
#[test]
fn hybrid_survives_crash_recorded_regression() {
    let commit = |deps: &[(u32, u64)]| Commit {
        shard: 2,
        deps: deps.to_vec(),
    };
    hybrid_survives_crash(&[commit(&[]), commit(&[(3, 2)])], &[commit(&[])])
        .unwrap_or_else(|e| panic!("{e}"));
}

/// The floor a [`HybridFinder`] refresh starts from: the published cut
/// joined with `Vmin` on every member (the approximate component).
fn hybrid_floor(meta: &dyn MetadataStore) -> Cut {
    let vmin = meta
        .min_persisted_version()
        .unwrap()
        .unwrap_or(Version::ZERO);
    let mut floor = meta.read_cut().unwrap();
    for s in meta.members().unwrap() {
        let e = floor.entry(s).or_insert(Version::ZERO);
        *e = (*e).max(vmin);
    }
    floor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_cut_is_always_closed(commits in prop::collection::vec(commit_strategy(), 1..60)) {
        let meta = setup();
        let finder = ExactFinder::new(meta);
        // Even for adversarial (non-monotone) graphs the cut must be valid.
        let graph = replay(&finder, &commits, false);
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        prop_assert!(cut_is_closed(&graph, &cut), "cut {cut:?} not closed for {graph:?}");
    }

    #[test]
    fn exact_cut_is_monotone_across_refreshes(commits in prop::collection::vec(commit_strategy(), 2..60)) {
        let meta = setup();
        let finder = ExactFinder::new(meta);
        let mut versions = [0u64; SHARDS as usize];
        let mut prev = finder.current_cut();
        for c in &commits {
            versions[c.shard as usize] += 1;
            let v = versions[c.shard as usize];
            let deps: Vec<Token> = c
                .deps
                .iter()
                .filter(|(s, _)| *s != c.shard)
                .map(|(s, dv)| Token::new(ShardId(*s), Version((*dv).min(v))))
                .collect();
            finder.report_commit(Token::new(ShardId(c.shard), Version(v)), deps).unwrap();
            finder.refresh().unwrap();
            let cut = finder.current_cut();
            for (shard, v) in &prev {
                prop_assert!(cut.get(shard).copied().unwrap_or(Version::ZERO) >= *v,
                    "cut regressed on {shard}");
            }
            prev = cut;
        }
    }

    #[test]
    fn monotone_graphs_eventually_commit_everything(commits in prop::collection::vec(commit_strategy(), 1..60)) {
        // With the version clock (monotone deps), once every shard has
        // committed its max version, the exact cut covers every token
        // (progress, §3.2).
        let meta = setup();
        let finder = ExactFinder::new(meta);
        let graph = replay(&finder, &commits, true);
        // Make sure every shard has committed up to the max version any dep
        // references (deps may point to not-yet-committed same-or-lower
        // versions of other shards).
        let mut max_needed = [0u64; SHARDS as usize];
        for (t, deps) in &graph {
            max_needed[t.shard.0 as usize] = max_needed[t.shard.0 as usize].max(t.version.0);
            for d in deps {
                max_needed[d.shard.0 as usize] = max_needed[d.shard.0 as usize].max(d.version.0);
            }
        }
        let mut versions: Vec<u64> = (0..SHARDS)
            .map(|s| graph.keys().filter(|t| t.shard.0 == s).map(|t| t.version.0).max().unwrap_or(0))
            .collect();
        for s in 0..SHARDS {
            while versions[s as usize] < max_needed[s as usize] {
                versions[s as usize] += 1;
                finder
                    .report_commit(Token::new(ShardId(s), Version(versions[s as usize])), vec![])
                    .unwrap();
            }
        }
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        for s in 0..SHARDS {
            prop_assert!(
                cut[&ShardId(s)] >= Version(versions[s as usize]),
                "shard {s} stuck at {:?} < {}",
                cut[&ShardId(s)],
                versions[s as usize]
            );
        }
    }

    #[test]
    fn graphs_reported_through_the_gate_are_monotone(
        steps in prop::collection::vec(gate_step_strategy(), 1..120)
    ) {
        // Whatever the interleaving of batches, seals and pumps, a real
        // `DprServer` reports every version with dependencies at or below
        // it — the graphs of the property above are the ones the gate
        // produces — and so everything reported commits once every shard
        // has caught up.
        let meta = setup();
        let finder = ExactFinder::new(meta.clone());
        let shards: Vec<(DprServer, SealedByHand)> = (0..SHARDS)
            .map(|s| {
                (
                    DprServer::new(ShardId(s)),
                    SealedByHand {
                        shard: ShardId(s),
                        current: AtomicU64::new(1),
                        sealed: Mutex::new(Vec::new()),
                    },
                )
            })
            .collect();
        let mut recorded: Vec<(Token, Token)> = Vec::new();
        for step in &steps {
            match *step {
                GateStep::Record { shard, on, version } => {
                    let (server, so) = &shards[shard as usize];
                    let executed = so.current_version();
                    let dep = Token::new(ShardId(on), Version(version.min(executed.0)));
                    let header = BatchHeader {
                        session: dpr::core::SessionId(1),
                        world_line: dpr::core::WorldLine::INITIAL,
                        version_lower_bound: dep.version,
                        deps: vec![dep],
                        first_serial: 0,
                        acked_below: 0,
                        op_count: 1,
                    };
                    server.record_batch(&header, executed);
                    if on != shard {
                        recorded.push((Token::new(ShardId(shard), executed), dep));
                    }
                }
                GateStep::Seal { shard } => shards[shard as usize].1.seal(),
                GateStep::Pump { shard } => {
                    let (server, so) = &shards[shard as usize];
                    server.pump_commits(so, &finder).unwrap();
                }
            }
        }
        // Every shard seals up to the highest version anybody reached, and
        // reports.
        let top = shards.iter().map(|(_, so)| so.current_version().0).max().unwrap();
        for (server, so) in &shards {
            while so.current_version().0 <= top {
                so.seal();
            }
            server.pump_commits(so, &finder).unwrap();
            prop_assert!(server.pending_deps().is_empty());
        }
        let graph: BTreeMap<Token, Vec<Token>> =
            meta.graph_snapshot().unwrap().into_iter().collect();
        for (token, deps) in &graph {
            for d in deps {
                prop_assert!(
                    d.version <= token.version,
                    "{token:?} reported with {d:?}, above its own version"
                );
            }
        }
        for (token, dep) in &recorded {
            prop_assert!(
                graph[token].iter().any(|d| d.shard == dep.shard && d.version >= dep.version),
                "{dep:?} recorded at {token:?} was not reported with it"
            );
        }
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        for s in 0..SHARDS {
            prop_assert_eq!(cut[&ShardId(s)], Version(top));
        }
    }

    #[test]
    fn approximate_cut_is_closed_for_monotone_graphs(commits in prop::collection::vec(commit_strategy(), 1..60)) {
        let meta = setup();
        let finder = ApproximateFinder::new(meta);
        let graph = replay(&finder, &commits, true);
        finder.refresh().unwrap();
        let cut = finder.current_cut();
        prop_assert!(cut_is_closed(&graph, &cut));
    }

    #[test]
    fn hybrid_cut_closed_and_at_least_approximate(commits in prop::collection::vec(commit_strategy(), 1..60)) {
        let meta = setup();
        let hybrid = HybridFinder::new(meta.clone());
        let graph = replay(&hybrid, &commits, true);
        hybrid.refresh().unwrap();
        let hybrid_cut = hybrid.current_cut();
        prop_assert!(cut_is_closed(&graph, &hybrid_cut));
        // The hybrid must dominate the plain Vmin floor.
        let vmin = meta.min_persisted_version().unwrap().unwrap_or(Version::ZERO);
        for s in 0..SHARDS {
            prop_assert!(hybrid_cut[&ShardId(s)] >= vmin);
        }
    }

    #[test]
    fn hybrid_survives_crash_with_closed_cut(
        before in prop::collection::vec(commit_strategy(), 1..30),
        after in prop::collection::vec(commit_strategy(), 1..30),
    ) {
        hybrid_survives_crash(&before, &after)?;
    }

    /// The delta engine must emit the *same* cut as the full-recompute
    /// oracle ([`compute_closure_cut_capped`] over the complete history)
    /// at every compute, across random graphs (non-monotone allowed),
    /// random prune (commit) interleavings — including failed publishes
    /// that skip the commit — external floor raises, and lost-ceiling
    /// caps whose pins a rising floor eventually passes.
    #[test]
    fn delta_engine_matches_full_recompute_oracle(
        events in prop::collection::vec((commit_strategy(), 0..8u8), 1..80),
        ceiling_entries in prop::collection::vec((0..SHARDS, 1..6u64), 0..3),
    ) {
        let ceiling: Cut = ceiling_entries
            .into_iter()
            .map(|(s, v)| (ShardId(s), Version(v)))
            .collect();
        let engine = CutEngine::new();
        let mut full: BTreeMap<Token, Vec<Token>> = BTreeMap::new();
        let mut versions = [0u64; SHARDS as usize];
        // The floor the finders would hand the engine: the last *published*
        // cut joined with an external component (persisted-version
        // progress), both monotone — exactly the precondition the
        // delta ≡ full theorem needs.
        let mut published = Cut::new();
        let mut external = [0u64; SHARDS as usize];
        for (c, flags) in &events {
            versions[c.shard as usize] += 1;
            let v = versions[c.shard as usize];
            let deps: Vec<Token> = c
                .deps
                .iter()
                .filter(|(s, _)| *s != c.shard)
                .map(|(s, dv)| Token::new(ShardId(*s), Version(*dv)))
                .collect();
            let token = Token::new(ShardId(c.shard), Version(v));
            full.insert(token, deps.clone());
            engine.ingest_one(token, deps);
            if flags & 4 != 0 {
                // External floor progress on this shard (a checkpoint
                // catching up) — this is what walks a pinned shard's floor
                // past its lost ceiling.
                external[c.shard as usize] = v;
            }
            if flags & 1 != 0 {
                let mut floor = published.clone();
                for s in 0..SHARDS {
                    let e = floor.entry(ShardId(s)).or_insert(Version::ZERO);
                    *e = (*e).max(Version(external[s as usize]));
                }
                let cut = engine.compute(&floor, &ceiling);
                let oracle = compute_closure_cut_capped(&full, &floor, &ceiling);
                prop_assert_eq!(
                    &cut, &oracle,
                    "delta cut diverged from oracle at floor {:?} ceiling {:?}",
                    &floor, &ceiling
                );
                if flags & 2 != 0 {
                    // Publish succeeded: prune the delta working set.
                    engine.commit(&cut);
                    published = cut;
                }
                // flags & 2 == 0 models a failed publish (store
                // recovering): the engine must keep its tokens.
            }
        }
    }

    /// Finder-level equivalence: over an adversarial (non-monotone) report
    /// stream an [`ExactFinder`] publishes, at every refresh, the cut the
    /// reference algorithm computes over the complete history from the
    /// store's published cut as floor — including after the finder is torn
    /// down and re-seeded from the durable graph (coordinator restart),
    /// which holds only what earlier publishes did not prune.
    #[test]
    fn exact_finder_matches_full_history_oracle(
        events in prop::collection::vec((commit_strategy(), 0..8u8), 1..60),
    ) {
        let meta = setup();
        let mut finder = ExactFinder::new(meta.clone());
        let mut history: BTreeMap<Token, Vec<Token>> = BTreeMap::new();
        let mut versions = [0u64; SHARDS as usize];
        for (c, flags) in &events {
            versions[c.shard as usize] += 1;
            let v = versions[c.shard as usize];
            let deps: Vec<Token> = c
                .deps
                .iter()
                .filter(|(s, _)| *s != c.shard)
                .map(|(s, dv)| Token::new(ShardId(*s), Version(*dv)))
                .collect();
            let token = Token::new(ShardId(c.shard), Version(v));
            history.insert(token, deps.clone());
            finder.report_commit(token, deps).unwrap();
            if flags & 2 != 0 {
                // Coordinator restart: a fresh finder re-seeds its engine
                // from the durable graph table.
                finder = ExactFinder::new(meta.clone());
            }
            if flags & 1 != 0 {
                let floor = meta.read_cut().unwrap();
                let oracle = compute_closure_cut_capped(&history, &floor, &Cut::new());
                finder.refresh().unwrap();
                prop_assert_eq!(
                    finder.current_cut(), oracle,
                    "exact finder diverged from oracle at floor {:?}", &floor
                );
            }
        }
    }

    /// Hybrid-finder equivalence under the full event mix: monotone
    /// reports, persisted-version progress (which moves the approximate
    /// floor), coordinator crashes (which engage the lost ceiling), and
    /// interleaved refreshes. Every published cut must equal the reference
    /// algorithm's over the complete history — crashes wipe the finder's
    /// graph, never the test's — with the floor and the lost ceiling read
    /// from the finder's own store.
    #[test]
    fn hybrid_finder_matches_full_history_oracle(
        events in prop::collection::vec((commit_strategy(), 0..16u8), 1..60),
    ) {
        let meta = setup();
        let finder = HybridFinder::new(meta.clone());
        // What the finder arms its lost ceiling from, read when it does.
        let mut ceiling = meta.persisted_versions().unwrap();
        let mut history: BTreeMap<Token, Vec<Token>> = BTreeMap::new();
        let mut versions = [0u64; SHARDS as usize];
        for (c, flags) in &events {
            versions[c.shard as usize] += 1;
            let v = versions[c.shard as usize];
            let deps: Vec<Token> = c
                .deps
                .iter()
                .filter(|(s, _)| *s != c.shard)
                .map(|(s, dv)| Token::new(ShardId(*s), Version((*dv).min(v))))
                .collect();
            let token = Token::new(ShardId(c.shard), Version(v));
            history.insert(token, deps.clone());
            finder.report_commit(token, deps).unwrap();
            if flags & 4 != 0 {
                // Checkpoint progress: the approximate floor advances.
                meta.update_persisted_version(ShardId(c.shard), Version(v)).unwrap();
            }
            if *flags == 11 {
                // Rare: coordinator crash wipes the in-memory graph and
                // arms the lost ceiling from persisted versions.
                finder.simulate_coordinator_crash();
                ceiling = meta.persisted_versions().unwrap();
            }
            if flags & 1 != 0 {
                let floor = hybrid_floor(&*meta);
                let oracle = compute_closure_cut_capped(&history, &floor, &ceiling);
                finder.refresh().unwrap();
                prop_assert_eq!(
                    finder.current_cut(), oracle,
                    "hybrid finder diverged from oracle at floor {:?} ceiling {:?}",
                    &floor, &ceiling
                );
            }
        }
    }
}
