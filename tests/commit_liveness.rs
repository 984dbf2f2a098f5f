//! Commit liveness under sustained cross-shard load (§3.2–§3.4): with the
//! exact finder and every batch depending on the shard before it, commits
//! trail execution by a few checkpoints — while the load runs, not once it
//! stops.
//!
//! The gate reports each version with the dependencies of the batches that
//! executed in it. A report that also carried dependencies of the *next*
//! version would make `(A, v)` wait for `(B, v+1)`, which waits for
//! `(A, v+2)`: the closure would never close under traffic and the cut
//! would fall hundreds of versions behind.

use dpr::cluster::{Cluster, ClusterConfig, ClusterOp};
use dpr::core::{DprFinderMode, Key, ShardId, Value};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const LOAD: Duration = Duration::from_secs(2);
const MAX_CUT_LAG: u64 = 8;

/// Largest `persisted − cut` over the shards. The frontier is read first:
/// a cut that moves in between only makes the reading smaller.
fn cut_lag(cluster: &Cluster) -> u64 {
    let persisted = cluster.metadata().persisted_versions().unwrap();
    let cut = cluster.metadata().read_cut().unwrap();
    persisted
        .iter()
        .map(|(shard, p)| p.0.saturating_sub(cut.get(shard).map_or(0, |c| c.0)))
        .max()
        .unwrap_or(0)
}

#[test]
fn exact_finder_keeps_up_with_cross_shard_load() {
    let cluster = Cluster::start(ClusterConfig {
        shards: SHARDS,
        checkpoint_interval: Some(Duration::from_millis(5)),
        finder_interval: Duration::from_millis(2),
        finder_mode: DprFinderMode::Exact,
        ..ClusterConfig::default()
    })
    .unwrap();
    // One key per shard, so that batch `i` goes to shard `i mod 4` and
    // depends on what the session did on the three others.
    let mut keys: Vec<Option<Key>> = vec![None; SHARDS];
    for k in 0u64.. {
        let key = Key::from_u64(k);
        let ShardId(owner) = cluster.owner_of(&key).unwrap();
        keys[owner as usize].get_or_insert(key);
        if keys.iter().all(Option::is_some) {
            break;
        }
    }
    let keys: Vec<Key> = keys.into_iter().flatten().collect();

    let mut session = cluster.open_session().unwrap();
    let started = Instant::now();
    let (mut batches, mut worst_lag) = (0u64, 0u64);
    while started.elapsed() < LOAD {
        let key = keys[batches as usize % SHARDS].clone();
        session
            .execute(vec![ClusterOp::Upsert(key, Value::from_u64(batches))])
            .unwrap();
        batches += 1;
        if batches.is_multiple_of(16) {
            worst_lag = worst_lag.max(cut_lag(&cluster));
        }
    }
    assert!(
        batches > 1_000,
        "only {batches} batches in {LOAD:?}: no sustained load"
    );
    assert!(
        worst_lag <= MAX_CUT_LAG,
        "the cut fell {worst_lag} versions behind under load (bound {MAX_CUT_LAG})"
    );
    session
        .wait_all_committed(cluster.cut_source(), Duration::from_secs(1))
        .expect("every op commits within 1 s of the load stopping");
    assert_eq!(session.stats().committed, batches);
    cluster.shutdown();
}
