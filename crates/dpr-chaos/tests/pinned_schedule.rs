//! Seed 42's fault schedule, pinned: kind, target worker and duration of
//! every fault, in order. A chaos finding is replayed from its seed, so an
//! edit that changes the generator or the planner's draws must fail here
//! first. (When a fault fires is not drawn: a chaos run spaces its faults
//! evenly.)

use dpr_chaos::{plan, ChaosConfig};

/// What `chaos --seed 42 --rounds 1` injects, in the default shape.
#[test]
fn seed_42_plans_the_schedule_it_always_has() {
    let c = ChaosConfig::default();
    assert_eq!((c.events, c.shards, c.max_extra_workers), (8, 3, 1));
    let shown: Vec<String> = plan(42, c.events, c.shards, c.max_extra_workers)
        .iter()
        .map(ToString::to_string)
        .collect();
    let want = [
        "crash worker 1",
        "partition worker 1 for 408ms",
        "add worker",
        "migrate partition of key 1478287871",
        "lossy link to worker 2 (15% drop) for 308ms",
        "crash worker 2",
        "crash worker 2",
        "remove last worker",
    ];
    assert_eq!(shown, want);
}
