//! Property tests for the transport fault hooks (chaos harness support).
//!
//! Under arbitrary schedules of slow/lossy/partition faults interleaved
//! with sends, the simulated network must preserve per-link FIFO order of
//! delivered messages, account for every message (delivered + dropped +
//! parked == sent), and shut down without deadlocking even with messages
//! parked behind a partition. At an endpoint with several lanes (a worker's
//! executors) the same holds sender by sender: one sender, one lane.

use dpr_cluster::wire::{self, FrameKind};
use dpr_cluster::{BusFrame, EndpointId, LinkFault, SimNetwork};
use dpr_core::DprError;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
enum FaultAction {
    /// Install a slow link with this extra delay in milliseconds.
    Slow(u8),
    /// Install a lossy link with this drop percentage.
    Lossy(u8),
    /// Partition the link (messages park until heal).
    Partition,
    /// Clear the link fault, releasing parked messages.
    Heal,
    /// Send this many sequence-numbered messages.
    SendBurst(u8),
}

fn action_strategy() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        2 => (0..8u8).prop_map(FaultAction::Slow),
        2 => (0..60u8).prop_map(FaultAction::Lossy),
        1 => Just(FaultAction::Partition),
        2 => Just(FaultAction::Heal),
        5 => (1..12u8).prop_map(FaultAction::SendBurst),
    ]
}

/// A control frame numbered through its `seq`.
fn numbered(serial: u64) -> BusFrame {
    numbered_from(EndpointId(u64::MAX), serial)
}

fn numbered_from(from: EndpointId, serial: u64) -> BusFrame {
    let mut bytes = Vec::new();
    wire::encode_control(&mut bytes, FrameKind::CutReq, serial);
    BusFrame {
        from,
        bytes: bytes.into(),
    }
}

/// Put a fault action on the link to `id`; the number of frames to send if
/// it is a burst instead.
fn apply(net: &Arc<SimNetwork>, id: EndpointId, action: &FaultAction) -> u8 {
    let fault = match action {
        FaultAction::Slow(ms) => LinkFault {
            extra_delay: Duration::from_millis(u64::from(*ms)),
            ..LinkFault::default()
        },
        FaultAction::Lossy(pct) => LinkFault {
            drop_rate: f64::from(*pct) / 100.0,
            ..LinkFault::default()
        },
        FaultAction::Partition => LinkFault {
            partitioned: true,
            ..LinkFault::default()
        },
        FaultAction::Heal => {
            net.clear_link_fault(id);
            return 0;
        }
        FaultAction::SendBurst(n) => return *n,
    };
    net.set_link_fault(id, fault);
    0
}

fn serial_of(frame: &BusFrame) -> u64 {
    wire::decode_header(&frame.bytes).unwrap().unwrap().seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-link FIFO survives arbitrary delay/drop/partition schedules:
    /// the serials delivered to each endpoint are a strictly increasing
    /// subsequence of the serials sent to it, and every sent message is
    /// either delivered or dropped once all faults are healed.
    #[test]
    fn fifo_and_accounting_under_arbitrary_fault_schedules(
        schedules in prop::collection::vec(
            prop::collection::vec(action_strategy(), 1..24), 2..3),
        seed in 0..u64::MAX,
    ) {
        let net = SimNetwork::new(Duration::ZERO);
        net.set_fault_seed(seed);
        let links: Vec<(EndpointId, _)> =
            schedules.iter().map(|_| net.register()).collect();
        let mut sent = vec![0u64; links.len()];
        // Interleave the per-link schedules round-robin so faults on one
        // link overlap traffic on the other.
        let longest = schedules.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (i, schedule) in schedules.iter().enumerate() {
                let Some(action) = schedule.get(step) else { continue };
                let (id, _) = links[i];
                for _ in 0..apply(&net, id, action) {
                    net.send(id, numbered(sent[i])).unwrap();
                    sent[i] += 1;
                }
            }
        }
        net.clear_all_link_faults();
        // Drain every link: delivered serials must be strictly increasing
        // (per-link FIFO, drops allowed), and together with the drop
        // counter account for every send.
        let mut delivered_total = 0u64;
        for (i, (_, rx)) in links.iter().enumerate() {
            let mut last: Option<u64> = None;
            while let Ok(msg) = rx.recv_timeout(Duration::from_millis(200)) {
                let serial = serial_of(&msg);
                if let Some(prev) = last {
                    prop_assert!(serial > prev,
                        "link {} delivered {} after {}", i, serial, prev);
                }
                prop_assert!(serial < sent[i], "link {} unknown serial", i);
                last = Some(serial);
                delivered_total += 1;
            }
        }
        let total_sent: u64 = sent.iter().sum();
        prop_assert_eq!(delivered_total + net.dropped_count(), total_sent,
            "every message delivered or dropped after heal");
        // Shutdown must complete promptly even right after heavy traffic.
        net.shutdown();
        prop_assert!(net.send(links[0].0, numbered(0)).is_err());
    }

    /// An endpoint with several lanes (a worker with several executors):
    /// whatever the link to it goes through, the frames of one sender all
    /// arrive on one lane, in the order sent, and two senders registered one
    /// after the other (two sessions opened back to back) get different
    /// lanes. This is the bus's half of the ordering rule of
    /// `docs/NETWORK.md` §6.
    #[test]
    fn a_senders_frames_keep_one_lane_and_their_order_under_faults(
        schedule in prop::collection::vec(action_strategy(), 1..32),
        lanes in 2..4usize,
        seed in 0..u64::MAX,
    ) {
        let net = SimNetwork::new(Duration::ZERO);
        net.set_fault_seed(seed);
        let (to, inboxes) = net.register_lanes(lanes);
        let senders = [net.register().0, net.register().0];
        let mut sent = [0u64; 2];
        for (step, action) in schedule.iter().enumerate() {
            // Bursts alternate between the senders, frame by frame.
            for k in 0..usize::from(apply(&net, to, action)) {
                let who = (step + k) % 2;
                net.send(to, numbered_from(senders[who], sent[who])).unwrap();
                sent[who] += 1;
            }
        }
        net.clear_all_link_faults();
        let mut lane_of = [None; 2];
        let mut last = [None; 2];
        let mut delivered = 0u64;
        for (lane, rx) in inboxes.iter().enumerate() {
            while let Ok(msg) = rx.recv_timeout(Duration::from_millis(200)) {
                let who = senders.iter().position(|s| *s == msg.from).unwrap();
                prop_assert_eq!(*lane_of[who].get_or_insert(lane), lane,
                    "sender {} on two lanes", who);
                let serial = serial_of(&msg);
                prop_assert!(last[who].is_none_or(|prev| serial > prev),
                    "sender {} delivered {} after {:?}", who, serial, last[who]);
                prop_assert!(serial < sent[who]);
                last[who] = Some(serial);
                delivered += 1;
            }
        }
        if let [Some(a), Some(b)] = lane_of {
            prop_assert!(a != b, "consecutive senders share lane {}", a);
        }
        prop_assert_eq!(delivered + net.dropped_count(), sent[0] + sent[1]);
        net.shutdown();
    }

    /// Shutdown with messages still parked behind a partition neither
    /// deadlocks nor panics, and subsequent sends report closure.
    #[test]
    fn shutdown_never_deadlocks_with_parked_messages(
        n_parked in 1..32u64,
        latency_ms in 0..5u64,
    ) {
        let net = SimNetwork::new(Duration::from_millis(latency_ms));
        let (id, rx) = net.register();
        net.set_link_fault(id, LinkFault {
            partitioned: true,
            ..LinkFault::default()
        });
        for i in 0..n_parked {
            net.send(id, numbered(i)).unwrap();
        }
        net.shutdown();
        prop_assert!(matches!(net.send(id, numbered(0)), Err(DprError::Closed)));
        // Parked messages are simply discarded at shutdown.
        prop_assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }
}
