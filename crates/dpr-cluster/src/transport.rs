//! The in-process message bus with configurable one-way latency.
//!
//! Stand-in for the paper's TCP + accelerated networking (see DESIGN.md):
//! it carries what a socket carries, encoded [`crate::wire`] frames, each
//! with the endpoint that sent it ([`BusFrame`]). Endpoints register an
//! inbox; `send` either delivers immediately (zero-latency configuration)
//! or schedules delivery through a delay-heap pump thread. Per-message
//! delivery cost is what makes client batching (`b`) and windowing (`w`)
//! matter, reproducing the trade-offs of Fig. 13.
//!
//! # Lanes
//!
//! An inbox has one consumer, as a connection has one I/O thread. An
//! endpoint served by several threads ([`SimNetwork::register_lanes`], a
//! worker's executors) has one inbox per thread, and a frame goes to the
//! lane of its sender: `from` modulo the lane count, which deals senders
//! registered one after another round-robin, the acceptor's rule of
//! `net.rs`. So on the bus as on a socket, a sender's frames are served by
//! one thread, in the order sent (`docs/NETWORK.md` §6).
//!
//! # Fault injection
//!
//! The chaos harness (`dpr-chaos`) perturbs individual links with
//! [`LinkFault`]s keyed by destination endpoint: extra delay (slow link),
//! probabilistic drop (lossy link), or a full partition that parks messages
//! until the fault is cleared. All faulted scheduling preserves per-link
//! FIFO: a message to endpoint `E` is never delivered before an earlier
//! message to `E` that is still queued, even across fault set/clear
//! transitions — matching TCP's in-order guarantee that the DPR session
//! protocol assumes. Drops are drawn from a [`dpr_core::Rng`] seeded via
//! [`SimNetwork::set_fault_seed`] so chaos schedules replay identically for
//! a given seed.

use bytes::Bytes;
use dpr_core::{DprError, Result, Rng};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Address of a worker or client on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u64);

/// One message on the bus: an encoded [`crate::wire`] frame, byte for byte
/// what a socket would carry, and the endpoint that sent it. The sender's
/// address is the bus's stand-in for a connection: answers go back to it.
#[derive(Debug, Clone)]
pub struct BusFrame {
    /// Where an answer to this frame goes.
    pub from: EndpointId,
    /// The frame: header and body as `docs/NETWORK.md` lays them out.
    pub bytes: Bytes,
}

/// Fault applied to every message addressed to one endpoint.
///
/// Installed with [`SimNetwork::set_link_fault`]; the default value is a
/// healthy link. Faults compose: a link can be slow *and* lossy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Added to the network's base one-way latency.
    pub extra_delay: Duration,
    /// Probability in `[0, 1)` that a message is silently dropped
    /// (decided by the deterministic fault PRNG).
    pub drop_rate: f64,
    /// Park messages instead of delivering; released in order when the
    /// fault is cleared or replaced by a non-partitioned fault.
    pub partitioned: bool,
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault {
            extra_delay: Duration::ZERO,
            drop_rate: 0.0,
            partitioned: false,
        }
    }
}

struct Delayed {
    deliver_at: Instant,
    seq: u64,
    to: EndpointId,
    msg: BusFrame,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

struct PumpState {
    heap: BinaryHeap<Reverse<Delayed>>,
    /// Active per-destination faults; absent entry = healthy link.
    faults: HashMap<EndpointId, LinkFault>,
    /// Messages held behind partitioned links, in send order.
    parked: HashMap<EndpointId, VecDeque<BusFrame>>,
    /// Latest scheduled delivery per destination; later sends never
    /// schedule before this, which is what preserves per-link FIFO when a
    /// fault's delay shrinks or clears mid-stream.
    fifo_floor: HashMap<EndpointId, Instant>,
    /// Drop decisions.
    rng: Rng,
}

/// The bus.
pub struct SimNetwork {
    latency: Duration,
    /// An endpoint's lanes, one inbox each; never empty.
    endpoints: RwLock<HashMap<EndpointId, Vec<Sender<BusFrame>>>>,
    pump: Mutex<PumpState>,
    pump_wake: Condvar,
    seq: AtomicU64,
    shutdown: AtomicBool,
    next_endpoint: AtomicU64,
    /// Sticky flag: set the first time a link fault is installed. Once
    /// set, zero-latency sends stop short-circuiting and go through the
    /// pump so FIFO order holds relative to still-queued faulted traffic.
    ever_faulted: AtomicBool,
    /// Whether the pump thread is running (spawned at construction for
    /// non-zero latency, lazily on first fault otherwise).
    pump_running: AtomicBool,
    dropped: AtomicU64,
}

impl SimNetwork {
    /// Create a bus with the given one-way message latency. A latency of
    /// zero delivers synchronously with no pump thread involvement (until
    /// a link fault is installed, which starts the pump).
    pub fn new(latency: Duration) -> Arc<SimNetwork> {
        let net = Arc::new(SimNetwork {
            latency,
            endpoints: RwLock::new(HashMap::new()),
            pump: Mutex::new(PumpState {
                heap: BinaryHeap::new(),
                faults: HashMap::new(),
                parked: HashMap::new(),
                fifo_floor: HashMap::new(),
                rng: Rng::new(0),
            }),
            pump_wake: Condvar::new(),
            seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            next_endpoint: AtomicU64::new(0),
            ever_faulted: AtomicBool::new(false),
            pump_running: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        });
        if !latency.is_zero() {
            net.spawn_pump();
        }
        net
    }

    fn spawn_pump(self: &Arc<Self>) {
        if self.pump_running.swap(true, Ordering::AcqRel) {
            return;
        }
        let weak = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("sim-net-pump".into())
            .spawn(move || loop {
                let Some(net) = weak.upgrade() else { return };
                if net.shutdown.load(Ordering::Acquire) {
                    return;
                }
                net.pump_once();
            })
            .expect("spawn network pump");
    }

    /// Allocate a fresh endpoint and its inbox.
    pub fn register(&self) -> (EndpointId, Receiver<BusFrame>) {
        let (id, mut lanes) = self.register_lanes(1);
        (id, lanes.remove(0))
    }

    /// Allocate a fresh endpoint served by `lanes` threads (at least one),
    /// with an inbox for each: every frame of one sender arrives on one of
    /// them, in the order sent (see the module's *Lanes*).
    pub fn register_lanes(&self, lanes: usize) -> (EndpointId, Vec<Receiver<BusFrame>>) {
        let id = EndpointId(self.next_endpoint.fetch_add(1, Ordering::AcqRel));
        let (txs, rxs) = (0..lanes.max(1)).map(|_| channel()).unzip();
        self.endpoints.write().insert(id, txs);
        (id, rxs)
    }

    /// Close endpoint `id`: its lanes' receivers see the end once they have
    /// taken what was delivered, and later sends to it fail.
    pub fn close(&self, id: EndpointId) {
        self.endpoints.write().remove(&id);
    }

    /// Send `msg` to `to`, subject to the configured latency and any
    /// installed [`LinkFault`] for the destination.
    pub fn send(&self, to: EndpointId, msg: BusFrame) -> Result<()> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(DprError::Closed);
        }
        if self.latency.is_zero() && !self.ever_faulted.load(Ordering::Acquire) {
            return self.deliver(to, msg);
        }
        let mut pump = self.pump.lock();
        let fault = pump.faults.get(&to).copied().unwrap_or_default();
        if fault.partitioned {
            pump.parked.entry(to).or_default().push_back(msg);
            crate::metrics::net_parked()
                .set(pump.parked.values().map(VecDeque::len).sum::<usize>() as i64);
            return Ok(());
        }
        if fault.drop_rate > 0.0 && pump.rng.bool(fault.drop_rate) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            crate::metrics::net_dropped().add(1);
            return Ok(());
        }
        self.schedule(&mut pump, to, msg, self.latency + fault.extra_delay);
        crate::metrics::net_inflight().set(pump.heap.len() as i64);
        self.pump_wake.notify_one();
        Ok(())
    }

    /// Queue `msg` for delivery to `to` after `delay`, never ahead of an
    /// earlier message to the same destination (per-link FIFO). Caller
    /// holds the pump lock.
    fn schedule(&self, pump: &mut PumpState, to: EndpointId, msg: BusFrame, delay: Duration) {
        let mut deliver_at = Instant::now() + delay;
        if let Some(&floor) = pump.fifo_floor.get(&to) {
            deliver_at = deliver_at.max(floor);
        }
        pump.fifo_floor.insert(to, deliver_at);
        pump.heap.push(Reverse(Delayed {
            deliver_at,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            to,
            msg,
        }));
    }

    /// Install (or replace) the fault on the link to `to`. Starts the
    /// pump thread if this zero-latency bus never needed one; from then
    /// on all sends go through the delay heap so ordering is preserved
    /// across the healthy/faulted transition.
    pub fn set_link_fault(self: &Arc<Self>, to: EndpointId, fault: LinkFault) {
        self.spawn_pump();
        self.ever_faulted.store(true, Ordering::Release);
        let mut pump = self.pump.lock();
        pump.faults.insert(to, fault);
        if !fault.partitioned {
            self.release_parked(&mut pump, to, fault.extra_delay);
        }
        self.pump_wake.notify_one();
    }

    /// Heal the link to `to`: remove its fault and release any parked
    /// messages, in their original send order, at the base latency.
    pub fn clear_link_fault(&self, to: EndpointId) {
        let mut pump = self.pump.lock();
        pump.faults.remove(&to);
        self.release_parked(&mut pump, to, Duration::ZERO);
        self.pump_wake.notify_one();
    }

    /// Heal every link at once (end of a chaos round).
    pub fn clear_all_link_faults(&self) {
        let mut pump = self.pump.lock();
        pump.faults.clear();
        let targets: Vec<EndpointId> = pump.parked.keys().copied().collect();
        for to in targets {
            self.release_parked(&mut pump, to, Duration::ZERO);
        }
        self.pump_wake.notify_one();
    }

    /// Reseed the deterministic drop generator (chaos runs call this once
    /// so the whole fault schedule replays from a single `u64`).
    pub fn set_fault_seed(&self, seed: u64) {
        self.pump.lock().rng = Rng::new(seed);
    }

    /// Messages dropped so far by lossy-link faults.
    #[must_use]
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn release_parked(&self, pump: &mut PumpState, to: EndpointId, extra: Duration) {
        if let Some(queue) = pump.parked.remove(&to) {
            for msg in queue {
                self.schedule(pump, to, msg, self.latency + extra);
            }
            crate::metrics::net_parked()
                .set(pump.parked.values().map(VecDeque::len).sum::<usize>() as i64);
        }
    }

    fn deliver(&self, to: EndpointId, msg: BusFrame) -> Result<()> {
        let endpoints = self.endpoints.read();
        match endpoints.get(&to) {
            Some(lanes) => {
                let lane = (msg.from.0 % lanes.len() as u64) as usize;
                lanes[lane].send(msg).map_err(|_| DprError::Closed)
            }
            None => Err(DprError::Invalid(format!("unknown endpoint {to:?}"))),
        }
    }

    fn pump_once(&self) {
        let mut due = Vec::new();
        {
            let mut pump = self.pump.lock();
            let now = Instant::now();
            loop {
                match pump.heap.peek() {
                    Some(Reverse(d)) if d.deliver_at <= now => {
                        let Reverse(d) = pump.heap.pop().unwrap();
                        due.push((d.to, d.msg));
                    }
                    Some(Reverse(d)) => {
                        let wait = d.deliver_at - now;
                        if due.is_empty() {
                            self.pump_wake
                                .wait_for(&mut pump, wait.min(Duration::from_micros(200)));
                        }
                        break;
                    }
                    None => {
                        if due.is_empty() {
                            self.pump_wake.wait_for(&mut pump, Duration::from_millis(5));
                        }
                        break;
                    }
                }
            }
        }
        if !due.is_empty() {
            crate::metrics::net_inflight().set(self.pump.lock().heap.len() as i64);
        }
        for (to, msg) in due {
            let _ = self.deliver(to, msg);
        }
    }

    /// Tear down; subsequent sends fail.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.pump_wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    /// A control frame numbered through its `seq`.
    fn numbered(seq: u64) -> BusFrame {
        let mut bytes = Vec::new();
        wire::encode_control(&mut bytes, wire::FrameKind::CutReq, seq);
        BusFrame {
            from: EndpointId(u64::MAX),
            bytes: bytes.into(),
        }
    }

    fn seq_of(frame: &BusFrame) -> u64 {
        wire::decode_header(&frame.bytes).unwrap().unwrap().seq
    }

    #[test]
    fn zero_latency_delivers_synchronously() {
        let net = SimNetwork::new(Duration::ZERO);
        let (id, rx) = net.register();
        net.send(id, numbered(7)).unwrap();
        assert_eq!(seq_of(&rx.try_recv().unwrap()), 7);
    }

    #[test]
    fn latency_delays_delivery() {
        let net = SimNetwork::new(Duration::from_millis(20));
        let (id, rx) = net.register();
        let start = Instant::now();
        net.send(id, numbered(1)).unwrap();
        assert!(rx.try_recv().is_err(), "not delivered immediately");
        let _ = rx.recv_timeout(Duration::from_millis(500)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn messages_ordered_per_latency_class() {
        let net = SimNetwork::new(Duration::from_millis(5));
        let (id, rx) = net.register();
        for i in 0..10 {
            net.send(id, numbered(i)).unwrap();
        }
        for i in 0..10 {
            let frame = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(seq_of(&frame), i);
        }
    }

    #[test]
    fn unknown_endpoint_errors() {
        let net = SimNetwork::new(Duration::ZERO);
        assert!(net.send(EndpointId(99), numbered(0)).is_err());
    }

    fn recv_serial(rx: &Receiver<BusFrame>) -> u64 {
        seq_of(&rx.recv_timeout(Duration::from_millis(2000)).unwrap())
    }

    #[test]
    fn slow_link_adds_delay() {
        let net = SimNetwork::new(Duration::ZERO);
        let (id, rx) = net.register();
        net.set_link_fault(
            id,
            LinkFault {
                extra_delay: Duration::from_millis(30),
                ..LinkFault::default()
            },
        );
        let start = Instant::now();
        net.send(id, numbered(1)).unwrap();
        let _ = rx.recv_timeout(Duration::from_millis(2000)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn partition_parks_until_heal_in_order() {
        let net = SimNetwork::new(Duration::ZERO);
        let (id, rx) = net.register();
        net.set_link_fault(
            id,
            LinkFault {
                partitioned: true,
                ..LinkFault::default()
            },
        );
        for i in 0..5 {
            net.send(id, numbered(i)).unwrap();
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "partition holds traffic"
        );
        net.clear_link_fault(id);
        for i in 0..5 {
            assert_eq!(recv_serial(&rx), i, "released in send order");
        }
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let counts: Vec<u64> = (0..2)
            .map(|_| {
                let net = SimNetwork::new(Duration::ZERO);
                net.set_fault_seed(7);
                let (id, rx) = net.register();
                net.set_link_fault(
                    id,
                    LinkFault {
                        drop_rate: 0.5,
                        ..LinkFault::default()
                    },
                );
                for i in 0..64 {
                    net.send(id, numbered(i)).unwrap();
                }
                // Drain whatever survived; exact set must match per seed.
                let mut survived = 0u64;
                while rx.recv_timeout(Duration::from_millis(100)).is_ok() {
                    survived += 1;
                }
                assert_eq!(net.dropped_count() + survived, 64);
                assert!(net.dropped_count() > 0, "some messages dropped");
                net.dropped_count()
            })
            .collect();
        assert_eq!(counts[0], counts[1], "same seed, same drops");
    }

    #[test]
    fn fifo_preserved_across_fault_clear() {
        // A message stuck behind a big injected delay must still arrive
        // before a message sent after the fault cleared.
        let net = SimNetwork::new(Duration::ZERO);
        let (id, rx) = net.register();
        net.set_link_fault(
            id,
            LinkFault {
                extra_delay: Duration::from_millis(40),
                ..LinkFault::default()
            },
        );
        net.send(id, numbered(0)).unwrap();
        net.clear_link_fault(id);
        net.send(id, numbered(1)).unwrap();
        assert_eq!(recv_serial(&rx), 0);
        assert_eq!(recv_serial(&rx), 1);
    }

    #[test]
    fn shutdown_with_parked_messages_does_not_hang() {
        let net = SimNetwork::new(Duration::from_millis(5));
        let (id, _rx) = net.register();
        net.set_link_fault(
            id,
            LinkFault {
                partitioned: true,
                ..LinkFault::default()
            },
        );
        net.send(id, numbered(0)).unwrap();
        net.shutdown();
        assert!(net.send(id, numbered(1)).is_err(), "closed after shutdown");
    }
}
