//! The in-process message bus with configurable one-way latency.
//!
//! Stand-in for the paper's TCP + accelerated networking (see DESIGN.md): it
//! carries encoded [`crate::wire`] frames, each with the endpoint that sent
//! it ([`BusFrame`]). Per-message delivery cost is what makes client
//! batching (`b`) and windowing (`w`) matter (Fig. 13).
//!
//! The bus has no thread. `send` stamps a frame due at `now + latency +
//! fault delay`, never before the last frame stamped for the same endpoint,
//! and puts it in its lane at once, under the lock that stamps it. A
//! [`BusInbox`] hands each frame out no earlier than its due time: one taken
//! before then is held for the next call, which waits for it there, as a
//! reader waits on a socket.
//!
//! An inbox has one consumer, as a connection has one thread. An endpoint
//! served by several threads ([`SimNetwork::register_lanes`], a worker's
//! executors) has one inbox per thread, and a frame goes to lane
//! `from % lanes`: a sender's frames are served by one thread, in the order
//! sent (`docs/NETWORK.md` §6).
//!
//! The chaos harness (`dpr-chaos`) puts a [`LinkFault`] on the link to an
//! endpoint: extra delay, a drop rate drawn from a [`dpr_core::Rng`] seeded
//! by [`SimNetwork::set_fault_seed`], or a partition that parks frames until
//! it heals. Per-link FIFO holds across fault changes, as TCP's does. A send
//! to an endpoint that is not registered, or was closed, fails; closing
//! forgets the endpoint's fault, parked frames and FIFO floor. After
//! [`SimNetwork::shutdown`] sends fail; frames sent before it come at their
//! due time, as bytes already on a wire would, and parked frames are
//! discarded.

use bytes::Bytes;
use dpr_core::{DprError, Rng};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvError, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
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
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

/// The receiving end of one lane: [`std::sync::mpsc::Receiver`]'s methods,
/// with its errors, each handing a frame out no earlier than its due time.
pub struct BusInbox {
    lane: Receiver<(Instant, BusFrame)>,
    /// A frame taken from the lane before it was due.
    held: Cell<Option<(Instant, BusFrame)>>,
}

impl BusInbox {
    /// Block until a frame is due and return it; `Err` once the lane is
    /// closed and empty.
    pub fn recv(&self) -> Result<BusFrame, RecvError> {
        let (due, frame) = self.held.take().map_or_else(|| self.lane.recv(), Ok)?;
        wait_until(due);
        Ok(frame)
    }

    /// As [`BusInbox::recv`], but for at most `timeout`: a frame due after
    /// that is held for the next call, and the wait runs to its deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<BusFrame, RecvTimeoutError> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return self.recv().map_err(|_| RecvTimeoutError::Disconnected);
        };
        let next = self.held.take();
        let (due, frame) = next.map_or_else(|| self.lane.recv_timeout(timeout), Ok)?;
        if due > deadline {
            self.held.set(Some((due, frame)));
            wait_until(deadline);
            return Err(RecvTimeoutError::Timeout);
        }
        wait_until(due);
        Ok(frame)
    }

    /// A frame that is due now, if there is one; `Empty` while the next is
    /// not yet due.
    pub fn try_recv(&self) -> Result<BusFrame, TryRecvError> {
        let (due, frame) = self.held.take().map_or_else(|| self.lane.try_recv(), Ok)?;
        if due > Instant::now() {
            self.held.set(Some((due, frame)));
            return Err(TryRecvError::Empty);
        }
        Ok(frame)
    }
}

/// Sleep until `at`, a frame's due time or a caller's deadline.
fn wait_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

/// Everything a send reads or writes, under one lock.
struct Links {
    /// An endpoint's lanes, one channel each; never empty.
    endpoints: HashMap<EndpointId, Vec<Sender<(Instant, BusFrame)>>>,
    /// Active per-destination faults; absent entry = healthy link.
    faults: HashMap<EndpointId, LinkFault>,
    /// Messages held behind partitioned links, in send order.
    parked: HashMap<EndpointId, VecDeque<BusFrame>>,
    /// Latest due time per destination: no later frame is due before it,
    /// whatever the faults do meanwhile (per-link FIFO).
    fifo_floor: HashMap<EndpointId, Instant>,
    rng: Rng,
    shutdown: bool,
}

impl Links {
    /// Stamp `msg` due after `delay`, never ahead of an earlier frame to
    /// `to` (per-link FIFO), and put it in its sender's lane.
    fn push(&mut self, to: EndpointId, msg: BusFrame, delay: Duration) -> dpr_core::Result<()> {
        let lanes = self.endpoints.get(&to).ok_or(DprError::Closed)?;
        let due = Instant::now() + delay;
        let floor = self.fifo_floor.entry(to).or_insert(due);
        *floor = due.max(*floor);
        let lane = &lanes[(msg.from.0 % lanes.len() as u64) as usize];
        lane.send((*floor, msg)).map_err(|_| DprError::Closed)
    }

    /// Release the frames parked for `to`, in send order, after `delay`; a
    /// frame whose endpoint has closed is discarded.
    fn release_parked(&mut self, to: EndpointId, delay: Duration) {
        if let Some(queue) = self.parked.remove(&to) {
            for msg in queue {
                let _ = self.push(to, msg, delay);
            }
            self.count_parked();
        }
    }

    fn count_parked(&self) {
        crate::metrics::net_parked()
            .set(self.parked.values().map(VecDeque::len).sum::<usize>() as i64);
    }
}

/// The bus.
pub struct SimNetwork {
    latency: Duration,
    links: Mutex<Links>,
    next_endpoint: AtomicU64,
    dropped: AtomicU64,
}

impl SimNetwork {
    /// Create a bus with the given one-way message latency.
    pub fn new(latency: Duration) -> Arc<SimNetwork> {
        Arc::new(SimNetwork {
            latency,
            links: Mutex::new(Links {
                endpoints: HashMap::new(),
                faults: HashMap::new(),
                parked: HashMap::new(),
                fifo_floor: HashMap::new(),
                rng: Rng::new(0),
                shutdown: false,
            }),
            next_endpoint: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Allocate a fresh endpoint and its inbox.
    pub fn register(&self) -> (EndpointId, BusInbox) {
        let (id, mut lanes) = self.register_lanes(1);
        (id, lanes.remove(0))
    }

    /// Allocate a fresh endpoint served by `lanes` threads (at least one),
    /// with an inbox for each: every frame of one sender arrives on one of
    /// them, in the order sent (see the module doc).
    pub fn register_lanes(&self, lanes: usize) -> (EndpointId, Vec<BusInbox>) {
        let id = EndpointId(self.next_endpoint.fetch_add(1, Ordering::AcqRel));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..lanes.max(1)).map(|_| channel()).unzip();
        self.links.lock().unwrap().endpoints.insert(id, txs);
        let inboxes = rxs.into_iter().map(|lane| BusInbox {
            lane,
            held: Cell::new(None),
        });
        (id, inboxes.collect())
    }

    /// Close endpoint `id`: its lanes' receivers see the end once they have
    /// taken what was sent, later sends to it fail, and its fault, parked
    /// frames and FIFO floor are forgotten.
    pub fn close(&self, id: EndpointId) {
        let mut links = self.links.lock().unwrap();
        links.endpoints.remove(&id);
        links.faults.remove(&id);
        links.fifo_floor.remove(&id);
        links.parked.remove(&id);
        links.count_parked();
    }

    /// Send `msg` to `to`, subject to the configured latency and any
    /// installed [`LinkFault`] for the destination.
    pub fn send(&self, to: EndpointId, msg: BusFrame) -> dpr_core::Result<()> {
        let mut links = self.links.lock().unwrap();
        if links.shutdown {
            return Err(DprError::Closed);
        }
        if !links.endpoints.contains_key(&to) {
            return Err(DprError::Invalid(format!("unknown endpoint {to:?}")));
        }
        let fault = links.faults.get(&to).copied().unwrap_or_default();
        if fault.partitioned {
            links.parked.entry(to).or_default().push_back(msg);
            links.count_parked();
            return Ok(());
        }
        if fault.drop_rate > 0.0 && links.rng.bool(fault.drop_rate) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            crate::metrics::net_dropped().add(1);
            return Ok(());
        }
        links.push(to, msg, self.latency + fault.extra_delay)
    }

    /// Install (or replace) the fault on the link to `to`.
    pub fn set_link_fault(&self, to: EndpointId, fault: LinkFault) {
        let mut links = self.links.lock().unwrap();
        links.faults.insert(to, fault);
        if !fault.partitioned {
            links.release_parked(to, self.latency + fault.extra_delay);
        }
    }

    /// Heal the link to `to`: remove its fault and release any parked
    /// messages, in their original send order, at the base latency.
    pub fn clear_link_fault(&self, to: EndpointId) {
        let mut links = self.links.lock().unwrap();
        links.faults.remove(&to);
        links.release_parked(to, self.latency);
    }

    /// Heal every link at once (end of a chaos round).
    pub fn clear_all_link_faults(&self) {
        let mut links = self.links.lock().unwrap();
        links.faults.clear();
        for to in links.parked.keys().copied().collect::<Vec<_>>() {
            links.release_parked(to, self.latency);
        }
    }

    /// Reseed the deterministic drop generator (chaos runs call this once
    /// so the whole fault schedule replays from a single `u64`).
    pub fn set_fault_seed(&self, seed: u64) {
        self.links.lock().unwrap().rng = Rng::new(seed);
    }

    /// Messages dropped so far by lossy-link faults.
    #[must_use]
    pub fn dropped_count(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Tear down: later sends fail, frames parked behind a partition are
    /// discarded, and frames already sent are handed out when due.
    pub fn shutdown(&self) {
        let mut links = self.links.lock().unwrap();
        links.shutdown = true;
        links.parked.clear();
        links.count_parked();
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

    fn recv_serial(rx: &BusInbox) -> u64 {
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

    impl SimNetwork {
        /// Endpoints registered, and entries in the fault, parked and floor tables.
        pub(crate) fn tables(&self) -> [usize; 2] {
            let links = self.links.lock().unwrap();
            let held = links.faults.len() + links.parked.len() + links.fifo_floor.len();
            [links.endpoints.len(), held]
        }
    }

    /// The bus has no thread, and its inbox hands a frame out no earlier
    /// than its due time: before then `try_recv` is empty, a shorter
    /// `recv_timeout` times out at its deadline, and the frame waits for the
    /// next call. Frames sent before a shutdown are on the wire: they still
    /// come, when due (parked ones are discarded: `transport_faults`).
    #[test]
    fn an_inbox_holds_a_frame_until_it_is_due() {
        let ms = Duration::from_millis;
        let net = SimNetwork::new(ms(2));
        let (id, rx) = net.register();
        let slow = LinkFault {
            extra_delay: ms(198),
            ..LinkFault::default()
        };
        net.set_link_fault(id, slow);
        let sent = Instant::now();
        net.send(id, numbered(0)).unwrap();
        net.send(id, numbered(1)).unwrap();
        net.shutdown();
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        let waited = Instant::now();
        let early = rx.recv_timeout(ms(20));
        assert!(matches!(early, Err(RecvTimeoutError::Timeout)) && waited.elapsed() >= ms(20));
        assert_eq!(seq_of(&rx.recv().unwrap()), 0);
        assert!(sent.elapsed() >= ms(200), "handed out before its due time");
        let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
        let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
        let names: Vec<_> = tasks.filter_map(|task| comm(task).ok()).collect();
        assert!(!names.contains(&"sim-net-pump\n".to_owned()), "{names:?}");
        assert_eq!(recv_serial(&rx), 1);
    }

    /// A send to a closed endpoint fails on a slow bus as on an instant
    /// one, and the bus forgets the endpoint's fault, parked frames and
    /// FIFO floor.
    #[test]
    fn a_send_to_a_closed_endpoint_fails_on_a_slow_bus() {
        let net = SimNetwork::new(Duration::from_millis(1));
        let (id, _rx) = net.register();
        net.send(id, numbered(0)).unwrap();
        let partition = LinkFault {
            partitioned: true,
            ..LinkFault::default()
        };
        net.set_link_fault(id, partition);
        net.send(id, numbered(1)).unwrap();
        assert_eq!(net.tables(), [1, 3]);
        net.close(id);
        assert!(net.send(id, numbered(2)).is_err());
        assert_eq!(net.tables(), [0, 0]);
    }
}
