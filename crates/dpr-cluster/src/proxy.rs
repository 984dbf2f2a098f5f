//! A pass-through proxy: forwards request frames to a worker and relays
//! the answers back, adding one network hop and nothing else.
//!
//! Used by the Fig. 17/18 experiments to separate the cost of D-Redis's
//! proxy hop from the cost of the DPR protocol itself (§7.5: "we repeated
//! the experiment with a pass-through proxy without DPR").

use crate::transport::{BusFrame, EndpointId, SimNetwork};
use crate::wire;
use std::collections::HashMap;
use std::sync::Arc;

/// Start a proxy in front of `target`; returns the proxy's endpoint, which
/// clients should address instead of the worker's.
///
/// It never looks inside a body. Like a proxy multiplexing connections onto
/// one upstream, it numbers what it forwards with a `seq` of its own and
/// puts the client's back on the answer.
pub fn start_proxy(net: &Arc<SimNetwork>, target: EndpointId) -> EndpointId {
    let (endpoint, rx) = net.register();
    let net = Arc::downgrade(net);
    std::thread::Builder::new()
        .name("dredis-proxy".into())
        .spawn(move || {
            // Upstream seq → the client awaiting its answer, and the seq the
            // client knows the frame by.
            let mut pending: HashMap<u64, (EndpointId, u64)> = HashMap::new();
            let mut next_seq = 0u64;
            // Blocks until a frame comes; ends with the bus.
            while let Ok(frame) = rx.recv() {
                let Some(net) = net.upgrade() else { return };
                let Ok(Some(header)) = wire::decode_header(&frame.bytes) else {
                    continue;
                };
                let (to, seq) = if frame.from == target {
                    match pending.remove(&header.seq) {
                        Some(client) => client,
                        None => continue,
                    }
                } else {
                    next_seq += 1;
                    pending.insert(next_seq, (frame.from, header.seq));
                    (target, next_seq)
                };
                let mut bytes = frame.bytes.to_vec();
                wire::set_seq(&mut bytes, seq);
                let forwarded = BusFrame {
                    from: endpoint,
                    bytes: bytes.into(),
                };
                let _ = net.send(to, forwarded);
            }
        })
        .expect("spawn proxy");
    endpoint
}
