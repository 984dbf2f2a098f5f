//! What a worker remembers so that a retransmitted batch takes effect once:
//! per session, the batches that session has not acknowledged.
//!
//! An entry is made when a batch is admitted and dropped when a request of
//! its session carries an `acked_below` at or past the batch's last serial —
//! the client has its answer — and at no other moment short of the cap or a
//! world-line change. An unanswered batch of a live session therefore cannot
//! age out, however many fresh ones pass it (`docs/NETWORK.md` §6).

use crate::metrics;
use crate::wire;
use dpr_core::SessionId;
use libdpr::BatchHeader;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// One remembered batch, serials `first..end`.
struct Entry {
    first: u64,
    end: u64,
    /// Where in its session's `replies` the encoded `Response` frame lies
    /// that the first delivery was answered with; empty while that delivery
    /// still executes.
    reply: std::ops::Range<usize>,
}

/// The unacknowledged batches of one session, ascending by serial. Never
/// empty while in the table: a session is remembered by its entries.
struct Session {
    entries: VecDeque<Entry>,
    /// The replies of `entries`, each appended when its batch had executed.
    /// The bytes of a dropped entry stay, counted in `garbage`, until they
    /// outweigh the rest: one buffer a session, not one a batch.
    replies: Vec<u8>,
    garbage: usize,
    /// When a request of the session last arrived.
    heard: Instant,
}

impl Session {
    /// Drop the entries `acked_below` acknowledges, and say how many. When
    /// garbage outweighs replies the live ones are copied into `spare`,
    /// which then swaps roles with `replies`: warm, nothing is allocated.
    fn acknowledge(&mut self, acked_below: u64, spare: &mut Vec<u8>) -> usize {
        let mut dropped = 0;
        while let Some(acked) = self.entries.front().filter(|e| e.end <= acked_below) {
            self.garbage += acked.reply.len();
            self.entries.pop_front();
            dropped += 1;
        }
        if self.garbage > self.replies.len() / 2 {
            spare.clear();
            for entry in &mut self.entries {
                let at = spare.len();
                spare.extend_from_slice(&self.replies[entry.reply.clone()]);
                entry.reply = at..spare.len();
            }
            std::mem::swap(&mut self.replies, spare);
            self.garbage = 0;
        }
        dropped
    }
}

/// Every session's entries, behind the cache's one lock.
#[derive(Default)]
struct Sessions {
    table: HashMap<SessionId, Session>,
    /// The other buffer of [`Session::acknowledge`].
    spare: Vec<u8>,
    /// Entries over all sessions: at most the window.
    entries: usize,
}

/// Account for `added` new and `dropped` forgotten entries in `count`.
fn resize(count: &mut usize, added: usize, dropped: usize) {
    let before = *count;
    *count = before + added - dropped;
    let steps = |n: usize| (n / GAUGE_STEP * GAUGE_STEP) as i64;
    let moved = steps(*count) - steps(before);
    if moved != 0 {
        metrics::dedupe_entries().add(moved);
    }
}

impl Sessions {
    /// Forget the session heard from least recently other than `except`;
    /// false when there is none.
    fn forget_idlest(&mut self, except: SessionId) -> bool {
        let idlest = self
            .table
            .iter()
            .filter(|&(&id, _)| id != except)
            .min_by_key(|(_, session)| session.heard)
            .map(|(&id, _)| id);
        let Some(gone) = idlest.and_then(|id| self.table.remove(&id)) else {
            return false;
        };
        resize(&mut self.entries, 0, gone.entries.len());
        metrics::dedupe_sessions_evicted().inc();
        true
    }
}

/// What [`ReplyCache::admit`] found.
pub(crate) enum Admit {
    /// Not seen before: execute it, then [`ReplyCache::record`] the outcome.
    Fresh,
    /// Executed before; its answer has been appended under the new `seq`.
    Replayed,
    /// An earlier delivery still executes: `Error(DuplicateInFlight)`.
    Executing,
    /// The session alone holds the whole window unacknowledged: the same
    /// retryable error, and nothing of the session is forgotten.
    Refused,
}

/// The gauge moves when a worker's count crosses a multiple of this.
const GAUGE_STEP: usize = 16;

/// A worker's reply cache.
pub(crate) struct ReplyCache {
    sessions: parking_lot::Mutex<Sessions>,
    /// The most entries kept over all sessions (`dedupe_window`).
    window: usize,
}

impl ReplyCache {
    pub(crate) fn new(window: usize) -> ReplyCache {
        ReplyCache {
            sessions: Default::default(),
            window,
        }
    }

    /// Take the session's acknowledgement, then look the batch up: a
    /// duplicate is answered from its entry (into `out`, as frame `seq`) or
    /// told to wait, a fresh batch gets an entry. Over the window, room is
    /// made by forgetting the session heard from least recently, whole.
    pub(crate) fn admit(&self, header: &BatchHeader, seq: u64, out: &mut Vec<u8>) -> Admit {
        let heard = Instant::now();
        let mut guard = self.sessions.lock();
        let sessions = &mut *guard;
        loop {
            let session = sessions
                .table
                .entry(header.session)
                .or_insert_with(|| Session {
                    entries: VecDeque::new(),
                    replies: Vec::new(),
                    garbage: 0,
                    heard,
                });
            session.heard = heard;
            let dropped = session.acknowledge(header.acked_below, &mut sessions.spare);
            resize(&mut sessions.entries, 0, dropped);
            let entries = &mut session.entries;
            let at = entries.partition_point(|e| e.first < header.first_serial);
            if let Some(known) = entries.get(at).filter(|e| e.first == header.first_serial) {
                if known.reply.is_empty() {
                    return Admit::Executing;
                }
                let start = out.len();
                out.extend_from_slice(&session.replies[known.reply.clone()]);
                wire::set_seq(&mut out[start..], seq);
                metrics::dedupe_replays().inc();
                return Admit::Replayed;
            }
            if sessions.entries < self.window {
                let fresh = Entry {
                    first: header.first_serial,
                    end: header.first_serial + u64::from(header.op_count),
                    reply: 0..0,
                };
                entries.insert(at, fresh);
                resize(&mut sessions.entries, 1, 0);
                return Admit::Fresh;
            }
            if entries.is_empty() {
                sessions.table.remove(&header.session);
            }
            if !sessions.forget_idlest(header.session) {
                metrics::dedupe_refused().inc();
                return Admit::Refused;
            }
        }
    }

    /// The outcome of a batch admitted as [`Admit::Fresh`]: the `Response`
    /// frame it was answered with, kept for duplicates to come, or `None`
    /// for a batch that was rejected — it did not execute, and a retry must.
    /// An entry acknowledged or forgotten meanwhile stays forgotten.
    pub(crate) fn record(&self, header: &BatchHeader, response: Option<&[u8]>) {
        let mut sessions = self.sessions.lock();
        let Some(session) = sessions.table.get_mut(&header.session) else {
            return;
        };
        let entries = &mut session.entries;
        let at = entries.partition_point(|e| e.first < header.first_serial);
        let Some(entry) = entries
            .get_mut(at)
            .filter(|e| e.first == header.first_serial)
        else {
            return;
        };
        if let Some(frame) = response {
            let at = session.replies.len();
            session.replies.extend_from_slice(frame);
            entry.reply = at..session.replies.len();
            return;
        }
        entries.remove(at);
        if entries.is_empty() {
            sessions.table.remove(&header.session);
        }
        resize(&mut sessions.entries, 0, 1);
    }

    /// Forget everything: the replies belong to a world-line that is gone.
    pub(crate) fn clear(&self) {
        let mut sessions = self.sessions.lock();
        sessions.table.clear();
        let dropped = sessions.entries;
        resize(&mut sessions.entries, 0, dropped);
    }
}

impl Drop for ReplyCache {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::OpResult;
    use dpr_core::{ShardId, Version, WorldLine};
    use libdpr::BatchReply;

    /// A one-op batch of `session` at `serial` that acknowledges `acked`.
    fn header(session: u64, serial: u64, acked: u64) -> BatchHeader {
        BatchHeader {
            session: SessionId(session),
            world_line: WorldLine(1),
            version_lower_bound: Version::ZERO,
            deps: Vec::new(),
            first_serial: serial,
            acked_below: acked,
            op_count: 1,
        }
    }

    /// What the request path does with a batch: admit it and, if fresh,
    /// answer it as frame `seq` and record the answer. Returns the verdict
    /// and the frame a duplicate was answered with.
    fn serve(cache: &ReplyCache, header: &BatchHeader, seq: u64) -> (Admit, Vec<u8>) {
        let mut out = Vec::new();
        let verdict = cache.admit(header, seq, &mut out);
        if matches!(verdict, Admit::Fresh) {
            let reply = BatchReply {
                shard: ShardId(0),
                world_line: header.world_line,
                version: Version(1),
                first_serial: header.first_serial,
                op_count: 1,
            };
            let mut frame = Vec::new();
            wire::encode_response(&mut frame, 0, seq, Ok((&reply, &[OpResult::Done])));
            cache.record(header, Some(&frame));
        }
        (verdict, out)
    }

    fn remembered(cache: &ReplyCache) -> usize {
        cache.sessions.lock().entries
    }

    #[test]
    fn an_entry_goes_exactly_when_its_session_acknowledges_it() {
        let cache = ReplyCache::new(64);
        for serial in 0..3 {
            assert!(matches!(
                serve(&cache, &header(1, serial, 0), serial).0,
                Admit::Fresh
            ));
        }
        // A duplicate is the first answer again, under the seq it came with.
        let (verdict, frame) = serve(&cache, &header(1, 1, 0), 77);
        assert!(matches!(verdict, Admit::Replayed));
        let answered = wire::decode_header(&frame).unwrap().unwrap();
        assert_eq!(
            (answered.kind, answered.seq),
            (wire::FrameKind::Response, 77)
        );
        let mut want = Vec::new();
        let reply = BatchReply {
            shard: ShardId(0),
            world_line: WorldLine(1),
            version: Version(1),
            first_serial: 1,
            op_count: 1,
        };
        wire::encode_response(&mut want, 0, 77, Ok((&reply, &[OpResult::Done])));
        assert_eq!(frame, want);

        // Batch 1 spans serials 1..2: `acked_below` 1 is short of its end and
        // takes batch 0 only, 2 takes it.
        serve(&cache, &header(1, 3, 1), 3);
        assert_eq!(remembered(&cache), 3, "0 went, 3 came");
        assert!(matches!(
            serve(&cache, &header(1, 1, 1), 1).0,
            Admit::Replayed
        ));
        serve(&cache, &header(1, 4, 2), 4);
        assert_eq!(remembered(&cache), 3, "1 went, 4 came");
        // Acknowledged means forgotten: a copy arriving now is a new batch.
        assert!(matches!(serve(&cache, &header(1, 1, 1), 1).0, Admit::Fresh));
    }

    #[test]
    fn an_older_acknowledgement_or_an_unfinished_batch_changes_nothing() {
        let cache = ReplyCache::new(64);
        for serial in 0..4 {
            serve(&cache, &header(1, serial, 0), serial);
        }
        serve(&cache, &header(1, 4, 3), 4);
        assert_eq!(remembered(&cache), 2, "3 and 4");
        // Batch 3 retransmitted, its frame as first sent: `acked_below` 0.
        assert!(matches!(
            serve(&cache, &header(1, 3, 0), 3).0,
            Admit::Replayed
        ));
        assert_eq!(remembered(&cache), 2);
        // A first delivery still executing is told to wait, as often as asked;
        // rejected, it leaves no trace and the retry executes.
        let slow = header(1, 5, 3);
        assert!(matches!(
            cache.admit(&slow, 5, &mut Vec::new()),
            Admit::Fresh
        ));
        for _ in 0..2 {
            let mut out = Vec::new();
            assert!(matches!(cache.admit(&slow, 5, &mut out), Admit::Executing));
            assert!(out.is_empty());
        }
        cache.record(&slow, None);
        assert_eq!(remembered(&cache), 2);
        assert!(matches!(serve(&cache, &slow, 5).0, Admit::Fresh));
    }

    #[test]
    fn sessions_keep_their_own_entries() {
        let cache = ReplyCache::new(64);
        serve(&cache, &header(1, 0, 0), 0);
        // Same serials, and an acknowledgement far past the other's batch.
        for serial in 0..40 {
            serve(&cache, &header(2, serial, serial), serial);
        }
        assert_eq!(remembered(&cache), 2, "one unacknowledged batch each");
        assert!(matches!(
            serve(&cache, &header(1, 0, 0), 9).0,
            Admit::Replayed
        ));
    }

    #[test]
    fn over_the_window_the_idlest_session_goes_and_a_lone_one_is_refused() {
        let cache = ReplyCache::new(6);
        for session in [1, 2] {
            for serial in 0..3 {
                serve(&cache, &header(session, serial, 0), serial);
            }
        }
        // Session 2 was heard last: room is made at session 1's cost, whole.
        assert!(matches!(serve(&cache, &header(2, 3, 0), 3).0, Admit::Fresh));
        assert_eq!(remembered(&cache), 4);
        assert!(matches!(
            serve(&cache, &header(2, 0, 0), 0).0,
            Admit::Replayed
        ));
        // Alone past the window it is refused, and keeps what it had.
        serve(&cache, &header(2, 4, 0), 4);
        serve(&cache, &header(2, 5, 0), 5);
        for _ in 0..2 {
            assert!(matches!(
                serve(&cache, &header(2, 6, 0), 6).0,
                Admit::Refused
            ));
        }
        assert_eq!(remembered(&cache), 6);
        assert!(matches!(
            serve(&cache, &header(2, 0, 0), 0).0,
            Admit::Replayed
        ));
        // The same batch, once its session acknowledges: admitted.
        assert!(matches!(serve(&cache, &header(2, 6, 4), 6).0, Admit::Fresh));
        assert_eq!(remembered(&cache), 3, "4, 5 and 6");
    }

    #[test]
    fn concurrent_admits_never_hold_more_than_the_window() {
        const WINDOW: usize = 8;
        let cache = ReplyCache::new(WINDOW);
        let most = std::thread::scope(|scope| {
            let threads: Vec<_> = (1..=4u64)
                .map(|session| {
                    let cache = &cache;
                    scope.spawn(move || {
                        let mut most = 0;
                        for serial in 0..20_000 {
                            serve(cache, &header(session, serial, 0), serial);
                            most = most.max(remembered(cache));
                        }
                        most
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().unwrap())
                .max()
                .unwrap()
        });
        assert!(
            most <= WINDOW,
            "held {most} entries over a window of {WINDOW}"
        );
    }

    #[test]
    fn a_world_line_change_empties_the_table() {
        let cache = ReplyCache::new(64);
        for session in 1..5 {
            serve(&cache, &header(session, 0, 0), 0);
        }
        let slow = header(5, 0, 0);
        assert!(matches!(
            cache.admit(&slow, 0, &mut Vec::new()),
            Admit::Fresh
        ));
        cache.clear();
        assert_eq!(remembered(&cache), 0);
        // What was executing across the change records into nothing.
        cache.record(&slow, Some(&[0; 24]));
        assert_eq!(remembered(&cache), 0);
        assert!(matches!(serve(&cache, &header(1, 0, 0), 0).0, Admit::Fresh));
    }

    /// The other tests here stay below [`GAUGE_STEP`] entries a cache, so the
    /// process-wide gauge moves by this test's cache alone.
    #[test]
    fn the_gauge_follows_what_the_sessions_have_in_flight() {
        const IN_FLIGHT: u64 = 24;
        let base = metrics::dedupe_entries().get();
        let cache = ReplyCache::new(4096);
        for serial in 0..50_000u64 {
            for session in [1, 2] {
                let acked = serial.saturating_sub(IN_FLIGHT - 1);
                let (verdict, _) = serve(&cache, &header(session, serial, acked), serial);
                assert!(matches!(verdict, Admit::Fresh));
            }
        }
        assert_eq!(remembered(&cache), 2 * IN_FLIGHT as usize);
        // Thousands of compactions on, every live reply is still its own.
        for serial in 50_000 - IN_FLIGHT..50_000 {
            let (verdict, frame) = serve(&cache, &header(1, serial, 0), 9);
            assert!(matches!(verdict, Admit::Replayed));
            let body = bytes::Bytes::copy_from_slice(&frame[wire::FRAME_HEADER_LEN..]);
            let reply = wire::decode_response_body(&body, &mut Vec::new()).unwrap();
            assert_eq!(reply.unwrap().first_serial, serial);
        }
        let read = metrics::dedupe_entries().get() - base;
        assert!(
            (32..=2 * IN_FLIGHT as i64).contains(&read),
            "gauge reads {read}"
        );
        drop(cache);
        assert_eq!(metrics::dedupe_entries().get(), base);
    }
}
