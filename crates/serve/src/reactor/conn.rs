//! Connection state machines and the generation-checked slab that owns
//! them.
//!
//! Every socket the reactor multiplexes is one [`Conn`]: an explicit
//! `Reading → Dispatched → Writing → (KeepAlive | Closing)` machine.
//! The epoll token for a connection packs `(generation << 32) | slot`,
//! so a stale event or completion for a slot that has since been
//! recycled fails the generation check instead of touching the wrong
//! peer.

use std::net::TcpStream;
use std::time::Instant;

use crate::http::RequestParser;

/// Where a connection is in its request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (more of) a request; the incremental parser holds
    /// any partial bytes.
    Reading,
    /// A complete request was handed to the route; its answer comes
    /// back through the completion queue.
    Dispatched,
    /// Flushing a response; `EPOLLOUT` drives continuation on partial
    /// writes.
    Writing,
}

/// One multiplexed connection.
#[derive(Debug)]
pub(crate) struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Incremental request parser (buffers partial reads, queues
    /// pipelined requests).
    pub parser: RequestParser,
    /// Lifecycle state.
    pub state: ConnState,
    /// Pending response bytes (`Writing` state).
    pub out: Vec<u8>,
    /// How much of `out` is already flushed.
    pub out_pos: usize,
    /// Close instead of returning to keep-alive once `out` flushes.
    pub close_after_write: bool,
    /// When the idle-timeout reaper may close this connection. Set on
    /// entry to `Reading` and deliberately *not* refreshed per byte —
    /// a slowloris trickling header bytes still expires on schedule.
    pub idle_deadline: Instant,
    /// Current epoll interest mask (dedups `epoll_ctl` MODs).
    pub interest: u32,
    /// The peer shut its write side: nothing more will be read, and the
    /// connection closes once the complete requests it buffered are
    /// answered.
    pub eof: bool,
}

/// A slab entry: the live connection (if any) plus the slot's
/// generation, bumped on every removal.
#[derive(Debug)]
struct Entry {
    gen: u32,
    conn: Option<Conn>,
}

/// Slot-recycling connection table with generation tokens.
#[derive(Debug, Default)]
pub(crate) struct Slab {
    entries: Vec<Entry>,
    free: Vec<u32>,
    live: usize,
}

impl Slab {
    /// Stores a connection; returns its `(slot, generation)` token.
    pub fn insert(&mut self, conn: Conn) -> (u32, u32) {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.entries[slot as usize];
            entry.conn = Some(conn);
            return (slot, entry.gen);
        }
        let slot = self.entries.len() as u32;
        self.entries.push(Entry {
            gen: 0,
            conn: Some(conn),
        });
        (slot, 0)
    }

    /// The connection at `slot`, if `gen` still matches.
    pub fn get_mut(&mut self, slot: u32, gen: u32) -> Option<&mut Conn> {
        let entry = self.entries.get_mut(slot as usize)?;
        if entry.gen != gen {
            return None;
        }
        entry.conn.as_mut()
    }

    /// The connection at `slot` regardless of generation (reactor-
    /// internal paths that already hold a live slot).
    pub fn get_mut_unchecked(&mut self, slot: u32) -> Option<&mut Conn> {
        self.entries.get_mut(slot as usize)?.conn.as_mut()
    }

    /// Removes and returns the connection at `slot`, bumping the
    /// generation so in-flight tokens for it go stale.
    pub fn remove(&mut self, slot: u32) -> Option<Conn> {
        let entry = self.entries.get_mut(slot as usize)?;
        let conn = entry.conn.take()?;
        entry.gen = entry.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        Some(conn)
    }

    /// Live connection count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Current generation of a slot (0 for never-used slots).
    pub fn gen_of(&self, slot: u32) -> u32 {
        self.entries.get(slot as usize).map_or(0, |e| e.gen)
    }

    /// Slots currently holding live connections (snapshot, so callers
    /// can mutate the slab while iterating).
    pub fn live_slots(&self) -> Vec<u32> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.conn.is_some())
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Packs a slab token into an epoll data word.
pub(crate) fn token(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(slot)
}

/// Unpacks an epoll data word back into `(slot, generation)`.
pub(crate) fn untoken(data: u64) -> (u32, u32) {
    (data as u32, (data >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        let t = token(7, 0xdead_beef);
        assert_eq!(untoken(t), (7, 0xdead_beef));
        assert_eq!(untoken(token(u32::MAX - 3, 0)), (u32::MAX - 3, 0));
    }

    // Slab behaviour is covered through the reactor's end-to-end tests;
    // the generation recycling is the part worth pinning in isolation.
    #[test]
    fn recycled_slots_invalidate_stale_generations() {
        let mut slab = Slab::default();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let make = || {
            let client = std::net::TcpStream::connect(addr).expect("connect");
            let (server_side, _) = listener.accept().expect("accept");
            drop(client);
            Conn {
                stream: server_side,
                parser: RequestParser::new(),
                state: ConnState::Reading,
                out: Vec::new(),
                out_pos: 0,
                close_after_write: false,
                idle_deadline: Instant::now(),
                interest: 0,
                eof: false,
            }
        };
        let (slot, gen0) = slab.insert(make());
        assert_eq!(slab.len(), 1);
        assert!(slab.get_mut(slot, gen0).is_some());
        slab.remove(slot).expect("removes");
        assert_eq!(slab.len(), 0);
        assert!(slab.get_mut(slot, gen0).is_none(), "stale token rejected");
        let (slot2, gen1) = slab.insert(make());
        assert_eq!(slot2, slot, "slot recycled");
        assert_ne!(gen0, gen1, "generation bumped");
        assert!(slab.get_mut(slot, gen0).is_none());
        assert!(slab.get_mut(slot, gen1).is_some());
    }
}
