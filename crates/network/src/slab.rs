//! The packet store: every packet in the fabric lives in one slab slot,
//! named by a `u32` handle, from injection until its ack or its drop.
//!
//! Events, output-port VOQs and NIC retransmit queues all hold handles,
//! so a hop moves four bytes instead of the 88 B [`Packet`]. Queues are
//! [`HandleFifo`]s: intrusive singly linked lists threaded through a
//! per-slot `next` index, so an empty queue costs eight bytes and a
//! queue of any depth allocates nothing (the shape of ce-netsim's
//! in-transit list).

use crate::packet::Packet;
use std::ops::{Index, IndexMut};

/// The "no packet" handle: an empty queue's head and tail, and the `next`
/// link of a queue's last packet.
const NIL: u32 = u32::MAX;

/// Packets between injection and ack (or drop), addressed by `u32`
/// handles.
///
/// A LIFO free list hands out the most recently freed slot first, so the
/// slab grows to the peak number of packets in flight and is reused from
/// then on.
#[derive(Default)]
pub struct PacketSlab {
    slots: Vec<Packet>,
    /// Per-slot link to the next packet of the [`HandleFifo`] holding it.
    next: Vec<u32>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Store `pkt` and return its handle.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = pkt;
                h
            }
            None => {
                self.slots.push(pkt);
                self.next.push(NIL);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Free slot `h`, returning a copy of the packet it held.
    #[inline]
    pub fn remove(&mut self, h: u32) -> Packet {
        self.free.push(h);
        self.slots[h as usize]
    }

    /// Slots ever allocated: the peak number of packets in flight (the
    /// slab never shrinks).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slot was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Slots holding a packet.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl Index<u32> for PacketSlab {
    type Output = Packet;

    #[inline]
    fn index(&self, h: u32) -> &Packet {
        &self.slots[h as usize]
    }
}

impl IndexMut<u32> for PacketSlab {
    #[inline]
    fn index_mut(&mut self, h: u32) -> &mut Packet {
        &mut self.slots[h as usize]
    }
}

/// A FIFO of slab handles, linked through the slab's `next` slots. A
/// handle sits in at most one FIFO at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandleFifo {
    head: u32,
    tail: u32,
}

impl HandleFifo {
    /// The empty queue.
    pub const EMPTY: HandleFifo = HandleFifo {
        head: NIL,
        tail: NIL,
    };

    /// Whether the queue holds no handle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// The oldest handle, if any.
    #[inline]
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Append `h`.
    #[inline]
    pub fn push_back(&mut self, h: u32, slab: &mut PacketSlab) {
        slab.next[h as usize] = NIL;
        if self.tail == NIL {
            self.head = h;
        } else {
            slab.next[self.tail as usize] = h;
        }
        self.tail = h;
    }

    /// Remove and return the oldest handle.
    #[inline]
    pub fn pop_front(&mut self, slab: &PacketSlab) -> Option<u32> {
        let h = self.front()?;
        self.head = slab.next[h as usize];
        if self.head == NIL {
            self.tail = NIL;
        }
        Some(h)
    }

    /// Number of queued handles (walks the list; diagnostics only).
    pub fn len(&self, slab: &PacketSlab) -> usize {
        let mut n = 0;
        let mut h = self.head;
        while h != NIL {
            n += 1;
            h = slab.next[h as usize];
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{InSource, MessageId};
    use slingshot_des::{SimDuration, SimTime};
    use slingshot_routing::{RouteState, Via};
    use slingshot_topology::{NodeId, SwitchId};

    fn packet(chunk: u32) -> Packet {
        Packet {
            msg: MessageId(0),
            src: NodeId(0),
            dst: NodeId(1),
            payload: 64,
            wire: 126,
            tc: 0,
            routed: false,
            route: RouteState::new(SwitchId(0), Via::Direct),
            cur_source: InSource::Node(NodeId(0)),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: SimTime::ZERO,
            chunk,
            copy: 0,
            llr: 0,
            traced: false,
        }
    }

    #[test]
    fn slab_reuses_the_most_recently_freed_slot() {
        let mut slab = PacketSlab::default();
        let a = slab.insert(packet(0));
        let b = slab.insert(packet(1));
        assert_eq!((a, b, slab.live()), (0, 1, 2));
        assert_eq!(slab.remove(a).chunk, 0);
        assert_eq!(slab.insert(packet(2)), a, "freed slot not reused");
        assert_eq!(slab.remove(a).chunk, 2);
        assert_eq!(slab.remove(b).chunk, 1);
        assert_eq!((slab.live(), slab.len()), (0, 2));
    }

    #[test]
    fn fifos_sharing_a_slab_keep_their_own_order() {
        let mut slab = PacketSlab::default();
        let (mut x, mut y) = (HandleFifo::EMPTY, HandleFifo::EMPTY);
        for chunk in 0..6 {
            let h = slab.insert(packet(chunk));
            let q = if chunk % 2 == 0 { &mut x } else { &mut y };
            q.push_back(h, &mut slab);
        }
        assert_eq!((x.len(&slab), y.len(&slab)), (3, 3));
        let h = x.pop_front(&slab).expect("x holds three");
        assert_eq!(slab[h].chunk, 0);
        // A popped handle can join another queue at once.
        y.push_back(h, &mut slab);
        let order: Vec<u32> = std::iter::from_fn(|| y.pop_front(&slab))
            .map(|h| slab[h].chunk)
            .collect();
        assert_eq!(order, [1, 3, 5, 0]);
        assert!(y.is_empty() && y.front().is_none());
        let order: Vec<u32> = std::iter::from_fn(|| x.pop_front(&slab))
            .map(|h| slab[h].chunk)
            .collect();
        assert_eq!(order, [2, 4]);
        assert_eq!(x, HandleFifo::EMPTY);
    }
}
