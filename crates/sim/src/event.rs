//! The event queue.
//!
//! This is the simulator's hottest data structure: every tick, message
//! delivery and service completion passes through one push and one pop.
//! Events are kept in a slab of reusable slots and the ordering heap holds
//! only a compact *index-stamped* key — `(time, sequence, slot)`, 24 bytes —
//! so heap sift operations never move the (much larger) event payloads and
//! a slot freed by `pop` is handed straight to the next `push`. At steady
//! state the queue allocates nothing per event: message envelopes are
//! written into recycled slots instead of freshly allocated nodes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use penelope_core::PeerMsg;
use penelope_net::Envelope;
use penelope_slurm::SlurmMsg;
use penelope_units::{NodeId, SimTime};

use penelope_net::FaultAction;

/// Everything that can happen in the simulated cluster.
#[derive(Clone, Debug)]
pub enum Event {
    /// A node's decider iteration.
    Tick(NodeId),
    /// A Penelope protocol message arrives at its destination.
    DeliverPeer(Envelope<PeerMsg>),
    /// A Penelope pool finishes servicing a request (emits the grant).
    PoolProcess(Envelope<PeerMsg>),
    /// A SLURM protocol message arrives (client→server or server→client).
    DeliverSlurm(Envelope<SlurmMsg>),
    /// The SLURM server finishes servicing a queued message.
    ServerProcess(Envelope<SlurmMsg>),
    /// A scripted fault fires.
    Fault(FaultAction),
    /// A granter's escrow deadline for one unacknowledged grant expires.
    EscrowTimeout {
        /// The node whose pool served (and escrowed) the grant.
        granter: NodeId,
        /// The requester the grant was addressed to.
        requester: NodeId,
        /// The request's sequence number.
        seq: u64,
    },
}

/// An event scheduled at a virtual time. Ties are broken by insertion
/// sequence, which makes runs deterministic regardless of heap internals.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence number (tie-break).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The compact heap key: everything the ordering needs, plus the slot the
/// payload lives in. `seq` is unique per push, so two keys never compare
/// equal and FIFO tie-breaking at equal timestamps is total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic min-time event queue over a slab of reusable slots.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapKey>,
    slots: Vec<Option<Event>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `n` in-flight events before the slab
    /// has to grow.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(HeapKey { at, seq, slot });
    }

    /// Pop the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<Scheduled> {
        let key = self.heap.pop()?;
        let event = self.slots[key.slot as usize]
            .take()
            .expect("heap key points at an occupied slot");
        self.free.push(key.slot);
        Some(Scheduled {
            at: key.at,
            seq: key.seq,
            event,
        })
    }

    /// Peek at the earliest event's time.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Slots currently allocated in the slab (pending + recyclable) —
    /// the queue's steady-state footprint, exposed for perf tests.
    pub fn slab_capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn tick_ids(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Tick(n) => n.raw(),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), Event::Tick(NodeId::new(3)));
        q.push(t(10), Event::Tick(NodeId::new(1)));
        q.push(t(20), Event::Tick(NodeId::new(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|s| s.at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(5), Event::Tick(NodeId::new(i)));
        }
        assert_eq!(tick_ids(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn equal_timestamp_fifo_survives_interleaved_batches() {
        // Push a batch at t=5, drain part of it, push a second batch at the
        // same timestamp: the remainder of batch A must still precede all
        // of batch B, even though B reuses A's freed slots.
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(t(5), Event::Tick(NodeId::new(i)));
        }
        let mut order = Vec::new();
        for _ in 0..4 {
            order.push(match q.pop().unwrap().event {
                Event::Tick(n) => n.raw(),
                _ => unreachable!(),
            });
        }
        for i in 10..20u32 {
            q.push(t(5), Event::Tick(NodeId::new(i)));
        }
        order.extend(tick_ids(&mut q));
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_batches_order_globally_by_time_then_seq() {
        // Batches inserted out of time order, interleaved with pops: the
        // merged output is sorted by (time, insertion sequence).
        let mut q = EventQueue::new();
        q.push(t(40), Event::Tick(NodeId::new(40)));
        q.push(t(10), Event::Tick(NodeId::new(10)));
        q.push(t(40), Event::Tick(NodeId::new(41)));
        assert_eq!(tick_ids(&mut q)[..1], [10]); // drains 10, 40, 41
        q.push(t(30), Event::Tick(NodeId::new(30)));
        q.push(t(20), Event::Tick(NodeId::new(20)));
        q.push(t(30), Event::Tick(NodeId::new(31)));
        assert_eq!(tick_ids(&mut q), vec![20, 30, 31]);
    }

    #[test]
    fn slab_slots_are_reused_not_grown() {
        // A bounded number of in-flight events keeps the slab bounded no
        // matter how many events pass through — the no-per-event-allocation
        // property the DES hot loop relies on.
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            for i in 0..8u32 {
                q.push(t(round), Event::Tick(NodeId::new(i)));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.slab_capacity(), 8);
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(t(7), Event::Tick(NodeId::new(0)));
        assert_eq!(q.next_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
