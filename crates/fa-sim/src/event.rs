//! Deterministic event queue.
//!
//! Events are ordered first by their scheduled time and then by insertion
//! order, so two events scheduled for the same instant are delivered in the
//! order they were pushed. This tie-breaking rule is what makes the whole
//! simulation deterministic and therefore every figure reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A single scheduled entry in the queue: the ordering key plus the arena
/// slot holding the event payload. Keeping the payload out of the heap
/// means every sift moves a small fixed-size key, not the event itself.
#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq) pops
        // first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events.
///
/// # Examples
///
/// ```
/// use fa_sim::event::EventQueue;
/// use fa_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), "b");
/// q.push(SimTime::from_ns(5), "c");
/// q.push(SimTime::from_ns(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled>,
    /// Pooled event payloads; heap entries reference slots here. Popped
    /// slots are recycled through `free`, so a steady-state queue performs
    /// no per-event allocation no matter how large the payload type is.
    arena: Vec<Option<E>>,
    /// Arena slots whose payload was taken, awaiting reuse.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` for delivery at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.arena[slot as usize] = Some(event);
                slot
            }
            None => {
                self.arena.push(Some(event));
                (self.arena.len() - 1) as u32
            }
        };
        self.heap.push(Scheduled { at, seq, slot });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            let event = self.arena[s.slot as usize]
                .take()
                .expect("heap entry references an occupied arena slot");
            self.free.push(s.slot);
            (s.at, event)
        })
    }

    /// Returns the timestamp of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Returns the number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.arena.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1u32);
        q.push(SimTime::from_ns(10), 2);
        q.push(SimTime::from_ns(5), 3);
        q.push(SimTime::from_ns(20), 4);
        let out: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(out, vec![3, 1, 2, 4]);
    }

    #[test]
    fn counts_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(7), ());
        q.push(SimTime::from_ns(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_discards_pending() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1u8);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn arena_slots_recycle_after_pop() {
        let mut q = EventQueue::new();
        for round in 0..64u64 {
            q.push(SimTime::from_ns(round), round);
            assert_eq!(q.pop(), Some((SimTime::from_ns(round), round)));
        }
        // Steady-state churn reuses the freed slot instead of growing.
        assert_eq!(q.arena.len(), 1);
    }
}
