//! Deterministic event queue.
//!
//! Events are ordered by their scheduled time, then by a caller-supplied
//! rank, then by insertion order: two events due at the same instant are
//! delivered lowest rank first, and events of equal rank in the order
//! they were pushed. This tie-breaking rule is what makes the whole
//! simulation deterministic and therefore every figure reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A single scheduled entry in the queue: the ordering key plus the arena
/// slot holding the event payload. Keeping the payload out of the heap
/// means every sift moves the key, not the event itself.
#[derive(Debug)]
struct Scheduled<R> {
    at: SimTime,
    rank: R,
    seq: u64,
    slot: u32,
}

impl<R: Ord> PartialEq for Scheduled<R> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<R: Ord> Eq for Scheduled<R> {}

impl<R: Ord> PartialOrd for Scheduled<R> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<R: Ord> Ord for Scheduled<R> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, rank,
        // seq) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of simulation events `E`, with ties at one
/// instant broken by rank `R`, then by insertion order.
///
/// # Examples
///
/// ```
/// use fa_sim::event::EventQueue;
/// use fa_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), 1, "c");
/// q.push(SimTime::from_ns(5), 0, "b");
/// q.push(SimTime::from_ns(5), 1, "d");
/// q.push(SimTime::from_ns(1), 9, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c", "d"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E, R> {
    heap: BinaryHeap<Scheduled<R>>,
    /// Pooled event payloads; heap entries reference slots here. Popped
    /// slots are recycled through `free`, so a steady-state queue performs
    /// no per-event allocation no matter how large the payload type is.
    arena: Vec<Option<E>>,
    /// Arena slots whose payload was taken, awaiting reuse.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E, R: Ord> Default for EventQueue<E, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, R: Ord> EventQueue<E, R> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` for delivery at `at`, after every event due at
    /// `at` with a lower rank or pushed earlier with the same rank.
    pub fn push(&mut self, at: SimTime, rank: R, event: E) {
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
        self.heap.push(Scheduled {
            at,
            rank,
            seq,
            slot,
        });
    }

    /// Removes and returns the earliest event, if any.
    ///
    /// # Examples
    ///
    /// Background work shares the queue with foreground events: giving it
    /// a higher rank makes the foreground win ties at one instant, while
    /// work items due together still start in the order they were queued.
    ///
    /// ```
    /// use fa_sim::event::EventQueue;
    /// use fa_sim::time::SimTime;
    ///
    /// const FOREGROUND: u8 = 0;
    /// const BACKGROUND: u8 = 1;
    /// let mut q = EventQueue::new();
    /// q.push(SimTime::from_ns(50), BACKGROUND, "gc-pass");
    /// q.push(SimTime::from_ns(20), BACKGROUND, "journal-dump");
    /// q.push(SimTime::from_ns(20), FOREGROUND, "completion");
    /// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "completion")));
    /// assert_eq!(q.pop(), Some((SimTime::from_ns(20), "journal-dump")));
    /// assert_eq!(q.pop(), Some((SimTime::from_ns(50), "gc-pass")));
    /// assert_eq!(q.pop(), None);
    /// ```
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            let event = self.arena[s.slot as usize]
                .take()
                .expect("heap entry references an occupied arena slot");
            self.free.push(s.slot);
            (s.at, event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E, R: Ord>(q: &mut EventQueue<E, R>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
    }

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), (), 1u32);
        q.push(SimTime::from_ns(10), (), 2);
        q.push(SimTime::from_ns(5), (), 3);
        q.push(SimTime::from_ns(20), (), 4);
        assert_eq!(drain(&mut q), vec![3, 1, 2, 4]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn rank_breaks_ties_before_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7), 2u8, 'd');
        q.push(SimTime::from_ns(7), 1, 'b');
        q.push(SimTime::from_ns(7), 2, 'e');
        q.push(SimTime::from_ns(7), 1, 'c');
        // A lower rank never overtakes an earlier instant.
        q.push(SimTime::from_ns(3), 9, 'a');
        assert_eq!(drain(&mut q), vec!['a', 'b', 'c', 'd', 'e']);
    }

    #[test]
    fn work_queued_while_draining_keeps_insertion_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1u8, 1u32);
        q.push(SimTime::from_ns(10), 1, 2);
        q.push(SimTime::from_ns(5), 1, 3);
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), 3)));
        // Work queued after a pop, due at an instant already queued,
        // starts after what was queued there before it; a lower rank
        // (foreground) still goes first.
        q.push(SimTime::from_ns(10), 1, 4);
        q.push(SimTime::from_ns(10), 0, 5);
        assert_eq!(drain(&mut q), vec![5, 1, 2, 4]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn arena_slots_recycle_after_pop() {
        let mut q = EventQueue::new();
        for round in 0..64u64 {
            q.push(SimTime::from_ns(round), (), round);
            assert_eq!(q.pop(), Some((SimTime::from_ns(round), round)));
        }
        // Steady-state churn reuses the freed slot instead of growing.
        assert_eq!(q.arena.len(), 1);
    }
}
