//! Deferred background work that contends with foreground events.
//!
//! The full-system drivers dispatch foreground completions from their own
//! queues; storage management (garbage collection, metadata journaling)
//! must *not* execute instantaneously inside a foreground step — it is
//! background work with a start time of its own that contends for the same
//! hardware. [`DeferredWorkQueue`] holds such work items keyed by the
//! earliest instant they may start, with the same deterministic
//! (time, insertion-order) delivery contract as [`EventQueue`], so a driver
//! can merge its foreground stream and the background stream by comparing
//! head timestamps.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A time-ordered queue of deferred background work items.
///
/// # Examples
///
/// ```
/// use fa_sim::deferred::DeferredWorkQueue;
/// use fa_sim::time::SimTime;
///
/// let mut q: DeferredWorkQueue<&'static str> = DeferredWorkQueue::new();
/// q.push(SimTime::from_ns(50), "gc-pass");
/// q.push(SimTime::from_ns(20), "journal-dump");
/// // A driver compares the head's start time with its foreground clock…
/// assert_eq!(q.peek_time(), Some(SimTime::from_ns(20)));
/// // …and pops the head once the clock reaches it.
/// let (t, work) = q.pop().unwrap();
/// assert_eq!((t, work), (SimTime::from_ns(20), "journal-dump"));
/// assert_eq!(q.peek_time(), Some(SimTime::from_ns(50)));
/// ```
#[derive(Debug)]
pub struct DeferredWorkQueue<W> {
    queue: EventQueue<W>,
}

impl<W> Default for DeferredWorkQueue<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> DeferredWorkQueue<W> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DeferredWorkQueue {
            queue: EventQueue::new(),
        }
    }

    /// Schedules `work` to start no earlier than `start`. Items sharing a
    /// start time are delivered in insertion order (deterministic).
    pub fn push(&mut self, start: SimTime, work: W) {
        self.queue.push(start, work);
    }

    /// Earliest start time of any pending work item.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the earliest work item unconditionally.
    pub fn pop(&mut self) -> Option<(SimTime, W)> {
        self.queue.pop()
    }

    /// Pending work items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no work is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drops all pending work.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_insertion_order() {
        let mut q = DeferredWorkQueue::new();
        q.push(SimTime::from_ns(10), 1u32);
        q.push(SimTime::from_ns(10), 2);
        q.push(SimTime::from_ns(5), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
        assert_eq!(q.len(), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, w)| w).collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert!(q.is_empty());
        q.push(SimTime::from_ns(30), 4);
        q.clear();
        assert_eq!(q.peek_time(), None);
    }
}
