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
/// assert_eq!(q.peek_time(), Some(SimTime::from_ns(50)));
/// // Not ready before its start time…
/// assert!(q.pop_ready(SimTime::from_ns(40)).is_none());
/// // …delivered once the clock reaches it.
/// let (t, work) = q.pop_ready(SimTime::from_ns(50)).unwrap();
/// assert_eq!((t, work), (SimTime::from_ns(50), "gc-pass"));
/// ```
#[derive(Debug)]
pub struct DeferredWorkQueue<W> {
    queue: EventQueue<W>,
    started: u64,
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
            started: 0,
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
        let item = self.queue.pop();
        if item.is_some() {
            self.started += 1;
        }
        item
    }

    /// Pops the earliest work item only if its start time is at or before
    /// `now` — the merge primitive for drivers interleaving background work
    /// with a foreground completion stream.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<(SimTime, W)> {
        match self.queue.peek_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Pending work items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no work is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total work items ever started (popped).
    pub fn total_started(&self) -> u64 {
        self.started
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
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, w)| w).collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert_eq!(q.total_started(), 3);
    }

    #[test]
    fn pop_ready_respects_start_times() {
        let mut q = DeferredWorkQueue::new();
        q.push(SimTime::from_ns(30), "later");
        q.push(SimTime::from_ns(20), "sooner");
        assert!(q.pop_ready(SimTime::from_ns(19)).is_none());
        assert_eq!(
            q.pop_ready(SimTime::from_ns(25)),
            Some((SimTime::from_ns(20), "sooner"))
        );
        assert!(q.pop_ready(SimTime::from_ns(25)).is_none());
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
    }
}
