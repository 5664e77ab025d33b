//! Shared-resource timing models.
//!
//! Two patterns recur throughout the simulated hardware:
//!
//! * A *serialized bandwidth resource*: a link, bus, or flash channel that
//!   can move one transfer at a time at a fixed byte rate (PCIe, SRIO,
//!   crossbar ports, NV-DDR2 channels, DDR3L, the host DMI link).
//! * A *FIFO server*: a unit that serves one request at a time with a
//!   caller-supplied service time (flash dies, host storage-stack stages).
//!
//! Both hand out `(start, end)` windows and keep utilization statistics, so
//! contention and queueing delay fall out naturally from the reservation
//! discipline without a full event-per-byte simulation.

use crate::stats::UtilizationTracker;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A resource that serializes transfers at a fixed bandwidth.
///
/// # Examples
///
/// ```
/// use fa_sim::resource::SerializedResource;
/// use fa_sim::time::SimTime;
///
/// // A 1 GB/s link moving two back-to-back 1 MB transfers.
/// let mut link = SerializedResource::new(1e9);
/// let first = link.reserve(SimTime::ZERO, 1_000_000);
/// let second = link.reserve(SimTime::ZERO, 1_000_000);
/// assert_eq!(first.end, second.start);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SerializedResource {
    bytes_per_sec: f64,
    next_free: SimTime,
    busy: UtilizationTracker,
    bytes_moved: u64,
    transfers: u64,
}

/// A reservation window on a serialized resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually starts serving this request.
    pub start: SimTime,
    /// When the request completes.
    pub end: SimTime,
}

impl SerializedResource {
    /// Creates a resource with the given bandwidth in bytes/second.
    pub fn new(bytes_per_sec: f64) -> Self {
        SerializedResource {
            bytes_per_sec,
            next_free: SimTime::ZERO,
            busy: UtilizationTracker::new(),
            bytes_moved: 0,
            transfers: 0,
        }
    }

    /// Earliest instant at which a new transfer could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Reserves the resource for a `bytes`-sized transfer requested at `now`
    /// and returns the granted service window.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let start = now.max(self.next_free);
        let service = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        let end = start + service;
        self.next_free = end;
        self.busy.add_busy(service);
        self.bytes_moved += bytes;
        self.transfers += 1;
        Reservation { start, end }
    }

    /// Reserves the resource for a `bytes`-sized transfer whose service
    /// time the caller has already computed (and typically cached) via
    /// [`SimDuration::for_transfer`]. Identical accounting to
    /// [`SerializedResource::reserve`]; hot loops that move fixed-size
    /// payloads use this to hoist the bytes-to-duration conversion out of
    /// the per-transfer path.
    pub fn reserve_prepaid(
        &mut self,
        now: SimTime,
        bytes: u64,
        service: SimDuration,
    ) -> Reservation {
        debug_assert_eq!(
            service,
            SimDuration::for_transfer(bytes, self.bytes_per_sec)
        );
        let start = now.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy.add_busy(service);
        self.bytes_moved += bytes;
        self.transfers += 1;
        Reservation { start, end }
    }

    /// Reserves the resource for an explicit service duration (used when a
    /// transfer cost is dominated by protocol overhead rather than payload).
    pub fn reserve_duration(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let start = now.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy.add_busy(service);
        self.transfers += 1;
        Reservation { start, end }
    }

    /// Total bytes moved through the resource.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers served.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> SimDuration {
        self.busy.busy_time()
    }

    /// Busy fraction over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }
}

/// A single-server FIFO queue with caller-supplied service times.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FifoServer {
    next_free: SimTime,
    busy: UtilizationTracker,
    served: u64,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest instant at which a new request could start service.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Enqueues a request arriving at `now` with the given service time and
    /// returns its service window.
    pub fn serve(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let start = now.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy.add_busy(service);
        self.served += 1;
        Reservation { start, end }
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy.busy_time()
    }

    /// Busy fraction over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialized_transfers_queue_behind_each_other() {
        let mut r = SerializedResource::new(1_000_000_000.0); // 1 GB/s
        let a = r.reserve(SimTime::ZERO, 1_000_000); // 1 ms
        let b = r.reserve(SimTime::from_ns(10), 2_000_000); // queued behind a
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, SimTime::from_ms(1));
        assert_eq!(b.start, a.end);
        assert_eq!(b.end.as_ns(), 3_000_000);
        assert_eq!(r.bytes_moved(), 3_000_000);
        assert_eq!(r.transfers(), 2);
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut r = SerializedResource::new(1e9);
        r.reserve(SimTime::ZERO, 1_000); // 1 us busy
        r.reserve(SimTime::from_us(100), 1_000); // after a long idle gap
        let now = SimTime::from_us(101);
        assert_eq!(r.busy_time().as_ns(), 2_000);
        assert!(r.utilization(now) < 0.05);
    }

    #[test]
    fn reservation_latency_includes_queueing() {
        let mut r = SerializedResource::new(1e9);
        r.reserve(SimTime::ZERO, 5_000);
        let req_at = SimTime::from_ns(100);
        let res = r.reserve(req_at, 1_000);
        assert_eq!(res.start, SimTime::from_us(5));
        assert_eq!(
            res.end.saturating_since(req_at).as_ns(),
            5_000 - 100 + 1_000
        );
    }

    #[test]
    fn fifo_server_accumulates_wait() {
        let mut s = FifoServer::new();
        let a = s.serve(SimTime::ZERO, SimDuration::from_us(81));
        let b = s.serve(SimTime::ZERO, SimDuration::from_us(81));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::from_us(81));
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn zero_bandwidth_is_instantaneous() {
        let mut r = SerializedResource::new(0.0);
        let res = r.reserve(SimTime::from_ns(5), 1 << 20);
        assert_eq!(res.start, res.end);
    }

    #[test]
    fn explicit_duration_reservation() {
        let mut r = SerializedResource::new(1e9);
        let res = r.reserve_duration(SimTime::ZERO, SimDuration::from_ns(250));
        assert_eq!(res.end.as_ns(), 250);
        assert_eq!(r.transfers(), 1);
    }
}
