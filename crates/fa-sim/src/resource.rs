//! The reservation primitive behind every simulated resource.
//!
//! The prototype is a set of queues that each serve one request at a time:
//! the LWPs, DDR3L, the tier-1 crossbar, PCIe, the SRIO lanes, the FPGA
//! channel buses and the NAND dies (and, in the conventional system, the
//! NVMe SSD and the host storage stack). [`FifoServer`] is the one model of
//! all of them: a request arriving at `now` starts at `max(now,
//! next_free)`, holds the server for its service time, and adds that time
//! to the server's busy total. [`SerializedResource`] is a `FifoServer`
//! whose service time is a payload moved at a fixed byte rate. Contention
//! and queueing delay fall out of the reservations without an event per
//! byte.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A reservation window on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually starts serving this request.
    pub start: SimTime,
    /// When the request completes.
    pub end: SimTime,
}

/// A single-server FIFO queue with caller-supplied service times.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FifoServer {
    next_free: SimTime,
    busy: SimDuration,
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
        self.busy += service;
        Reservation { start, end }
    }

    /// Total busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Busy fraction in `[0, 1]` over the window ending at `now` — how the
    /// paper reports LWP utilization (Figure 14).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let wall = now.saturating_since(SimTime::ZERO);
        if wall.is_zero() {
            return 0.0;
        }
        (self.busy.as_secs_f64() / wall.as_secs_f64()).clamp(0.0, 1.0)
    }
}

/// A [`FifoServer`] that moves payloads at a fixed bandwidth: a link or a
/// memory channel.
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
#[derive(Debug, Clone)]
pub struct SerializedResource {
    bytes_per_sec: f64,
    server: FifoServer,
}

impl SerializedResource {
    /// Creates a resource with the given bandwidth in bytes/second.
    pub fn new(bytes_per_sec: f64) -> Self {
        SerializedResource {
            bytes_per_sec,
            server: FifoServer::new(),
        }
    }

    /// Reserves the resource for a `bytes`-sized transfer requested at `now`
    /// and returns the granted service window.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let service = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        self.server.serve(now, service)
    }

    /// Busy fraction over the window ending at `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.server.utilization(now)
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
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut r = SerializedResource::new(1e9);
        r.reserve(SimTime::ZERO, 1_000); // 1 us busy
        r.reserve(SimTime::from_us(100), 1_000); // after a long idle gap
        let now = SimTime::from_us(101);
        assert!((r.utilization(now) - 2.0 / 101.0).abs() < 1e-12);
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
        assert_eq!(s.next_free(), SimTime::from_us(162));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut s = FifoServer::new();
        s.serve(SimTime::ZERO, SimDuration::from_ns(50));
        s.serve(SimTime::ZERO, SimDuration::from_ns(20));
        assert_eq!(s.busy_time().as_ns(), 70);
        assert!((s.utilization(SimTime::from_ns(100)) - 0.7).abs() < 1e-9);
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn zero_bandwidth_is_instantaneous() {
        let mut r = SerializedResource::new(0.0);
        let res = r.reserve(SimTime::from_ns(5), 1 << 20);
        assert_eq!(res.start, res.end);
    }

    #[test]
    fn explicit_duration_reservation() {
        let mut s = FifoServer::new();
        let res = s.serve(SimTime::ZERO, SimDuration::from_ns(250));
        assert_eq!(res.end.as_ns(), 250);
        assert_eq!(s.busy_time().as_ns(), 250);
    }
}
