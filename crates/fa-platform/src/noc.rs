//! On-chip network, message queues, and external links.
//!
//! The prototype separates its interconnect into a high-bandwidth tier-1
//! streaming crossbar (LWPs ↔ memories) and a slower tier-2 crossbar that
//! feeds the AMC and PCIe peripherals; the two are bridged by network
//! switches (§2.2). LWPs exchange control messages over hardware message
//! queues attached to the network — the IPC mechanism whose overhead shows
//! up in the paper's comparison of `InterDy` and `IntraO3`.

use crate::spec::PlatformSpec;
use fa_sim::resource::{Reservation, SerializedResource};
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A bandwidth-limited crossbar tier.
#[derive(Debug, Clone)]
pub struct Crossbar {
    link: SerializedResource,
    per_hop_latency: SimDuration,
}

impl Crossbar {
    /// Creates a crossbar with the given aggregate bandwidth and per-hop
    /// latency.
    pub(crate) fn new(bytes_per_sec: f64, per_hop_latency: SimDuration) -> Self {
        Crossbar {
            link: SerializedResource::new(bytes_per_sec),
            per_hop_latency,
        }
    }

    /// The prototype's tier-1 streaming crossbar (16 GB/s).
    pub fn tier1(spec: &PlatformSpec) -> Self {
        Crossbar::new(spec.tier1_bytes_per_sec, SimDuration::from_ns(20))
    }

    /// Schedules a `bytes` transfer across the crossbar.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let res = self.link.reserve(now, bytes);
        Reservation {
            start: res.start,
            end: res.end + self.per_hop_latency,
        }
    }
}

/// The PCIe link between the host and the accelerator.
#[derive(Debug, Clone)]
pub struct PcieLink {
    link: SerializedResource,
    doorbell_latency: SimDuration,
}

impl PcieLink {
    /// Creates the prototype's PCIe 2.0 x2 link (≈1 GB/s).
    pub fn new(spec: &PlatformSpec) -> Self {
        PcieLink {
            link: SerializedResource::new(spec.pcie_bytes_per_sec),
            doorbell_latency: SimDuration::from_us(1),
        }
    }

    /// Schedules a DMA of `bytes` across the link.
    pub fn dma(&mut self, now: SimTime, bytes: u64) -> Reservation {
        self.link.reserve(now, bytes)
    }

    /// Latency of a doorbell/interrupt crossing the link (kernel-completion
    /// signalling, BAR writes).
    pub fn doorbell(&self, now: SimTime) -> SimTime {
        now + self.doorbell_latency
    }
}

/// A one-way hardware message queue between two LWPs.
///
/// Messages carry a fixed latency and drain in FIFO order; the queue depth
/// is bounded, modelling the hardware queue attached to the network (§2.2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MessageQueue {
    latency: SimDuration,
    capacity: usize,
    in_flight: VecDeque<SimTime>,
}

impl MessageQueue {
    /// Creates a queue with the platform's message latency and the given
    /// capacity.
    pub fn new(spec: &PlatformSpec, capacity: usize) -> Self {
        MessageQueue {
            latency: SimDuration::from_ns(spec.msgq_latency_ns),
            capacity,
            in_flight: VecDeque::new(),
        }
    }

    /// Sends a message at `now`; returns the delivery time. When the queue
    /// is full the send stalls until the head drains (back-pressure).
    pub fn send(&mut self, now: SimTime) -> SimTime {
        while let Some(front) = self.in_flight.front() {
            if *front <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        let start = if self.in_flight.len() >= self.capacity {
            *self
                .in_flight
                .front()
                .expect("queue full implies non-empty")
        } else {
            now
        };
        let delivered = start + self.latency;
        self.in_flight.push_back(delivered);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlatformSpec {
        PlatformSpec::paper_prototype()
    }

    #[test]
    fn tier1_is_faster_than_tier2() {
        let mut t1 = Crossbar::tier1(&spec());
        let mut t2 = Crossbar::new(spec().tier2_bytes_per_sec, SimDuration::from_ns(60));
        let a = t1.transfer(SimTime::ZERO, 1 << 20);
        let b = t2.transfer(SimTime::ZERO, 1 << 20);
        assert!(a.end < b.end);
    }

    #[test]
    fn pcie_dma_matches_1gbps_budget() {
        let mut p = PcieLink::new(&spec());
        let res = p.dma(SimTime::ZERO, 1 << 30);
        let secs = res.end.saturating_since(res.start).as_secs_f64();
        assert!((secs - 1.073).abs() < 0.05, "took {secs}s");
    }

    #[test]
    fn doorbell_adds_fixed_latency() {
        let p = PcieLink::new(&spec());
        assert_eq!(p.doorbell(SimTime::ZERO), SimTime::from_us(1));
    }

    #[test]
    fn message_queue_delivers_with_fixed_latency() {
        let mut q = MessageQueue::new(&spec(), 16);
        let d = q.send(SimTime::from_ns(100));
        assert_eq!(d.as_ns(), 100 + 200);
    }

    #[test]
    fn message_queue_backpressure_when_full() {
        let mut q = MessageQueue::new(&spec(), 2);
        q.send(SimTime::ZERO);
        q.send(SimTime::ZERO);
        let third = q.send(SimTime::ZERO);
        // The third send waits for the head to drain at 200 ns.
        assert_eq!(third.as_ns(), 400);
    }
}
