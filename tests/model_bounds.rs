//! The flash backbone against its own closed forms.
//!
//! On an idle Table 1 backbone ([`backbone_spec_table1`]: 4 channels × 8
//! dies, 8 KiB pages, 81 µs reads, 2.6 ms programs, 5 ms erases, 400 MB/s
//! channel buses, 2.5 GB/s SRIO), a sweep of N pages striped over C
//! channels × D dies cannot finish before
//!
//! ```text
//! max(N/C × t_xfer, N/(C·D) × t_op, N × t_SRIO)
//! ```
//!
//! because every channel bus moves N/C pages, every die serves N/(C·D)
//! array operations, and the SRIO lanes move all N pages, each of them one
//! at a time. Each sweep must also finish within a stated slack of that
//! bound. Each slack was measured on the model and is stated with the
//! pipeline fill and drain it consists of, so a reservation that starts
//! late or queues behind the wrong request fails the test.

use fa_flash::{backbone_spec_table1, FlashBackbone, FlashCommand, FlashOp, OwnerId};
use fa_flash::{FlashGeometry, FlashTiming, PhysicalPageAddr};
use fa_sim::time::{SimDuration, SimTime};

/// Owner of every sweep; attribution plays no part in the timing.
const OWNER: OwnerId = OwnerId::Kernel(0);

/// The closed-form service times of one page on the Table 1 backbone.
struct Closed {
    channels: u64,
    dies: u64,
    xfer: SimDuration,
    srio: SimDuration,
    timing: FlashTiming,
}

impl Closed {
    fn of(b: &FlashBackbone) -> Self {
        let g: &FlashGeometry = b.geometry();
        let page = g.page_bytes as u64;
        Closed {
            channels: g.channels as u64,
            dies: g.dies_per_channel() as u64,
            xfer: SimDuration::for_transfer(page, b.timing().channel_bytes_per_sec),
            srio: SimDuration::for_transfer(page, fa_flash::spec::SRIO_BYTES_PER_SEC),
            timing: *b.timing(),
        }
    }

    /// The lower bound on a sweep of `pages` pages whose array operation
    /// takes `op` per page.
    fn bound(&self, pages: u64, op: SimDuration) -> SimDuration {
        let bus = self.xfer * (pages / self.channels);
        let die = op * (pages / (self.channels * self.dies));
        let srio = self.srio * pages;
        bus.max(die).max(srio)
    }
}

/// Asserts that a sweep started at zero and finished at `finished` took
/// at least `bound` and at most `bound + slack`.
fn check(what: &str, finished: SimTime, bound: SimDuration, slack: SimDuration) {
    let took = finished.saturating_since(SimTime::ZERO);
    assert!(
        took >= bound,
        "{what}: took {took:?}, below the bound {bound:?}"
    );
    assert!(
        took <= bound + slack,
        "{what}: took {took:?}, more than {slack:?} above the bound {bound:?}"
    );
}

/// Stripe depths (pages per die) of the swept ranges.
const DEPTHS: [u64; 3] = [1, 4, 16];

#[test]
fn read_sweeps_meet_the_bus_die_srio_bound() {
    // Measured slack, the same at every depth: the first pages'
    // controller overhead and array read before any bus is busy, and the
    // four channels' last pages, which leave their buses together,
    // crossing SRIO one after another (0.5 + 81 + 4 × 3.277 µs).
    let slack = SimDuration::from_ns(94_608);
    for depth in DEPTHS {
        let mut b = backbone_spec_table1();
        let c = Closed::of(&b);
        let pages = c.channels * c.dies * depth;
        // Preloaded data takes no device time, so the backbone is idle.
        b.preload_group(0, pages).unwrap();
        let finished = b
            .submit_group(SimTime::ZERO, 0, pages, FlashOp::ReadPage, OWNER)
            .unwrap();
        check(
            &format!("read of {pages} pages"),
            finished,
            c.bound(pages, c.timing.read_page),
            slack,
        );
    }
}

#[test]
fn program_sweeps_meet_the_bus_die_srio_bound() {
    // Measured slack, the same at every depth: the last die's first page
    // waits for the first pages of all four channels to cross SRIO, the
    // controller overhead, and the bus transfers of its channel's eight
    // first pages before its first program starts (4 × 3.277 + 0.5 +
    // 8 × 20.48 µs).
    let slack = SimDuration::from_ns(177_448);
    for depth in DEPTHS {
        let mut b = backbone_spec_table1();
        let c = Closed::of(&b);
        let pages = c.channels * c.dies * depth;
        let finished = b
            .submit_group(SimTime::ZERO, 0, pages, FlashOp::ProgramPage, OWNER)
            .unwrap();
        check(
            &format!("program of {pages} pages"),
            finished,
            c.bound(pages, c.timing.program_page),
            slack,
        );
    }
}

#[test]
fn erasing_a_block_row_meets_the_die_bound() {
    // An erase moves no data, so a row of one block per die is bound by
    // one erase. Measured slack: the controller overhead (0.5 µs).
    let slack = SimDuration::from_ns(500);
    let mut b = backbone_spec_table1();
    let c = Closed::of(&b);
    let mut finished = SimTime::ZERO;
    for channel in 0..c.channels as usize {
        for die in 0..c.dies as usize {
            let addr = PhysicalPageAddr::new(channel, die, 0, 0);
            let done = b
                .submit_tagged(SimTime::ZERO, FlashCommand::erase(addr), OWNER)
                .unwrap();
            finished = finished.max(done.finished);
        }
    }
    check(
        "erase of one block row",
        finished,
        c.timing.erase_block,
        slack,
    );
}
