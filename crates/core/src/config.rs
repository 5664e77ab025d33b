//! Configuration of the FlashAbacus device.

use crate::freespace::PlacementPolicy;
use crate::scheduler::SchedulerPolicy;
use crate::storengine::GcVictimPolicy;
use fa_energy::PowerSpec;
use fa_flash::{FlashGeometry, FlashTiming, QosBudgets};
use fa_platform::PlatformSpec;
use fa_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Quality-of-service knobs on the flash data path.
///
/// The defaults reproduce the pre-QoS device byte for byte: storage
/// management executes synchronously at the flush instant and every owner
/// enjoys unlimited tag-queue admission. Turning `background_gc` on models
/// Storengine passes as deferred background events that contend with
/// foreground traffic for the channels; the budgets then bound how many
/// tags any one owner (a kernel, or the GC/journal streams) may hold per
/// channel controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QosConfig {
    /// Outstanding-command budget per foreground owner (kernel) at each
    /// channel's tag queue; `None` = unlimited (the default).
    pub per_owner_tag_budget: Option<usize>,
    /// Outstanding-command budget for each background stream (GC,
    /// journaling) at each channel's tag queue; `None` = unlimited.
    pub gc_budget: Option<usize>,
    /// Model Storengine GC passes as background events interleaved with
    /// foreground screens instead of running synchronously at the flush
    /// instant.
    pub background_gc: bool,
}

impl QosConfig {
    /// The per-owner budgets in the form the flash backbone consumes.
    pub(crate) fn budgets(&self) -> QosBudgets {
        QosBudgets {
            per_owner: self.per_owner_tag_budget,
            background: self.gc_budget,
        }
    }
}

/// The online QoS governor's knobs: how often budgets are recomputed and
/// the range they move in.
///
/// Every `window`, the governor diffs each active tenant's flash command
/// count (from [`fa_flash::FlashBackbone::owner_commands`]) against the
/// previous tick and installs per-owner tag-budget overrides: the heaviest
/// tenant of the window is squeezed to `min_budget`, an idle tenant gets
/// `max_budget`, and everyone else interpolates linearly. This replaces the
/// static [`QosConfig`] per-owner budget for tenants while they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Sliding-window length between budget recomputations.
    pub window: SimDuration,
    /// Budget handed to the window's heaviest tenant.
    pub min_budget: usize,
    /// Budget handed to an idle tenant (and the cap for everyone).
    pub max_budget: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            window: SimDuration::from_ms(5),
            min_budget: 1,
            max_budget: 8,
        }
    }
}

/// Configuration of the open-loop multi-tenant traffic engine: how many
/// tenants may run at once, how deep the admission queue is, and whether
/// the online QoS governor retunes per-tenant budgets while they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleoutConfig {
    /// Maximum tenants in flight; arrivals beyond it queue or shed. Also
    /// the number of flash slots the engine carves out, so it bounds the
    /// campaign's logical footprint. Must be positive: the open-loop
    /// engine rejects zero.
    pub max_in_flight: usize,
    /// Maximum queued (admitted-later) tenants; arrivals past a full queue
    /// are shed.
    pub queue_limit: usize,
    /// Online QoS governor; `None` leaves the static [`QosConfig`] budgets
    /// in force for the whole campaign.
    pub governor: Option<GovernorConfig>,
}

impl Default for ScaleoutConfig {
    fn default() -> Self {
        ScaleoutConfig {
            max_in_flight: 6,
            queue_limit: 64,
            governor: None,
        }
    }
}

/// Full configuration of a simulated FlashAbacus accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashAbacusConfig {
    /// The compute-platform specification (Table 1).
    pub platform: PlatformSpec,
    /// Flash backbone geometry.
    pub flash_geometry: FlashGeometry,
    /// Flash backbone timing.
    pub flash_timing: FlashTiming,
    /// Power figures for the energy model.
    pub power: PowerSpec,
    /// The multi-kernel scheduling policy to use.
    pub scheduler: SchedulerPolicy,
    /// Bytes covered by one Flashvisor page group (64 KB in the prototype:
    /// 4 channels × 2 planes × 8 KB, §4.3).
    pub page_group_bytes: u64,
    /// Flashvisor LWP cycles spent translating and issuing one page-group
    /// request (mapping lookup plus request construction).
    pub flashvisor_request_cycles: u64,
    /// Flashvisor LWP cycles spent on one scheduling decision (screen or
    /// kernel dispatch), on top of the hardware message-queue latency.
    pub scheduling_decision_cycles: u64,
    /// Aggregate SRIO bandwidth between the network and the flash backbone.
    pub srio_bytes_per_sec: f64,
    /// Channel-controller tag-queue depth.
    pub channel_tag_queue: usize,
    /// Block erase-endurance budget used by the wear model.
    pub endurance_cycles: u64,
    /// Where the free-space manager places newly allocated page groups.
    /// `FirstFree` (the default) reproduces the log-structured cursor
    /// allocator exactly; `ChannelStriped` round-robins across the
    /// channel/die stripe classes; `LeastWorn` allocates from the block
    /// row with the fewest accumulated erase cycles.
    pub placement: PlacementPolicy,
    /// How Storengine picks its GC victim block. `RoundRobin` (the
    /// default) is the paper's cheap §4.3 policy; `GreedyMinValid` uses
    /// the incremental valid-page index to pick the block with the fewest
    /// pages to migrate; `CostBenefit` maximizes the classic
    /// `age × garbage / valid` score over the same index.
    pub gc_victim: GcVictimPolicy,
    /// Hot/cold separation: a logical group overwritten at least this many
    /// times is classified *hot*, and its writes are steered to dedicated
    /// active blocks so cold blocks stop absorbing churn. `None` (the
    /// default) disables the classification and reproduces the unified
    /// write stream exactly.
    pub hot_overwrite_threshold: Option<u32>,
    /// Fraction of free page groups below which Storengine starts
    /// reclaiming blocks.
    pub gc_low_watermark: f64,
    /// Interval between Storengine metadata-journaling dumps.
    pub journal_interval: SimDuration,
    /// Whether kernel output writes are absorbed by the DDR3L write buffer
    /// (true in the prototype, §2.2) or must reach flash before a kernel is
    /// reported complete.
    pub buffered_writes: bool,
    /// Background-GC and per-owner QoS knobs (defaults are off/unlimited,
    /// reproducing the synchronous device exactly).
    pub qos: QosConfig,
}

impl FlashAbacusConfig {
    /// The paper's prototype configuration with the chosen scheduler.
    pub fn paper_prototype(scheduler: SchedulerPolicy) -> Self {
        FlashAbacusConfig {
            platform: PlatformSpec::paper_prototype(),
            flash_geometry: FlashGeometry::paper_prototype(),
            flash_timing: FlashTiming::paper_prototype(),
            power: PowerSpec::paper_prototype(),
            scheduler,
            page_group_bytes: 64 * 1024,
            flashvisor_request_cycles: 350,
            scheduling_decision_cycles: 600,
            srio_bytes_per_sec: fa_flash::spec::SRIO_BYTES_PER_SEC,
            channel_tag_queue: fa_flash::spec::CHANNEL_TAG_QUEUE_DEPTH,
            endurance_cycles: fa_flash::spec::TLC_ENDURANCE_CYCLES,
            placement: PlacementPolicy::FirstFree,
            gc_victim: GcVictimPolicy::RoundRobin,
            hot_overwrite_threshold: None,
            gc_low_watermark: 0.10,
            journal_interval: SimDuration::from_ms(100),
            buffered_writes: true,
            qos: QosConfig::default(),
        }
    }

    /// A small configuration (small flash, fast timings) for unit tests.
    pub fn tiny_for_tests(scheduler: SchedulerPolicy) -> Self {
        FlashAbacusConfig {
            platform: PlatformSpec::paper_prototype(),
            // 2 channels × 1 die × 128 blocks × 32 pages × 4 KB = 32 MiB:
            // big enough for the unit-test workloads, small enough that GC
            // paths are easy to exercise.
            flash_geometry: FlashGeometry {
                channels: 2,
                packages_per_channel: 1,
                dies_per_package: 1,
                planes_per_die: 1,
                blocks_per_plane: 128,
                pages_per_block: 32,
                page_bytes: 4096,
            },
            flash_timing: FlashTiming::fast_for_tests(),
            power: PowerSpec::paper_prototype(),
            scheduler,
            page_group_bytes: 8 * 1024,
            flashvisor_request_cycles: 100,
            scheduling_decision_cycles: 100,
            srio_bytes_per_sec: 2.5e9,
            channel_tag_queue: 8,
            endurance_cycles: 1_000,
            placement: PlacementPolicy::FirstFree,
            gc_victim: GcVictimPolicy::RoundRobin,
            hot_overwrite_threshold: None,
            gc_low_watermark: 0.20,
            journal_interval: SimDuration::from_ms(1),
            buffered_writes: true,
            qos: QosConfig::default(),
        }
    }

    /// Number of pages in one page group.
    pub fn pages_per_group(&self) -> u64 {
        (self.page_group_bytes / self.flash_geometry.page_bytes as u64).max(1)
    }

    /// Number of page groups in the whole backbone.
    pub fn total_page_groups(&self) -> u64 {
        self.flash_geometry.total_pages() / self.pages_per_group()
    }

    /// Scratchpad bytes needed by the page-group mapping table (one 4-byte
    /// entry per group; the paper reports 2 MB for 32 GB at 64 KB groups).
    pub fn mapping_table_bytes(&self) -> u64 {
        self.total_page_groups() * 4
    }

    /// The within-die block row reserved for Storengine's metadata journal
    /// (the highest-numbered block of every die; see
    /// [`crate::storengine::Storengine::journal`]), or `None` when the
    /// geometry is too small to spare a row. Flashvisor fences this row's
    /// group range off in the free-space manager so the data cursor can
    /// never allocate into it, and GC never picks it as a victim.
    pub fn journal_metadata_row(&self) -> Option<u64> {
        let blocks_per_die = self.flash_geometry.blocks_per_die() as u64;
        (blocks_per_die > 1).then_some(blocks_per_die - 1)
    }

    /// The `[low, high)` range of page groups whose pages fall inside
    /// within-die block row `row` — block `row` of *every* channel and
    /// die. Because flat pages are contiguous per row (channel-first,
    /// die-second striping), the range covers every group holding a page
    /// of row `row` (including any group straddling a row boundary).
    /// This is the migration set a row-coherent GC pass (GreedyMinValid)
    /// uses, so erasing any one block of the row never destroys a mapped
    /// group that was not migrated.
    pub fn block_row_group_range(&self, row: u64) -> (u64, u64) {
        let row_pages = self.flash_geometry.pages_per_block as u64
            * self.flash_geometry.channels as u64
            * self.flash_geometry.dies_per_channel() as u64;
        let pages_per_group = self.pages_per_group();
        (
            (row * row_pages) / pages_per_group,
            ((row + 1) * row_pages).div_ceil(pages_per_group),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_page_group_matches_paper() {
        let c = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
        assert_eq!(c.page_group_bytes, 64 * 1024);
        assert_eq!(c.pages_per_group(), 8);
        // 32 GB at 64 KB groups = 512 K groups; 4-byte entries = 2 MB, which
        // is the scratchpad budget quoted in §4.3.
        assert_eq!(c.total_page_groups(), 512 * 1024);
        assert_eq!(c.mapping_table_bytes(), 2 * 1024 * 1024);
        assert!(c.mapping_table_bytes() <= c.platform.scratchpad_bytes as u64);
    }

    #[test]
    fn tiny_config_is_consistent() {
        let c = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::InterSt);
        assert!(c.pages_per_group() >= 1);
        assert!(c.total_page_groups() > 0);
    }
}
