//! Flash backbone topology and physical addressing.

use serde::{Deserialize, Serialize};

/// Static geometry of the flash backbone.
///
/// The paper's prototype (Table 1 and §2.2): 4 channels, 4 packages per
/// channel, 2 dies per package, TLC flash, 8 KB pages, 32 GB total.
///
/// # Examples
///
/// ```
/// let g = fa_flash::FlashGeometry::paper_prototype();
/// assert_eq!(g.channels, 4);
/// assert_eq!(g.total_dies(), 32);
/// assert_eq!(g.total_bytes(), 32 * (1 << 30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Number of NV-DDR2 channels.
    pub channels: usize,
    /// Flash packages per channel.
    pub packages_per_channel: usize,
    /// Dies per package.
    pub dies_per_package: usize,
    /// Planes per die.
    pub planes_per_die: usize,
    /// Erase blocks per plane.
    pub blocks_per_plane: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Bytes per flash page.
    pub page_bytes: usize,
}

impl FlashGeometry {
    /// Geometry of the paper's 32 GB prototype backbone.
    ///
    /// 4 channels × 4 packages × 2 dies × 2 planes × 256 blocks × 256 pages
    /// × 8 KB = 32 GiB.
    pub fn paper_prototype() -> Self {
        FlashGeometry {
            channels: 4,
            packages_per_channel: 4,
            dies_per_package: 2,
            planes_per_die: 2,
            blocks_per_plane: 256,
            pages_per_block: 256,
            page_bytes: 8 * 1024,
        }
    }

    /// A small geometry convenient for unit tests (a few MiB).
    pub fn tiny_for_tests() -> Self {
        FlashGeometry {
            channels: 2,
            packages_per_channel: 1,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_bytes: 4096,
        }
    }

    /// Dies attached to one channel.
    pub fn dies_per_channel(&self) -> usize {
        self.packages_per_channel * self.dies_per_package
    }

    /// Total number of dies in the backbone.
    pub fn total_dies(&self) -> usize {
        self.channels * self.dies_per_channel()
    }

    /// Pages held by a single die.
    pub fn pages_per_die(&self) -> usize {
        self.planes_per_die * self.blocks_per_plane * self.pages_per_block
    }

    /// Blocks held by a single die.
    pub fn blocks_per_die(&self) -> usize {
        self.planes_per_die * self.blocks_per_plane
    }

    /// Total number of pages in the backbone.
    pub fn total_pages(&self) -> u64 {
        self.total_dies() as u64 * self.pages_per_die() as u64
    }

    /// Total number of erase blocks in the backbone.
    pub fn total_blocks(&self) -> u64 {
        self.total_dies() as u64 * self.blocks_per_die() as u64
    }

    /// Total raw capacity in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Bytes in one erase block.
    pub fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_bytes as u64
    }

    /// Returns true if the physical address falls inside this geometry.
    pub fn contains(&self, addr: PhysicalPageAddr) -> bool {
        addr.channel < self.channels
            && addr.die < self.dies_per_channel()
            && addr.block < self.blocks_per_die()
            && addr.page < self.pages_per_block
    }

    /// Converts a flat page index (`0..total_pages()`) into a physical
    /// address, striping consecutive pages across channels first and dies
    /// second so sequential accesses exploit all channel/die parallelism —
    /// the same page-group striping Flashvisor relies on (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is outside the backbone.
    pub fn flat_to_addr(&self, flat: u64) -> PhysicalPageAddr {
        assert!(flat < self.total_pages(), "page index out of range");
        let channels = self.channels as u64;
        let dies = self.dies_per_channel() as u64;
        let pages_per_block = self.pages_per_block as u64;

        let channel = flat % channels;
        let rest = flat / channels;
        let die = rest % dies;
        let rest = rest / dies;
        let page = rest % pages_per_block;
        let block = rest / pages_per_block;
        PhysicalPageAddr {
            channel: channel as usize,
            die: die as usize,
            block: block as usize,
            page: page as usize,
        }
    }

    /// Flat index of the erase block holding `addr`, in
    /// `0..total_blocks()`: channels outermost, then dies, then blocks.
    /// This is the block numbering the GC round-robin cursor and the
    /// valid-page index share.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the backbone.
    pub fn block_index(&self, addr: PhysicalPageAddr) -> u64 {
        assert!(self.contains(addr), "address out of range: {addr:?}");
        (addr.channel as u64 * self.dies_per_channel() as u64 + addr.die as u64)
            * self.blocks_per_die() as u64
            + addr.block as u64
    }

    /// Inverse of [`FlashGeometry::block_index`]: `(channel, die, block)`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside `0..total_blocks()`.
    pub fn block_index_to_addr(&self, index: u64) -> (usize, usize, usize) {
        assert!(index < self.total_blocks(), "block index out of range");
        let blocks_per_die = self.blocks_per_die() as u64;
        let dies_per_channel = self.dies_per_channel() as u64;
        let channel = index / (blocks_per_die * dies_per_channel);
        let die = (index / blocks_per_die) % dies_per_channel;
        let block = index % blocks_per_die;
        (channel as usize, die as usize, block as usize)
    }

    /// Inverse of [`FlashGeometry::flat_to_addr`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the backbone.
    pub fn addr_to_flat(&self, addr: PhysicalPageAddr) -> u64 {
        assert!(self.contains(addr), "address out of range: {addr:?}");
        let channels = self.channels as u64;
        let dies = self.dies_per_channel() as u64;
        let pages_per_block = self.pages_per_block as u64;
        ((addr.block as u64 * pages_per_block + addr.page as u64) * dies + addr.die as u64)
            * channels
            + addr.channel as u64
    }
}

/// Address of one physical flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhysicalPageAddr {
    /// Channel index.
    pub channel: usize,
    /// Die index within the channel (across all packages).
    pub die: usize,
    /// Erase-block index within the die (across planes).
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

impl PhysicalPageAddr {
    /// Convenience constructor.
    pub fn new(channel: usize, die: usize, block: usize, page: usize) -> Self {
        PhysicalPageAddr {
            channel,
            die,
            block,
            page,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prototype_capacity_matches_paper() {
        let g = FlashGeometry::paper_prototype();
        assert_eq!(g.total_dies(), 32);
        assert_eq!(g.page_bytes, 8192);
        assert_eq!(g.total_bytes(), 32 * 1024 * 1024 * 1024);
        assert_eq!(g.block_bytes(), 256 * 8192);
    }

    #[test]
    fn flat_addressing_stripes_across_channels() {
        let g = FlashGeometry::paper_prototype();
        let a0 = g.flat_to_addr(0);
        let a1 = g.flat_to_addr(1);
        let a2 = g.flat_to_addr(2);
        assert_eq!(a0.channel, 0);
        assert_eq!(a1.channel, 1);
        assert_eq!(a2.channel, 2);
        // After exhausting channels we advance the die.
        let a4 = g.flat_to_addr(4);
        assert_eq!(a4.channel, 0);
        assert_eq!(a4.die, 1);
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = FlashGeometry::tiny_for_tests();
        assert!(g.contains(PhysicalPageAddr::new(0, 0, 0, 0)));
        assert!(!g.contains(PhysicalPageAddr::new(2, 0, 0, 0)));
        assert!(!g.contains(PhysicalPageAddr::new(0, 1, 0, 0)));
        assert!(!g.contains(PhysicalPageAddr::new(0, 0, 8, 0)));
        assert!(!g.contains(PhysicalPageAddr::new(0, 0, 0, 16)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flat_out_of_range_panics() {
        let g = FlashGeometry::tiny_for_tests();
        g.flat_to_addr(g.total_pages());
    }

    proptest! {
        #[test]
        fn block_index_round_trips(index in 0u64..FlashGeometry::paper_prototype().total_blocks()) {
            let g = FlashGeometry::paper_prototype();
            let (channel, die, block) = g.block_index_to_addr(index);
            let addr = PhysicalPageAddr::new(channel, die, block, 0);
            prop_assert!(g.contains(addr));
            prop_assert_eq!(g.block_index(addr), index);
        }

        #[test]
        fn flat_addr_round_trips(flat in 0u64..FlashGeometry::paper_prototype().total_pages()) {
            let g = FlashGeometry::paper_prototype();
            let addr = g.flat_to_addr(flat);
            prop_assert!(g.contains(addr));
            prop_assert_eq!(g.addr_to_flat(addr), flat);
        }

        #[test]
        fn tiny_flat_addr_round_trips(flat in 0u64..FlashGeometry::tiny_for_tests().total_pages()) {
            let g = FlashGeometry::tiny_for_tests();
            prop_assert_eq!(g.addr_to_flat(g.flat_to_addr(flat)), flat);
        }
    }
}
