//! Fixed-length tables that are reserved whole and zeroed as they are
//! written.
//!
//! The Flashvisor's mapping and reverse tables have one entry per page
//! group of the device (512 Ki at the paper prototype), yet a run writes a
//! few percent of them. A [`LazyTable`] asks the allocator for its full
//! logical length once, at construction, and does not touch that memory.
//! Its filled prefix grows to cover the highest entry ever written,
//! zero-filling only the newly reached part one 4 KiB chunk at a time, and
//! every entry past it reads as `T::default()`. A table most runs never
//! write ([`LazyTable::deferred`]) makes that one full-length request at
//! its first write instead.
//!
//! The full-length reservation matters as much as the laziness. Every
//! allocation request stays the size the eager table asked for, so a
//! process that builds and drops many systems keeps getting its tables
//! from recycled heap, and growing the prefix never reallocates. A table
//! that started empty and grew by doubling was measured at about 80 times
//! the minor page faults of the eager tables on perfbench's `hetero`
//! workload (see `docs/ARCHITECTURE.md`).
//!
//! ```
//! use fa_sim::table::LazyTable;
//!
//! let mut t: LazyTable<u32> = LazyTable::new(1 << 20);
//! assert_eq!((t.len(), t.filled().len()), (1 << 20, 0));
//! t[10] = 7;
//! assert_eq!(t.filled().len(), 1024); // one 4 KiB chunk of entries
//! assert_eq!((t[10], t[500_000]), (7, 0));
//! assert_eq!(t.get(1 << 20), None);
//! ```

use std::ops::{Index, IndexMut};

/// Bytes zero-filled at once when a write passes the filled prefix: a
/// table written in ascending order (a mapping preloaded in logical order,
/// groups handed out first-free) then fills once per page of entries,
/// not once per entry.
const FILL_BYTES: usize = 4096;

/// A table of `len` entries of `T` that reads as all `T::default()` when
/// built and zero-fills only a prefix covering the highest entry written.
///
/// Indexing past [`LazyTable::len`] panics and [`LazyTable::get`] /
/// [`LazyTable::get_mut`] return `None` there, exactly as for a slice of
/// that length.
#[derive(Debug)]
pub struct LazyTable<T> {
    /// Entries `0..filled.len()`; its capacity is `len` from construction
    /// (or, for a deferred table, from the first write) on, so growing it
    /// never reallocates.
    filled: Vec<T>,
    /// The logical length.
    len: usize,
    /// `T::default()`, which `Index` returns past the filled prefix.
    zero: T,
}

impl<T: Copy + Default> LazyTable<T> {
    /// A table of `len` default entries, reserved but not written.
    pub fn new(len: usize) -> Self {
        LazyTable {
            filled: Vec::with_capacity(len),
            len,
            zero: T::default(),
        }
    }

    /// A table of `len` default entries that requests its full length
    /// only at the first write, for a table most runs never write. Until
    /// then it holds no allocation.
    pub fn deferred(len: usize) -> Self {
        LazyTable {
            filled: Vec::new(),
            len,
            zero: T::default(),
        }
    }

    /// The logical length: the number of entries the table holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entry at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The filled prefix: the entries up to the highest one written since
    /// construction or the last [`LazyTable::clear`], rounded up to a whole
    /// 4 KiB fill chunk (or the length). Entries past it are
    /// `T::default()`, so a walk of the non-default entries may stop here.
    pub fn filled(&self) -> &[T] {
        &self.filled
    }

    /// Entry `i`, or `None` when `i` is past the logical length.
    pub fn get(&self, i: usize) -> Option<T> {
        (i < self.len).then(|| self.filled.get(i).copied().unwrap_or(self.zero))
    }

    /// Entry `i` for writing, filling the prefix up to it first; `None`
    /// when `i` is past the logical length.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.filled.len() {
            if i >= self.len {
                return None;
            }
            self.fill_past(i);
        }
        Some(&mut self.filled[i])
    }

    /// Zero-fills the prefix up to the fill chunk holding entry `i`.
    #[cold]
    #[inline(never)]
    fn fill_past(&mut self, i: usize) {
        let chunk = (FILL_BYTES / std::mem::size_of::<T>().max(1)).max(1);
        let end = (i + 1).next_multiple_of(chunk).min(self.len);
        // A no-op but for a deferred table's first write, which makes its
        // one full-length request here.
        self.filled.reserve_exact(self.len - self.filled.len());
        self.filled.resize(end, self.zero);
    }

    /// Resets every entry to `T::default()` by dropping the filled prefix;
    /// the reservation stays.
    pub fn clear(&mut self) {
        self.filled.clear();
    }
}

impl<T: Copy + Default> Index<usize> for LazyTable<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        assert!(
            i < self.len,
            "index out of bounds: the len is {} but the index is {i}",
            self.len
        );
        self.filled.get(i).unwrap_or(&self.zero)
    }
}

impl<T: Copy + Default> IndexMut<usize> for LazyTable<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        let len = self.len;
        self.get_mut(i)
            .unwrap_or_else(|| panic!("index out of bounds: the len is {len} but the index is {i}"))
    }
}

/// A clone keeps the original's reservation: the full logical length, or
/// none for a deferred table not yet written.
impl<T: Copy> Clone for LazyTable<T> {
    fn clone(&self) -> Self {
        let mut filled = Vec::with_capacity(self.filled.capacity().min(self.len));
        filled.extend_from_slice(&self.filled);
        LazyTable {
            filled,
            len: self.len,
            zero: self.zero,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_reserves_its_length_and_writes_nothing() {
        let t: LazyTable<u16> = LazyTable::new(1000);
        assert_eq!(t.len(), 1000);
        assert!(t.filled().is_empty());
        assert!(t.filled.capacity() >= 1000);
        assert_eq!((t[0], t[999]), (0, 0));
    }

    #[test]
    fn writes_fill_up_to_the_highest_entry_and_never_reallocate() {
        let mut t: LazyTable<u32> = LazyTable::new(64);
        let base = t.filled.as_ptr();
        t[40] = 3;
        assert_eq!(t.filled().len(), 64, "a fill chunk is capped at the length");
        *t.get_mut(63).unwrap() = 9;
        t[5] = 1;
        assert_eq!(t.filled().len(), 64);
        assert_eq!(t.filled.as_ptr(), base);
        assert_eq!((t[5], t[40], t[63], t[6]), (1, 3, 9, 0));
        t.clear();
        assert!(t.filled().is_empty());
        assert_eq!(t[40], 0);
    }

    #[test]
    fn deferred_table_reserves_its_whole_length_at_the_first_write() {
        let mut t: LazyTable<u32> = LazyTable::deferred(100);
        assert_eq!(t.filled.capacity(), 0);
        assert_eq!(t.clone().filled.capacity(), 0);
        assert_eq!((t.len(), t[99], t.get(100)), (100, 0, None));
        t[3] = 2;
        assert!(t.filled.capacity() >= 100);
        assert!(t.clone().filled.capacity() >= 100);
        assert_eq!(&t.filled()[..5], &[0, 0, 0, 2, 0]);
    }

    #[test]
    fn clone_keeps_the_reservation_and_the_entries() {
        let mut a: LazyTable<u32> = LazyTable::new(32);
        a[3] = 4;
        let b = a.clone();
        assert!(b.filled.capacity() >= 32);
        assert_eq!((b.len(), b.filled()), (32, a.filled()));
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 8 but the index is 8")]
    fn reading_past_the_length_panics_like_a_slice() {
        let t: LazyTable<u32> = LazyTable::new(8);
        let _ = t[8];
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 8 but the index is 9")]
    fn writing_past_the_length_panics_like_a_slice() {
        let mut t: LazyTable<u32> = LazyTable::new(8);
        t[9] = 1;
    }
}
