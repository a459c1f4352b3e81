//! Per-bank memory model.
//!
//! Each bank's contents are organized as *regions* — contiguous,
//! row-aligned element arrays (a submatrix's row/col/val stream, the input
//! vector slice, the output slice, ...). The engine uses a region's row
//! span to know which DRAM row must be open for an access; the processing
//! unit reads and writes region elements functionally.
//!
//! Values are carried as `f64` (index streams store their indices as exact
//! small integers, with `-1.0` as the paper's end-of-data sentinel);
//! `elem_bytes` controls how many elements one 32 B burst moves and how
//! many DRAM rows the region occupies.
//!
//! The processing unit reaches regions through `BankMemory::read` and
//! `BankMemory::write`, which log which elements it read and whether it
//! stored anything. The engine uses that log to recognise twin channels
//! (DESIGN.md §14); host-side accessors log nothing.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Handle to a region within one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionId(pub usize);

/// A memory-instruction slot's view of a region: where its stream starts
/// and how far each access advances.
///
/// The default (`offset = 0`, `stride = None`) is a contiguous stream that
/// advances by the instruction's natural width (one burst). Strided
/// bindings express the paper's *interleaved* layouts — e.g. the SpMV
/// triples region stores `[rows | cols | vals]` blocks consecutively in one
/// DRAM row ("32 B consecutive arrays", SIV-B), so the three load slots
/// share one region at offsets 0/1/2 blocks with a 3-block stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Binding {
    /// Target region.
    pub region: RegionId,
    /// First element the slot's cursor points at.
    pub offset: usize,
    /// Elements the cursor advances per access; `None` = the instruction's
    /// natural advance (burst lanes, 1 for scalars, 0 for random access).
    pub stride: Option<usize>,
}

impl Binding {
    /// Contiguous stream over a whole region.
    #[must_use]
    pub fn new(region: RegionId) -> Self {
        Binding {
            region,
            offset: 0,
            stride: None,
        }
    }

    /// Strided stream starting at `offset`.
    #[must_use]
    pub fn strided(region: RegionId, offset: usize, stride: usize) -> Self {
        Binding {
            region,
            offset,
            stride: Some(stride),
        }
    }
}

impl From<RegionId> for Binding {
    fn from(region: RegionId) -> Self {
        Binding::new(region)
    }
}

/// The end-of-data sentinel the distribution step pads index arrays with
/// (paper §V, "Conditional Exit Detection").
pub const SENTINEL: f64 = -1.0;

/// A row-aligned element array in a bank.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    start_row: u32,
    elem_bytes: usize,
    data: Vec<f64>,
}

impl Region {
    /// First DRAM row of the region.
    #[must_use]
    pub fn start_row(&self) -> u32 {
        self.start_row
    }

    /// Element width in bytes.
    #[must_use]
    pub fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the contents.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the contents.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at `idx`, or 0 past the end (reads beyond a region return
    /// the quiet zero pattern).
    #[must_use]
    pub fn get(&self, idx: usize) -> f64 {
        self.data.get(idx).copied().unwrap_or(0.0)
    }

    /// Store at `idx`; silently dropped past the end.
    pub fn set(&mut self, idx: usize, v: f64) {
        if let Some(slot) = self.data.get_mut(idx) {
            *slot = v;
        }
    }

    /// DRAM rows this region spans for a given row size.
    #[must_use]
    pub fn rows_spanned(&self, row_bytes: usize) -> u32 {
        let bytes = self.data.len() * self.elem_bytes;
        (bytes.div_ceil(row_bytes)).max(1) as u32
    }

    /// The DRAM row containing element `idx`.
    #[must_use]
    pub fn row_of(&self, idx: usize, row_bytes: usize) -> u32 {
        self.start_row + (idx * self.elem_bytes / row_bytes) as u32
    }
}

/// A point in a bank's allocation history, taken with
/// [`BankMemory::mark`] and rewound to with [`BankMemory::truncate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocMark {
    regions: usize,
    next_row: u32,
}

/// One bank's memory: a row-aligned arena of regions.
///
/// Two banks are equal when their layouts and contents are; the storage
/// kept for reuse and the access log are not part of a bank's value.
#[derive(Debug, Clone, Default)]
pub struct BankMemory {
    row_bytes: usize,
    next_row: u32,
    regions: Vec<Region>,
    /// Storage of the regions the last [`BankMemory::truncate`] freed,
    /// newest first, so [`BankMemory::alloc_copy`] hands it back in
    /// allocation order.
    spare: Vec<Vec<f64>>,
    /// Per region id: the span `lo..hi` of elements read through
    /// [`BankMemory::read`] since the last [`BankMemory::clear_accesses`]
    /// (empty when `lo >= hi`; ids past the end were not read).
    reads: Vec<(usize, usize)>,
    /// Whether a region was fetched through [`BankMemory::write`] since
    /// the last clear.
    wrote: bool,
}

impl PartialEq for BankMemory {
    fn eq(&self, other: &Self) -> bool {
        self.row_bytes == other.row_bytes
            && self.next_row == other.next_row
            && self.regions == other.regions
    }
}

/// Whether two element arrays are bit for bit identical (`-0.0` differs
/// from `0.0`, and a NaN equals only its own bit pattern).
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl BankMemory {
    /// Empty memory with the given DRAM row size.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes == 0`.
    #[must_use]
    pub fn new(row_bytes: usize) -> Self {
        assert!(row_bytes > 0, "row_bytes must be positive");
        BankMemory {
            row_bytes,
            ..BankMemory::default()
        }
    }

    /// DRAM row size.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Allocate a region holding `data`, rounded up to whole rows.
    pub fn alloc(&mut self, elem_bytes: usize, data: Vec<f64>) -> RegionId {
        let region = Region {
            start_row: self.next_row,
            elem_bytes,
            data,
        };
        self.next_row += region.rows_spanned(self.row_bytes);
        let id = RegionId(self.regions.len());
        self.regions.push(region);
        id
    }

    /// Allocate a zero-filled region of `len` elements.
    pub fn alloc_zeroed(&mut self, elem_bytes: usize, len: usize) -> RegionId {
        self.alloc(elem_bytes, vec![0.0; len])
    }

    /// Allocate a region holding a copy of `data`, in the storage of a
    /// region the last [`BankMemory::truncate`] freed when there is one:
    /// a bank that allocates the same regions after every rewind stops
    /// allocating.
    pub fn alloc_copy(&mut self, elem_bytes: usize, data: &[f64]) -> RegionId {
        let mut storage = self.spare.pop().unwrap_or_default();
        storage.clear();
        // Grow to fit exactly: amortized doubling would keep up to twice
        // the largest region this storage ever held.
        storage.reserve_exact(data.len());
        storage.extend_from_slice(data);
        self.alloc(elem_bytes, storage)
    }

    /// Borrow a region.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0]
    }

    /// Mutably borrow a region.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0]
    }

    /// The processing unit's load path: borrow a region and log that
    /// elements `range` may be read. The log is clipped to the region:
    /// reads past its end see the quiet zero, which only the region's
    /// length decides.
    pub(crate) fn read(&mut self, id: RegionId, range: Range<usize>) -> &Region {
        let len = self.regions[id.0].data.len();
        let (lo, hi) = (range.start.min(len), range.end.min(len));
        if lo < hi {
            if self.reads.len() <= id.0 {
                self.reads.resize(id.0 + 1, (usize::MAX, 0));
            }
            let span = &mut self.reads[id.0];
            *span = (span.0.min(lo), span.1.max(hi));
        }
        &self.regions[id.0]
    }

    /// The processing unit's store path: borrow a region mutably and log
    /// a write, whether or not an element is then stored.
    pub(crate) fn write(&mut self, id: RegionId) -> &mut Region {
        self.wrote = true;
        &mut self.regions[id.0]
    }

    /// Move a region to another start row (tests build layouts that
    /// differ in one row only).
    #[cfg(test)]
    pub(crate) fn set_start_row(&mut self, id: RegionId, row: u32) {
        self.regions[id.0].start_row = row;
    }

    /// Start a fresh access log.
    pub(crate) fn clear_accesses(&mut self) {
        self.reads.clear();
        self.wrote = false;
    }

    /// Whether [`BankMemory::write`] was called since the last clear.
    pub(crate) fn wrote(&self) -> bool {
        self.wrote
    }

    /// Whether both banks have the same row size and the same regions at
    /// the same rows, with the same element widths and lengths.
    pub(crate) fn same_layout(&self, other: &BankMemory) -> bool {
        self.row_bytes == other.row_bytes
            && self.regions.len() == other.regions.len()
            && self.regions.iter().zip(&other.regions).all(|(a, b)| {
                a.start_row == b.start_row
                    && a.elem_bytes == b.elem_bytes
                    && a.data.len() == b.data.len()
            })
    }

    /// Whether `other` holds bit-identical contents in every element span
    /// this bank logged a read of. Assumes [`BankMemory::same_layout`].
    pub(crate) fn same_reads(&self, other: &BankMemory) -> bool {
        self.reads.iter().enumerate().all(|(id, &(lo, hi))| {
            lo >= hi
                || same_bits(
                    &self.regions[id].data[lo..hi],
                    &other.regions[id].data[lo..hi],
                )
        })
    }

    /// Number of regions.
    #[must_use]
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total DRAM rows allocated.
    #[must_use]
    pub fn rows_used(&self) -> u32 {
        self.next_row
    }

    /// The current end of the allocation history.
    #[must_use]
    pub fn mark(&self) -> AllocMark {
        AllocMark {
            regions: self.regions.len(),
            next_row: self.next_row,
        }
    }

    /// Free every region allocated since `mark` and rewind the row cursor,
    /// so the next allocations reuse their rows and region ids. Ids handed
    /// out after the mark are invalid afterwards. The freed storage
    /// replaces whatever the previous rewind left for
    /// [`BankMemory::alloc_copy`].
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current allocation history.
    pub fn truncate(&mut self, mark: AllocMark) {
        assert!(
            mark.regions <= self.regions.len() && mark.next_row <= self.next_row,
            "allocation mark {mark:?} is beyond the bank's history ({} regions, {} rows)",
            self.regions.len(),
            self.next_row
        );
        self.spare.clear();
        self.spare
            .extend(self.regions.drain(mark.regions..).rev().map(|r| r.data));
        self.next_row = mark.next_row;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_row_aligned() {
        let mut m = BankMemory::new(1024);
        let a = m.alloc(8, vec![1.0; 10]); // 80 B -> 1 row
        let b = m.alloc(8, vec![2.0; 200]); // 1600 B -> 2 rows
        let c = m.alloc_zeroed(1, 3000); // 3000 B -> 3 rows
        assert_eq!(m.region(a).start_row(), 0);
        assert_eq!(m.region(b).start_row(), 1);
        assert_eq!(m.region(c).start_row(), 3);
        assert_eq!(m.rows_used(), 6);
        assert_eq!(m.num_regions(), 3);
    }

    #[test]
    fn row_of_tracks_offsets() {
        let mut m = BankMemory::new(1024);
        let id = m.alloc(8, vec![0.0; 300]);
        let r = m.region(id);
        assert_eq!(r.row_of(0, 1024), 0);
        assert_eq!(r.row_of(127, 1024), 0);
        assert_eq!(r.row_of(128, 1024), 1);
        assert_eq!(r.row_of(299, 1024), 2);
        assert_eq!(r.rows_spanned(1024), 3);
    }

    #[test]
    fn get_set_bounds_behaviour() {
        let mut m = BankMemory::new(64);
        let id = m.alloc(8, vec![1.0, 2.0]);
        assert_eq!(m.region(id).get(1), 2.0);
        assert_eq!(m.region(id).get(99), 0.0);
        m.region_mut(id).set(0, 7.0);
        m.region_mut(id).set(99, 9.0); // dropped
        assert_eq!(m.region(id).get(0), 7.0);
        assert_eq!(m.region(id).len(), 2);
    }

    #[test]
    fn truncate_rewinds_regions_and_rows_to_the_mark() {
        let mut m = BankMemory::new(1024);
        let keep = m.alloc(8, vec![1.0; 200]); // rows 0-1
        let mark = m.mark();
        assert_eq!(m.mark(), mark, "marking does not allocate");
        let a = m.alloc(8, vec![2.0; 10]); // row 2
        let b = m.alloc(8, vec![3.0; 300]); // rows 3-5
        assert_eq!((m.num_regions(), m.rows_used()), (3, 6));
        m.truncate(mark);
        assert_eq!((m.num_regions(), m.rows_used()), (1, 2));
        assert_eq!(
            m.region(keep).data(),
            &[1.0; 200][..],
            "regions below the mark stay"
        );
        // The next allocation takes the freed id and rows.
        let c = m.alloc(8, vec![4.0; 5]);
        assert_eq!(c, a);
        assert_eq!(m.region(c).start_row(), 2);
        assert_eq!(m.region(c).data(), &[4.0; 5][..]);
        assert_ne!(c, b);
        // Truncating to the current end changes nothing.
        let end = m.mark();
        m.truncate(end);
        assert_eq!((m.num_regions(), m.rows_used()), (2, 3));
    }

    #[test]
    #[should_panic(expected = "beyond the bank's history")]
    fn truncate_past_the_history_panics() {
        let mut m = BankMemory::new(64);
        m.alloc(8, vec![0.0; 4]);
        let mark = m.mark();
        m.truncate(BankMemory::new(64).mark());
        m.truncate(mark);
    }

    #[test]
    fn alloc_copy_reuses_the_storage_truncate_freed() {
        let mut m = BankMemory::new(1024);
        m.alloc(8, vec![1.0; 4]); // row 0
        let kept = m.clone();
        let mark = m.mark();
        let a = m.alloc_copy(8, &[2.0; 300]); // rows 1-3
        let b = m.alloc_copy(8, &[3.0; 5]); // row 4
        let storage = |m: &BankMemory, id| m.region(id).data().as_ptr();
        let (pa, pb) = (storage(&m, a), storage(&m, b));
        m.truncate(mark);
        assert_eq!(m, kept, "freed storage is not part of the bank's value");
        // The next allocations take the freed storage in allocation order.
        let a2 = m.alloc_copy(8, &[4.0; 200]); // rows 1-2
        let b2 = m.alloc_copy(8, &[5.0; 2]); // row 3
        assert_eq!((a2, b2), (a, b));
        assert_eq!((storage(&m, a2), storage(&m, b2)), (pa, pb));
        assert_eq!(m.region(a2).data(), &[4.0; 200][..]);
        assert_eq!(m.region(b2).data(), &[5.0; 2][..]);
        assert_eq!((m.region(b2).start_row(), m.rows_used()), (3, 4));
    }

    #[test]
    fn pu_accessors_log_reads_and_writes_and_host_accessors_do_not() {
        let mut m = BankMemory::new(64);
        let a = m.alloc(8, vec![0.0, 1.0]);
        let b = m.alloc(8, vec![2.0]);
        let _ = m.region(a);
        m.region_mut(b).set(0, 3.0);
        assert!(!m.wrote(), "host stores are not logged");
        let mut other = m.clone();
        other.region_mut(a).set(0, -0.0);
        assert!(m.same_layout(&other));
        assert!(m.same_reads(&other), "nothing was read yet");
        let _ = m.read(a, 1..9);
        assert!(m.same_reads(&other), "element 0 was not read");
        let _ = m.read(a, 0..1);
        assert!(
            !m.same_reads(&other),
            "-0.0 differs from 0.0 in a read span"
        );
        other.region_mut(a).set(0, 0.0);
        other.region_mut(b).set(0, 9.0);
        assert!(m.same_reads(&other), "region b was not read");
        let _ = m.write(b);
        assert!(m.wrote());
        m.clear_accesses();
        assert!(!m.wrote());
        other.alloc(8, vec![]);
        assert!(!m.same_layout(&other));
    }

    #[test]
    fn empty_region_spans_one_row() {
        let mut m = BankMemory::new(1024);
        let id = m.alloc(8, vec![]);
        assert!(m.region(id).is_empty());
        assert_eq!(m.region(id).rows_spanned(1024), 1);
    }
}
