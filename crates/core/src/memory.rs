//! Per-bank memory model.
//!
//! Each bank's contents are organized as named *regions* — contiguous,
//! row-aligned element arrays (a submatrix's row/col/val stream, the input
//! vector slice, the output slice, ...). The engine uses a region's row
//! span to know which DRAM row must be open for an access; the processing
//! unit reads and writes region elements functionally.
//!
//! Values are carried as `f64` (index streams store their indices as exact
//! small integers, with `-1.0` as the paper's end-of-data sentinel);
//! `elem_bytes` controls how many elements one 32 B burst moves and how
//! many DRAM rows the region occupies.

use serde::{Deserialize, Serialize};

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

/// A named, row-aligned element array in a bank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    name: String,
    start_row: u32,
    elem_bytes: usize,
    data: Vec<f64>,
}

impl Region {
    /// Region name (diagnostic).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BankMemory {
    row_bytes: usize,
    next_row: u32,
    regions: Vec<Region>,
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
            next_row: 0,
            regions: Vec::new(),
        }
    }

    /// DRAM row size.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Allocate a region holding `data`, rounded up to whole rows.
    pub fn alloc(
        &mut self,
        name: impl Into<String>,
        elem_bytes: usize,
        data: Vec<f64>,
    ) -> RegionId {
        let region = Region {
            name: name.into(),
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
    pub fn alloc_zeroed(
        &mut self,
        name: impl Into<String>,
        elem_bytes: usize,
        len: usize,
    ) -> RegionId {
        self.alloc(name, elem_bytes, vec![0.0; len])
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
    /// out after the mark are invalid afterwards.
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
        self.regions.truncate(mark.regions);
        self.next_row = mark.next_row;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_row_aligned() {
        let mut m = BankMemory::new(1024);
        let a = m.alloc("a", 8, vec![1.0; 10]); // 80 B -> 1 row
        let b = m.alloc("b", 8, vec![2.0; 200]); // 1600 B -> 2 rows
        let c = m.alloc_zeroed("c", 1, 3000); // 3000 B -> 3 rows
        assert_eq!(m.region(a).start_row(), 0);
        assert_eq!(m.region(b).start_row(), 1);
        assert_eq!(m.region(c).start_row(), 3);
        assert_eq!(m.rows_used(), 6);
        assert_eq!(m.num_regions(), 3);
    }

    #[test]
    fn row_of_tracks_offsets() {
        let mut m = BankMemory::new(1024);
        let id = m.alloc("mat", 8, vec![0.0; 300]);
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
        let id = m.alloc("v", 8, vec![1.0, 2.0]);
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
        let keep = m.alloc("keep", 8, vec![1.0; 200]); // rows 0-1
        let mark = m.mark();
        assert_eq!(m.mark(), mark, "marking does not allocate");
        let a = m.alloc("a", 8, vec![2.0; 10]); // row 2
        let b = m.alloc("b", 8, vec![3.0; 300]); // rows 3-5
        assert_eq!((m.num_regions(), m.rows_used()), (3, 6));
        m.truncate(mark);
        assert_eq!((m.num_regions(), m.rows_used()), (1, 2));
        assert_eq!(
            m.region(keep).data(),
            &[1.0; 200][..],
            "regions below the mark stay"
        );
        // The next allocation takes the freed id and rows.
        let c = m.alloc("c", 8, vec![4.0; 5]);
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
        m.alloc("a", 8, vec![0.0; 4]);
        let mark = m.mark();
        m.truncate(BankMemory::new(64).mark());
        m.truncate(mark);
    }

    #[test]
    fn empty_region_spans_one_row() {
        let mut m = BankMemory::new(1024);
        let id = m.alloc("e", 8, vec![]);
        assert!(m.region(id).is_empty());
        assert_eq!(m.region(id).rows_spanned(1024), 1);
    }
}
