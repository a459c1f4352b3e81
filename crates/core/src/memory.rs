//! Per-bank memory model.
//!
//! Each bank's contents are organized as *regions* — contiguous,
//! row-aligned element arrays (a submatrix's row/col/val stream, the input
//! vector slice, the output slice, ...). The engine uses a region's row
//! span to know which DRAM row must be open for an access; the processing
//! unit reads and writes region elements functionally.
//!
//! A region may reserve more elements than it stores: its rows, and the
//! start rows of the regions after it, follow the reservation, while only
//! the stored prefix takes host memory. Elements past the stored prefix
//! read as the quiet zero and drop stores, as elements past a region's end
//! do. An all-bank launch uses this to give every bank the same rows while
//! each bank stores only the stream it reads (DESIGN.md §5); a processing
//! unit never reads the unstored tail, which debug builds assert. The host
//! replaces a region's stored prefix with [`BankMemory::store`], within
//! the reservation, so one layout serves a sequence of launches without
//! moving a row.
//!
//! A stored prefix is an `Rc<[f64]>`, so regions of many banks may hold
//! one *image*: [`BankMemory::store_shared`] and
//! [`BankMemory::alloc_shared`] give a region the caller's image without
//! copying it, as every idle bank of a sparse stream launch holds the same
//! padding. Every write first makes the region's storage its own (a copy
//! when the image is shared), so a write into one bank never reaches
//! another: the processing unit's `BankMemory::write` once per call, the
//! host's [`Region::set`] and [`Region::data_mut`] likewise. Two regions
//! that hold one image hold equal elements, which the engine's read
//! comparison (`BankMemory::same_reads`) takes without comparing them.
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
use std::rc::Rc;

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
    /// Elements the region's rows are reserved for; at least `data.len()`.
    reserved: usize,
    /// The stored prefix, possibly one image with other regions'.
    data: Rc<[f64]>,
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

    /// Number of stored elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Number of elements the region's rows are reserved for (at least
    /// [`Region::len`]).
    #[must_use]
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Whether the region stores no element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the contents.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the contents, first making them the region's own
    /// (a copy when its image is shared).
    pub fn data_mut(&mut self) -> &mut [f64] {
        Rc::make_mut(&mut self.data)
    }

    /// Element at `idx`, or 0 past the stored prefix (reads beyond it
    /// return the quiet zero pattern).
    #[must_use]
    pub fn get(&self, idx: usize) -> f64 {
        self.data.get(idx).copied().unwrap_or(0.0)
    }

    /// Store at `idx`; silently dropped past the stored prefix. A stored
    /// element first makes the contents the region's own.
    pub fn set(&mut self, idx: usize, v: f64) {
        if idx < self.data.len() {
            self.data_mut()[idx] = v;
        }
    }

    /// DRAM rows this region's reservation spans for a given row size.
    #[must_use]
    pub fn rows_spanned(&self, row_bytes: usize) -> u32 {
        let bytes = self.reserved * self.elem_bytes;
        (bytes.div_ceil(row_bytes)).max(1) as u32
    }

    /// The DRAM row containing element `idx`.
    #[must_use]
    pub fn row_of(&self, idx: usize, row_bytes: usize) -> u32 {
        self.start_row + (idx * self.elem_bytes / row_bytes) as u32
    }
}

/// The processing unit's view of a region it stores into: the region's
/// own stored prefix. Past it, reads see the quiet zero and stores drop.
#[derive(Debug)]
pub(crate) struct RegionWriter<'a>(&'a mut [f64]);

impl RegionWriter<'_> {
    /// Element at `idx`, or 0 past the stored prefix.
    pub(crate) fn get(&self, idx: usize) -> f64 {
        self.0.get(idx).copied().unwrap_or(0.0)
    }

    /// Store at `idx`; silently dropped past the stored prefix.
    pub(crate) fn set(&mut self, idx: usize, v: f64) {
        if let Some(slot) = self.0.get_mut(idx) {
            *slot = v;
        }
    }
}

/// One bank's memory: a row-aligned arena of regions.
///
/// Two banks are equal when their layouts and contents are; the access log
/// is not part of a bank's value.
#[derive(Debug, Clone, Default)]
pub struct BankMemory {
    row_bytes: usize,
    next_row: u32,
    regions: Vec<Region>,
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

/// Refuse a region storing `len` elements in rows reserved for fewer.
fn assert_fits(len: usize, reserved: usize) {
    assert!(
        len <= reserved,
        "a region storing {len} elements reserves only {reserved}"
    );
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
        self.push(elem_bytes, data.len(), data.into())
    }

    /// Place a region storing `data` in rows reserved for `reserved`
    /// elements, after the last region.
    fn push(&mut self, elem_bytes: usize, reserved: usize, data: Rc<[f64]>) -> RegionId {
        let region = Region {
            start_row: self.next_row,
            elem_bytes,
            reserved,
            data,
        };
        self.next_row += region.rows_spanned(self.row_bytes);
        let id = RegionId(self.regions.len());
        self.regions.push(region);
        id
    }

    /// Allocate a zero-filled region of `len` elements.
    pub fn alloc_zeroed(&mut self, elem_bytes: usize, len: usize) -> RegionId {
        self.push(elem_bytes, len, std::iter::repeat_n(0.0, len).collect())
    }

    /// Allocate a region holding a copy of `data`.
    pub fn alloc_copy(&mut self, elem_bytes: usize, data: &[f64]) -> RegionId {
        self.alloc_reserved(elem_bytes, data.len(), data)
    }

    /// [`BankMemory::alloc_copy`] for a region that reserves rows for
    /// `reserved` elements but stores only `data`, its prefix.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than `reserved`.
    pub fn alloc_reserved(&mut self, elem_bytes: usize, reserved: usize, data: &[f64]) -> RegionId {
        assert_fits(data.len(), reserved);
        self.push(elem_bytes, reserved, data.into())
    }

    /// [`BankMemory::alloc_reserved`] for a region that stores `image`
    /// itself, not a copy: it holds one image with every region given the
    /// same `Rc` until a write makes its storage its own.
    ///
    /// # Panics
    ///
    /// Panics if `image` is longer than `reserved`.
    pub fn alloc_shared(
        &mut self,
        elem_bytes: usize,
        reserved: usize,
        image: &Rc<[f64]>,
    ) -> RegionId {
        assert_fits(image.len(), reserved);
        self.push(elem_bytes, reserved, Rc::clone(image))
    }

    /// Replace region `id`'s stored prefix with `data`. The region keeps
    /// its rows and its reservation, so no region moves. Storage the region
    /// holds alone and of `data`'s length is overwritten in place; any
    /// other (a shared image, another length) is replaced by a fresh
    /// allocation of exactly `data`'s length.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id, or if `data` is longer than the region's
    /// reservation.
    pub fn store(&mut self, id: RegionId, data: &[f64]) {
        let region = self.storable(id, data.len());
        match Rc::get_mut(&mut region.data) {
            Some(own) if own.len() == data.len() => own.copy_from_slice(data),
            _ => region.data = data.into(),
        }
    }

    /// [`BankMemory::store`] of `image` itself, not a copy: region `id`
    /// then holds one image with every region given the same `Rc`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id, or if `image` is longer than the region's
    /// reservation.
    pub fn store_shared(&mut self, id: RegionId, image: &Rc<[f64]>) {
        self.storable(id, image.len()).data = Rc::clone(image);
    }

    /// Region `id`, once checked that its reservation holds `len` stored
    /// elements.
    fn storable(&mut self, id: RegionId, len: usize) -> &mut Region {
        let region = &mut self.regions[id.0];
        assert!(
            len <= region.reserved,
            "storing {len} elements in region {id:?} past its reservation of {}",
            region.reserved
        );
        region
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
    /// elements `range` may be read. The log is clipped to the stored
    /// prefix: reads past it see the quiet zero, which only the region's
    /// layout decides. A processing unit never reads elements a region
    /// reserves but does not store (debug builds assert it).
    pub(crate) fn read(&mut self, id: RegionId, range: Range<usize>) -> &Region {
        let (len, reserved) = (self.regions[id.0].data.len(), self.regions[id.0].reserved);
        debug_assert!(
            range.start.max(len) >= range.end.min(reserved),
            "read {range:?} of region {id:?} reaches its unstored elements {len}..{reserved}"
        );
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

    /// The processing unit's store path: log a write, whether or not an
    /// element is then stored, and make the region's storage its own (a
    /// copy when its image is shared), once per call.
    pub(crate) fn write(&mut self, id: RegionId) -> RegionWriter<'_> {
        self.wrote = true;
        RegionWriter(self.regions[id.0].data_mut())
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

    /// Make this bank's access log equal to `other`'s.
    pub(crate) fn copy_accesses_from(&mut self, other: &BankMemory) {
        self.reads.clone_from(&other.reads);
        self.wrote = other.wrote;
    }

    /// Whether both banks logged the same accesses.
    #[cfg(debug_assertions)]
    pub(crate) fn same_accesses(&self, other: &BankMemory) -> bool {
        self.reads == other.reads && self.wrote == other.wrote
    }

    /// Make this bank equal to `src`, access log included: its regions
    /// hold `src`'s images, which a write into either bank then copies.
    #[cfg(debug_assertions)]
    pub(crate) fn copy_from(&mut self, src: &BankMemory) {
        self.row_bytes = src.row_bytes;
        self.next_row = src.next_row;
        self.regions.clone_from(&src.regions);
        self.copy_accesses_from(src);
    }

    /// Whether [`BankMemory::write`] was called since the last clear.
    pub(crate) fn wrote(&self) -> bool {
        self.wrote
    }

    /// Whether both banks have the same row size and the same regions at
    /// the same rows, with the same element widths and the same stored and
    /// reserved lengths.
    pub(crate) fn same_layout(&self, other: &BankMemory) -> bool {
        self.row_bytes == other.row_bytes
            && self.regions.len() == other.regions.len()
            && self.regions.iter().zip(&other.regions).all(|(a, b)| {
                a.start_row == b.start_row
                    && a.elem_bytes == b.elem_bytes
                    && a.data.len() == b.data.len()
                    && a.reserved == b.reserved
            })
    }

    /// Whether `other` holds bit-identical contents in every element span
    /// this bank logged a read of. Regions that hold one image are equal
    /// without a comparison (debug builds compare them anyway). Assumes
    /// [`BankMemory::same_layout`].
    pub(crate) fn same_reads(&self, other: &BankMemory) -> bool {
        self.reads.iter().enumerate().all(|(id, &(lo, hi))| {
            let (a, b) = (&self.regions[id].data, &other.regions[id].data);
            if lo >= hi {
                true
            } else if Rc::ptr_eq(a, b) {
                debug_assert!(same_bits(&a[lo..hi], &b[lo..hi]));
                true
            } else {
                same_bits(&a[lo..hi], &b[lo..hi])
            }
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
    fn a_reserved_region_spans_its_reservation_and_stores_its_prefix() {
        let mut m = BankMemory::new(1024);
        let a = m.alloc_reserved(8, 300, &[1.0, 2.0]); // 2400 B -> 3 rows
        let b = m.alloc(8, vec![3.0; 4]);
        let r = m.region(a);
        assert_eq!((r.len(), r.reserved(), r.rows_spanned(1024)), (2, 300, 3));
        assert_eq!(
            m.region(b).start_row(),
            3,
            "the next region follows the reservation"
        );
        assert_eq!(m.rows_used(), 4);
        // Past the stored prefix, reads see the quiet zero and stores drop.
        assert_eq!(m.read(a, 0..2).get(1), 2.0);
        assert_eq!(m.region(a).get(2), 0.0);
        assert_eq!(m.region(a).get(299), 0.0);
        m.region_mut(a).set(5, 9.0);
        assert_eq!((m.region(a).len(), m.region(a).get(5)), (2, 0.0));
    }

    #[test]
    fn same_layout_compares_stored_and_reserved_lengths() {
        let bank = |stored: usize, reserved: usize| {
            let mut m = BankMemory::new(1024);
            m.alloc_reserved(8, reserved, &vec![0.0; stored]);
            m
        };
        assert!(bank(2, 100).same_layout(&bank(2, 100)));
        assert!(
            !bank(2, 100).same_layout(&bank(3, 100)),
            "stored length differs"
        );
        assert!(
            !bank(2, 100).same_layout(&bank(2, 101)),
            "reserved length differs"
        );
        assert!(!bank(2, 2).same_layout(&bank(2, 100)));
    }

    #[test]
    fn store_replaces_the_prefix_and_moves_no_row() {
        let mut m = BankMemory::new(1024);
        let a = m.alloc(8, vec![1.0; 4]); // row 0
        let b = m.alloc_reserved(8, 300, &[2.0; 24]); // rows 1-3
        let c = m.alloc_zeroed(8, 5); // row 4
        let rows = |m: &BankMemory| [a, b, c].map(|id| m.region(id).start_row());
        let before = (rows(&m), m.rows_used());
        for len in [300, 0, 24, 120] {
            let data: Vec<f64> = (0..len).map(|i| i as f64 + 0.5).collect();
            m.store(b, &data);
            assert_eq!((rows(&m), m.rows_used()), before, "stored {len}");
            let r = m.region(b);
            assert_eq!((r.data(), r.reserved()), (&data[..], 300));
            // Past the stored prefix, reads see the quiet zero.
            assert_eq!(r.get(len), 0.0);
            assert_eq!(r.get(299), if len == 300 { 299.5 } else { 0.0 });
        }
        // The neighbours keep their contents.
        assert_eq!(m.region(a).data(), &[1.0; 4][..]);
        assert_eq!(m.region(c).data(), &[0.0; 5][..]);
    }

    #[test]
    #[should_panic(
        expected = "storing 13 elements in region RegionId(0) past its reservation of 12"
    )]
    fn storing_past_the_reservation_panics() {
        let mut m = BankMemory::new(64);
        let a = m.alloc_reserved(8, 12, &[1.0; 6]);
        m.store(a, &[2.0; 12]);
        m.store(a, &[3.0; 13]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reaches its unstored elements 6..12")]
    fn a_pu_read_into_the_unstored_tail_panics() {
        let mut m = BankMemory::new(64);
        let a = m.alloc_reserved(8, 12, &[1.0; 6]);
        let _ = m.read(a, 0..6);
        let _ = m.read(a, 12..16); // past the reservation: the quiet zero
        let _ = m.read(a, 4..8);
    }

    #[test]
    fn banks_sharing_an_image_write_their_own_copies() {
        // Two banks hold one image. Each way of writing into one of them
        // (a PU write, a host set, a host slice, a store of the same
        // length) leaves the other holding the image, bit for bit.
        type Write = dyn Fn(&mut BankMemory, RegionId);
        let image: Rc<[f64]> = Rc::from([1.0, 2.0, 3.0, 4.0]);
        let bank = || {
            let mut m = BankMemory::new(64);
            let id = m.alloc_shared(8, 8, &image);
            (m, id)
        };
        let writes: [(&str, &Write); 4] = [
            ("a PU write", &|m, id| m.write(id).set(1, -0.0)),
            ("a host set", &|m, id| m.region_mut(id).set(1, -0.0)),
            ("a host slice", &|m, id| {
                m.region_mut(id).data_mut()[1] = -0.0;
            }),
            ("a store", &|m, id| m.store(id, &[1.0, -0.0, 3.0, 4.0])),
        ];
        let bits = |data: &[f64]| -> Vec<u64> { data.iter().map(|v| v.to_bits()).collect() };
        for (what, write) in writes {
            let ((mut a, id), (b, _)) = (bank(), bank());
            let _ = a.read(id, 0..4);
            assert!(a.same_reads(&b), "{what}: one image");
            write(&mut a, id);
            assert_eq!(bits(b.region(id).data()), bits(&image), "{what}");
            assert!(Rc::ptr_eq(&b.region(id).data, &image), "{what}");
            assert_eq!(a.region(id).get(1).to_bits(), (-0.0f64).to_bits(), "{what}");
            assert!(!a.same_reads(&b), "{what}: -0.0 differs from 2.0");
        }
        // A store of another length replaces only that bank's storage, and
        // storing the image back shares it again.
        let ((mut a, id), (b, _)) = (bank(), bank());
        a.store(id, &[5.0; 8]);
        assert_eq!(b.region(id).data(), &image[..]);
        assert_eq!(a.region(id).data(), &[5.0; 8][..]);
        a.store_shared(id, &image);
        assert!(Rc::ptr_eq(&a.region(id).data, &b.region(id).data));
    }

    #[test]
    #[should_panic(expected = "storing 3 elements in region RegionId(0) past its reservation of 2")]
    fn storing_a_shared_image_past_the_reservation_panics() {
        let mut m = BankMemory::new(64);
        let a = m.alloc_zeroed(8, 2);
        m.store_shared(a, &Rc::from([1.0; 3]));
    }

    #[test]
    fn empty_region_spans_one_row() {
        let mut m = BankMemory::new(1024);
        let id = m.alloc(8, vec![]);
        assert!(m.region(id).is_empty());
        assert_eq!(m.region(id).rows_spanned(1024), 1);
    }
}
