//! Registered pinned memory regions.
//!
//! A [`Region`] models one contiguous range of pinned, NIC-registered memory
//! carved into fixed power-of-two slots. Each slot has its own atomic
//! reference count, exactly as in the paper's `RcBuf` (Listing 2): the count
//! lives in a side table so that recovering it from a raw data pointer is a
//! range lookup plus index arithmetic.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicU32, Ordering};

use std::sync::Mutex;

use crate::stats::MemStats;

/// Alignment of region backing memory. 4 KiB matches page-pinned DMA memory.
pub const REGION_ALIGN: usize = 4096;

/// Reference counts per cache line of the side table.
const COUNTS_PER_LINE: usize = 16;

/// One 64-byte line of the refcount side table. Line alignment pins every
/// slot's count to the same line offset whatever else the heap holds, so the
/// cache model's hit/miss pattern on refcounts does not depend on earlier
/// allocations.
#[derive(Debug, Default)]
#[repr(align(64))]
struct RefcountLine([AtomicU32; COUNTS_PER_LINE]);

/// One registered pinned region: `num_slots` slots of `slot_size` bytes each.
///
/// The backing storage is a raw allocation rather than a `Box<[u8]>` so that
/// reads and writes through derived raw pointers never alias a Rust
/// reference to the buffer: all access to slot bytes goes through
/// [`Region::slot_ptr`] and the accessors on [`crate::RcBuf`].
#[derive(Debug)]
pub struct Region {
    base: *mut u8,
    layout: Layout,
    slot_size: usize,
    num_slots: usize,
    /// Per-slot reference counts, line-aligned; see [`Region::count`].
    refcounts: Box<[RefcountLine]>,
    /// Stack of free slot indices.
    free: Mutex<Vec<u32>>,
    /// Stable identifier assigned by the registry.
    id: u32,
    /// Shared statistics cells (slot lifecycle, refcount traffic).
    stats: MemStats,
}

// SAFETY: `Region` owns its allocation exclusively; raw-pointer access to
// slot bytes is coordinated by the slot reference counts and (in this
// simulation) by the single-threaded-per-machine execution model. The free
// list is mutex-protected and refcounts are atomic, so the bookkeeping
// itself is thread-safe.
unsafe impl Send for Region {}
// SAFETY: See `Send` above; shared access only touches atomics, the mutex,
// and immutable geometry fields, or goes through raw pointers whose
// concurrent use the Cornflakes memory model forbids (no in-place writes
// during sends, paper §3/§4.1).
unsafe impl Sync for Region {}

impl Region {
    /// Allocates a region with `num_slots` slots of `slot_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `slot_size` is not a power of two, either dimension is
    /// zero, or the allocation fails.
    pub fn new(id: u32, slot_size: usize, num_slots: usize) -> Self {
        Self::with_stats(id, slot_size, num_slots, MemStats::default())
    }

    /// [`Region::new`] reporting slot/refcount traffic into shared `stats`
    /// cells (the registry passes its own).
    pub fn with_stats(id: u32, slot_size: usize, num_slots: usize, stats: MemStats) -> Self {
        assert!(
            slot_size.is_power_of_two(),
            "slot size must be a power of two"
        );
        assert!(num_slots > 0, "region must have at least one slot");
        let bytes = slot_size
            .checked_mul(num_slots)
            .expect("region size overflows usize");
        let layout = Layout::from_size_align(bytes, REGION_ALIGN).expect("bad region layout");
        // SAFETY: `layout` has non-zero size (checked above) and valid
        // alignment; a null return is handled by the explicit panic.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "region allocation of {bytes} bytes failed");
        let refcounts = (0..num_slots.div_ceil(COUNTS_PER_LINE))
            .map(|_| RefcountLine::default())
            .collect();
        // Hand slots out low-to-high for address locality.
        let free = (0..num_slots as u32).rev().collect();
        Region {
            base,
            layout,
            slot_size,
            num_slots,
            refcounts,
            free: Mutex::new(free),
            id,
            stats,
        }
    }

    /// The registry-assigned region id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Base address of the region.
    pub fn base_addr(&self) -> u64 {
        self.base as u64
    }

    /// Total size of the region in bytes.
    pub fn len(&self) -> usize {
        self.slot_size * self.num_slots
    }

    /// True only for a zero-sized region (cannot be constructed; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of each slot in bytes.
    pub fn slot_size(&self) -> usize {
        self.slot_size
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Number of currently free slots.
    pub fn free_slots(&self) -> usize {
        self.free.lock().unwrap().len()
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base_addr() && addr < self.base_addr() + self.len() as u64
    }

    /// Slot index containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is outside the region.
    pub fn slot_of(&self, addr: u64) -> u32 {
        debug_assert!(self.contains(addr));
        ((addr - self.base_addr()) as usize / self.slot_size) as u32
    }

    /// Raw pointer to the start of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_ptr(&self, slot: u32) -> *mut u8 {
        assert!((slot as usize) < self.num_slots, "slot out of range");
        // SAFETY: `slot * slot_size` is within the allocation (checked
        // above), so the offset stays in bounds of the same object.
        unsafe { self.base.add(slot as usize * self.slot_size) }
    }

    /// The reference count of `slot`.
    fn count(&self, slot: u32) -> &AtomicU32 {
        let slot = slot as usize;
        &self.refcounts[slot / COUNTS_PER_LINE].0[slot % COUNTS_PER_LINE]
    }

    /// Address of the reference count for `slot` — the "metadata address"
    /// that upper layers charge cache costs against.
    pub fn refcount_addr(&self, slot: u32) -> u64 {
        self.count(slot) as *const AtomicU32 as u64
    }

    /// Current reference count of `slot` (test/diagnostic use).
    pub fn refcount(&self, slot: u32) -> u32 {
        self.count(slot).load(Ordering::Acquire)
    }

    /// Pops a free slot, setting its refcount to one. Returns `None` when
    /// the region is exhausted.
    pub fn take_slot(&self) -> Option<u32> {
        let slot = self.free.lock().unwrap().pop()?;
        let prev = self.count(slot).swap(1, Ordering::AcqRel);
        debug_assert_eq!(prev, 0, "free slot had live references");
        self.stats.slot_taken();
        Some(slot)
    }

    /// Increments the refcount of a live slot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slot was free (count zero): recovering
    /// a pointer into freed memory indicates an application bug.
    pub fn incref(&self, slot: u32) {
        let prev = self.count(slot).fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "incref on a free slot");
        self.stats.increfs.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements the refcount of `slot`; at zero the slot returns to the
    /// free list.
    pub fn decref(&self, slot: u32) {
        let prev = self.count(slot).fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "decref underflow");
        self.stats.decrefs.fetch_add(1, Ordering::Relaxed);
        if prev == 1 {
            self.free.lock().unwrap().push(slot);
            self.stats.slot_freed();
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `base` was allocated with exactly this layout in `new` and
        // is only deallocated here, once, when the last Arc reference drops.
        unsafe { dealloc(self.base, self.layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let r = Region::new(0, 1024, 8);
        assert_eq!(r.len(), 8192);
        assert_eq!(r.slot_size(), 1024);
        assert_eq!(r.num_slots(), 8);
        assert_eq!(r.free_slots(), 8);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Region::new(0, 1000, 4);
    }

    #[test]
    fn take_and_release_slots() {
        let r = Region::new(0, 64, 2);
        let a = r.take_slot().unwrap();
        let b = r.take_slot().unwrap();
        assert_ne!(a, b);
        assert!(r.take_slot().is_none(), "region should be exhausted");
        r.decref(a);
        assert_eq!(r.free_slots(), 1);
        let c = r.take_slot().unwrap();
        assert_eq!(c, a, "freed slot is reused");
        r.decref(b);
        r.decref(c);
        assert_eq!(r.free_slots(), 2);
    }

    #[test]
    fn refcounting() {
        let r = Region::new(0, 64, 1);
        let s = r.take_slot().unwrap();
        assert_eq!(r.refcount(s), 1);
        r.incref(s);
        assert_eq!(r.refcount(s), 2);
        r.decref(s);
        assert_eq!(r.refcount(s), 1);
        assert_eq!(r.free_slots(), 0, "still referenced");
        r.decref(s);
        assert_eq!(r.free_slots(), 1);
    }

    #[test]
    fn slots_are_low_to_high_and_disjoint() {
        let r = Region::new(0, 128, 4);
        let s0 = r.take_slot().unwrap();
        let s1 = r.take_slot().unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        let p0 = r.slot_ptr(s0) as u64;
        let p1 = r.slot_ptr(s1) as u64;
        assert_eq!(p1 - p0, 128);
    }

    #[test]
    fn contains_and_slot_of() {
        let r = Region::new(0, 256, 4);
        let base = r.base_addr();
        assert!(r.contains(base));
        assert!(r.contains(base + 1023));
        assert!(!r.contains(base + 1024));
        assert!(!r.contains(base.wrapping_sub(1)));
        assert_eq!(r.slot_of(base + 300), 1);
    }

    #[test]
    fn memory_is_zeroed_and_writable() {
        let r = Region::new(0, 64, 2);
        let s = r.take_slot().unwrap();
        let p = r.slot_ptr(s);
        // SAFETY: `s` is a live slot we exclusively hold; the 64-byte range
        // is in bounds.
        unsafe {
            assert_eq!(std::slice::from_raw_parts(p, 64), &[0u8; 64][..]);
            p.write(0xAB);
            assert_eq!(p.read(), 0xAB);
        }
        r.decref(s);
    }

    #[test]
    fn alignment() {
        let r = Region::new(0, 512, 4);
        assert_eq!(r.base_addr() % REGION_ALIGN as u64, 0);
    }
}
