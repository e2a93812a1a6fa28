//! The pinned memory allocator.
//!
//! The Cornflakes networking stack includes "a pinned memory allocator ...
//! that allocates power-of-two-sized objects" (paper §4). [`PinnedPool`]
//! implements it as a size-class slab allocator over registered
//! [`crate::region::Region`]s: each class holds regions whose slots are one
//! power-of-two size; allocation pops a free slot from the smallest class
//! that fits, growing the class with a fresh region on exhaustion (up to a
//! configurable cap).

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use std::sync::Mutex;

use crate::rcbuf::RcBuf;
use crate::region::Region;
use crate::registry::Registry;

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// Requested size exceeds the largest size class.
    SizeTooLarge {
        /// The rejected request size.
        requested: usize,
        /// The largest supported allocation.
        max: usize,
    },
    /// All regions of the class are full and the region cap was reached.
    Exhausted {
        /// The size class that ran out.
        class: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::SizeTooLarge { requested, max } => {
                write!(f, "allocation of {requested} bytes exceeds max class {max}")
            }
            AllocError::Exhausted { class } => {
                write!(f, "size class {class} exhausted (region cap reached)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Pool geometry.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Smallest slot size (power of two).
    pub min_class: usize,
    /// Largest slot size (power of two). The paper's prototype supports up
    /// to a jumbo frame; 16 KiB leaves headroom for headers.
    pub max_class: usize,
    /// Slots per region.
    pub slots_per_region: usize,
    /// Maximum regions per class before `alloc` reports exhaustion.
    pub max_regions_per_class: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            min_class: 64,
            max_class: 16 * 1024,
            slots_per_region: 1024,
            max_regions_per_class: 64,
        }
    }
}

impl PoolConfig {
    /// A small configuration for unit tests.
    pub fn small_for_tests() -> Self {
        PoolConfig {
            min_class: 64,
            max_class: 8 * 1024,
            slots_per_region: 8,
            max_regions_per_class: 8,
        }
    }
}

struct SizeClass {
    slot_size: usize,
    regions: Vec<Arc<Region>>,
}

/// A pinned, registered, size-class slab allocator.
pub struct PinnedPool {
    registry: Registry,
    config: PoolConfig,
    classes: Mutex<Vec<SizeClass>>,
}

impl PinnedPool {
    /// Creates a pool whose regions are registered with `registry`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not power-of-two sized or empty.
    pub fn new(registry: Registry, config: PoolConfig) -> Self {
        assert!(config.min_class.is_power_of_two() && config.max_class.is_power_of_two());
        assert!(config.min_class <= config.max_class);
        assert!(config.slots_per_region > 0 && config.max_regions_per_class > 0);
        let mut classes = Vec::new();
        let mut size = config.min_class;
        while size <= config.max_class {
            classes.push(SizeClass {
                slot_size: size,
                regions: Vec::new(),
            });
            size *= 2;
        }
        PinnedPool {
            registry,
            config,
            classes: Mutex::new(classes),
        }
    }

    /// The registry this pool registers regions with.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Allocates a pinned buffer of exactly `size` bytes (the backing slot
    /// is the smallest power-of-two class that fits). The returned `RcBuf`
    /// holds the slot's only reference.
    pub fn alloc(&self, size: usize) -> Result<RcBuf, AllocError> {
        let size = size.max(1);
        if size > self.config.max_class {
            return Err(AllocError::SizeTooLarge {
                requested: size,
                max: self.config.max_class,
            });
        }
        let mut classes = self.classes.lock().unwrap();
        let idx = class_index(self.config.min_class, size);
        let class = &mut classes[idx];
        let stats = self.registry.stats();
        // Fast path: pop from an existing region.
        for region in &class.regions {
            if let Some(slot) = region.take_slot() {
                stats.pool_allocs.fetch_add(1, Ordering::Relaxed);
                stats
                    .pool_alloc_bytes
                    .fetch_add(size as u64, Ordering::Relaxed);
                return Ok(RcBuf::from_counted(
                    Arc::clone(region),
                    slot,
                    0,
                    size as u32,
                ));
            }
        }
        // Slow path: grow the class.
        if class.regions.len() >= self.config.max_regions_per_class {
            stats.pool_exhausted.fetch_add(1, Ordering::Relaxed);
            return Err(AllocError::Exhausted {
                class: class.slot_size,
            });
        }
        let region = self
            .registry
            .register_region(class.slot_size, self.config.slots_per_region);
        let slot = region.take_slot().expect("fresh region has free slots");
        class.regions.push(Arc::clone(&region));
        stats.pool_allocs.fetch_add(1, Ordering::Relaxed);
        stats
            .pool_alloc_bytes
            .fetch_add(size as u64, Ordering::Relaxed);
        Ok(RcBuf::from_counted(region, slot, 0, size as u32))
    }

    /// Allocates a buffer and copies `data` into it — the "copy into
    /// DMA-safe memory" path for data that did not originate in the pool.
    pub fn alloc_from(&self, data: &[u8]) -> Result<RcBuf, AllocError> {
        let mut buf = self.alloc(data.len())?;
        buf.write_at(0, data);
        Ok(buf)
    }

    /// Largest buffer [`PinnedPool::alloc`] can return, in bytes.
    pub fn max_alloc(&self) -> usize {
        self.config.max_class
    }

    /// Total bytes of registered region memory currently owned by the pool.
    pub fn registered_bytes(&self) -> usize {
        self.classes
            .lock()
            .unwrap()
            .iter()
            .flat_map(|c| c.regions.iter())
            .map(|r| r.len())
            .sum()
    }

    /// Number of live (referenced) slots across all regions; diagnostic.
    pub fn live_slots(&self) -> usize {
        self.classes
            .lock()
            .unwrap()
            .iter()
            .flat_map(|c| c.regions.iter())
            .map(|r| r.num_slots() - r.free_slots())
            .sum()
    }
}

impl fmt::Debug for PinnedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinnedPool")
            .field("registered_bytes", &self.registered_bytes())
            .field("live_slots", &self.live_slots())
            .finish()
    }
}

/// Index of the smallest class (with minimum size `min_class`) that fits
/// `size`.
fn class_index(min_class: usize, size: usize) -> usize {
    let needed = size.next_power_of_two().max(min_class);
    (needed.trailing_zeros() - min_class.trailing_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PinnedPool {
        PinnedPool::new(Registry::new(), PoolConfig::small_for_tests())
    }

    #[test]
    fn class_index_selects_smallest_fit() {
        assert_eq!(class_index(64, 1), 0);
        assert_eq!(class_index(64, 64), 0);
        assert_eq!(class_index(64, 65), 1);
        assert_eq!(class_index(64, 128), 1);
        assert_eq!(class_index(64, 129), 2);
        assert_eq!(class_index(64, 8192), 7);
    }

    #[test]
    fn alloc_exact_len_rounded_slot() {
        let p = pool();
        let b = p.alloc(100).unwrap();
        assert_eq!(b.len(), 100);
        assert_eq!(b.slot_capacity(), 128);
    }

    #[test]
    fn alloc_zero_becomes_one() {
        let p = pool();
        let b = p.alloc(0).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn too_large_rejected() {
        let p = pool();
        let err = p.alloc(1 << 20).unwrap_err();
        assert!(matches!(err, AllocError::SizeTooLarge { .. }));
    }

    #[test]
    fn grows_regions_on_demand() {
        let p = pool();
        // 8 slots per region: allocate 9 buffers of one class.
        let bufs: Vec<_> = (0..9).map(|_| p.alloc(64).unwrap()).collect();
        assert_eq!(bufs.len(), 9);
        assert!(p.registry().num_regions() >= 2);
    }

    #[test]
    fn exhaustion_reported() {
        let cfg = PoolConfig {
            slots_per_region: 2,
            max_regions_per_class: 1,
            ..PoolConfig::small_for_tests()
        };
        let p = PinnedPool::new(Registry::new(), cfg);
        let _a = p.alloc(64).unwrap();
        let _b = p.alloc(64).unwrap();
        assert!(matches!(
            p.alloc(64),
            Err(AllocError::Exhausted { class: 64 })
        ));
    }

    #[test]
    fn freed_buffers_recycle() {
        let p = pool();
        let addrs: Vec<u64> = (0..8).map(|_| p.alloc(64).unwrap().addr()).collect();
        // All dropped immediately; the same 8 slots should satisfy new
        // requests without growing.
        let again: Vec<u64> = (0..8).map(|_| p.alloc(64).unwrap().addr()).collect();
        let mut a = addrs.clone();
        let mut b = again.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(p.registry().num_regions(), 1);
    }

    #[test]
    fn alloc_from_copies() {
        let p = pool();
        let b = p.alloc_from(b"payload bytes").unwrap();
        assert_eq!(&*b, b"payload bytes");
    }

    #[test]
    fn allocations_are_recoverable() {
        let reg = Registry::new();
        let p = PinnedPool::new(reg.clone(), PoolConfig::small_for_tests());
        let b = p.alloc(512).unwrap();
        let r = reg.recover_addr(b.addr() + 100, 10).unwrap();
        assert_eq!(r.len(), 10);
        assert_eq!(b.refcount(), 2);
    }

    #[test]
    fn live_slots_tracks() {
        let p = pool();
        assert_eq!(p.live_slots(), 0);
        let a = p.alloc(64).unwrap();
        let b = p.alloc(4096).unwrap();
        assert_eq!(p.live_slots(), 2);
        drop(a);
        assert_eq!(p.live_slots(), 1);
        drop(b);
        assert_eq!(p.live_slots(), 0);
    }
}
