//! The TCMalloc-per-CPU functional model.
//!
//! Models the per-CPU mode modern TCMalloc (and rtmalloc's rseq design)
//! ships: instead of per-*thread* linked-list caches, each **CPU** owns a
//! contiguous array-of-pointers slab per size class, and push/pop are
//! restartable sequences — a couple of plain stores/loads guarded by the
//! kernel's rseq abort protocol, with no atomics and no pointer chase
//! through block headers. Size classes and page layout are TCMalloc's
//! ([`mallacc_tcmalloc::SizeClasses::tcmalloc_2007`]), so this substrate
//! isolates exactly one variable against the paper's baseline: the shape
//! of the fast path.
//!
//! Functional-first contract as everywhere else: calls return outcomes
//! naming the path taken; the timing layer replays them.

use std::collections::BTreeMap;

use mallacc_cache::Addr;
use mallacc_tcmalloc::{consts, ClassId, SizeClasses};

/// Address-space layout and cache geometry of the per-CPU model.
pub mod pc_layout {
    use mallacc_cache::Addr;

    /// Static data (size-class tables, slab descriptors).
    pub const STATIC_BASE: Addr = 0x6100_0000;
    /// The per-CPU slab region (one contiguous array block per CPU).
    pub const SLAB_BASE: Addr = 0x6200_0000;
    /// Central free lists.
    pub const CENTRAL_BASE: Addr = 0x6300_0000;
    /// The pagemap (for unsized deletes).
    pub const PAGEMAP_BASE: Addr = 0x6400_0000;
    /// Heap base (disjoint from the other substrates).
    pub const HEAP_BASE: Addr = 0x60_0000_0000;
    /// Capacity of one per-CPU, per-class pointer array.
    pub const SLAB_CAP: usize = 64;
    /// Objects moved per refill from the central list.
    pub const REFILL_BATCH: usize = 16;
    /// Pages grabbed from the OS per reservation.
    pub const RESERVE_PAGES: u64 = 128;
    /// Bytes reserved per CPU per class in the slab region.
    pub const SLAB_STRIDE: u64 = 8 * SLAB_CAP as u64;

    /// The slab header word (current count) for `(cpu, class)`.
    pub fn slab_header(cpu: usize, class: u8, num_classes: usize) -> Addr {
        SLAB_BASE + (cpu as u64 * num_classes as u64 + u64::from(class)) * SLAB_STRIDE
    }

    /// The `idx`-th pointer slot of `(cpu, class)`'s array.
    pub fn slab_slot(cpu: usize, class: u8, num_classes: usize, idx: usize) -> Addr {
        slab_header(cpu, class, num_classes) + 8 + idx as u64 * 8
    }

    /// The two pagemap words an unsized delete must load.
    pub fn pagemap_entry(ptr: Addr) -> [Addr; 2] {
        let page = (ptr - HEAP_BASE) >> super::consts::PAGE_SHIFT;
        [PAGEMAP_BASE + page * 16, PAGEMAP_BASE + page * 16 + 8]
    }
}

/// Which path a per-CPU malloc took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcMallocPath {
    /// Popped the current CPU's slab array (the rseq fast path).
    SlabHit {
        /// Array depth before the pop.
        depth: u64,
    },
    /// Slab empty: refilled a batch, then popped.
    SlabRefill {
        /// Objects that came from the central free list.
        from_central: u64,
        /// Objects freshly carved from pages.
        carved: u64,
        /// A fresh OS reservation was needed.
        grew: bool,
    },
    /// Page-level (large) allocation.
    Large {
        /// Pages consumed.
        pages: u64,
        /// A fresh OS reservation was needed.
        grew: bool,
    },
}

/// Result of one per-CPU malloc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcMallocOutcome {
    /// The address handed out.
    pub ptr: Addr,
    /// Requested size.
    pub requested: u64,
    /// Rounded size.
    pub alloc_size: u64,
    /// Size class, if small.
    pub class: Option<ClassId>,
    /// The CPU that served the call.
    pub cpu: usize,
    /// Current CPU slab top after the call (the next pop's answer).
    pub post_head: Option<Addr>,
    /// The entry under `post_head`.
    pub post_next: Option<Addr>,
    /// The path taken.
    pub path: PcMallocPath,
}

/// Which path a per-CPU free took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcFreePath {
    /// Pushed the current CPU's slab array (the rseq fast path).
    SlabPush {
        /// Array depth after the push.
        depth: u64,
    },
    /// Array full: drained the bottom half to the central list, then
    /// pushed.
    SlabDrain {
        /// Objects moved to the central list.
        moved: u64,
    },
    /// Page-level free.
    Large {
        /// Pages returned.
        pages: u64,
    },
}

/// Result of one per-CPU free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcFreeOutcome {
    /// The freed address.
    pub ptr: Addr,
    /// Size class, if small.
    pub class: Option<ClassId>,
    /// Rounded size of the block.
    pub alloc_size: u64,
    /// Sized delete (skips the pagemap walk).
    pub sized: bool,
    /// The CPU that served the call.
    pub cpu: usize,
    /// The pagemap words an unsized small delete loaded.
    pub pagemap: Option<[Addr; 2]>,
    /// The path taken.
    pub path: PcFreePath,
}

/// Per-CPU model statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PcStats {
    /// malloc calls.
    pub mallocs: u64,
    /// Slab-array hits.
    pub slab_hits: u64,
    /// Slab refills.
    pub refills: u64,
    /// Large allocations.
    pub large_allocs: u64,
    /// free calls.
    pub frees: u64,
    /// Slab pushes.
    pub slab_pushes: u64,
    /// Slab drains.
    pub drains: u64,
    /// Large frees.
    pub large_frees: u64,
}

#[derive(Debug, Clone, Copy)]
struct Live {
    class: ClassId,
    alloc_size: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CarveRegion {
    next: Addr,
    remaining: u64,
}

/// The TCMalloc-per-CPU model: `cpus` slab sets over TCMalloc's 2007
/// size classes. [`PerCpuMalloc::context_switch`] rotates the current
/// CPU, modeling thread migration.
///
/// # Example
///
/// ```
/// use mallacc_substrate::{PerCpuMalloc, PcMallocPath};
///
/// let mut a = PerCpuMalloc::new(2);
/// let cold = a.malloc(100);
/// assert!(matches!(cold.path, PcMallocPath::SlabRefill { .. }));
/// a.free(cold.ptr, true);
/// let warm = a.malloc(100);
/// assert_eq!(warm.ptr, cold.ptr);
/// assert!(matches!(warm.path, PcMallocPath::SlabHit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct PerCpuMalloc {
    classes: SizeClasses,
    cpus: usize,
    cur_cpu: usize,
    slabs: Vec<Vec<Vec<Addr>>>,
    central: Vec<Vec<Addr>>,
    carve: Vec<CarveRegion>,
    carved: Vec<u64>,
    live: BTreeMap<Addr, Live>,
    large_live: BTreeMap<Addr, u64>,
    next_page: u64,
    reserved_pages: u64,
    stats: PcStats,
}

impl PerCpuMalloc {
    /// Creates a cold heap with `cpus` per-CPU slab sets.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        let classes = SizeClasses::tcmalloc_2007();
        // Class IDs are 1-based; index straight by `as_u8` like the
        // TCMalloc allocator does, leaving slot 0 unused.
        let n = classes.num_classes() + 1;
        Self {
            classes,
            cpus,
            cur_cpu: 0,
            slabs: vec![vec![Vec::new(); n]; cpus],
            central: vec![Vec::new(); n],
            carve: vec![CarveRegion::default(); n],
            carved: vec![0; n],
            live: BTreeMap::new(),
            large_live: BTreeMap::new(),
            next_page: 0,
            reserved_pages: 0,
            stats: PcStats::default(),
        }
    }

    /// Number of modeled CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// The CPU the next call runs on.
    pub fn cur_cpu(&self) -> usize {
        self.cur_cpu
    }

    /// The shared size-class table.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PcStats {
        self.stats
    }

    /// Live (allocated, unfreed) block count, large blocks included.
    pub fn live_blocks(&self) -> usize {
        self.live.len() + self.large_live.len()
    }

    /// Rotates the current CPU (thread migration on context switch).
    pub fn context_switch(&mut self) {
        self.cur_cpu = (self.cur_cpu + 1) % self.cpus;
    }

    /// Pins the current CPU (the multi-core capture pins core `c`'s calls
    /// to CPU `c`).
    pub fn set_cpu(&mut self, cpu: usize) {
        assert!(cpu < self.cpus, "cpu {cpu} out of range");
        self.cur_cpu = cpu;
    }

    /// Top two entries of the current CPU's slab for `cls`.
    pub fn slab_top2(&self, cls: ClassId) -> (Option<Addr>, Option<Addr>) {
        let slab = &self.slabs[self.cur_cpu][usize::from(cls.as_u8())];
        let n = slab.len();
        (
            n.checked_sub(1).map(|i| slab[i]),
            n.checked_sub(2).map(|i| slab[i]),
        )
    }

    /// Tokens of class `cls` held per CPU slab, plus the central list —
    /// the conservation check: slabs + central + live == carved.
    pub fn class_census(&self, cls: ClassId) -> (u64, u64, u64, u64) {
        let c = usize::from(cls.as_u8());
        let in_slabs: u64 = self.slabs.iter().map(|s| s[c].len() as u64).sum();
        let in_central = self.central[c].len() as u64;
        let live = self.live.values().filter(|l| l.class == cls).count() as u64;
        (in_slabs, in_central, live, self.carved[c])
    }

    fn reserve_pages(&mut self, pages: u64) -> bool {
        if self.next_page + pages > self.reserved_pages {
            let chunk = pc_layout::RESERVE_PAGES.max(pages);
            self.reserved_pages += chunk;
            true
        } else {
            false
        }
    }

    fn grab_pages(&mut self, pages: u64) -> (Addr, bool) {
        let grew = self.reserve_pages(pages);
        let addr = pc_layout::HEAP_BASE + self.next_page * consts::PAGE_SIZE;
        self.next_page += pages;
        (addr, grew)
    }

    fn carve_one(&mut self, c: usize, size: u64) -> (Addr, bool) {
        let mut grew = false;
        if self.carve[c].remaining == 0 {
            let pages = (size * 8).div_ceil(consts::PAGE_SIZE).max(1);
            let (base, g) = self.grab_pages(pages);
            grew = g;
            self.carve[c] = CarveRegion {
                next: base,
                remaining: (pages * consts::PAGE_SIZE) / size,
            };
        }
        let ptr = self.carve[c].next;
        self.carve[c].next += size;
        self.carve[c].remaining -= 1;
        self.carved[c] += 1;
        (ptr, grew)
    }

    /// Allocates `requested` bytes on the current CPU.
    ///
    /// # Panics
    ///
    /// Panics if `requested` is zero.
    pub fn malloc(&mut self, requested: u64) -> PcMallocOutcome {
        assert!(requested > 0, "zero-byte malloc");
        self.stats.mallocs += 1;
        let cpu = self.cur_cpu;
        let Some(cls) = self.classes.size_class(requested) else {
            let pages = requested.div_ceil(consts::PAGE_SIZE);
            let (ptr, grew) = self.grab_pages(pages);
            self.large_live.insert(ptr, pages);
            self.stats.large_allocs += 1;
            return PcMallocOutcome {
                ptr,
                requested,
                alloc_size: pages * consts::PAGE_SIZE,
                class: None,
                cpu,
                post_head: None,
                post_next: None,
                path: PcMallocPath::Large { pages, grew },
            };
        };
        let c = usize::from(cls.as_u8());
        let size = self.classes.class_to_size(cls);
        let path;
        let ptr = if let Some(ptr) = self.slabs[cpu][c].pop() {
            let depth = self.slabs[cpu][c].len() as u64 + 1;
            self.stats.slab_hits += 1;
            path = PcMallocPath::SlabHit { depth };
            ptr
        } else {
            // Refill: pull a batch from the central list, carving fresh
            // blocks for whatever it can't supply.
            let mut from_central = 0u64;
            let mut carved = 0u64;
            let mut grew = false;
            while (from_central + carved) < pc_layout::REFILL_BATCH as u64 {
                if let Some(p) = self.central[c].pop() {
                    self.slabs[cpu][c].push(p);
                    from_central += 1;
                } else {
                    let (p, g) = self.carve_one(c, size);
                    self.slabs[cpu][c].push(p);
                    grew |= g;
                    carved += 1;
                }
            }
            self.stats.refills += 1;
            path = PcMallocPath::SlabRefill {
                from_central,
                carved,
                grew,
            };
            self.slabs[cpu][c].pop().expect("batch is non-empty")
        };
        self.live.insert(
            ptr,
            Live {
                class: cls,
                alloc_size: size,
            },
        );
        let (post_head, post_next) = self.slab_top2(cls);
        PcMallocOutcome {
            ptr,
            requested,
            alloc_size: size,
            class: Some(cls),
            cpu,
            post_head,
            post_next,
            path,
        }
    }

    /// Frees `ptr` on the current CPU. `sized` deletes skip the pagemap
    /// walk.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> PcFreeOutcome {
        self.stats.frees += 1;
        let cpu = self.cur_cpu;
        if let Some(pages) = self.large_live.remove(&ptr) {
            self.stats.large_frees += 1;
            return PcFreeOutcome {
                ptr,
                class: None,
                alloc_size: pages * consts::PAGE_SIZE,
                sized,
                cpu,
                pagemap: None,
                path: PcFreePath::Large { pages },
            };
        }
        let live = self
            .live
            .remove(&ptr)
            .unwrap_or_else(|| panic!("invalid or double free of {ptr:#x}"));
        let c = usize::from(live.class.as_u8());
        let pagemap = (!sized).then(|| pc_layout::pagemap_entry(ptr));
        let path = if self.slabs[cpu][c].len() < pc_layout::SLAB_CAP {
            self.slabs[cpu][c].push(ptr);
            self.stats.slab_pushes += 1;
            PcFreePath::SlabPush {
                depth: self.slabs[cpu][c].len() as u64,
            }
        } else {
            // Array full: drain the bottom half to the central list so
            // the slab keeps both pop- and push-headroom.
            let moved = pc_layout::SLAB_CAP / 2;
            let drained: Vec<Addr> = self.slabs[cpu][c].drain(..moved).collect();
            self.central[c].extend(drained);
            self.slabs[cpu][c].push(ptr);
            self.stats.drains += 1;
            PcFreePath::SlabDrain {
                moved: moved as u64,
            }
        };
        PcFreeOutcome {
            ptr,
            class: Some(live.class),
            alloc_size: live.alloc_size,
            sized,
            cpu,
            pagemap,
            path,
        }
    }
}

impl Default for PerCpuMalloc {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refill_then_hit_round_trip() {
        let mut a = PerCpuMalloc::new(1);
        let cold = a.malloc(100);
        assert!(matches!(
            cold.path,
            PcMallocPath::SlabRefill { grew: true, .. }
        ));
        assert_eq!(cold.alloc_size, 104, "tcmalloc 2007 rounds 100 to 104");
        a.free(cold.ptr, true);
        let warm = a.malloc(100);
        assert_eq!(warm.ptr, cold.ptr);
        assert!(matches!(warm.path, PcMallocPath::SlabHit { .. }));
    }

    #[test]
    fn cpus_have_disjoint_slabs() {
        let mut a = PerCpuMalloc::new(2);
        let o0 = a.malloc(64);
        a.free(o0.ptr, true);
        a.context_switch();
        assert_eq!(a.cur_cpu(), 1);
        let o1 = a.malloc(64);
        assert_ne!(o1.ptr, o0.ptr, "cpu 1 must not see cpu 0's slab");
        assert!(matches!(o1.path, PcMallocPath::SlabRefill { .. }));
    }

    #[test]
    fn token_conservation_across_drains() {
        let mut a = PerCpuMalloc::new(2);
        let mut ptrs = Vec::new();
        for i in 0..400u64 {
            ptrs.push(a.malloc(64).ptr);
            if i % 5 == 4 {
                a.context_switch();
            }
        }
        for p in ptrs {
            a.free(p, false);
        }
        assert!(a.stats().drains > 0, "free storm must overflow the slab");
        let cls = a.classes().size_class(64).unwrap();
        let (slabs, central, live, carved) = a.class_census(cls);
        assert_eq!(live, 0);
        assert_eq!(slabs + central, carved, "tokens leak across drains");
    }

    #[test]
    fn unsized_free_walks_the_pagemap() {
        let mut a = PerCpuMalloc::new(1);
        let o = a.malloc(64);
        let f = a.free(o.ptr, false);
        let pm = f.pagemap.expect("unsized delete loads the pagemap");
        assert!(pm[0] >= pc_layout::PAGEMAP_BASE);
        let g = a.malloc(64);
        let f2 = a.free(g.ptr, true);
        assert!(f2.pagemap.is_none(), "sized delete skips the pagemap");
    }

    #[test]
    fn large_round_trip() {
        let mut a = PerCpuMalloc::new(1);
        let o = a.malloc(300 * 1024);
        assert!(matches!(o.path, PcMallocPath::Large { .. }));
        assert!(o.alloc_size >= 300 * 1024);
        let f = a.free(o.ptr, false);
        assert!(matches!(f.path, PcFreePath::Large { .. }));
        assert_eq!(a.live_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid or double free")]
    fn double_free_panics() {
        let mut a = PerCpuMalloc::new(1);
        let o = a.malloc(64);
        a.free(o.ptr, true);
        a.free(o.ptr, true);
    }
}
