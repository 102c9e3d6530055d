//! The functional substrate trait.
//!
//! Every allocator model in the repo — TCMalloc, jemalloc, rpmalloc,
//! per-CPU — answers the same question: *where does this request land*.
//! [`Allocator`] is that common surface, reduced to what the
//! cross-substrate conformance suites actually need. The
//! substrate-specific outcome types stay on the concrete models; this
//! trait flattens them into [`GenericAlloc`]/[`GenericFree`]. Which path
//! served a call is the drivers' business: every model maps its outcomes
//! onto a service path in its [`FastPath`](mallacc::FastPath) impl.

use mallacc_cache::Addr;
use mallacc_jemalloc::JeMalloc;
use mallacc_tcmalloc::TcMalloc;

use crate::kind::SubstrateKind;
use crate::percpu::PerCpuMalloc;
use crate::rpmalloc::RpMalloc;

/// Substrate-agnostic view of one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenericAlloc {
    /// The address handed out.
    pub ptr: Addr,
    /// Requested size.
    pub requested: u64,
    /// Rounded size actually reserved.
    pub alloc_size: u64,
}

/// Substrate-agnostic view of one free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenericFree {
    /// The freed address.
    pub ptr: Addr,
    /// Rounded size of the block.
    pub alloc_size: u64,
}

/// The functional substrate contract.
///
/// Implementations are deterministic: the same call sequence on a fresh
/// instance produces the same addresses. `dealloc` panics on invalid or
/// double frees — the conformance suites rely on that.
pub trait Allocator {
    /// Which substrate this is.
    fn kind(&self) -> SubstrateKind;

    /// Serves one allocation of `size` bytes.
    fn alloc(&mut self, size: u64) -> GenericAlloc;

    /// Frees `ptr`; `sized` marks a sized delete.
    fn dealloc(&mut self, ptr: Addr, sized: bool) -> GenericFree;

    /// Live (allocated, unfreed) block count.
    fn live_blocks(&self) -> usize;
}

/// Implements [`Allocator`] for a model whose inherent `malloc`/`free`
/// outcomes carry `ptr`, `requested` and `alloc_size`.
macro_rules! impl_allocator {
    ($model:ty, $kind:expr) => {
        impl Allocator for $model {
            fn kind(&self) -> SubstrateKind {
                $kind
            }

            fn alloc(&mut self, size: u64) -> GenericAlloc {
                let o = self.malloc(size);
                GenericAlloc {
                    ptr: o.ptr,
                    requested: o.requested,
                    alloc_size: o.alloc_size,
                }
            }

            fn dealloc(&mut self, ptr: Addr, sized: bool) -> GenericFree {
                let o = self.free(ptr, sized);
                GenericFree {
                    ptr: o.ptr,
                    alloc_size: o.alloc_size,
                }
            }

            fn live_blocks(&self) -> usize {
                <$model>::live_blocks(self)
            }
        }
    };
}

impl_allocator!(TcMalloc, SubstrateKind::TcMalloc);
impl_allocator!(JeMalloc, SubstrateKind::JeMalloc);
impl_allocator!(RpMalloc, SubstrateKind::Rpmalloc);
impl_allocator!(PerCpuMalloc, SubstrateKind::PerCpu);

/// A boxed functional model of any substrate.
pub struct AnyAllocator(Box<dyn Allocator>);

impl AnyAllocator {
    /// Builds a cold heap of the given substrate.
    pub fn new(kind: SubstrateKind) -> Self {
        AnyAllocator(match kind {
            SubstrateKind::TcMalloc => Box::new(TcMalloc::default()),
            SubstrateKind::JeMalloc => Box::new(JeMalloc::new()),
            SubstrateKind::Rpmalloc => Box::new(RpMalloc::new(1)),
            SubstrateKind::PerCpu => Box::new(PerCpuMalloc::new(1)),
        })
    }
}

impl Allocator for AnyAllocator {
    fn kind(&self) -> SubstrateKind {
        self.0.kind()
    }

    fn alloc(&mut self, size: u64) -> GenericAlloc {
        self.0.alloc(size)
    }

    fn dealloc(&mut self, ptr: Addr, sized: bool) -> GenericFree {
        self.0.dealloc(ptr, sized)
    }

    fn live_blocks(&self) -> usize {
        self.0.live_blocks()
    }
}

impl std::fmt::Debug for AnyAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyAllocator").field(&self.kind()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_substrate_round_trips_through_the_trait() {
        for kind in SubstrateKind::ALL {
            let mut a = AnyAllocator::new(kind);
            assert_eq!(a.kind(), kind);
            let cold = a.alloc(100);
            assert!(cold.alloc_size >= 100, "{kind:?} under-allocates");
            let f = a.dealloc(cold.ptr, true);
            assert_eq!(f.ptr, cold.ptr);
            assert_eq!(f.alloc_size, cold.alloc_size);
            let warm = a.alloc(100);
            assert_eq!(warm.ptr, cold.ptr, "{kind:?} LIFO reuse");
            a.dealloc(warm.ptr, false);
            assert_eq!(a.live_blocks(), 0, "{kind:?} leaks");
        }
    }

    #[test]
    fn rounding_never_shrinks_anywhere() {
        for kind in SubstrateKind::ALL {
            let mut a = AnyAllocator::new(kind);
            for size in [1u64, 8, 100, 1024, 4096, 32 * 1024, 600_000] {
                let o = a.alloc(size);
                assert!(
                    o.alloc_size >= size,
                    "{kind:?}: {size} rounded down to {}",
                    o.alloc_size
                );
            }
        }
    }
}
