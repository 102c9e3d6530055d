//! Allocator substrates behind one trait.
//!
//! The paper evaluated Mallacc against TCMalloc's 2014-era fast path; the
//! open question (ROADMAP item 2) is whether the malloc cache still pays
//! off when the software fast path is already lock-free and two or three
//! loads shorter. This crate makes that question askable:
//!
//! * [`SubstrateKind`] — the canonical substrate axis
//!   (`tcmalloc`/`jemalloc`/`rpmalloc`/`percpu`), shared by the explore
//!   grids, the CLIs, and the conformance suites;
//! * [`Allocator`] — the functional substrate trait every model
//!   implements: request in, outcome (pointer, rounded size) out, with
//!   the live-heap introspection the differential suites replay against;
//! * [`RpMalloc`] — an rpmalloc-style backend: lock-free single-ownership
//!   64 KiB spans, address-mask metadata lookup (no table loads on free),
//!   per-span deferred cross-thread free lists adopted lazily by the owner;
//! * [`PerCpuMalloc`] — a TCMalloc-per-CPU variant modeled on rtmalloc's
//!   rseq restartable-sequence per-CPU array cache: ~2-op push/pop into a
//!   contiguous slab, no TLS linked-list pointer chase;
//! * [`RpSim`] and [`PcSim`] — both models' fast paths on the shared
//!   per-call [`Driver`](mallacc::Driver): each model implements
//!   [`FastPath`](mallacc::FastPath) and supplies only its µop programs,
//!   its service-path mapping, the shared structure its slow paths
//!   serialise on, and its hooks (per-CPU's migration on a context
//!   switch). Both models are multi-thread heaps (`RpMalloc::new(n)`,
//!   `PerCpuMalloc::new(n)`), so the multi-core simulator
//!   (`mallacc-multicore`) runs them on one shared heap like TCMalloc;
//! * [`AnySim`] — substrate dispatch over the four drivers (TCMalloc,
//!   jemalloc, rpmalloc, per-CPU), each under all four `accel` modes
//!   (none/mallacc/offload/both).
//!
//! # Example
//!
//! Every substrate shares one machine, so its numbers read the same way:
//!
//! ```
//! use mallacc::Mode;
//! use mallacc_substrate::{AnySim, RpMalloc, RpFreePath, SubstrateKind};
//!
//! // A free issued by another thread lands on the span's deferred list.
//! let mut rp = RpMalloc::new(2);
//! let block = rp.malloc_on(0, 64);
//! let free = rp.free_on(1, block.ptr, true);
//! assert!(matches!(free.path, RpFreePath::Deferred { .. }));
//! assert_eq!(rp.stats().deferred_frees, 1);
//!
//! // Any substrate, any mode: the same shell totals behind AnySim.
//! for kind in SubstrateKind::ALL {
//!     let mut sim = AnySim::new(kind, Mode::offload_default());
//!     let block = sim.malloc(128);
//!     sim.free(block.ptr, false);
//!     assert_eq!(sim.totals().malloc_calls, 1);
//!     assert_eq!(sim.offload_stats().unwrap().enqueued, 2);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anysim;
mod kind;
mod pcsim;
mod percpu;
mod rpmalloc;
mod rpsim;
mod traits;

pub use anysim::AnySim;
pub use kind::SubstrateKind;
pub use pcsim::PcSim;
pub use percpu::{
    pc_layout, PcFreeOutcome, PcFreePath, PcMallocOutcome, PcMallocPath, PcStats, PerCpuMalloc,
};
pub use rpmalloc::{
    rp_layout, RpFreeOutcome, RpFreePath, RpMalloc, RpMallocOutcome, RpMallocPath, RpSpanView,
    RpStats,
};
pub use rpsim::RpSim;
pub use traits::{Allocator, AnyAllocator, GenericAlloc, GenericFree};
