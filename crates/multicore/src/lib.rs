//! Multi-core Mallacc simulation: per-core malloc caches, private L1/L2,
//! and cross-thread allocation traffic over an epoch-synchronised shared
//! L3.
//!
//! The paper evaluates Mallacc on a single core, but the accelerator's
//! design is inherently per-core (§4.1: the malloc cache holds *copies* of
//! the core's own thread-cache free list, so it needs no coherence
//! traffic). This crate scales the reproduction to N cores and asks the
//! natural follow-up questions: do malloc-cache hit rates survive
//! cross-thread allocation traffic, and does the speedup hold when cores
//! contend on the allocator's shared structures?
//!
//! [`MulticoreSim<F>`](MulticoreSim) runs any substrate `F` — anything that
//! implements [`FastPath`](mallacc::FastPath): TCMalloc (the default),
//! jemalloc, rpmalloc, per-CPU — on the same machine, so multi-core
//! comparisons between substrates differ only in the allocator.
//! Simulation is split into two deterministic phases:
//!
//! * **Phase A — serial functional capture** ([`Capture`]): the globally
//!   interleaved `(core, op)` stream runs on one shared heap of the
//!   substrate, core `c` issuing its calls as thread `c`, producing
//!   per-core [`CoreEvent`] streams annotated with post-call list state and
//!   deterministic contention stalls. Cross-core effects that change
//!   *function* — remote frees, hand-offs through shared pools, neighbour
//!   steals — are resolved here, in trace order. A free is remote when the
//!   freeing core is not the allocating core, and each substrate names the
//!   shared structure its slow paths serialise on
//!   ([`SharedRes`](mallacc::SharedRes)), so contention is priced the same
//!   way for every substrate.
//! * **Phase B — parallel timing replay** ([`MulticoreSim::run`]): each
//!   core replays its stream on its own [`Shell`](mallacc::Shell) —
//!   a private out-of-order engine, L1/L2 and malloc cache, timing `F`'s
//!   µop programs with no functional heap behind it — running on
//!   its own host thread. The cores share one L3 through the
//!   snapshot/commit epoch protocol of [`SharedL3`](mallacc_cache::SharedL3),
//!   so cross-core cache pressure is modelled (with one epoch of lag) while
//!   the results stay bit-identical across host schedules.
//!
//! At one core the engine is exactly the single-core driver replaying the
//! same calls.
//!
//! # Example
//!
//! ```
//! use mallacc::Mode;
//! use mallacc_multicore::MulticoreSim;
//! use mallacc_workloads::MtTrace;
//!
//! // A 2-core producer–consumer ring: core 0 allocates, core 1 frees.
//! let trace = MtTrace::producer_consumer(2, 100, 1);
//! let base = MulticoreSim::new(Mode::Baseline, 2).run(&trace);
//! let accel = MulticoreSim::new(Mode::mallacc_default(), 2).run(&trace);
//! assert!(accel.cycles_per_call() < base.cycles_per_call());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod latency;
mod sim;

pub use capture::{capture_stream, Capture, CoreEvent};
pub use latency::{latency_sinks, take_latencies, CallLatencySink};
pub use sim::{CoreReport, MtRunResult, MulticoreSim, DEFAULT_EPOCH_EVENTS};
