//! The per-call simulation driver, shared by every allocator substrate.
//!
//! A [`Driver`] pairs one substrate's functional allocator (its
//! [`FastPath`]) with the machine every substrate shares — the
//! out-of-order core with its cache hierarchy, the malloc cache and the
//! offload queue — and simulates every `malloc`/`free` call in two phases:
//!
//! 1. **functional** — the allocator model performs the request and
//!    reports the path taken and the addresses touched;
//! 2. **timing** — the corresponding µop program (baseline, Mallacc, or
//!    limit-study, per [`Mode`]) is pushed through the core model, and the
//!    call's duration is the retirement-time delta it produced.
//!
//! The accelerator is a *pure* performance optimisation (§4.1: the
//! definitive free lists always live in memory), which is why functional-
//! first simulation is exact: a malloc-cache hit or miss never changes the
//! allocator's state transitions, only their latency. The fast paths
//! `debug_assert` that every malloc-cache hit returns exactly the block
//! and next-head the functional allocator produced — the hardware
//! consistency invariant of §4.1.
//!
//! The [`Shell`] owns everything outside the fast path: the mode, the
//! engine, the malloc cache, the offload queue, the call boundary, the
//! offload emission and the cycle totals. A substrate supplies only its
//! allocator, the mapping from its outcomes to a [`ServicePath`], and the
//! µop programs of its fast and slow paths, which it emits through the
//! [`EmitCtx`] the shell hands it inside each call window.

use std::ops::{Deref, DerefMut};

use mallacc_cache::{Addr, Hierarchy};
use mallacc_offload::{service_cycles, OffloadConfig, OffloadQueue, OffloadStats, ServicePath};
use mallacc_ooo::{Component, CoreConfig, Engine, OpMeta, Reg, TraceSink, Uop};

use crate::config::{AccelConfig, LimitRemove, Mode};
use crate::malloc_cache::{MallocCache, MallocCacheConfig, PopResult, RangeKeying, SizeLookup};
use crate::programs as prog;

/// Classification of a simulated call, for histograms and path accounting.
///
/// One kind per [`ServicePath`]: every substrate already maps its outcomes
/// onto the offload core's service paths, and the kind is read off that
/// mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// malloc served by the per-thread (or per-CPU, per-span) cache.
    MallocFast,
    /// malloc that refilled from a central pool without carving.
    MallocCentral,
    /// malloc whose refill carved a new span.
    MallocSpan,
    /// malloc that had to grow the heap with an OS grant.
    MallocOs,
    /// malloc of a large request.
    MallocLarge,
    /// free onto the per-thread (or per-CPU, per-span) cache.
    FreeFast,
    /// free that released a batch to a central pool.
    FreeRelease,
    /// free of a large allocation.
    FreeLarge,
}

impl CallKind {
    /// Every kind, in canonical report order.
    pub const ALL: [CallKind; 8] = [
        CallKind::MallocFast,
        CallKind::MallocCentral,
        CallKind::MallocSpan,
        CallKind::MallocOs,
        CallKind::MallocLarge,
        CallKind::FreeFast,
        CallKind::FreeRelease,
        CallKind::FreeLarge,
    ];

    /// True for malloc-side kinds.
    pub fn is_malloc(self) -> bool {
        matches!(
            self,
            CallKind::MallocFast
                | CallKind::MallocCentral
                | CallKind::MallocSpan
                | CallKind::MallocOs
                | CallKind::MallocLarge
        )
    }

    /// Stable snake_case label, used by profiling reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            CallKind::MallocFast => "malloc_fast",
            CallKind::MallocCentral => "malloc_central",
            CallKind::MallocSpan => "malloc_span",
            CallKind::MallocOs => "malloc_os",
            CallKind::MallocLarge => "malloc_large",
            CallKind::FreeFast => "free_fast",
            CallKind::FreeRelease => "free_release",
            CallKind::FreeLarge => "free_large",
        }
    }
}

impl From<ServicePath> for CallKind {
    fn from(path: ServicePath) -> Self {
        match path {
            ServicePath::MallocFast => CallKind::MallocFast,
            ServicePath::MallocCentral { .. } => CallKind::MallocCentral,
            ServicePath::MallocSpan { .. } => CallKind::MallocSpan,
            ServicePath::MallocOs { .. } => CallKind::MallocOs,
            ServicePath::MallocLarge { .. } => CallKind::MallocLarge,
            ServicePath::FreeFast { .. } => CallKind::FreeFast,
            ServicePath::FreeRelease { .. } => CallKind::FreeRelease,
            ServicePath::FreeLarge { .. } => CallKind::FreeLarge,
        }
    }
}

/// One simulated allocator call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallRecord {
    /// Duration in cycles (retirement-time delta).
    pub cycles: u64,
    /// Path classification.
    pub kind: CallKind,
    /// The pointer allocated or freed.
    pub ptr: Addr,
    /// Requested size (mallocs) or rounded block size (frees).
    pub size: u64,
    /// Raw size-class number, if small.
    pub cls: Option<u16>,
    /// Whether the sampler fired (mallocs only).
    pub sampled: bool,
}

/// What a substrate reports about one functional call: the service path
/// it took, the shared structure it serialised on, and the fields of its
/// [`CallRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallInfo {
    /// The path, as the offload core would service it.
    pub path: ServicePath,
    /// The shared allocator structure the path serialised on, if any —
    /// what the multi-core contention model prices.
    pub shared: Option<SharedRes>,
    /// The pointer allocated or freed.
    pub ptr: Addr,
    /// Requested size (mallocs) or rounded block size (frees).
    pub size: u64,
    /// Raw size-class number, if small.
    pub cls: Option<u16>,
    /// Whether the sampler fired (mallocs only).
    pub sampled: bool,
}

/// Post-call snapshot of the serving free list: its head and the element
/// after the head.
///
/// Every [`FastPath::serve_malloc`]/[`FastPath::serve_free`] returns one,
/// so no emitter reads the allocator: software republishes the head, the
/// accelerator's resyncs and `mcnxtprefetch` learn the pair. The
/// multi-core layer captures it during its serial functional phase and
/// replays timing later — see [`Driver::time_malloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PostList {
    /// Head of the class's free list after the call.
    pub head: Option<Addr>,
    /// Second element of the list after the call.
    pub next: Option<Addr>,
}

/// The shared allocator structure a slow path serialises on when several
/// threads run on one heap — what the multi-core contention model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedRes {
    /// A lock-protected arena or central pool.
    Central,
    /// A lock-free hand-off: a CAS on a shared cache line, much cheaper
    /// than a lock but still contended.
    Transfer,
}

/// Aggregate cycle totals maintained by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimTotals {
    /// malloc calls simulated.
    pub malloc_calls: u64,
    /// Cycles spent in malloc calls.
    pub malloc_cycles: u64,
    /// free calls simulated.
    pub free_calls: u64,
    /// Cycles spent in free calls.
    pub free_cycles: u64,
    /// Cycles of application (non-allocator) activity.
    pub app_cycles: u64,
}

impl SimTotals {
    /// Total allocator cycles (malloc + free).
    pub fn allocator_cycles(&self) -> u64 {
        self.malloc_cycles + self.free_cycles
    }

    /// Total program cycles (allocator + application).
    pub fn program_cycles(&self) -> u64 {
        self.allocator_cycles() + self.app_cycles
    }

    /// Fraction of program time spent in the allocator.
    pub fn allocator_fraction(&self) -> f64 {
        let total = self.program_cycles();
        if total == 0 {
            0.0
        } else {
            self.allocator_cycles() as f64 / total as f64
        }
    }
}

/// One allocator substrate's contribution to a [`Driver`]: its functional
/// model and the µop programs of its paths.
///
/// Everything else — mode plumbing, the call boundary, offload emission,
/// totals, tracing windows — is the [`Shell`]'s. The emitters push their
/// µops through the [`EmitCtx`] they are handed, tag them with the
/// [`Component`] they belong to, and may use its shared accelerator
/// sequences ([`EmitCtx::size_class`], [`EmitCtx::emit_sampling`],
/// [`EmitCtx::mchdpop`]). They never see the allocator: what they need of
/// its post-call state arrives as the [`PostList`] its `serve_*` returned,
/// which is what lets the multi-core layer serve every call on one shared
/// heap and replay the timing on per-core engines.
pub trait FastPath: Sized + Send {
    /// Functional outcome of one malloc.
    type Malloc: std::fmt::Debug + Send;
    /// Functional outcome of one free.
    type Free: std::fmt::Debug + Send;
    /// The functional model's statistics.
    type Stats: std::fmt::Debug;

    /// A cold heap shared by `threads` threads; a single-core driver
    /// starts from `shared(1)`.
    fn shared(threads: usize) -> Self;

    /// The malloc-cache keying this substrate forces, if any: substrates
    /// without Figure 5 index hardware key on the requested size.
    const KEYING: Option<RangeKeying> = None;

    /// The thread a single-core driver's calls run on.
    fn current_thread(&self) -> usize {
        0
    }

    /// Performs one malloc functionally on `thread`.
    fn serve_malloc(&mut self, thread: usize, size: u64) -> (Self::Malloc, PostList);

    /// Performs one free functionally on `thread`, which may differ from
    /// the allocating thread.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    fn serve_free(&mut self, thread: usize, ptr: Addr, sized: bool) -> (Self::Free, PostList);

    /// Functional side of a context switch (beyond the shell's malloc-cache
    /// flush and cache eviction).
    fn on_context_switch(&mut self) {}

    /// The functional model's statistics so far.
    fn stats(&self) -> Self::Stats;

    /// Service path, shared structure and record fields of a malloc
    /// outcome.
    fn malloc_info(outcome: &Self::Malloc) -> CallInfo;

    /// Service path, shared structure and record fields of a free outcome.
    fn free_info(outcome: &Self::Free) -> CallInfo;

    /// The thread whose cached free list a malloc stole blocks from, if
    /// any: that thread's malloc-cache copy of the list is stale.
    fn stolen_from(_outcome: &Self::Malloc) -> Option<usize> {
        None
    }

    /// Emits the µop program of one malloc (baseline, Mallacc or limit).
    fn emit_malloc(sh: &mut EmitCtx, outcome: &Self::Malloc, post: PostList);

    /// Emits the µop program of one free (baseline, Mallacc or limit).
    fn emit_free(sh: &mut EmitCtx, outcome: &Self::Free, post: PostList);
}

/// A small local-history branch predictor (6 bits of history indexing
/// 2-bit saturating counters). The fallback branches after `mcszlookup` and
/// `mchdpop` are perfectly predictable when the malloc cache steadily hits
/// or steadily misses, learnable when it thrashes periodically, and
/// mispredicted when hits and misses arrive randomly — which is what an
/// undersized cache produces and why Figure 17's small configurations show
/// net slowdown.
#[derive(Debug, Clone)]
pub(crate) struct LocalPredictor {
    history: usize,
    counters: [i8; 64],
}

impl LocalPredictor {
    fn new() -> Self {
        Self {
            history: 0,
            counters: [1; 64], // weakly taken = "hit"
        }
    }

    /// Records the outcome; returns whether the branch mispredicted.
    pub(crate) fn mispredicted(&mut self, taken: bool) -> bool {
        let c = &mut self.counters[self.history];
        let predicted = *c >= 0;
        *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
        self.history = ((self.history << 1) | usize::from(taken)) & 0x3F;
        predicted != taken
    }
}

/// The part of the machine a [`FastPath`]'s emitters drive: the mode, the
/// core model, the malloc cache, and the shared accelerator sequences.
///
/// Only [`FastPath::emit_malloc`]/[`FastPath::emit_free`] receive one, from
/// inside a call window, so every µop pushed through it is booked to a
/// call.
#[derive(Debug)]
pub struct EmitCtx {
    mode: Mode,
    /// The core model the fast paths push their µops into.
    pub cpu: Engine,
    /// The malloc cache the accelerated fast paths consult.
    pub mc: MallocCache,
    /// Predictor of the `mcszlookup` fallback branch. Only the TCMalloc
    /// fast path models its mispredictions; the other substrates treat
    /// both fallback branches as always predicted.
    pub(crate) lookup_bp: LocalPredictor,
    /// Predictor of the `mchdpop` fallback branch.
    pub(crate) pop_bp: LocalPredictor,
}

/// The substrate-independent half of a [`Driver`]: the simulated machine
/// and the call accounting around every fast path.
#[derive(Debug)]
pub struct Shell {
    pub(crate) ctx: EmitCtx,
    /// Request/response queue to the helper core ([`Mode::Offload`] only).
    offload: Option<OffloadQueue>,
    totals: SimTotals,
}

impl Shell {
    fn new(mode: Mode, mc_cfg: MallocCacheConfig, core_cfg: CoreConfig) -> Self {
        Self {
            ctx: EmitCtx {
                mode,
                cpu: Engine::new(core_cfg, Hierarchy::default()),
                mc: MallocCache::new(mc_cfg),
                lookup_bp: LocalPredictor::new(),
                pop_bp: LocalPredictor::new(),
            },
            offload: match mode {
                Mode::Offload(cfg) => Some(OffloadQueue::new(cfg)),
                _ => None,
            },
            totals: SimTotals::default(),
        }
    }

    /// The core model.
    pub fn engine(&self) -> &Engine {
        &self.ctx.cpu
    }

    /// Read access to the core's cache hierarchy.
    pub fn memory(&self) -> &Hierarchy {
        self.ctx.cpu.mem()
    }

    /// Mutable access to the core's cache hierarchy. The multi-core layer
    /// uses this to install shared-L3 snapshots and turn on L3 access
    /// logging for the epoch merge.
    pub fn memory_mut(&mut self) -> &mut Hierarchy {
        self.ctx.cpu.mem_mut()
    }

    /// The retirement-side CPI stack of everything simulated so far.
    pub fn cpi_stack(&self) -> mallacc_ooo::CpiStack {
        self.ctx.cpu.cpi_stack()
    }

    /// The malloc cache (meaningful in [`Mode::Mallacc`]).
    pub fn malloc_cache(&self) -> &MallocCache {
        &self.ctx.mc
    }

    /// Switches the core between full detailed simulation (`None`) and
    /// SMARTS-style sampled simulation under `plan`. Sampling only changes
    /// *timing*: every functional decision — heap layout, malloc-cache
    /// content, branch history — is taken identically, which the
    /// sampled-vs-full differential suites pin.
    pub fn set_sampling(&mut self, plan: Option<mallacc_ooo::SamplingPlan>) {
        self.ctx.cpu.set_sampling(plan);
    }

    /// The sampled run's measurement report (`None` in full mode).
    pub fn sampling_report(&self) -> Option<mallacc_ooo::SamplingReport> {
        self.ctx.cpu.sampling_report()
    }

    /// Offload-queue conservation counters ([`Mode::Offload`] only).
    pub fn offload_stats(&self) -> Option<OffloadStats> {
        self.offload.as_ref().map(OffloadQueue::stats)
    }

    /// Installs an observability sink on the core. Tracing is observation-
    /// only: it never changes simulated timing.
    pub fn attach_tracer(&mut self, sink: Box<dyn TraceSink>) {
        self.ctx.cpu.set_sink(sink);
    }

    /// Removes and returns the installed sink, if any. Downcast it back to
    /// its concrete type with [`TraceSink::into_any`].
    pub fn detach_tracer(&mut self) -> Option<Box<dyn TraceSink>> {
        self.ctx.cpu.take_sink()
    }

    /// Accumulated cycle totals.
    pub fn totals(&self) -> SimTotals {
        self.totals
    }

    /// Resets the cycle totals (e.g. after warm-up) without touching any
    /// simulated state.
    pub fn reset_totals(&mut self) {
        self.totals = SimTotals::default();
    }

    /// Models application compute between allocator calls: `cycles` of
    /// activity that neither touches the allocator's lines nor stalls.
    pub fn app_run(&mut self, cycles: u64) {
        let now = self.ctx.cpu.now();
        self.ctx.cpu.skip_to_cycle(now + cycles);
        self.totals.app_cycles += cycles;
    }

    /// Models application memory traffic: one load per address (this is
    /// what organically evicts allocator structures in cache-heavy apps).
    pub fn app_touch(&mut self, addrs: &[Addr]) {
        let start = self.ctx.cpu.now();
        for &a in addrs {
            let d = self.ctx.cpu.alloc_reg();
            self.ctx.cpu.push(Uop::load(a, d, &[]));
        }
        self.totals.app_cycles += self.ctx.cpu.now().saturating_sub(start);
    }

    /// The paper's antagonist callback: evict the LRU `fraction` of every
    /// L1 and L2 set.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn antagonize(&mut self, fraction: f64) {
        self.ctx.cpu.mem_mut().evict_antagonist(fraction);
    }

    /// The machine side of a context switch; see [`Driver::context_switch`].
    fn switch_out(&mut self, quantum_cycles: u64) {
        self.ctx.mc.flush();
        self.ctx.cpu.mem_mut().evict_antagonist(0.5);
        let now = self.ctx.cpu.now();
        self.ctx.cpu.skip_to_cycle(now + quantum_cycles);
        self.totals.app_cycles += quantum_cycles;
    }

    /// Times one call: opens its trace window, stalls for any lock
    /// contention, wraps the µop program (or, in offload mode, the queue
    /// handoff) in the `call`/`ret` boundary, and books the retirement
    /// delta on the totals.
    fn time_call(
        &mut self,
        info: CallInfo,
        contention_cycles: u64,
        emit: impl FnOnce(&mut EmitCtx),
    ) -> CallRecord {
        // Per-call time is attributed by retirement: the cycles between the
        // previous call's last retired µop and this call's. Summed over a
        // run this equals total wall-clock time, exactly how "time spent in
        // the allocator" is accounted in the paper's figures.
        let kind = CallKind::from(info.path);
        let start = self.ctx.cpu.now();
        // Op windows only matter to an attached sink; without one they
        // would only close pending fast-forward regions early, which the
        // next detailed µop or time skip does anyway.
        let traced = self.ctx.cpu.has_sink();
        if traced {
            self.ctx.cpu.trace_op_begin();
        }
        if contention_cycles > 0 {
            self.ctx.cpu.skip_to_cycle(start + contention_cycles);
        }
        self.call_boundary();
        if let Mode::Offload(cfg) = self.ctx.mode {
            self.emit_offload(cfg, &info);
        } else {
            emit(&mut self.ctx);
        }
        self.call_boundary();
        self.ctx.cpu.set_component(Component::App);
        let end = self.ctx.cpu.now();
        let cycles = end.saturating_sub(start);
        if traced {
            self.ctx.cpu.trace_op_end(&OpMeta {
                name: kind.label(),
                is_malloc: kind.is_malloc(),
                size: info.size,
                cls: info.cls,
                start,
                end,
            });
        }
        if kind.is_malloc() {
            self.totals.malloc_calls += 1;
            self.totals.malloc_cycles += cycles;
        } else {
            self.totals.free_calls += 1;
            self.totals.free_cycles += cycles;
        }
        CallRecord {
            cycles,
            kind,
            ptr: info.ptr,
            size: info.size,
            cls: info.cls,
            sampled: info.sampled,
        }
    }

    /// Pushes the `call`/`ret` control transfer at a call boundary: a
    /// taken branch that ends the fetch group.
    fn call_boundary(&mut self) {
        self.ctx.cpu.set_component(Component::Boundary);
        self.ctx.cpu.push(Uop::jump(&[]));
    }

    /// Emits an offload-mode call. Marshals the request onto the queue —
    /// operand marshal, the doorbell write, and any queue-full
    /// backpressure as an explicit `Offload`-tagged stall µop. A free is
    /// fire-and-forget; a malloc then stalls only for the part of the
    /// response latency the speculation window cannot hide.
    fn emit_offload(&mut self, cfg: OffloadConfig, info: &CallInfo) {
        let service = service_cycles(info.path, info.sampled, &cfg);
        let queue = self.offload.as_mut().expect("offload mode has a queue");
        let cpu = &mut self.ctx.cpu;
        cpu.set_component(Component::Offload);
        let req = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(req), &[]));
        let db = cpu.alloc_reg();
        let t = cpu.push(Uop::alu(cfg.enqueue_latency.max(1), Some(db), &[req]));
        let enq = queue.enqueue(t.complete, service);
        if enq.stall_cycles > 0 {
            // Queue-full backpressure: the doorbell write blocks until the
            // oldest response drains.
            let stalled = cpu.alloc_reg();
            let wait = u32::try_from(enq.stall_cycles).unwrap_or(u32::MAX);
            cpu.push(Uop::alu(wait.max(1), Some(stalled), &[db]));
        }
        if CallKind::from(info.path).is_malloc() {
            // The main core speculates past the returned pointer for up to
            // `speculative_window` cycles; it stalls for the remainder.
            let need_at = t.complete + u64::from(cfg.speculative_window);
            let wait = enq.response_ready.saturating_sub(need_at.max(cpu.now()));
            if wait > 0 {
                let d = cpu.alloc_reg();
                let w = u32::try_from(wait).unwrap_or(u32::MAX);
                cpu.push(Uop::alu(w.max(1), Some(d), &[]));
            }
        }
        cpu.set_component(Component::App);
    }
}

impl EmitCtx {
    /// The accelerator configuration ([`Mode::Mallacc`] only).
    pub fn accel(&self) -> Option<AccelConfig> {
        match self.mode {
            Mode::Mallacc(a) => Some(a),
            _ => None,
        }
    }

    /// The components a limit study removes (none outside [`Mode::Limit`]).
    pub fn limit(&self) -> LimitRemove {
        match self.mode {
            Mode::Limit(l) => l,
            _ => LimitRemove::default(),
        }
    }

    /// True when the accelerator keeps cached list copies that software
    /// must resync after wholesale list changes.
    pub fn needs_cache(&self) -> bool {
        self.accel().is_some_and(|a| a.needs_cache())
    }

    /// The function prologue or epilogue: `n` independent overhead µops,
    /// tagged [`Component::Overhead`].
    pub fn overhead(&mut self, n: usize) {
        self.cpu.set_component(Component::Overhead);
        prog::emit_overhead(&mut self.cpu, n);
    }

    /// The function prologue: `n` overhead µops, then the µop that moves
    /// the call's argument into the register it returns, all tagged
    /// [`Component::Overhead`].
    pub fn prologue(&mut self, n: usize) -> Reg {
        self.overhead(n);
        let arg = self.cpu.alloc_reg();
        self.cpu.push(Uop::alu(1, Some(arg), &[]));
        arg
    }

    /// Resyncs `raw`'s cached pair to `(head, next)` after software
    /// replaced the list wholesale (a refill, flush or drain), when the
    /// accelerator keeps cached copies at all.
    pub fn resync(&mut self, raw: u16, head: Option<Addr>, next: Option<Addr>) {
        if self.needs_cache() {
            self.mc.sync_list(raw, head, next);
        }
    }

    /// `mcszlookup` on `key`: looks the malloc cache up and pushes the
    /// lookup µop. Returns its register and the hit, if any; the caller
    /// emits the fallback branch.
    pub fn mcszlookup(&mut self, key: u64, arg: Reg) -> (Reg, Option<SizeLookup>) {
        let now = self.cpu.now();
        let hit = self.mc.lookup(key, now);
        let lk = self.cpu.alloc_reg();
        let lat = self.mc.config().lookup_latency();
        self.cpu.push(Uop::alu(lat, Some(lk), &[arg]));
        (lk, hit)
    }

    /// The size-class component under the current mode, tagged
    /// [`Component::SizeClass`], for substrates whose fallback branch
    /// always predicts: nothing in a limit study,
    /// the software sequence `sw` without the size-class optimisation,
    /// otherwise `mcszlookup` on `key` with `sw` plus `mcszupdate` as the
    /// miss fallback. Returns the class register.
    pub fn size_class(
        &mut self,
        key: u64,
        alloc_size: u64,
        raw: u16,
        arg: Reg,
        sw: impl FnOnce(&mut Engine) -> Reg,
    ) -> Reg {
        self.cpu.set_component(Component::SizeClass);
        if self.limit().size_class {
            return arg;
        }
        if !self.accel().is_some_and(|a| a.size_class_opt) {
            return sw(&mut self.cpu);
        }
        let (lk, hit) = self.mcszlookup(key, arg);
        self.cpu.push(Uop::branch(false, &[lk]));
        match hit {
            Some(h) => {
                debug_assert_eq!(h.size_class, raw, "size-class cache inconsistency");
                lk
            }
            None => {
                let r = sw(&mut self.cpu);
                self.mc.update(key, alloc_size, raw);
                r
            }
        }
    }

    /// The allocation-sampling countdown on the byte counter at `counter`:
    /// nothing in a limit study; with the dedicated counter, no fast-path
    /// µops at all — only the PMU interrupt on a `sampled` call, charged so
    /// the comparison with the software sampler stays fair; otherwise the
    /// software load/decrement/branch/store. Tagged
    /// [`Component::Sampling`]; the caller's component is restored after.
    pub fn emit_sampling(&mut self, counter: Addr, dep: Reg, sampled: bool) {
        let outer = self.cpu.component();
        self.cpu.set_component(Component::Sampling);
        if self.limit().sampling {
            // Removed by the limit study.
        } else if self.accel().is_some_and(|a| a.sampling_opt) {
            if sampled {
                prog::emit_pmu_sample_interrupt(&mut self.cpu);
            }
        } else {
            prog::emit_sampling_sw(&mut self.cpu, counter, dep, sampled);
        }
        self.cpu.set_component(outer);
    }

    /// `mchdpop` on `raw`'s cached list, stalled by any outstanding
    /// prefetch on the entry. The stall is measured against the µop's own
    /// ready time (the cycle it would have executed), not the retirement
    /// watermark. Returns the result register and the cache's answer; the
    /// caller emits the fallback branch.
    pub fn mchdpop(&mut self, raw: u16, dep: Reg) -> (Reg, PopResult) {
        let blocked_until = self.mc.block_delay(raw, 0);
        let pop_raw = self.cpu.alloc_reg();
        let t = self.cpu.push(Uop::alu(1, Some(pop_raw), &[dep]));
        let result = self.mc.pop(raw, t.ready);
        if blocked_until > t.ready {
            let stalled = self.cpu.alloc_reg();
            let wait = (blocked_until - t.ready) as u32;
            self.cpu
                .push(Uop::alu(wait.max(1), Some(stalled), &[pop_raw]));
            (stalled, result)
        } else {
            (pop_raw, result)
        }
    }

    /// `mchdpush` of a freed block: a push produces no value, so it can
    /// retire into a store-buffer slot and drain into the malloc cache once
    /// any outstanding prefetch returns (the senior-store-queue argument of
    /// §4.1) — it carries no pipeline stall.
    pub fn mchdpush(&mut self, raw: u16, block: Addr, dep: Reg) {
        let d = self.cpu.alloc_reg();
        let t = self.cpu.push(Uop::alu(1, Some(d), &[dep]));
        self.mc.push(raw, block, t.ready);
    }

    /// Republishes a cached `(head, next)` pair with two register-operand
    /// `mchdpush` instructions after `dep` produced the value below the
    /// new head — the cheap alternative to a blocking `mcnxtprefetch` for
    /// fast paths too short to hide one.
    pub fn mchdpush_pair(&mut self, raw: u16, head: Option<Addr>, next: Option<Addr>, dep: Reg) {
        let p1 = self.cpu.alloc_reg();
        self.cpu.push(Uop::alu(1, Some(p1), &[dep]));
        let p2 = self.cpu.alloc_reg();
        self.cpu.push(Uop::alu(1, Some(p2), &[p1]));
        self.mc.sync_list(raw, head, next);
    }
}

/// The per-call simulator of one allocator substrate: its functional model
/// plus the shared machine.
///
/// The [`Shell`]'s accessors (`engine()`, `totals()`, `malloc_cache()`,
/// `set_sampling()`, …) are reached through `Deref`.
///
/// # Example
///
/// ```
/// use mallacc::{MallocSim, Mode, CallKind};
///
/// let mut sim = MallocSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, CallKind::MallocFast);
/// assert!(hit.cycles < warm.cycles);
/// ```
#[derive(Debug)]
pub struct Driver<F> {
    pub(crate) shell: Shell,
    alloc: F,
}

impl<F: FastPath> Driver<F> {
    /// Creates a simulator over a cold heap on the paper's core.
    pub fn new(mode: Mode) -> Self {
        Self::with_allocator(mode, F::shared(1), CoreConfig::haswell())
    }

    /// Creates a simulator over `alloc` on a core configured by `core_cfg`.
    pub fn with_allocator(mode: Mode, alloc: F, core_cfg: CoreConfig) -> Self {
        let mut mc_cfg = match mode {
            Mode::Mallacc(a) => a.cache,
            _ => MallocCacheConfig::paper_default(),
        };
        if let Some(keying) = F::KEYING {
            mc_cfg.keying = keying;
        }
        Self {
            shell: Shell::new(mode, mc_cfg, core_cfg),
            alloc,
        }
    }

    /// The functional allocator (for statistics and inspection).
    pub fn allocator(&self) -> &F {
        &self.alloc
    }

    /// Simulates one malloc call.
    pub fn malloc(&mut self, size: u64) -> CallRecord {
        let thread = self.alloc.current_thread();
        let (outcome, post) = self.alloc.serve_malloc(thread, size);
        self.time_malloc(&outcome, post, 0)
    }

    /// Simulates one free call. `sized` selects C++14 sized deallocation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> CallRecord {
        let thread = self.alloc.current_thread();
        let (outcome, post) = self.alloc.serve_free(thread, ptr, sized);
        self.time_free(&outcome, post, 0)
    }

    /// Replays the timing of an already-performed malloc: pushes the call's
    /// µop program through the core without touching this sim's functional
    /// allocator. `post` is the post-call state as captured by whoever
    /// performed the call; `contention_cycles` stalls the call up front
    /// (the multi-core shared-structure contention model).
    pub fn time_malloc(
        &mut self,
        outcome: &F::Malloc,
        post: PostList,
        contention_cycles: u64,
    ) -> CallRecord {
        self.shell
            .time_call(F::malloc_info(outcome), contention_cycles, |sh| {
                F::emit_malloc(sh, outcome, post)
            })
    }

    /// Replays the timing of an already-performed free; the counterpart of
    /// [`Driver::time_malloc`].
    pub fn time_free(
        &mut self,
        outcome: &F::Free,
        post: PostList,
        contention_cycles: u64,
    ) -> CallRecord {
        self.shell
            .time_call(F::free_info(outcome), contention_cycles, |sh| {
                F::emit_free(sh, outcome, post)
            })
    }

    /// Invalidates the malloc cache's cached list for the raw class `raw`
    /// (the size mapping survives). The multi-core layer issues this on
    /// the victim core when another thread mutates its free list out from
    /// under the accelerator — the §4.1 copies-only design makes the drop
    /// free of writebacks, so it costs no µops.
    pub fn invalidate_mc_list(&mut self, raw: u16) {
        self.shell.ctx.mc.invalidate_list(raw);
    }

    /// Models a context switch: the malloc cache is flushed wholesale
    /// (§4.1 — it only holds copies, so no writebacks are needed and
    /// correctness is unaffected), the other thread's footprint evicts the
    /// LRU halves of L1/L2, the substrate reacts (a per-CPU allocator
    /// migrates to the next CPU), and `quantum_cycles` of foreign
    /// execution pass.
    pub fn context_switch(&mut self, quantum_cycles: u64) {
        self.alloc.on_context_switch();
        self.shell.switch_out(quantum_cycles);
    }
}

impl<F> Deref for Driver<F> {
    type Target = Shell;

    fn deref(&self) -> &Shell {
        &self.shell
    }
}

impl<F> DerefMut for Driver<F> {
    fn deref_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }
}
