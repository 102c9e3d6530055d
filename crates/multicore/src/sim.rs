//! Phase B: epoch-parallel per-core timing replay over a shared L3.
//!
//! Each simulated core owns a full single-core timing stack — out-of-order
//! engine, private L1/L2, private malloc cache — and replays its captured
//! event stream. The cores share one L3 through the epoch protocol of
//! [`SharedL3`]:
//!
//! 1. *(serial)* every core installs a snapshot of the L3 master;
//! 2. *(parallel, `std::thread::scope`)* every core replays up to
//!    `epoch_events` events against its private replica, logging the
//!    accesses that reached the L3 level;
//! 3. *(serial, fixed core order)* the logs are committed to the master.
//!
//! Cross-core L3 interference is therefore visible with one epoch of
//! delay — the standard lax-synchronisation trade of parallel
//! architectural simulators — while the simulation stays bit-identical
//! across host thread schedules: nothing a core computes during an epoch
//! depends on any other core's progress through it.

use std::marker::PhantomData;

use mallacc::{
    CallRecord, Driver, FastPath, MallocCacheStats, Mode, SimMode, SimTotals, TraceSink,
};
use mallacc_cache::{Addr, CacheStats, SharedL3};
use mallacc_tcmalloc::{AllocStats, TcMalloc};
use mallacc_workloads::{MtOp, MtTrace};

use crate::capture::{capture_on, CoreEvent};

/// Default events each core replays between L3 synchronisation barriers.
pub const DEFAULT_EPOCH_EVENTS: usize = 256;

/// Base of a core's private application working set. Keeping per-core app
/// traffic in disjoint ranges means cores fight for L3 *capacity* (the real
/// effect) without false sharing of simulated lines.
fn app_base(core: usize) -> Addr {
    0x7000_0000 + core as u64 * 0x1000_0000
}

/// The N-core simulator of substrate `F` (TCMalloc by default): functional
/// capture on one shared heap plus epoch-parallel replay on per-core
/// [`Driver`]s.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_multicore::MulticoreSim;
/// use mallacc_workloads::MtTrace;
///
/// let trace = MtTrace::producer_consumer(2, 60, 42);
/// let r = MulticoreSim::new(Mode::mallacc_default(), 2).run(&trace);
/// assert_eq!(r.per_core.len(), 2);
/// assert!(r.aggregate().allocator_cycles() > 0);
/// ```
#[derive(Debug)]
pub struct MulticoreSim<F = TcMalloc> {
    mode: Mode,
    cores: usize,
    epoch_events: usize,
    sim: SimMode,
    substrate: PhantomData<fn() -> F>,
}

impl<F> Clone for MulticoreSim<F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for MulticoreSim<F> {}

/// One core's share of a run.
#[derive(Debug, Clone, Copy)]
pub struct CoreReport {
    /// Cycle totals of this core's replay.
    pub totals: SimTotals,
    /// The core's private malloc-cache counters.
    pub mc: MallocCacheStats,
    /// The core's view of the (shared) L3: its replica's hit/miss counts.
    pub l3: CacheStats,
}

/// Result of one multi-core run; `S` is the substrate's allocator
/// statistics (TCMalloc's by default).
#[derive(Debug, Clone)]
pub struct MtRunResult<S = AllocStats> {
    /// The mode the timing was replayed under.
    pub mode: Mode,
    /// Per-core reports, indexed by core.
    pub per_core: Vec<CoreReport>,
    /// The shared functional allocator's statistics (phase A).
    pub alloc: S,
    /// Frees issued by a core other than the allocating one (phase A).
    pub remote_frees: u64,
    /// The shared L3 master's statistics (accesses as committed).
    pub shared_l3: CacheStats,
    /// L3-level accesses merged into the master.
    pub shared_l3_accesses: u64,
    /// Synchronisation epochs the replay took.
    pub epochs: u64,
    /// Steal-induced malloc-cache invalidations replayed.
    pub steal_invalidates: u64,
}

impl<S> MtRunResult<S> {
    /// Sum of every core's totals.
    pub fn aggregate(&self) -> SimTotals {
        let mut t = SimTotals::default();
        for c in &self.per_core {
            t.malloc_calls += c.totals.malloc_calls;
            t.malloc_cycles += c.totals.malloc_cycles;
            t.free_calls += c.totals.free_calls;
            t.free_cycles += c.totals.free_cycles;
            t.app_cycles += c.totals.app_cycles;
        }
        t
    }

    /// Mean cycles per allocator call (malloc and free) across all cores.
    pub fn cycles_per_call(&self) -> f64 {
        let t = self.aggregate();
        let calls = t.malloc_calls + t.free_calls;
        if calls == 0 {
            0.0
        } else {
            t.allocator_cycles() as f64 / calls as f64
        }
    }

    /// The slowest core's program time — the wall clock of the simulated
    /// parallel region.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_core
            .iter()
            .map(|c| c.totals.program_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Drops the substrate-specific allocator statistics, so runs of
    /// different substrates share one type.
    pub fn without_alloc(self) -> MtRunResult<()> {
        MtRunResult {
            mode: self.mode,
            per_core: self.per_core,
            alloc: (),
            remote_frees: self.remote_frees,
            shared_l3: self.shared_l3,
            shared_l3_accesses: self.shared_l3_accesses,
            epochs: self.epochs,
            steal_invalidates: self.steal_invalidates,
        }
    }
}

/// One core's replay state (engine + stream cursor + app-touch cursor).
struct CoreReplay<F: FastPath> {
    sim: Driver<F>,
    stream: Vec<CoreEvent<F>>,
    pos: usize,
    touch_cursor: u64,
    app_base: Addr,
}

impl<F: FastPath> CoreReplay<F> {
    fn done(&self) -> bool {
        self.pos >= self.stream.len()
    }

    /// Replays up to `budget` events; returns when the budget or the
    /// stream runs out.
    fn run_epoch(&mut self, budget: usize) {
        let end = (self.pos + budget).min(self.stream.len());
        while self.pos < end {
            match &self.stream[self.pos] {
                CoreEvent::Malloc {
                    outcome,
                    post,
                    contention,
                } => {
                    let _: CallRecord = self.sim.time_malloc(outcome, *post, *contention);
                }
                CoreEvent::Free {
                    outcome,
                    post,
                    contention,
                } => {
                    let _: CallRecord = self.sim.time_free(outcome, *post, *contention);
                }
                CoreEvent::AppRun { cycles } => self.sim.app_run(*cycles),
                CoreEvent::AppTouch {
                    lines,
                    working_set_lines,
                } => {
                    let ws = u64::from(*working_set_lines).max(1);
                    let addrs: Vec<Addr> = (0..u64::from(*lines))
                        .map(|i| self.app_base + ((self.touch_cursor + i) % ws) * 64)
                        .collect();
                    self.touch_cursor = (self.touch_cursor + u64::from(*lines)) % ws;
                    self.sim.app_touch(&addrs);
                }
                CoreEvent::McInvalidate { cls } => self.sim.invalidate_mc_list(*cls),
            }
            self.pos += 1;
        }
    }
}

impl MulticoreSim {
    /// A `cores`-core TCMalloc simulator in `mode` with the default epoch
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(mode: Mode, cores: usize) -> Self {
        Self::for_substrate(mode, cores)
    }
}

impl<F: FastPath> MulticoreSim<F> {
    /// A `cores`-core simulator of substrate `F` in `mode` with the
    /// default epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn for_substrate(mode: Mode, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self {
            mode,
            cores,
            epoch_events: DEFAULT_EPOCH_EVENTS,
            sim: SimMode::Full,
            substrate: PhantomData,
        }
    }

    /// Overrides the events-per-core-per-epoch synchronisation grain.
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero.
    pub fn with_epoch_events(mut self, events: usize) -> Self {
        assert!(events > 0, "epoch must make progress");
        self.epoch_events = events;
        self
    }

    /// Selects full detailed or sampled execution for every core's
    /// timing replay. Sampling is a pure timing-fidelity axis: the
    /// functional allocator, epoch interleaving and L3 sharing are
    /// unchanged, each core merely extrapolates its cycle totals from
    /// the plan's measured windows.
    pub fn with_sim(mut self, sim: SimMode) -> Self {
        self.sim = sim;
        self
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The timing mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Runs `trace` through both phases and reports per-core and aggregate
    /// results. Deterministic: the same trace and configuration produce the
    /// same report regardless of host scheduling.
    ///
    /// # Panics
    ///
    /// Panics if the trace was generated for a different core count.
    pub fn run(&self, trace: &MtTrace) -> MtRunResult<F::Stats> {
        self.run_with_sinks(trace, Vec::new()).0
    }

    /// Like [`MulticoreSim::run`], but attaches one [`TraceSink`] per core
    /// before the replay and returns them (in core order) alongside the
    /// result. Sinks observe every retired µop, skip, and operation window
    /// of their core; attribution is per-core-deterministic because each
    /// engine only ever runs on its own captured stream.
    ///
    /// An empty `sinks` vector attaches nothing (this is what
    /// [`MulticoreSim::run`] does); otherwise its length must equal the
    /// core count.
    ///
    /// # Panics
    ///
    /// Panics if the trace was generated for a different core count, or if
    /// `sinks` is non-empty with a length other than `cores`.
    pub fn run_with_sinks(
        &self,
        trace: &MtTrace,
        sinks: Vec<Box<dyn TraceSink>>,
    ) -> (MtRunResult<F::Stats>, Vec<Box<dyn TraceSink>>) {
        assert_eq!(
            trace.cores(),
            self.cores,
            "trace core count must match the simulator"
        );
        self.run_stream_with_sinks(trace.ops().iter().copied(), sinks)
    }

    /// Streaming variant of [`MulticoreSim::run`]: captures from any
    /// `(core, op)` iterator, so the trace never has to be materialised
    /// (the fleet engine's entry point).
    pub fn run_stream(
        &self,
        ops: impl IntoIterator<Item = (usize, MtOp)>,
    ) -> MtRunResult<F::Stats> {
        self.run_stream_with_sinks(ops, Vec::new()).0
    }

    /// Streaming variant of [`MulticoreSim::run_with_sinks`].
    ///
    /// # Panics
    ///
    /// Panics if an op names a core out of range, or if `sinks` is
    /// non-empty with a length other than `cores`.
    pub fn run_stream_with_sinks(
        &self,
        ops: impl IntoIterator<Item = (usize, MtOp)>,
        sinks: Vec<Box<dyn TraceSink>>,
    ) -> (MtRunResult<F::Stats>, Vec<Box<dyn TraceSink>>) {
        assert!(
            sinks.is_empty() || sinks.len() == self.cores,
            "need one sink per core (or none)"
        );
        let cap = capture_on(F::shared(self.cores), self.cores, ops);

        let mut sink_slots: Vec<Option<Box<dyn TraceSink>>> = if sinks.is_empty() {
            (0..self.cores).map(|_| None).collect()
        } else {
            sinks.into_iter().map(Some).collect()
        };
        let mut replays: Vec<CoreReplay<F>> = cap
            .streams
            .into_iter()
            .enumerate()
            .map(|(core, stream)| {
                let mut sim = Driver::<F>::new(self.mode);
                sim.set_sampling(self.sim.plan());
                sim.memory_mut().set_l3_logging(true);
                if let Some(sink) = sink_slots[core].take() {
                    sim.attach_tracer(sink);
                }
                CoreReplay {
                    sim,
                    stream,
                    pos: 0,
                    touch_cursor: 0,
                    app_base: app_base(core),
                }
            })
            .collect();

        let l3_config = replays[0].sim.memory().config().l3;
        let mut shared = SharedL3::new(l3_config);
        let mut epochs = 0u64;

        while replays.iter().any(|r| !r.done()) {
            // (1) Refresh every replica from the master, serially.
            for r in replays.iter_mut() {
                r.sim.memory_mut().install_l3(shared.snapshot());
            }
            // (2) Replay one epoch per core, in parallel. Each core only
            // touches its own state, so scheduling cannot change results.
            let budget = self.epoch_events;
            std::thread::scope(|s| {
                for r in replays.iter_mut() {
                    s.spawn(move || r.run_epoch(budget));
                }
            });
            // (3) Merge the epoch's L3 traffic in fixed core order.
            for r in replays.iter_mut() {
                let log = r.sim.memory_mut().take_l3_log();
                shared.commit(&log);
            }
            epochs += 1;
        }

        let per_core = replays
            .iter()
            .map(|r| CoreReport {
                totals: r.sim.totals(),
                mc: r.sim.malloc_cache().stats(),
                l3: r.sim.memory().stats().2,
            })
            .collect();
        let sinks_out: Vec<Box<dyn TraceSink>> = replays
            .iter_mut()
            .filter_map(|r| r.sim.detach_tracer())
            .collect();

        (
            MtRunResult {
                mode: self.mode,
                per_core,
                alloc: cap.alloc_stats,
                remote_frees: cap.remote_frees,
                shared_l3: shared.stats(),
                shared_l3_accesses: shared.committed_accesses(),
                epochs,
                steal_invalidates: cap.steal_invalidates,
            },
            sinks_out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles_per_call(mode: Mode, trace: &MtTrace) -> f64 {
        MulticoreSim::new(mode, trace.cores())
            .run(trace)
            .cycles_per_call()
    }

    #[test]
    fn run_is_deterministic() {
        let t = MtTrace::producer_consumer(4, 60, 9);
        let a = MulticoreSim::new(Mode::mallacc_default(), 4).run(&t);
        let b = MulticoreSim::new(Mode::mallacc_default(), 4).run(&t);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.shared_l3_accesses, b.shared_l3_accesses);
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x.totals, y.totals);
            assert_eq!(x.mc, y.mc);
        }
    }

    #[test]
    fn per_core_call_counts_match_the_trace() {
        let t = MtTrace::producer_consumer(3, 80, 2);
        let r = MulticoreSim::new(Mode::Baseline, 3).run(&t);
        for (core, c) in r.per_core.iter().enumerate() {
            assert_eq!(
                c.totals.malloc_calls as usize,
                t.malloc_count_on(core),
                "core {core} replayed the wrong number of mallocs"
            );
        }
        let agg = r.aggregate();
        assert_eq!(agg.malloc_calls, agg.free_calls, "trace frees everything");
    }

    #[test]
    fn mallacc_beats_baseline_on_the_ring() {
        let t = MtTrace::producer_consumer(2, 400, 7);
        let base = cycles_per_call(Mode::Baseline, &t);
        let accel = cycles_per_call(Mode::mallacc_default(), &t);
        let limit = cycles_per_call(Mode::limit_all(), &t);
        assert!(accel < base, "mallacc {accel:.1} !< baseline {base:.1}");
        assert!(
            limit <= accel + 1.0,
            "limit {limit:.1} must bound mallacc {accel:.1}"
        );
    }

    #[test]
    fn offload_mode_runs_multicore_and_is_deterministic() {
        let t = MtTrace::producer_consumer(2, 200, 7);
        let a = MulticoreSim::new(Mode::offload_default(), 2).run(&t);
        let b = MulticoreSim::new(Mode::offload_default(), 2).run(&t);
        assert_eq!(a.epochs, b.epochs);
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x.totals, y.totals);
        }
        // The functional phase is mode-independent: call counts match the
        // baseline run exactly.
        let base = MulticoreSim::new(Mode::Baseline, 2).run(&t);
        let (oa, ba) = (a.aggregate(), base.aggregate());
        assert_eq!(oa.malloc_calls, ba.malloc_calls);
        assert_eq!(oa.free_calls, ba.free_calls);
    }

    #[test]
    fn sinks_observe_without_perturbing_timing() {
        use mallacc::{OpMeta, TraceSink, UopEvent};

        #[derive(Debug, Default)]
        struct CountSink {
            retired: u64,
            ops: u64,
            attributed: u64,
        }
        impl TraceSink for CountSink {
            fn on_retire(&mut self, event: &UopEvent) {
                self.retired += 1;
                self.attributed += event.stall.total();
            }
            fn on_skip(&mut self, from: u64, to: u64) {
                self.attributed += to - from;
            }
            fn on_op_end(&mut self, _op: &OpMeta<'_>) {
                self.ops += 1;
            }
            fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
                self
            }
        }

        let t = MtTrace::producer_consumer(2, 120, 13);
        let sim = MulticoreSim::new(Mode::mallacc_default(), 2);
        let plain = sim.run(&t);
        let sinks: Vec<Box<dyn TraceSink>> = (0..2)
            .map(|_| Box::new(CountSink::default()) as Box<dyn TraceSink>)
            .collect();
        let (traced, sinks) = sim.run_with_sinks(&t, sinks);
        assert_eq!(sinks.len(), 2);
        for ((p, q), sink) in plain.per_core.iter().zip(&traced.per_core).zip(sinks) {
            assert_eq!(p.totals, q.totals, "sinks must not change timing");
            let c = sink
                .into_any()
                .downcast::<CountSink>()
                .expect("same sink back");
            assert!(c.retired > 0, "sink saw retirements");
            assert_eq!(
                c.ops,
                q.totals.malloc_calls + q.totals.free_calls,
                "every call produced an op window"
            );
            assert_eq!(
                c.attributed,
                q.totals.program_cycles(),
                "stall attribution conserves the core's program time"
            );
        }
    }

    #[test]
    fn epochs_scale_with_trace_length() {
        let t = MtTrace::producer_consumer(2, 200, 3);
        let r = MulticoreSim::new(Mode::Baseline, 2)
            .with_epoch_events(64)
            .run(&t);
        assert!(r.epochs > 1, "long trace must cross epoch boundaries");
        assert!(r.shared_l3_accesses > 0, "allocator traffic reaches L3");
    }

    #[test]
    fn steal_heavy_trace_replays_cleanly_with_invalidates() {
        use mallacc_workloads::MtOp::*;
        let mut ops = Vec::new();
        for n in 0..256u64 {
            ops.push((1usize, Malloc { size: 64, token: n }));
        }
        for n in 0..256u64 {
            ops.push((
                1usize,
                Free {
                    token: n,
                    sized: true,
                },
            ));
        }
        for n in 0..768u64 {
            ops.push((
                0usize,
                Malloc {
                    size: 64,
                    token: (1 << 32) | n,
                },
            ));
        }
        // Core 1 resumes allocating after the steal: its malloc cache must
        // not serve the stolen (stale) head — the driver debug_asserts it.
        for n in 256..320u64 {
            ops.push((1usize, Malloc { size: 64, token: n }));
        }
        let t = MtTrace::from_ops(2, ops);
        let r = MulticoreSim::new(Mode::mallacc_default(), 2).run(&t);
        assert!(r.alloc.steals > 0, "trace must force a steal");
        assert_eq!(r.steal_invalidates, r.alloc.steals);
        assert!(
            r.per_core[1].mc.list_invalidations > 0,
            "victim core must drop its cached list"
        );
    }

    #[test]
    fn remote_free_contention_costs_cycles() {
        // Same total calls, local (1-core self-free ring) vs remote
        // (2-core ring): the remote variant must pay more per call.
        let local = MtTrace::producer_consumer(1, 400, 5);
        let remote = MtTrace::producer_consumer(2, 200, 5);
        let l = cycles_per_call(Mode::Baseline, &local);
        let r = cycles_per_call(Mode::Baseline, &remote);
        assert!(
            r > l,
            "remote frees must cost more: local {l:.1}, remote {r:.1}"
        );
    }

    #[test]
    fn scaled_macro_runs_on_four_cores() {
        let w = mallacc_workloads::MacroWorkload::by_name("471.omnetpp").unwrap();
        let t = MtTrace::scaled(&w, 4, 60, 11);
        let r = MulticoreSim::new(Mode::mallacc_default(), 4).run(&t);
        for (core, c) in r.per_core.iter().enumerate() {
            assert!(c.totals.malloc_calls > 0, "core {core} idle");
            assert!(
                c.mc.lookup_hits + c.mc.lookup_misses > 0,
                "core {core} never consulted its malloc cache"
            );
        }
        assert!(r.aggregate().app_cycles > 0);
    }
}
