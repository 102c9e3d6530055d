//! Substrate dispatch over the per-call drivers.

use std::ops::{Deref, DerefMut};

use mallacc::{CallRecord, MallocSim, Mode, Shell};
use mallacc_cache::Addr;
use mallacc_jemalloc::JeSim;

use crate::kind::SubstrateKind;
use crate::pcsim::PcSim;
use crate::rpsim::RpSim;

/// One per-call driver of any substrate, under any [`Mode`].
///
/// This is what the explore grids and CLIs drive: pick a
/// [`SubstrateKind`] and an accelerator mode, get a
/// [`SimBackend`](mallacc_workloads::SimBackend) that replays traces. Everything
/// outside the allocator calls — engine, totals, malloc cache, sampling,
/// app activity — is the drivers' shared [`Shell`], reached through
/// `Deref`.
///
/// # Example
///
/// ```
/// use mallacc::Mode;
/// use mallacc_substrate::{AnySim, SubstrateKind};
///
/// let mut sim = AnySim::new(SubstrateKind::Rpmalloc, Mode::mallacc_default());
/// let block = sim.malloc(64);
/// sim.free(block.ptr, true);
/// assert_eq!(sim.call_counts(), (1, 1));
/// ```
#[derive(Debug)]
pub enum AnySim {
    /// The TCMalloc driver.
    TcMalloc(Box<MallocSim>),
    /// The jemalloc driver.
    JeMalloc(Box<JeSim>),
    /// The rpmalloc driver.
    Rpmalloc(Box<RpSim>),
    /// The per-CPU TCMalloc driver.
    PerCpu(Box<PcSim>),
}

/// Runs `$body` on the driver inside any variant.
macro_rules! dispatch {
    ($sim:expr, $s:ident => $body:expr) => {
        match $sim {
            AnySim::TcMalloc($s) => $body,
            AnySim::JeMalloc($s) => $body,
            AnySim::Rpmalloc($s) => $body,
            AnySim::PerCpu($s) => $body,
        }
    };
}

impl AnySim {
    /// Builds the `kind` substrate's simulator under `mode`.
    pub fn new(kind: SubstrateKind, mode: Mode) -> Self {
        match kind {
            SubstrateKind::TcMalloc => AnySim::TcMalloc(Box::new(MallocSim::new(mode))),
            SubstrateKind::JeMalloc => AnySim::JeMalloc(Box::new(JeSim::new(mode))),
            SubstrateKind::Rpmalloc => AnySim::Rpmalloc(Box::new(RpSim::new(mode))),
            SubstrateKind::PerCpu => AnySim::PerCpu(Box::new(PcSim::new(mode))),
        }
    }

    /// Which substrate this is.
    pub fn kind(&self) -> SubstrateKind {
        match self {
            AnySim::TcMalloc(_) => SubstrateKind::TcMalloc,
            AnySim::JeMalloc(_) => SubstrateKind::JeMalloc,
            AnySim::Rpmalloc(_) => SubstrateKind::Rpmalloc,
            AnySim::PerCpu(_) => SubstrateKind::PerCpu,
        }
    }

    /// Simulates one malloc.
    pub fn malloc(&mut self, size: u64) -> CallRecord {
        dispatch!(self, s => s.malloc(size))
    }

    /// Simulates one free.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or double free.
    pub fn free(&mut self, ptr: Addr, sized: bool) -> CallRecord {
        dispatch!(self, s => s.free(ptr, sized))
    }

    /// Models a context switch (per-CPU migrates to the next CPU).
    pub fn context_switch(&mut self, quantum_cycles: u64) {
        dispatch!(self, s => s.context_switch(quantum_cycles));
    }

    /// malloc + free cycles accumulated so far.
    pub fn allocator_cycles(&self) -> u64 {
        self.totals().allocator_cycles()
    }

    /// malloc and free call counts accumulated so far.
    pub fn call_counts(&self) -> (u64, u64) {
        let t = self.totals();
        (t.malloc_calls, t.free_calls)
    }
}

impl Deref for AnySim {
    type Target = Shell;

    fn deref(&self) -> &Shell {
        dispatch!(self, s => s)
    }
}

impl DerefMut for AnySim {
    fn deref_mut(&mut self) -> &mut Shell {
        dispatch!(self, s => s)
    }
}

impl mallacc_workloads::SimBackend for AnySim {
    fn backend_malloc(&mut self, size: u64) -> (u64, u64) {
        let r = self.malloc(size);
        (r.ptr, r.cycles)
    }
    fn backend_free(&mut self, ptr: u64, sized: bool) -> u64 {
        self.free(ptr, sized).cycles
    }
    fn backend_antagonize(&mut self, fraction: f64) {
        self.antagonize(fraction);
    }
    fn backend_context_switch(&mut self, quantum: u64) {
        self.context_switch(quantum);
    }
    fn backend_app_run(&mut self, cycles: u64) {
        self.app_run(cycles);
    }
    fn backend_app_touch(&mut self, addrs: &[Addr]) {
        self.app_touch(addrs);
    }
}

#[cfg(test)]
mod tests {
    use mallacc::CallKind;

    use super::*;

    /// Runs a mixed stream of sized and unsized frees, with app
    /// compute (3,000 cycles) and one 1,000-cycle context switch; returns
    /// every call's `(ptr, cycles)` in order.
    fn churn(sim: &mut AnySim) -> Vec<(Addr, u64)> {
        let mut calls = Vec::new();
        let mut live = Vec::new();
        for i in 0..300u64 {
            if i % 10 == 0 {
                sim.app_run(100);
            }
            if i == 150 {
                sim.context_switch(1_000);
            }
            let r = sim.malloc(16 + (i * 37) % 400);
            calls.push((r.ptr, r.cycles));
            live.push(r.ptr);
            if i % 3 == 2 {
                let p = live.remove((i as usize * 7) % live.len());
                let r = sim.free(p, i % 2 == 0);
                calls.push((p, r.cycles));
            }
        }
        calls
    }

    #[test]
    fn every_substrate_and_mode_keeps_the_call_ledger() {
        for kind in SubstrateKind::ALL {
            let heap = |sim: &mut AnySim| -> Vec<Addr> {
                churn(sim).into_iter().map(|(p, _)| p).collect()
            };
            let base_heap = heap(&mut AnySim::new(kind, Mode::Baseline));
            for mode in [
                Mode::Baseline,
                Mode::mallacc_default(),
                Mode::offload_default(),
                Mode::offload_both(),
            ] {
                let mut sim = AnySim::new(kind, mode);
                let calls = churn(&mut sim);
                let t = sim.totals();
                assert_eq!(
                    calls.iter().map(|&(_, c)| c).sum::<u64>(),
                    t.allocator_cycles(),
                    "{kind:?}/{mode:?}: per-call cycles must sum to the totals"
                );
                assert_eq!(sim.call_counts(), (300, 100), "{kind:?}/{mode:?}");
                assert_eq!(t.app_cycles, 4_000, "{kind:?}/{mode:?}: app time");
                match sim.offload_stats() {
                    Some(q) => {
                        assert!(matches!(mode, Mode::Offload(_)));
                        assert_eq!(q.enqueued, 400, "{kind:?}/{mode:?}: one request per call");
                        assert!(q.retired <= q.enqueued && q.busy_cycles > 0);
                    }
                    None => assert!(!matches!(mode, Mode::Offload(_))),
                }
                assert_eq!(
                    calls.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
                    base_heap,
                    "{kind:?}: heap diverges under {mode:?}"
                );
                sim.reset_totals();
                assert_eq!(sim.totals(), mallacc::SimTotals::default());
                assert_eq!(sim.kind(), kind);
            }
        }
    }

    /// Warm malloc/free pairs rotating over four size classes.
    fn rotate(sim: &mut AnySim, n: u64) {
        for i in 0..n {
            let ptr = sim.malloc(32 + (i % 4) * 32).ptr;
            sim.free(ptr, true);
        }
    }

    #[test]
    fn fast_paths_keep_their_substrate_shape() {
        // (substrate, warm baseline cycles per malloc, minimum extra
        // cycles per unsized free over a sized one, minimum mchdpop hits
        // over rotating pairs). Back-to-back pairs overlap in the window,
        // so TCMalloc's retirement-attributed cost sits somewhat below the
        // ~18-20 cycle isolated latency the paper quotes; its unsized
        // delete pays the poorly-caching pagemap walk, jemalloc's a
        // chunk-map walk and per-CPU's a pagemap lookup, while rpmalloc's
        // span mask erases the sized/unsized gap. rpmalloc's cached pair
        // needs a deeper list than rotating pairs build (see rpsim);
        // TCMalloc's same-class pairs are checked in its own tests.
        for (kind, per_malloc, unsized_gap, pop_hits) in [
            (SubstrateKind::TcMalloc, 10.0..=26.0, Some(2.0), Some(50)),
            (SubstrateKind::JeMalloc, 8.0..=26.0, Some(0.0), Some(100)),
            (SubstrateKind::Rpmalloc, 3.0..=18.0, None, None),
            (SubstrateKind::PerCpu, 6.0..=24.0, Some(0.0), Some(50)),
        ] {
            let mut sim = AnySim::new(kind, Mode::Baseline);
            let cold = sim.malloc(100);
            assert_ne!(cold.kind, CallKind::MallocFast, "{kind:?}");
            sim.free(cold.ptr, true);
            let warm = sim.malloc(100);
            assert_eq!((warm.ptr, warm.kind), (cold.ptr, CallKind::MallocFast));
            sim.free(warm.ptr, true);
            rotate(&mut sim, 100);
            sim.reset_totals();
            rotate(&mut sim, 400);
            let t = sim.totals();
            let per = t.malloc_cycles as f64 / t.malloc_calls as f64;
            assert!(per_malloc.contains(&per), "{kind:?}: warm malloc = {per}");
            let large = sim.malloc(1 << 20);
            assert_eq!(large.kind, CallKind::MallocLarge, "{kind:?}");
            assert!(
                large.cycles > 1000,
                "{kind:?}: large malloc {}",
                large.cycles
            );
            let kind_of_free = sim.free(large.ptr, false).kind;
            assert_eq!(kind_of_free, CallKind::FreeLarge, "{kind:?}");

            let free_cycles = |sized| {
                let mut sim = AnySim::new(kind, Mode::Baseline);
                rotate(&mut sim, 100);
                sim.reset_totals();
                for _ in 0..200 {
                    let ptr = sim.malloc(64).ptr;
                    sim.free(ptr, sized);
                }
                sim.totals().free_cycles
            };
            let (walked, sized) = (free_cycles(false), free_cycles(true));
            match unsized_gap {
                Some(gap) => assert!(
                    walked as f64 > sized as f64 + 200.0 * gap,
                    "{kind:?}: unsized {walked} vs sized {sized}"
                ),
                None => assert_eq!(walked, sized, "{kind:?}"),
            }

            let mut sim = AnySim::new(kind, Mode::mallacc_default());
            rotate(&mut sim, 200);
            let mc = sim.malloc_cache().stats();
            if let Some(hits) = pop_hits {
                assert!(mc.pop_hits > hits, "{kind:?}: pop hits {}", mc.pop_hits);
                assert!(mc.lookup_hits > 300, "{kind:?}: lookups {}", mc.lookup_hits);
            }
            // Only TCMalloc's fast path is long enough to hide a blocking
            // mcnxtprefetch; the others republish the pair with pushes.
            assert_eq!(
                mc.prefetches > 0,
                kind == SubstrateKind::TcMalloc,
                "{kind:?}"
            );
        }
    }
}
