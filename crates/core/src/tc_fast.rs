//! The TCMalloc fast path: the paper's baseline allocator under the shared
//! [`Driver`].
//!
//! Its µop programs mirror the ~40-instruction 2014-era fast path the
//! paper dissects in §3.3 (see [`crate::programs`]): a Figure 5 size-class
//! table walk, the sampling countdown, and the dependent `head = *list;
//! next = *head` pop chain. This is the only substrate whose accelerator
//! fallback branches go through the local-history predictors, and the only
//! one that prefetches with `mcnxtprefetch`.

use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Component, CoreConfig, Reg, Uop};
use mallacc_tcmalloc::{
    layout, ClassId, FreeOutcome, FreePath, MallocOutcome, MallocPath, TcMalloc, TcMallocConfig,
};

use crate::config::Mode;
use crate::driver::{CallInfo, Driver, EmitCtx, FastPath, PostList};
use crate::malloc_cache::PopResult;
use crate::programs as prog;

/// The TCMalloc simulator: the paper's Figures 13–17 machine.
pub type MallocSim = Driver<TcMalloc>;

/// Cycles for a prefetched line to travel from the cache hierarchy into
/// the malloc cache (the senior-store-queue-style completion path of
/// §4.1 "Core integration").
const MC_TRANSFER_LATENCY: u64 = 20;

/// Redirect penalty for the accelerator fallback branches: their targets
/// are a few instructions away and resident in the µop cache, so a
/// misprediction resteers in front-end-depth cycles, not the full pipeline.
const FALLBACK_PENALTY: u32 = 6;

impl Driver<TcMalloc> {
    /// Creates a simulator with explicit allocator and core configurations.
    pub fn with_configs(mode: Mode, alloc_cfg: TcMallocConfig, core_cfg: CoreConfig) -> Self {
        Self::with_allocator(mode, TcMalloc::new(alloc_cfg), core_cfg)
    }

    /// Invalidates the malloc cache's cached list for `cls` (the size
    /// mapping survives). The multi-core layer issues this on the victim
    /// core when a neighbour-cache steal mutates its free list out from
    /// under the accelerator — the §4.1 copies-only design makes the drop
    /// free of writebacks, so it costs no µops.
    pub fn invalidate_mc_list(&mut self, cls: ClassId) {
        self.shell.ctx.mc.invalidate_list(raw_class(cls));
    }
}

fn raw_class(cls: ClassId) -> u16 {
    u16::from(cls.as_u8())
}

/// Post-call list state of `cls` on `alloc`.
fn post_list(alloc: &TcMalloc, cls: Option<ClassId>) -> PostList {
    match cls {
        Some(c) => PostList {
            head: alloc.list_head(c),
            next: alloc.list_next_after_head(c),
        },
        None => PostList::default(),
    }
}

/// Emits the size-class component; returns `(cls_reg, alloc_size_reg)`.
fn emit_size_class(sh: &mut EmitCtx, size_reg: Reg, outcome: &MallocOutcome) -> (Reg, Reg) {
    sh.cpu.set_component(Component::SizeClass);
    let raw = raw_class(outcome.cls.expect("small path only"));
    let idx = outcome.class_index.expect("small path has an index");

    if sh.limit().size_class {
        // Limit study: the µops vanish; dependencies resolve to the
        // argument register.
        return (size_reg, size_reg);
    }
    let Some(a) = sh.accel() else {
        return prog::emit_size_class_sw(&mut sh.cpu, size_reg, idx, raw);
    };
    if !a.size_class_opt {
        let regs = prog::emit_size_class_sw(&mut sh.cpu, size_reg, idx, raw);
        if a.needs_cache() {
            // list_opt still needs entries to exist; software issues
            // mcszupdate after its computation.
            sh.mc.update(outcome.requested, outcome.alloc_size, raw);
            let d = sh.cpu.alloc_reg();
            sh.cpu.push(Uop::alu(1, Some(d), &[regs.0]));
        }
        return regs;
    }
    // mcszlookup. The je-to-fallback branch predicts well in steady
    // state but mispredicts when hits and misses alternate — exactly
    // what a too-small, thrashing malloc cache produces (the paper's
    // Figure 17 slowdowns).
    let (lk, hit) = sh.mcszlookup(outcome.requested, size_reg);
    let miss = sh.lookup_bp.mispredicted(hit.is_some());
    sh.cpu
        .push(Uop::branch_penalized(miss, FALLBACK_PENALTY, &[lk]));
    match hit {
        Some(h) => {
            debug_assert_eq!(h.size_class, raw, "size-class cache inconsistency");
            debug_assert_eq!(h.alloc_size, outcome.alloc_size);
            (lk, lk)
        }
        None => {
            // Fallback software computation + mcszupdate.
            let (cls_reg, sz_reg) = prog::emit_size_class_sw(&mut sh.cpu, size_reg, idx, raw);
            sh.mc.update(outcome.requested, outcome.alloc_size, raw);
            let d = sh.cpu.alloc_reg();
            sh.cpu.push(Uop::alu(1, Some(d), &[cls_reg, sz_reg]));
            (cls_reg, sz_reg)
        }
    }
}

/// Emits the fast-path pop; returns the register carrying the result.
fn emit_fast_pop(
    sh: &mut EmitCtx,
    raw: u16,
    cls_reg: Reg,
    list: Addr,
    block: Addr,
    next: Option<Addr>,
    post_next: Option<Addr>,
) -> Reg {
    sh.cpu.set_component(Component::Metadata);
    let la = prog::emit_list_addr(&mut sh.cpu, cls_reg);
    if sh.limit().push_pop {
        prog::emit_metadata(&mut sh.cpu, list, la);
        return la;
    }
    let Some(a) = sh.accel().filter(|a| a.list_opt) else {
        sh.cpu.set_component(Component::ListOp);
        let head = prog::emit_pop_sw(&mut sh.cpu, list, block, la);
        sh.cpu.set_component(Component::Metadata);
        prog::emit_metadata(&mut sh.cpu, list, la);
        return head;
    };
    sh.cpu.set_component(Component::ListOp);
    let (pop, result) = sh.mchdpop(raw, cls_reg);
    let pop_hit = matches!(result, PopResult::Hit { .. });
    let miss = sh.pop_bp.mispredicted(pop_hit);
    sh.cpu
        .push(Uop::branch_penalized(miss, FALLBACK_PENALTY, &[pop]));
    let head_reg = match result {
        PopResult::Hit {
            head,
            next: cached_next,
        } => {
            debug_assert_eq!(head, block, "malloc cache returned the wrong block");
            debug_assert_eq!(
                Some(cached_next),
                next,
                "cached next diverged from the list"
            );
            // Software still publishes the new head (store only — the
            // two loads are gone).
            sh.cpu.push(Uop::store(list, &[pop, la]));
            pop
        }
        PopResult::Miss => prog::emit_pop_sw(&mut sh.cpu, list, block, la),
    };
    if a.prefetch {
        if let Some(new_head) = next {
            // mcnxtprefetch rax, QWORD PTR [new_head]: hardware learns
            // (new_head, *new_head) and blocks the entry until arrival.
            let t = sh.cpu.push(Uop::prefetch(new_head, &[head_reg]));
            sh.mc.prefetch(
                raw,
                new_head,
                post_next,
                t.data_arrival() + MC_TRANSFER_LATENCY,
            );
        }
    }
    sh.cpu.set_component(Component::Metadata);
    prog::emit_metadata(&mut sh.cpu, list, la);
    head_reg
}

/// The free-side size-class resolution; returns the class register.
fn emit_free_class(sh: &mut EmitCtx, outcome: &FreeOutcome, raw: u16, ptr_reg: Reg) -> Reg {
    sh.cpu.set_component(Component::SizeClass);
    let sw = |sh: &mut EmitCtx| {
        let idx = mallacc_tcmalloc::class_index(outcome.alloc_size).expect("small size");
        prog::emit_size_class_sw(&mut sh.cpu, ptr_reg, idx, raw).0
    };
    if let Some(nodes) = outcome.pagemap_addrs {
        // Unsized delete: the poorly-caching radix walk.
        return prog::emit_pagemap_walk(&mut sh.cpu, nodes, ptr_reg);
    }
    if sh.limit().size_class {
        return ptr_reg;
    }
    if !sh.accel().is_some_and(|a| a.size_class_opt) {
        return sw(sh);
    }
    // Sized delete through mcszlookup on the static size.
    let (lk, hit) = sh.mcszlookup(outcome.alloc_size, ptr_reg);
    let miss = sh.lookup_bp.mispredicted(hit.is_some());
    sh.cpu
        .push(Uop::branch_penalized(miss, FALLBACK_PENALTY, &[lk]));
    match hit {
        Some(h) => {
            debug_assert_eq!(h.size_class, raw);
            lk
        }
        None => {
            let c = sw(sh);
            sh.mc.update(outcome.alloc_size, outcome.alloc_size, raw);
            c
        }
    }
}

impl FastPath for TcMalloc {
    type Malloc = MallocOutcome;
    type Free = FreeOutcome;
    type Post = PostList;

    fn cold() -> Self {
        TcMalloc::new(TcMallocConfig::default())
    }

    fn serve_malloc(&mut self, size: u64) -> (MallocOutcome, PostList) {
        let outcome = self.malloc(size);
        let post = post_list(self, outcome.cls);
        (outcome, post)
    }

    fn serve_free(&mut self, ptr: Addr, sized: bool) -> (FreeOutcome, PostList) {
        let outcome = self.free(ptr, sized);
        let post = post_list(self, outcome.cls);
        (outcome, post)
    }

    fn malloc_info(outcome: &MallocOutcome) -> CallInfo {
        let path = match &outcome.path {
            MallocPath::Large { pages, grew_heap } => ServicePath::MallocLarge {
                pages: *pages,
                grew_heap: *grew_heap,
            },
            MallocPath::ThreadCacheHit { .. } => ServicePath::MallocFast,
            MallocPath::CentralRefill {
                batch, populate, ..
            } => {
                let batch = batch.len() as u64;
                match populate {
                    Some(p) if p.span.grew_heap => ServicePath::MallocOs {
                        batch,
                        objects: p.object_count,
                        pages: p.span.pages,
                    },
                    Some(p) => ServicePath::MallocSpan {
                        batch,
                        objects: p.object_count,
                        pages: p.span.pages,
                    },
                    None => ServicePath::MallocCentral { batch },
                }
            }
        };
        CallInfo {
            path,
            ptr: outcome.ptr,
            size: outcome.requested,
            cls: outcome.cls.map(raw_class),
            sampled: outcome.sampled,
        }
    }

    fn free_info(outcome: &FreeOutcome) -> CallInfo {
        let unsized_walk = outcome.pagemap_addrs.is_some();
        let path = match &outcome.path {
            FreePath::Large { pages } => ServicePath::FreeLarge { pages: *pages },
            FreePath::ThreadCachePush { released, .. } => match released {
                Some(moved) => ServicePath::FreeRelease {
                    moved: moved.len() as u64,
                    unsized_walk,
                },
                None => ServicePath::FreeFast { unsized_walk },
            },
        };
        CallInfo {
            path,
            ptr: outcome.ptr,
            size: outcome.alloc_size,
            cls: outcome.cls.map(raw_class),
            sampled: false,
        }
    }

    fn emit_malloc(&self, sh: &mut EmitCtx, outcome: &MallocOutcome, post: PostList) {
        let size_reg = sh.prologue(prog::PROLOGUE_UOPS);

        match &outcome.path {
            MallocPath::Large { pages, grew_heap } => {
                sh.cpu.set_component(Component::SlowPath);
                let start_page = layout::addr_to_page(outcome.ptr);
                prog::emit_large_path(&mut sh.cpu, *pages, *grew_heap, start_page);
            }
            MallocPath::ThreadCacheHit { list, next } => {
                let (cls_reg, sz_reg) = emit_size_class(sh, size_reg, outcome);
                sh.emit_sampling(layout::sampler_counter(), sz_reg, outcome.sampled);
                let raw = raw_class(outcome.cls.expect("small path"));
                emit_fast_pop(sh, raw, cls_reg, *list, outcome.ptr, *next, post.next);
            }
            MallocPath::CentralRefill {
                list,
                central,
                batch,
                populate,
                ..
            } => {
                let (cls_reg, sz_reg) = emit_size_class(sh, size_reg, outcome);
                sh.emit_sampling(layout::sampler_counter(), sz_reg, outcome.sampled);
                let raw = raw_class(outcome.cls.expect("small path"));
                // The fast-path attempt finds an empty list: the emptiness
                // branch mispredicts (rare event).
                sh.cpu.set_component(Component::SlowPath);
                let la = prog::emit_list_addr(&mut sh.cpu, cls_reg);
                let head = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::load(*list, head, &[la]));
                sh.cpu.push(Uop::branch(true, &[head]));
                if let Some(p) = populate {
                    prog::emit_populate(&mut sh.cpu, p);
                }
                prog::emit_refill(&mut sh.cpu, *central, *list, batch);
                prog::emit_pop_sw(&mut sh.cpu, *list, outcome.ptr, la);
                prog::emit_metadata(&mut sh.cpu, *list, la);
                if sh.needs_cache() {
                    // Software rebuilds the cached copy with mchdpush-style
                    // updates as it relinks the list.
                    sh.mc.sync_list(raw, post.head, post.next);
                    let d = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::alu(1, Some(d), &[cls_reg]));
                }
            }
        }
        sh.overhead(prog::EPILOGUE_UOPS);
    }

    fn emit_free(&self, sh: &mut EmitCtx, outcome: &FreeOutcome, post: PostList) {
        let ptr_reg = sh.prologue(prog::PROLOGUE_UOPS - 1);

        match &outcome.path {
            FreePath::Large { pages } => {
                sh.cpu.set_component(Component::SlowPath);
                let start_page = layout::addr_to_page(outcome.ptr);
                prog::emit_large_path(&mut sh.cpu, *pages, false, start_page);
            }
            FreePath::ThreadCachePush { list, released, .. } => {
                let cls = outcome.cls.expect("small free");
                let raw = raw_class(cls);
                let cls_reg = emit_free_class(sh, outcome, raw, ptr_reg);

                // The push itself.
                sh.cpu.set_component(Component::Metadata);
                let la = prog::emit_list_addr(&mut sh.cpu, cls_reg);
                if !sh.limit().push_pop {
                    sh.cpu.set_component(Component::ListOp);
                    if sh.accel().is_some_and(|a| a.list_opt) {
                        sh.mchdpush(raw, outcome.ptr, cls_reg);
                    }
                    prog::emit_push_sw(&mut sh.cpu, *list, outcome.ptr, la, ptr_reg);
                }
                sh.cpu.set_component(Component::Metadata);
                prog::emit_metadata(&mut sh.cpu, *list, la);

                if let Some(moved) = released {
                    sh.cpu.set_component(Component::SlowPath);
                    prog::emit_release(&mut sh.cpu, layout::central_list(cls), *list, moved);
                    sh.resync(raw, post.head, post.next);
                }
            }
        }
        sh.overhead(prog::EPILOGUE_UOPS - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccelConfig;
    use crate::driver::CallKind;

    fn warm_pair(sim: &mut MallocSim, size: u64, n: usize) {
        for _ in 0..n {
            let r = sim.malloc(size);
            sim.free(r.ptr, true);
        }
    }

    /// malloc/free pairs rotating over four size classes (like the paper's
    /// tp_small) — back-to-back same-class pairs instead trigger the
    /// intentional prefetch-blocking slowdown of Figure 17's tp.
    fn warm_rotating(sim: &mut MallocSim, n: usize) {
        for i in 0..n {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn baseline_fast_path_is_about_20_cycles() {
        let mut sim = MallocSim::new(Mode::Baseline);
        warm_pair(&mut sim, 64, 50);
        sim.reset_totals();
        warm_pair(&mut sim, 64, 200);
        let t = sim.totals();
        let per_malloc = t.malloc_cycles as f64 / t.malloc_calls as f64;
        // Back-to-back pairs overlap in the window, so the retirement-
        // attributed cost sits somewhat below the ~18-20 cycle isolated
        // latency the paper quotes.
        assert!(
            (10.0..=26.0).contains(&per_malloc),
            "baseline fast malloc = {per_malloc} cycles"
        );
    }

    /// Back-to-back same-class pairs: the case whose pops wait on the
    /// previous pop's blocking `mcnxtprefetch` (Figure 17's tp).
    #[test]
    fn malloc_cache_hits_accumulate() {
        let mut sim = MallocSim::new(Mode::mallacc_default());
        warm_pair(&mut sim, 64, 100);
        let s = sim.malloc_cache().stats();
        assert!(s.lookup_hits > 150, "lookup hits: {}", s.lookup_hits);
        assert!(s.pop_hits > 50, "pop hits: {}", s.pop_hits);
        assert!(s.prefetches > 0);
    }

    #[test]
    fn mallacc_beats_baseline_on_warm_fast_path() {
        let run = |mode: Mode| {
            let mut sim = MallocSim::new(mode);
            warm_rotating(&mut sim, 80);
            sim.reset_totals();
            warm_rotating(&mut sim, 500);
            let t = sim.totals();
            t.malloc_cycles as f64 / t.malloc_calls as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        let limit = run(Mode::limit_all());
        assert!(accel < base, "mallacc {accel} !< baseline {base}");
        assert!(
            limit <= accel + 1.0,
            "limit {limit} should bound mallacc {accel}"
        );
        assert!(
            accel < base * 0.85,
            "expected >15% fast-path gain, got {base} → {accel}"
        );
    }

    #[test]
    fn cold_first_call_is_slow() {
        let mut sim = MallocSim::new(Mode::Baseline);
        let r = sim.malloc(64);
        assert_eq!(r.kind, CallKind::MallocOs);
        assert!(r.cycles > 5000, "OS-path call took only {}", r.cycles);
    }

    #[test]
    fn call_kind_sequence_matches_pools() {
        let mut sim = MallocSim::new(Mode::Baseline);
        let r1 = sim.malloc(64);
        assert_eq!(r1.kind, CallKind::MallocOs);
        let r2 = sim.malloc(64);
        assert_eq!(r2.kind, CallKind::MallocFast);
        // Exhaust the thread cache batch (32 for 64B) to force a central
        // refill without a populate.
        let mut last = r2.kind;
        for _ in 0..64 {
            last = sim.malloc(64).kind;
            if last != CallKind::MallocFast {
                break;
            }
        }
        assert!(
            matches!(last, CallKind::MallocCentral | CallKind::MallocSpan),
            "expected a non-fast refill, got {last:?}"
        );
    }

    #[test]
    fn antagonist_slows_fast_path() {
        // A half-set antagonist spares just-touched (MRU) lines; a full-set
        // one pushes everything to L3. Both behaviours matter: the former
        // is why hot allocator metadata survives real applications, the
        // latter is the worst case the paper's `antagonist` ubench stresses.
        let run = |fraction: f64| {
            let mut sim = MallocSim::new(Mode::Baseline);
            warm_pair(&mut sim, 64, 50);
            sim.reset_totals();
            for _ in 0..200 {
                let r = sim.malloc(64);
                sim.free(r.ptr, true);
                if fraction > 0.0 {
                    sim.antagonize(fraction);
                }
            }
            sim.totals().malloc_cycles as f64 / 200.0
        };
        let quiet = run(0.0);
        let noisy = run(1.0);
        assert!(noisy > quiet * 1.8, "antagonist: {quiet} → {noisy}");
    }

    #[test]
    fn mallacc_isolates_fast_path_from_antagonist() {
        let run = |mode: Mode| {
            let mut sim = MallocSim::new(mode);
            warm_rotating(&mut sim, 80);
            sim.reset_totals();
            for i in 0..200 {
                let r = sim.malloc(32 + (i as u64 % 4) * 32);
                sim.free(r.ptr, true);
                sim.antagonize(1.0);
            }
            sim.totals().malloc_cycles as f64 / 200.0
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        // Full-set eviction also wipes the (unaccelerated) metadata lines,
        // so the gain here is smaller than under the paper's half-set
        // antagonist, which spares hot metadata; that realistic case is
        // exercised by the `antagonist` microbenchmark in the workloads
        // crate.
        assert!(
            accel < base * 0.9,
            "cache isolation should shine under antagonism: {base} → {accel}"
        );
    }

    /// A sim with an aggressive sampler (every `interval` bytes) so the
    /// PMU-interrupt path actually fires within a short run.
    fn sampling_sim(mode: Mode, interval: u64) -> MallocSim {
        MallocSim::with_configs(
            mode,
            TcMallocConfig {
                sampling_interval: interval,
                ..TcMallocConfig::default()
            },
            CoreConfig::haswell(),
        )
    }

    #[test]
    fn pmu_interrupt_path_charges_sampled_calls() {
        // Dedicated-counter mode: unsampled fast-path mallocs carry zero
        // sampling µops, but when the counter underflows the PMU
        // interrupt + perf_events recording cost lands on that call.
        let mut sim = sampling_sim(Mode::mallacc_default(), 4096);
        warm_rotating(&mut sim, 80);
        let mut sampled = Vec::new();
        let mut unsampled = Vec::new();
        for i in 0..400 {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
            if r.kind == CallKind::MallocFast {
                if r.sampled {
                    sampled.push(r.cycles);
                } else {
                    unsampled.push(r.cycles);
                }
            }
        }
        assert!(!sampled.is_empty(), "interval small enough to fire");
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&sampled) > mean(&unsampled) + 10.0,
            "PMU interrupt must visibly charge sampled calls: sampled {:.1}, unsampled {:.1}",
            mean(&sampled),
            mean(&unsampled)
        );
    }

    #[test]
    fn dedicated_counter_and_software_sampler_fire_identically() {
        // The accelerated PMU sampler and the baseline decrement-and-
        // branch sampler must sample the same calls of the same stream —
        // the optimisation changes cycles, never behaviour.
        let run = |mode: Mode| {
            let mut sim = sampling_sim(mode, 2048);
            let mut fired = Vec::new();
            for i in 0..300 {
                let r = sim.malloc(32 + (i as u64 % 4) * 32);
                sim.free(r.ptr, true);
                if r.sampled {
                    fired.push(i);
                }
            }
            fired
        };
        let sw = run(Mode::Baseline);
        let hw = run(Mode::mallacc_default());
        assert!(!sw.is_empty());
        assert_eq!(sw, hw, "sampling decisions must not depend on the mode");
    }

    #[test]
    fn offload_frees_are_fire_and_forget_cheap() {
        let mut sim = MallocSim::new(Mode::offload_default());
        warm_rotating(&mut sim, 80);
        sim.reset_totals();
        for i in 0..200 {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.app_run(200); // drain the queue between calls
            sim.free(r.ptr, true);
            sim.app_run(200);
        }
        let t = sim.totals();
        let per_free = t.free_cycles as f64 / t.free_calls as f64;
        // enqueue is ~2 µops + boundary jumps; no response wait.
        assert!(per_free < 12.0, "fire-and-forget free = {per_free} cycles");
    }

    #[test]
    fn offload_loses_on_back_to_back_allocation() {
        // With zero app compute between calls the bounded queue saturates
        // and the in-order helper's service time becomes the bottleneck —
        // the regime where Mallacc's in-core cache wins.
        let run = |mode: Mode| {
            let mut sim = MallocSim::new(mode);
            warm_rotating(&mut sim, 80);
            sim.reset_totals();
            warm_rotating(&mut sim, 400);
            let t = sim.totals();
            t.allocator_cycles() as f64 / t.malloc_calls as f64
        };
        let mallacc = run(Mode::mallacc_default());
        let offload = run(Mode::offload_default());
        assert!(
            offload > mallacc * 1.3,
            "saturated offload {offload} should lose to mallacc {mallacc}"
        );
        let s = {
            let mut sim = MallocSim::new(Mode::offload_default());
            warm_rotating(&mut sim, 200);
            sim.offload_stats().unwrap()
        };
        assert!(s.queue_full_stalls > 0, "tight loop must hit backpressure");
    }

    #[test]
    fn offload_wins_with_app_compute_between_calls() {
        // With app work between calls the queue drains, and the visible
        // cost collapses to the enqueue — beating even Mallacc's fast path.
        let run = |mode: Mode| {
            let mut sim = MallocSim::new(mode);
            warm_rotating(&mut sim, 80);
            sim.reset_totals();
            for i in 0..300 {
                let r = sim.malloc(32 + (i as u64 % 4) * 32);
                sim.app_run(150);
                sim.free(r.ptr, true);
                sim.app_run(150);
            }
            sim.totals().allocator_cycles()
        };
        let base = run(Mode::Baseline);
        let mallacc = run(Mode::mallacc_default());
        let offload = run(Mode::offload_default());
        assert!(offload < base, "offload {offload} !< baseline {base}");
        assert!(offload < mallacc, "offload {offload} !< mallacc {mallacc}");
    }

    #[test]
    fn dedicated_counter_removes_fast_path_sampling_cycles() {
        // With sampling alone toggled, the warm unsampled fast path gets
        // cheaper: the decrement-and-branch chain is gone. Use a huge
        // interval so no call actually samples.
        let mut with_opt = AccelConfig::paper_default();
        with_opt.size_class_opt = false;
        with_opt.list_opt = false;
        with_opt.prefetch = false;
        let mut without_opt = with_opt;
        without_opt.sampling_opt = false;
        let run = |cfg: AccelConfig| {
            let mut sim = sampling_sim(Mode::Mallacc(cfg), u64::MAX / 4);
            warm_rotating(&mut sim, 80);
            sim.reset_totals();
            warm_rotating(&mut sim, 300);
            sim.totals().malloc_cycles
        };
        let accel = run(with_opt);
        let sw = run(without_opt);
        assert!(
            accel < sw,
            "dedicated counter must shed fast-path cycles: {accel} !< {sw}"
        );
    }
}
