//! The TCMalloc-per-CPU fast path.
//!
//! Same size classes as the paper's baseline, different fast path: the
//! rseq per-CPU array cache replaces the TLS linked list. A pop is a
//! cpu-id read, a header load, an array-slot load and a header store —
//! the slot load is *independent* of the header load (both address off
//! the slab base), so the dependent-load chain `mchdpop` was built to
//! cut simply is not there. The size-class table loads and the sampling
//! countdown, however, are TCMalloc's — `mcszlookup` and the sampling
//! optimisation keep their targets.
//!
//! Mode integration mirrors jemalloc's (requested-size keying, array-top
//! caching via `sync_list`).

use mallacc::programs::emit_overhead;
use mallacc::{CallInfo, Driver, EmitCtx, FastPath, PopResult, RangeKeying};
use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Component, Engine, Reg, Uop};
use mallacc_tcmalloc::ClassId;

use crate::percpu::{
    pc_layout, PcFreeOutcome, PcFreePath, PcMallocOutcome, PcMallocPath, PerCpuMalloc,
};

/// The per-CPU TCMalloc simulator.
///
/// # Example
///
/// ```
/// use mallacc::{CallKind, Mode};
/// use mallacc_substrate::PcSim;
///
/// let mut sim = PcSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, CallKind::MallocFast);
/// ```
pub type PcSim = Driver<PerCpuMalloc>;

fn raw_class(cls: ClassId) -> u16 {
    u16::from(cls.as_u8())
}

/// TCMalloc's two dependent table loads (Figure 5's class-index array
/// then the class array).
fn emit_class_sw(cpu: &mut Engine, size_reg: Reg) -> Reg {
    let idx = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(idx), &[size_reg]));
    let a = cpu.alloc_reg();
    cpu.push(Uop::load(pc_layout::STATIC_BASE, a, &[idx]));
    let b = cpu.alloc_reg();
    cpu.push(Uop::load(pc_layout::STATIC_BASE + 0x1000, b, &[a]));
    cpu.push(Uop::branch(false, &[b]));
    b
}

fn emit_large(cpu: &mut Engine, pages: u64, grew: bool) {
    let lock = cpu.alloc_reg();
    cpu.push(Uop::alu(30, Some(lock), &[]));
    if grew {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(8000, Some(d), &[]));
    }
    let mut dep = lock;
    for p in (0..pages).step_by(16) {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(d), &[dep]));
        cpu.push(Uop::store(pc_layout::PAGEMAP_BASE + p * 16, &[d]));
        dep = d;
    }
}

impl PerCpuMalloc {
    /// The rseq pop: cpu-id read, slab-header load, slot load (address
    /// computed from the header — but served from the same cache line
    /// region, not chased through the block), header store.
    fn emit_pop_sw(&self, cpu: &mut Engine, cpu_id: usize, raw: u16, depth: u64, dep: Reg) -> Reg {
        let ncls = self.classes().num_classes();
        let header = pc_layout::slab_header(cpu_id, raw as u8, ncls);
        let id = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(id), &[dep]));
        let hdr = cpu.alloc_reg();
        cpu.push(Uop::load(header, hdr, &[id]));
        cpu.push(Uop::branch(false, &[hdr]));
        let ptr = cpu.alloc_reg();
        let slot = pc_layout::slab_slot(cpu_id, raw as u8, ncls, depth.saturating_sub(1) as usize);
        cpu.push(Uop::load(slot, ptr, &[hdr]));
        cpu.push(Uop::store(header, &[hdr]));
        ptr
    }

    fn emit_push_sw(
        &self,
        cpu: &mut Engine,
        cpu_id: usize,
        raw: u16,
        depth_after: u64,
        ptr_reg: Reg,
        dep: Reg,
    ) {
        let ncls = self.classes().num_classes();
        let header = pc_layout::slab_header(cpu_id, raw as u8, ncls);
        let id = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(id), &[dep]));
        let hdr = cpu.alloc_reg();
        cpu.push(Uop::load(header, hdr, &[id]));
        cpu.push(Uop::branch(false, &[hdr]));
        let slot = pc_layout::slab_slot(
            cpu_id,
            raw as u8,
            ncls,
            depth_after.saturating_sub(1) as usize,
        );
        cpu.push(Uop::store(slot, &[ptr_reg, hdr]));
        cpu.push(Uop::store(header, &[hdr]));
    }

    fn emit_refill(
        &self,
        cpu: &mut Engine,
        cpu_id: usize,
        raw: u16,
        from_central: u64,
        carved: u64,
        grew: bool,
    ) {
        let ncls = self.classes().num_classes();
        // Central-list lock.
        let lock = cpu.alloc_reg();
        cpu.push(Uop::alu(30, Some(lock), &[]));
        if grew {
            let d = cpu.alloc_reg();
            cpu.push(Uop::alu(8000, Some(d), &[]));
        }
        let mut dep = lock;
        for i in 0..from_central {
            let d = cpu.alloc_reg();
            cpu.push(Uop::load(pc_layout::CENTRAL_BASE + i * 8, d, &[dep]));
            cpu.push(Uop::store(
                pc_layout::slab_slot(cpu_id, raw as u8, ncls, i as usize),
                &[d],
            ));
            dep = d;
        }
        for i in 0..carved {
            let d = cpu.alloc_reg();
            cpu.push(Uop::alu(1, Some(d), &[dep]));
            cpu.push(Uop::store(
                pc_layout::slab_slot(cpu_id, raw as u8, ncls, (from_central + i) as usize),
                &[d],
            ));
            dep = d;
        }
        cpu.push(Uop::store(
            pc_layout::slab_header(cpu_id, raw as u8, ncls),
            &[dep],
        ));
    }
}

/// The free-side class discovery: sized deletes use the table, unsized
/// ones walk the pagemap (two dependent loads).
fn emit_free_class(sh: &mut EmitCtx, ptr_reg: Reg, outcome: &PcFreeOutcome, raw: u16) -> Reg {
    if let Some([p0, p1]) = outcome.pagemap {
        sh.cpu.set_component(Component::SizeClass);
        let a = sh.cpu.alloc_reg();
        sh.cpu.push(Uop::load(p0, a, &[ptr_reg]));
        let b = sh.cpu.alloc_reg();
        sh.cpu.push(Uop::load(p1, b, &[a]));
        return b;
    }
    let size = outcome.alloc_size;
    sh.size_class(size, size, raw, ptr_reg, |cpu| emit_class_sw(cpu, ptr_reg))
}

/// The per-CPU build's sampling counter.
const SAMPLER_COUNTER: Addr = pc_layout::SLAB_BASE - 0x40;

impl FastPath for PerCpuMalloc {
    type Malloc = PcMallocOutcome;
    type Free = PcFreeOutcome;
    type Post = ();

    fn cold() -> Self {
        PerCpuMalloc::new(2)
    }

    /// Requested-size keying: the per-CPU build replaces the Figure 5
    /// index path with the same table, but caching keys on the request
    /// keeps the integration identical across non-TCMalloc substrates.
    const KEYING: Option<RangeKeying> = Some(RangeKeying::RequestedSize);

    fn serve_malloc(&mut self, size: u64) -> (PcMallocOutcome, ()) {
        (self.malloc(size), ())
    }

    fn serve_free(&mut self, ptr: Addr, sized: bool) -> (PcFreeOutcome, ()) {
        (self.free(ptr, sized), ())
    }

    /// The thread migrates to the next CPU's slab set.
    fn on_context_switch(&mut self) {
        self.context_switch();
    }

    fn malloc_info(outcome: &PcMallocOutcome) -> CallInfo {
        let path = match &outcome.path {
            PcMallocPath::SlabHit { .. } => ServicePath::MallocFast,
            PcMallocPath::SlabRefill {
                from_central,
                carved,
                grew,
            } => {
                let batch = (from_central + carved).max(1);
                if *grew {
                    ServicePath::MallocOs {
                        batch,
                        objects: *carved,
                        pages: 1,
                    }
                } else if *carved > 0 {
                    ServicePath::MallocSpan {
                        batch,
                        objects: *carved,
                        pages: 1,
                    }
                } else {
                    ServicePath::MallocCentral { batch }
                }
            }
            PcMallocPath::Large { pages, grew } => ServicePath::MallocLarge {
                pages: *pages,
                grew_heap: *grew,
            },
        };
        CallInfo {
            path,
            ptr: outcome.ptr,
            size: outcome.requested,
            cls: outcome.class.map(raw_class),
            sampled: false,
        }
    }

    fn free_info(outcome: &PcFreeOutcome) -> CallInfo {
        let unsized_walk = outcome.pagemap.is_some();
        let path = match &outcome.path {
            PcFreePath::SlabPush { .. } => ServicePath::FreeFast { unsized_walk },
            PcFreePath::SlabDrain { moved } => ServicePath::FreeRelease {
                moved: *moved,
                unsized_walk,
            },
            PcFreePath::Large { pages } => ServicePath::FreeLarge { pages: *pages },
        };
        CallInfo {
            path,
            ptr: outcome.ptr,
            size: outcome.alloc_size,
            cls: outcome.class.map(raw_class),
            sampled: false,
        }
    }

    fn emit_malloc(&self, sh: &mut EmitCtx, outcome: &PcMallocOutcome, _: ()) {
        let size_reg = sh.prologue(4);
        let size_class = |sh: &mut EmitCtx, raw| {
            sh.size_class(
                outcome.requested,
                outcome.alloc_size,
                raw,
                size_reg,
                |cpu| emit_class_sw(cpu, size_reg),
            )
        };
        match &outcome.path {
            PcMallocPath::Large { pages, grew } => {
                sh.cpu.set_component(Component::SlowPath);
                emit_large(&mut sh.cpu, *pages, *grew);
                emit_overhead(&mut sh.cpu, 2);
            }
            PcMallocPath::SlabHit { depth } => {
                let raw = raw_class(outcome.class.expect("small path"));
                let cls_reg = size_class(sh, raw);
                sh.emit_sampling(SAMPLER_COUNTER, cls_reg, false);
                sh.cpu.set_component(Component::ListOp);
                if sh.limit().push_pop {
                    emit_overhead(&mut sh.cpu, 1);
                } else if sh.accel().is_some_and(|a| a.list_opt) {
                    let (pop, result) = sh.mchdpop(raw, cls_reg);
                    sh.cpu.push(Uop::branch(false, &[pop]));
                    let ncls = self.classes().num_classes();
                    match result {
                        PopResult::Hit { head, next } => {
                            debug_assert_eq!(head, outcome.ptr, "per-cpu cache pop mismatch");
                            debug_assert_eq!(Some(next), outcome.post_head);
                            sh.cpu.push(Uop::store(
                                pc_layout::slab_header(outcome.cpu, raw as u8, ncls),
                                &[pop],
                            ));
                        }
                        PopResult::Miss => {
                            self.emit_pop_sw(&mut sh.cpu, outcome.cpu, raw, *depth, cls_reg);
                        }
                    }
                    if sh.accel().is_some_and(|a| a.prefetch) {
                        // The array is contiguous: reconstruct the cached
                        // pair with one cheap slot load + two pushes.
                        if let Some(new_top) = outcome.post_head {
                            let below = sh.cpu.alloc_reg();
                            let slot = pc_layout::slab_slot(
                                outcome.cpu,
                                raw as u8,
                                ncls,
                                depth.saturating_sub(2) as usize,
                            );
                            sh.cpu.push(Uop::load(slot, below, &[pop]));
                            sh.mchdpush_pair(raw, Some(new_top), outcome.post_next, below);
                        }
                    }
                } else {
                    self.emit_pop_sw(&mut sh.cpu, outcome.cpu, raw, *depth, cls_reg);
                }
            }
            PcMallocPath::SlabRefill {
                from_central,
                carved,
                grew,
            } => {
                let raw = raw_class(outcome.class.expect("small path"));
                let cls_reg = size_class(sh, raw);
                sh.emit_sampling(SAMPLER_COUNTER, cls_reg, false);
                sh.cpu.set_component(Component::SlowPath);
                sh.cpu.push(Uop::branch(true, &[cls_reg]));
                self.emit_refill(&mut sh.cpu, outcome.cpu, raw, *from_central, *carved, *grew);
                let depth = from_central + carved;
                self.emit_pop_sw(&mut sh.cpu, outcome.cpu, raw, depth, cls_reg);
                sh.resync(raw, outcome.post_head, outcome.post_next);
            }
        }
        sh.overhead(4);
    }

    fn emit_free(&self, sh: &mut EmitCtx, outcome: &PcFreeOutcome, _: ()) {
        let ptr_reg = sh.prologue(3);
        match &outcome.path {
            PcFreePath::Large { pages } => {
                sh.cpu.set_component(Component::SlowPath);
                emit_large(&mut sh.cpu, *pages, false);
                emit_overhead(&mut sh.cpu, 2);
            }
            PcFreePath::SlabPush { depth } => {
                let raw = raw_class(outcome.class.expect("small path"));
                let cls_reg = emit_free_class(sh, ptr_reg, outcome, raw);
                sh.cpu.set_component(Component::ListOp);
                if !sh.limit().push_pop {
                    if sh.accel().is_some_and(|a| a.list_opt) {
                        sh.mchdpush(raw, outcome.ptr, cls_reg);
                    }
                    self.emit_push_sw(&mut sh.cpu, outcome.cpu, raw, *depth, ptr_reg, cls_reg);
                }
            }
            PcFreePath::SlabDrain { moved } => {
                let cls = outcome.class.expect("small path");
                let raw = raw_class(cls);
                let cls_reg = emit_free_class(sh, ptr_reg, outcome, raw);
                sh.cpu.set_component(Component::SlowPath);
                sh.cpu.push(Uop::branch(true, &[cls_reg]));
                // Drain: central lock, then stream the bottom half out.
                let lock = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::alu(30, Some(lock), &[cls_reg]));
                let mut dep = lock;
                for i in 0..*moved {
                    let d = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::alu(1, Some(d), &[dep]));
                    sh.cpu
                        .push(Uop::store(pc_layout::CENTRAL_BASE + i * 8, &[d]));
                    dep = d;
                }
                let depth_after = 1 + pc_layout::SLAB_CAP as u64 / 2;
                self.emit_push_sw(&mut sh.cpu, outcome.cpu, raw, depth_after, ptr_reg, dep);
                // Half the array left with the drain; resync the pair.
                let (top, below) = self.slab_top2(cls);
                sh.resync(raw, top, below);
            }
        }
        sh.overhead(3);
    }
}

#[cfg(test)]
mod tests {
    use mallacc::Mode;

    use super::*;

    fn warm_rotating(sim: &mut PcSim, n: usize) {
        for i in 0..n {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn mallacc_accelerates_the_percpu_build() {
        let run = |mode: Mode| {
            let mut sim = PcSim::new(mode);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            warm_rotating(&mut sim, 600);
            let t = sim.totals();
            t.allocator_cycles() as f64 / (t.malloc_calls + t.free_calls) as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        assert!(
            accel < base,
            "mallacc should not slow the per-cpu build down: {base} → {accel}"
        );
    }

    #[test]
    fn context_switch_moves_cpus_and_flushes() {
        let mut sim = PcSim::new(Mode::mallacc_default());
        warm_rotating(&mut sim, 50);
        assert_eq!(sim.allocator().cur_cpu(), 0);
        sim.context_switch(1000);
        assert_eq!(sim.allocator().cur_cpu(), 1);
        assert_eq!(sim.malloc_cache().occupancy(), 0);
        // The other CPU's slab is cold: the first malloc refills.
        let refills = sim.allocator().stats().refills;
        sim.malloc(64);
        assert_eq!(sim.allocator().stats().refills, refills + 1);
    }

    #[test]
    fn drains_are_counted() {
        let mut sim = PcSim::new(Mode::Baseline);
        let ptrs: Vec<Addr> = (0..200).map(|_| sim.malloc(64).ptr).collect();
        for p in ptrs {
            sim.free(p, true);
        }
        assert!(sim.allocator().stats().drains > 0, "no drain");
    }

    #[test]
    fn sampling_consts_match_tcmalloc() {
        assert_eq!(mallacc_tcmalloc::consts::PAGE_SIZE, 8 * 1024);
    }
}
