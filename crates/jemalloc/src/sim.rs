//! The jemalloc fast path: the same Mallacc hardware, a different
//! allocator.
//!
//! This is the paper's generality claim made executable (§4: "we would
//! like to hard-code as few allocator-dependent details as possible ...
//! so that many current and future allocators can benefit"). The malloc
//! cache is reused *unchanged* — only the software integration differs:
//!
//! * `mcszlookup` runs in its generic requested-size keying mode (the
//!   paper's configuration register), because jemalloc's size→bin mapping
//!   is not TCMalloc's Figure 5 index function;
//! * `mchdpop`/`mchdpush` cache the top two entries of the tcache bin's
//!   *array stack* instead of a linked list's head/next — the cached pair
//!   is still "the value a pop returns" and "the value after it", so the
//!   hardware semantics carry over verbatim;
//! * the fallback paths emit jemalloc's actual µop shapes: a single
//!   size→bin table load (vs TCMalloc's two), a header + stack-slot load
//!   pair on pops, a two-level chunk-map walk on unsized frees, and
//!   streaming array refills on fills.

use mallacc::programs::emit_overhead;
use mallacc::{CallInfo, Driver, EmitCtx, FastPath, PopResult, RangeKeying};
use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Component, Engine, Reg, Uop};

use crate::allocator::{JeFreeOutcome, JeFreePath, JeMalloc, JeMallocOutcome, JeMallocPath};
use crate::arena::ArenaFill;
use crate::layout;
use crate::size_class::BinId;

/// The jemalloc simulator.
///
/// # Example
///
/// ```
/// use mallacc::{CallKind, Mode};
/// use mallacc_jemalloc::JeSim;
///
/// let mut sim = JeSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, CallKind::MallocFast);
/// ```
pub type JeSim = Driver<JeMalloc>;

fn raw_bin(bin: BinId) -> u16 {
    u16::from(bin.as_u8())
}

/// jemalloc's size→bin: one shift plus one dense-table load.
fn emit_bin_lookup_sw(cpu: &mut Engine, size_reg: Reg, size: u64) -> Reg {
    let idx = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(idx), &[size_reg]));
    let bin = cpu.alloc_reg();
    cpu.push(Uop::load(layout::lookup_entry(size), bin, &[idx]));
    cpu.push(Uop::branch(false, &[bin]));
    bin
}

/// The software stack pop: header load → slot-address arithmetic →
/// slot load → header store.
fn emit_pop_sw(cpu: &mut Engine, bin: BinId, ncached: u64, bin_reg: Reg) -> Reg {
    let header = layout::tcache_bin_header(bin);
    let n = cpu.alloc_reg();
    cpu.push(Uop::load(header, n, &[bin_reg]));
    cpu.push(Uop::branch(false, &[n]));
    let slot_addr = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(slot_addr), &[n]));
    let ptr = cpu.alloc_reg();
    cpu.push(Uop::load(
        layout::tcache_avail_slot(bin, ncached.saturating_sub(1)),
        ptr,
        &[slot_addr],
    ));
    cpu.push(Uop::store(header, &[n]));
    ptr
}

fn emit_push_sw(cpu: &mut Engine, bin: BinId, ncached_after: u64, bin_reg: Reg, ptr_reg: Reg) {
    let header = layout::tcache_bin_header(bin);
    let n = cpu.alloc_reg();
    cpu.push(Uop::load(header, n, &[bin_reg]));
    cpu.push(Uop::branch(false, &[n]));
    cpu.push(Uop::store(
        layout::tcache_avail_slot(bin, ncached_after.saturating_sub(1)),
        &[ptr_reg, n],
    ));
    cpu.push(Uop::store(header, &[n]));
}

/// Arena fill: bin lock, streaming stores into the avail array, bitmap
/// updates, chunk-map registration for new runs, OS growth.
fn emit_fill(cpu: &mut Engine, bin: BinId, fill: &ArenaFill) {
    let lock_addr = layout::arena_bin_header(bin);
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(lock_addr, lock, &[]));
    cpu.push(Uop::branch(false, &[lock]));
    cpu.push(Uop::store(lock_addr, &[lock]));
    if fill.grew {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(8000, Some(d), &[]));
    }
    let mut dep = lock;
    for (i, &obj) in fill.batch.iter().enumerate() {
        // Bitmap word probe + set for the object's run.
        if i % 16 == 0 {
            let page = layout::addr_to_page(obj);
            let [c0, _] = layout::chunk_map_entries(page);
            let w = cpu.alloc_reg();
            cpu.push(Uop::load(c0, w, &[dep]));
            dep = w;
        }
        let b = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(b), &[dep]));
        // Streaming store into the avail array.
        cpu.push(Uop::store(layout::tcache_avail_slot(bin, i as u64), &[b]));
    }
    for _ in 0..fill.new_runs {
        // Run headers + chunk-map registration.
        for j in 0..4u64 {
            cpu.push(Uop::store(layout::CHUNK_MAP_BASE + j * 64, &[dep]));
        }
    }
    cpu.push(Uop::store(lock_addr, &[dep]));
}

/// Flush of the oldest half of a bin back to the arena.
fn emit_flush(cpu: &mut Engine, flushed: &[Addr]) {
    let mut dep = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(dep), &[]));
    for &obj in flushed {
        let page = layout::addr_to_page(obj);
        let [c0, c1] = layout::chunk_map_entries(page);
        let a = cpu.alloc_reg();
        cpu.push(Uop::load(c0, a, &[dep]));
        let b = cpu.alloc_reg();
        cpu.push(Uop::load(c1, b, &[a]));
        cpu.push(Uop::store(c1, &[b]));
        dep = b;
    }
}

fn emit_large(cpu: &mut Engine, pages: u64, grew: bool) {
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(layout::ARENA_BASE, lock, &[]));
    if grew {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(8000, Some(d), &[]));
    }
    let mut dep = lock;
    for p in (0..pages).step_by(16) {
        let [_, c1] = layout::chunk_map_entries(p);
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(d), &[dep]));
        cpu.push(Uop::store(c1, &[d]));
        dep = d;
    }
}

impl FastPath for JeMalloc {
    type Malloc = JeMallocOutcome;
    type Free = JeFreeOutcome;
    type Post = ();

    fn cold() -> Self {
        JeMalloc::new()
    }

    /// Requested-size keying regardless of the configured keying —
    /// jemalloc has no Figure 5 index hardware.
    const KEYING: Option<RangeKeying> = Some(RangeKeying::RequestedSize);

    fn serve_malloc(&mut self, size: u64) -> (JeMallocOutcome, ()) {
        (self.malloc(size), ())
    }

    fn serve_free(&mut self, ptr: Addr, sized: bool) -> (JeFreeOutcome, ()) {
        (self.free(ptr, sized), ())
    }

    fn malloc_info(outcome: &JeMallocOutcome) -> CallInfo {
        let path = match &outcome.path {
            JeMallocPath::TcacheHit { .. } => ServicePath::MallocFast,
            JeMallocPath::TcacheFill { fill, .. } => {
                let batch = (fill.batch.len() as u64).max(1);
                if fill.grew {
                    ServicePath::MallocOs {
                        batch,
                        objects: batch,
                        pages: u64::from(fill.new_runs.max(1)),
                    }
                } else if fill.new_runs > 0 {
                    ServicePath::MallocSpan {
                        batch,
                        objects: batch,
                        pages: u64::from(fill.new_runs),
                    }
                } else {
                    ServicePath::MallocCentral { batch }
                }
            }
            JeMallocPath::Large { pages, grew } => ServicePath::MallocLarge {
                pages: *pages,
                grew_heap: *grew,
            },
        };
        CallInfo {
            path,
            ptr: outcome.ptr,
            size: outcome.requested,
            cls: outcome.bin.map(raw_bin),
            sampled: false,
        }
    }

    fn free_info(outcome: &JeFreeOutcome) -> CallInfo {
        let unsized_walk = outcome.chunk_map.is_some();
        let path = match &outcome.path {
            JeFreePath::TcachePush { flushed, .. } => match flushed {
                Some(fl) => ServicePath::FreeRelease {
                    moved: fl.len() as u64,
                    unsized_walk,
                },
                None => ServicePath::FreeFast { unsized_walk },
            },
            JeFreePath::Large { pages } => ServicePath::FreeLarge { pages: *pages },
        };
        CallInfo {
            path,
            ptr: outcome.ptr,
            size: outcome.alloc_size,
            cls: outcome.bin.map(raw_bin),
            sampled: false,
        }
    }

    fn emit_malloc(&self, sh: &mut EmitCtx, outcome: &JeMallocOutcome, _: ()) {
        let size_reg = sh.prologue(5);
        let JeMallocOutcome {
            requested,
            alloc_size,
            ..
        } = *outcome;
        let size_class = |sh: &mut EmitCtx, raw| {
            sh.size_class(requested, alloc_size, raw, size_reg, |cpu| {
                emit_bin_lookup_sw(cpu, size_reg, requested)
            })
        };
        match &outcome.path {
            JeMallocPath::Large { pages, grew } => {
                sh.cpu.set_component(Component::SlowPath);
                emit_large(&mut sh.cpu, *pages, *grew);
            }
            JeMallocPath::TcacheHit { ncached, below } => {
                let bin = outcome.bin.expect("small path");
                let raw = raw_bin(bin);
                let bin_reg = size_class(sh, raw);
                // jemalloc's prof-sampling countdown (structurally
                // TCMalloc's).
                sh.emit_sampling(layout::TLS_BASE + 0x8, bin_reg, false);
                sh.cpu.set_component(Component::Metadata);
                let tls = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::load(layout::TLS_BASE, tls, &[bin_reg]));
                sh.cpu.set_component(Component::ListOp);
                if sh.limit().push_pop {
                    emit_overhead(&mut sh.cpu, 1);
                } else if sh.accel().is_some_and(|a| a.list_opt) {
                    let (pop, result) = sh.mchdpop(raw, tls);
                    sh.cpu.push(Uop::branch(false, &[pop]));
                    let head_reg = match result {
                        PopResult::Hit { head, next } => {
                            debug_assert_eq!(head, outcome.ptr, "jemalloc cache pop mismatch");
                            debug_assert_eq!(Some(next), *below);
                            // Software still maintains ncached.
                            sh.cpu
                                .push(Uop::store(layout::tcache_bin_header(bin), &[pop]));
                            pop
                        }
                        PopResult::Miss => emit_pop_sw(&mut sh.cpu, bin, *ncached, tls),
                    };
                    if sh.accel().is_some_and(|a| a.prefetch) {
                        if let Some(new_top) = *below {
                            // jemalloc's avail slots are contiguous and
                            // L1-hot, so instead of a blocking
                            // mcnxtprefetch the integration reloads the
                            // next slot with an ordinary (cheap) load and
                            // reconstructs the cached pair — push(below)
                            // then push(top) leaves Head = top,
                            // Next = below, no entry blocking.
                            let slot = layout::tcache_avail_slot(bin, ncached.saturating_sub(2));
                            let below_reg = sh.cpu.alloc_reg();
                            sh.cpu.push(Uop::load(slot, below_reg, &[head_reg]));
                            let value = self.tcache_below_top(bin);
                            sh.mchdpush_pair(raw, Some(new_top), value, below_reg);
                        }
                    }
                } else {
                    emit_pop_sw(&mut sh.cpu, bin, *ncached, tls);
                }
            }
            JeMallocPath::TcacheFill { fill, below: _ } => {
                let bin = outcome.bin.expect("small path");
                let raw = raw_bin(bin);
                let bin_reg = size_class(sh, raw);
                sh.emit_sampling(layout::TLS_BASE + 0x8, bin_reg, false);
                // Empty-bin branch mispredicts (rare).
                sh.cpu.set_component(Component::SlowPath);
                let n = sh.cpu.alloc_reg();
                sh.cpu
                    .push(Uop::load(layout::tcache_bin_header(bin), n, &[bin_reg]));
                sh.cpu.push(Uop::branch(true, &[n]));
                emit_fill(&mut sh.cpu, bin, fill);
                emit_pop_sw(&mut sh.cpu, bin, fill.batch.len() as u64, bin_reg);
                sh.resync(raw, self.tcache_top(bin), self.tcache_below_top(bin));
            }
        }
        sh.overhead(6);
    }

    fn emit_free(&self, sh: &mut EmitCtx, outcome: &JeFreeOutcome, _: ()) {
        let ptr_reg = sh.prologue(4);
        match &outcome.path {
            JeFreePath::Large { pages } => {
                sh.cpu.set_component(Component::SlowPath);
                emit_large(&mut sh.cpu, *pages, false);
            }
            JeFreePath::TcachePush { ncached, flushed } => {
                let bin = outcome.bin.expect("small path");
                let raw = raw_bin(bin);
                let size = outcome.alloc_size;
                let bin_reg = if let Some([c0, c1]) = outcome.chunk_map {
                    // Unsized: the two-level chunk-map walk.
                    sh.cpu.set_component(Component::SizeClass);
                    let a = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::load(c0, a, &[ptr_reg]));
                    let b = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::load(c1, b, &[a]));
                    b
                } else {
                    sh.size_class(size, size, raw, ptr_reg, |cpu| {
                        emit_bin_lookup_sw(cpu, ptr_reg, size)
                    })
                };
                sh.cpu.set_component(Component::ListOp);
                if !sh.limit().push_pop {
                    if sh.accel().is_some_and(|a| a.list_opt) {
                        sh.mchdpush(raw, outcome.ptr, bin_reg);
                    }
                    emit_push_sw(&mut sh.cpu, bin, *ncached, bin_reg, ptr_reg);
                }
                if let Some(fl) = flushed {
                    sh.cpu.set_component(Component::SlowPath);
                    emit_flush(&mut sh.cpu, fl);
                    sh.resync(raw, self.tcache_top(bin), self.tcache_below_top(bin));
                }
            }
        }
        sh.overhead(5);
    }
}

#[cfg(test)]
mod tests {
    use mallacc::{CallKind, Mode};

    use super::*;

    fn warm_rotating(sim: &mut JeSim, n: usize) {
        for i in 0..n {
            let r = sim.malloc(32 + (i as u64 % 4) * 32);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn mallacc_accelerates_jemalloc() {
        let run = |mode: Mode| {
            let mut sim = JeSim::new(mode);
            warm_rotating(&mut sim, 100);
            sim.reset_totals();
            warm_rotating(&mut sim, 600);
            let t = sim.totals();
            t.malloc_cycles as f64 / t.malloc_calls as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        assert!(
            accel < base * 0.9,
            "mallacc should speed jemalloc up: {base} → {accel}"
        );
    }

    #[test]
    fn fills_are_slow_and_refill_the_fast_path() {
        let mut sim = JeSim::new(Mode::Baseline);
        let r = sim.malloc(2048);
        assert_eq!(sim.allocator().stats().tcache_fills, 1);
        assert!(r.cycles > 50, "fill should be slow: {}", r.cycles);
        let r2 = sim.malloc(2048);
        assert_eq!(r2.kind, CallKind::MallocFast);
        assert_eq!(sim.allocator().stats().tcache_fills, 1);
    }
}
