//! The rpmalloc fast path: Mallacc and SpeedMalloc-style offload over a
//! lock-free allocator.
//!
//! This is the substrate the paper could not evaluate: rpmalloc's fast
//! path has no size-class table loads (pure arithmetic), no pagemap walk
//! on free (an address mask recovers the span), and no locks (span
//! single-ownership plus deferred cross-thread lists). What *remains* is
//! the dependent-load chain through free blocks — exactly the structure
//! `mchdpop` caches — so the malloc cache still has a target, just a
//! smaller share of the call.
//!
//! Mode integration mirrors jemalloc's: requested-size keying (no
//! Figure 5 index hardware here), cache pushes only for frees landing on
//! the *active* span (the only list the next pop consults), `sync_list`
//! resyncs on span installs and deferred adoptions.

use mallacc::programs::emit_overhead;
use mallacc::{CallInfo, Driver, EmitCtx, FastPath, PopResult, PostList, RangeKeying, SharedRes};
use mallacc_cache::Addr;
use mallacc_offload::ServicePath;
use mallacc_ooo::{Component, Engine, Reg, Uop};

use crate::rpmalloc::{
    rp_layout, RpFreeOutcome, RpFreePath, RpMalloc, RpMallocOutcome, RpMallocPath, RpStats,
};

/// The rpmalloc simulator.
///
/// # Example
///
/// ```
/// use mallacc::{CallKind, Mode};
/// use mallacc_substrate::RpSim;
///
/// let mut sim = RpSim::new(Mode::mallacc_default());
/// let warm = sim.malloc(64);
/// sim.free(warm.ptr, true);
/// let hit = sim.malloc(64);
/// assert_eq!(hit.kind, CallKind::MallocFast);
/// ```
pub type RpSim = Driver<RpMalloc>;

/// Pages of one span, in the offload core's 8 KiB page units.
const SPAN_PAGES: u64 = rp_layout::SPAN_SIZE / 8192;

/// rpmalloc's size→class: two ALU ops (round, shift) — no table load.
fn emit_class_sw(cpu: &mut Engine, size_reg: Reg) -> Reg {
    let a = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(a), &[size_reg]));
    let b = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(b), &[a]));
    cpu.push(Uop::branch(false, &[b]));
    b
}

/// The software list pop: head load from the span header, then the
/// dependent chase through the block for the next pointer — the one
/// memory chain rpmalloc's fast path retains. The free list is intrusive
/// (threaded through the blocks), so the chase lands on the popped block
/// itself, not the hot span header.
fn emit_pop_sw(cpu: &mut Engine, span: Addr, block: Addr, heap_reg: Reg) -> Reg {
    let head = cpu.alloc_reg();
    cpu.push(Uop::load(rp_layout::span_header(span), head, &[heap_reg]));
    cpu.push(Uop::branch(false, &[head]));
    let next = cpu.alloc_reg();
    cpu.push(Uop::load(block, next, &[head]));
    cpu.push(Uop::store(rp_layout::span_header(span), &[next]));
    head
}

fn emit_large(cpu: &mut Engine, spans: u64, grew: bool) {
    let d = cpu.alloc_reg();
    cpu.push(Uop::load(rp_layout::STATIC_BASE, d, &[]));
    if grew {
        let g = cpu.alloc_reg();
        cpu.push(Uop::alu(8000, Some(g), &[]));
    }
    let mut dep = d;
    for _ in 0..spans.min(8) {
        let s = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(s), &[dep]));
        dep = s;
    }
    cpu.push(Uop::store(rp_layout::STATIC_BASE, &[dep]));
}

/// The span-mask owner lookup every small free starts with: `ptr &
/// SPAN_MASK` (one ALU op, sized and unsized alike — the lookup the malloc
/// cache cannot improve on), the span-header load and its check.
fn emit_owner(cpu: &mut Engine, span: Addr, ptr_reg: Reg) -> Reg {
    let mask = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(mask), &[ptr_reg]));
    let owner = cpu.alloc_reg();
    cpu.push(Uop::load(rp_layout::span_header(span), owner, &[mask]));
    cpu.push(Uop::branch(false, &[owner]));
    owner
}

/// rpmalloc has no locks: its one shared structure is a span's deferred
/// list, a lock-free hand-off. The owner's atomic adoption of the list
/// serialises with the foreign frees pushing onto it. A foreign free's CAS
/// touches only its span's header line, so the capture prices it as the
/// remote line pull every cross-core free pays, not as a hand-off
/// collision with every other core's frees.
impl FastPath for RpMalloc {
    type Malloc = RpMallocOutcome;
    type Free = RpFreeOutcome;
    type Stats = RpStats;

    fn shared(threads: usize) -> Self {
        RpMalloc::new(threads)
    }

    /// Requested-size keying: rpmalloc's class function is plain
    /// arithmetic, not TCMalloc's index table.
    const KEYING: Option<RangeKeying> = Some(RangeKeying::RequestedSize);

    fn serve_malloc(&mut self, thread: usize, size: u64) -> (RpMallocOutcome, PostList) {
        let outcome = self.malloc_on(thread, size);
        let post = PostList {
            head: outcome.post_head,
            next: outcome.post_next,
        };
        (outcome, post)
    }

    fn serve_free(&mut self, thread: usize, ptr: Addr, sized: bool) -> (RpFreeOutcome, PostList) {
        let outcome = self.free_on(thread, ptr, sized);
        let (head, next) = outcome
            .class
            .map_or((None, None), |c| self.list_top2(thread, c));
        (outcome, PostList { head, next })
    }

    fn stats(&self) -> RpStats {
        RpMalloc::stats(self)
    }

    fn malloc_info(outcome: &RpMallocOutcome) -> CallInfo {
        let path = match &outcome.path {
            RpMallocPath::LocalHit { .. } | RpMallocPath::Carve { .. } => ServicePath::MallocFast,
            RpMallocPath::DeferredAdopt { adopted } => ServicePath::MallocCentral {
                batch: (*adopted).max(1),
            },
            RpMallocPath::NewSpan { grew: true, .. } => ServicePath::MallocOs {
                batch: 1,
                objects: 1,
                pages: SPAN_PAGES,
            },
            RpMallocPath::NewSpan { grew: false, .. } => ServicePath::MallocSpan {
                batch: 1,
                objects: 1,
                pages: SPAN_PAGES,
            },
            RpMallocPath::Large { spans, grew } => ServicePath::MallocLarge {
                pages: spans * SPAN_PAGES,
                grew_heap: *grew,
            },
        };
        CallInfo {
            shared: matches!(outcome.path, RpMallocPath::DeferredAdopt { .. })
                .then_some(SharedRes::Transfer),
            path,
            ptr: outcome.ptr,
            size: outcome.requested,
            cls: outcome.class,
            sampled: false,
        }
    }

    fn free_info(outcome: &RpFreeOutcome) -> CallInfo {
        let path = match &outcome.path {
            // The address mask makes unsized frees cost-identical.
            RpFreePath::Local { .. } | RpFreePath::Deferred { .. } => ServicePath::FreeFast {
                unsized_walk: false,
            },
            RpFreePath::Large { spans } => ServicePath::FreeLarge {
                pages: spans * SPAN_PAGES,
            },
        };
        CallInfo {
            path,
            shared: None,
            ptr: outcome.ptr,
            size: outcome.alloc_size,
            cls: outcome.class,
            sampled: false,
        }
    }

    fn emit_malloc(sh: &mut EmitCtx, outcome: &RpMallocOutcome, post: PostList) {
        let size_reg = sh.prologue(4);
        // The size-class component under the current mode. With no memory
        // accesses to hide, `mcszlookup` can at best shave one ALU op here.
        let size_class = |sh: &mut EmitCtx| {
            let raw = outcome.class.expect("small path");
            sh.size_class(
                outcome.requested,
                outcome.alloc_size,
                raw,
                size_reg,
                |cpu| emit_class_sw(cpu, size_reg),
            )
        };
        match &outcome.path {
            RpMallocPath::Large { spans, grew } => {
                sh.cpu.set_component(Component::SlowPath);
                emit_large(&mut sh.cpu, *spans, *grew);
                emit_overhead(&mut sh.cpu, 1);
            }
            RpMallocPath::LocalHit { .. } => {
                let raw = outcome.class.expect("small path");
                let span = outcome.span.expect("small path");
                let cls_reg = size_class(sh);
                sh.cpu.set_component(Component::Metadata);
                let heap = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::load(
                    rp_layout::heap_class_entry(raw),
                    heap,
                    &[cls_reg],
                ));
                sh.cpu.set_component(Component::ListOp);
                if sh.limit().push_pop {
                    emit_overhead(&mut sh.cpu, 1);
                } else if sh.accel().is_some_and(|a| a.list_opt) {
                    let (pop, result) = sh.mchdpop(raw, heap);
                    sh.cpu.push(Uop::branch(false, &[pop]));
                    let pop_hit = matches!(result, PopResult::Hit { .. });
                    let head_reg = match result {
                        PopResult::Hit { head, next } => {
                            debug_assert_eq!(head, outcome.ptr, "rpmalloc cache pop mismatch");
                            debug_assert_eq!(Some(next), post.head);
                            sh.cpu
                                .push(Uop::store(rp_layout::span_header(span), &[pop]));
                            pop
                        }
                        PopResult::Miss => emit_pop_sw(&mut sh.cpu, span, outcome.ptr, heap),
                    };
                    if sh.accel().is_some_and(|a| a.prefetch) {
                        if let Some(new_top) = post.head {
                            // A hit consumed the cached pair; refill it by
                            // chasing one load for the entry under the new
                            // top. rpmalloc's fast path is too short to
                            // hide a blocking mcnxtprefetch (the Figure 17
                            // tp effect), so the refill stays in the
                            // ordinary load pipeline. After a miss the
                            // software pop already loaded the next
                            // pointer: no extra memory traffic.
                            let below = if pop_hit {
                                let below = sh.cpu.alloc_reg();
                                sh.cpu.push(Uop::load(new_top, below, &[head_reg]));
                                below
                            } else {
                                head_reg
                            };
                            sh.mchdpush_pair(raw, Some(new_top), post.next, below);
                        }
                    }
                } else {
                    emit_pop_sw(&mut sh.cpu, span, outcome.ptr, heap);
                }
            }
            RpMallocPath::Carve { .. } => {
                let raw = outcome.class.expect("small path");
                let cls_reg = size_class(sh);
                sh.cpu.set_component(Component::Metadata);
                let heap = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::load(
                    rp_layout::heap_class_entry(raw),
                    heap,
                    &[cls_reg],
                ));
                // Bump carve: offset add, counter increment, header store —
                // no memory chain at all.
                sh.cpu.set_component(Component::ListOp);
                let off = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::alu(1, Some(off), &[heap]));
                let ctr = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::alu(1, Some(ctr), &[off]));
                sh.cpu.push(Uop::branch(false, &[ctr]));
                if let Some(span) = outcome.span {
                    sh.cpu
                        .push(Uop::store(rp_layout::span_header(span), &[ctr]));
                }
            }
            RpMallocPath::DeferredAdopt { .. } => {
                let cls_reg = size_class(sh);
                sh.cpu.set_component(Component::SlowPath);
                let span = outcome.span.expect("small path");
                // Atomic exchange of the deferred head (rare branch), then
                // the adopted list serves like a local one.
                let heap = sh.cpu.alloc_reg();
                let raw = outcome.class.expect("small path");
                sh.cpu.push(Uop::load(
                    rp_layout::heap_class_entry(raw),
                    heap,
                    &[cls_reg],
                ));
                sh.cpu.push(Uop::branch(true, &[heap]));
                let xchg = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::alu(8, Some(xchg), &[heap]));
                emit_pop_sw(&mut sh.cpu, span, outcome.ptr, xchg);
                sh.resync(raw, post.head, post.next);
            }
            RpMallocPath::NewSpan { reused, grew } => {
                let cls_reg = size_class(sh);
                sh.cpu.set_component(Component::SlowPath);
                sh.cpu.push(Uop::branch(true, &[cls_reg]));
                if *grew {
                    let d = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::alu(8000, Some(d), &[]));
                }
                // Span install: unlink from the partial/reserve list, write
                // the header, point the heap's class entry at it.
                let mut dep = cls_reg;
                let loads = if *reused { 2 } else { 1 };
                for _ in 0..loads {
                    let d = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::load(rp_layout::STATIC_BASE, d, &[dep]));
                    dep = d;
                }
                for _ in 0..8 {
                    let d = sh.cpu.alloc_reg();
                    sh.cpu.push(Uop::alu(1, Some(d), &[dep]));
                    dep = d;
                }
                if let Some(span) = outcome.span {
                    sh.cpu
                        .push(Uop::store(rp_layout::span_header(span), &[dep]));
                }
                if let Some(raw) = outcome.class {
                    sh.cpu
                        .push(Uop::store(rp_layout::heap_class_entry(raw), &[dep]));
                    sh.resync(raw, post.head, post.next);
                }
            }
        }
        sh.overhead(4);
    }

    fn emit_free(sh: &mut EmitCtx, outcome: &RpFreeOutcome, _: PostList) {
        let ptr_reg = sh.prologue(3);
        match &outcome.path {
            RpFreePath::Large { spans } => {
                sh.cpu.set_component(Component::SlowPath);
                emit_large(&mut sh.cpu, *spans, false);
                emit_overhead(&mut sh.cpu, 1);
            }
            RpFreePath::Local { to_active, .. } => {
                let span = outcome.span.expect("small path");
                let raw = outcome.class.expect("small path");
                sh.cpu.set_component(Component::SizeClass);
                let owner = emit_owner(&mut sh.cpu, span, ptr_reg);
                sh.cpu.set_component(Component::ListOp);
                if !sh.limit().push_pop {
                    if *to_active && sh.accel().is_some_and(|a| a.list_opt) {
                        sh.mchdpush(raw, outcome.ptr, owner);
                    }
                    // Software push: write the old head into the block,
                    // repoint the span's list head.
                    sh.cpu.push(Uop::store(outcome.ptr, &[owner]));
                    sh.cpu
                        .push(Uop::store(rp_layout::span_header(span), &[owner]));
                }
            }
            RpFreePath::Deferred { .. } => {
                let span = outcome.span.expect("small path");
                sh.cpu.set_component(Component::SizeClass);
                let owner = emit_owner(&mut sh.cpu, span, ptr_reg);
                // CAS loop on the deferred head (uncontended here).
                sh.cpu.set_component(Component::SlowPath);
                let cas = sh.cpu.alloc_reg();
                sh.cpu.push(Uop::alu(8, Some(cas), &[owner]));
                sh.cpu.push(Uop::store(outcome.ptr, &[cas]));
            }
        }
        sh.overhead(3);
    }
}

#[cfg(test)]
mod tests {
    use mallacc::Mode;

    use super::*;

    /// Builds a deep free list first: the malloc cache's head/next pair
    /// only completes when the list holds at least two entries.
    fn churn_deep(sim: &mut RpSim, n: usize) {
        let ptrs: Vec<Addr> = (0..16).map(|_| sim.malloc(64).ptr).collect();
        for p in ptrs {
            sim.free(p, true);
        }
        for _ in 0..n {
            let r = sim.malloc(64);
            sim.free(r.ptr, true);
        }
    }

    #[test]
    fn mallacc_does_not_slow_rpmalloc_down() {
        let run = |mode: Mode| {
            let mut sim = RpSim::new(mode);
            churn_deep(&mut sim, 100);
            sim.reset_totals();
            churn_deep(&mut sim, 600);
            let t = sim.totals();
            t.allocator_cycles() as f64 / (t.malloc_calls + t.free_calls) as f64
        };
        let base = run(Mode::Baseline);
        let accel = run(Mode::mallacc_default());
        assert!(
            accel <= base,
            "mallacc should not slow rpmalloc down: {base} → {accel}"
        );
    }

    #[test]
    fn cache_pops_hit_after_warmup() {
        let mut sim = RpSim::new(Mode::mallacc_default());
        churn_deep(&mut sim, 200);
        let s = sim.malloc_cache().stats();
        assert!(s.pop_hits > 50, "pop hits {}", s.pop_hits);
    }
}
