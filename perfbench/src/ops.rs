//! Substrate-neutral functional op lists, the heap checker, and the bare
//! functional-model re-drives.
//!
//! A workload's generated input (a single-core [`Trace`] or a fleet
//! `(core, MtOp)` stream) is flattened into [`FOp`]s that name blocks by
//! allocation order, so the same list can be re-driven through every
//! functional allocator model and its call counts read off without a
//! simulator.

use std::collections::{BTreeMap, HashMap};

use mallacc_cache::Addr;
use mallacc_substrate::Allocator;
use mallacc_workloads::{MtOp, Op, Trace};

/// One functional allocator call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FOp {
    /// Allocate `size` bytes; the block is named by its malloc index.
    Malloc { size: u64 },
    /// Free the block allocated by the `block`-th malloc of the list.
    Free { block: u32, sized: bool },
}

/// Flattens a single-core trace with the replay's pool semantics
/// (`Free` picks `index % pool len` and swap-removes; `FreeNewest` pops;
/// both are no-ops on an empty pool).
pub fn from_trace(trace: &Trace) -> Vec<FOp> {
    let mut out = Vec::new();
    let mut pool: Vec<u32> = Vec::new();
    let mut next = 0u32;
    for &op in trace.ops() {
        match op {
            Op::Malloc { size } => {
                out.push(FOp::Malloc { size });
                pool.push(next);
                next += 1;
            }
            Op::Free { index, sized } => {
                if pool.is_empty() {
                    continue;
                }
                let i = (index % pool.len() as u64) as usize;
                let block = pool.swap_remove(i);
                out.push(FOp::Free { block, sized });
            }
            Op::FreeNewest { sized } => {
                if let Some(block) = pool.pop() {
                    out.push(FOp::Free { block, sized });
                }
            }
            _ => {}
        }
    }
    out
}

/// Flattens a fleet stream (tokens become malloc indices; the issuing core
/// is dropped — the functional re-drives are single-threaded).
///
/// # Panics
///
/// Panics if the stream frees a token it never allocated.
pub fn from_stream(ops: &[(usize, MtOp)]) -> Vec<FOp> {
    let mut out = Vec::new();
    let mut tokens: HashMap<u64, u32> = HashMap::new();
    let mut next = 0u32;
    for &(_, op) in ops {
        match op {
            MtOp::Malloc { size, token } => {
                tokens.insert(token, next);
                next += 1;
                out.push(FOp::Malloc { size });
            }
            MtOp::Free { token, sized } => {
                let block = tokens.remove(&token).expect("stream frees a live token");
                out.push(FOp::Free { block, sized });
            }
            _ => {}
        }
    }
    out
}

/// `(mallocs, frees)` of a functional op list: the call counts a simulator
/// must report after replaying the input it came from.
pub fn counts(fops: &[FOp]) -> (u64, u64) {
    let mallocs = fops
        .iter()
        .filter(|o| matches!(o, FOp::Malloc { .. }))
        .count() as u64;
    (mallocs, fops.len() as u64 - mallocs)
}

/// Replays `fops` on a bare functional model.
pub fn redrive<A: Allocator>(alloc: &mut A, fops: &[FOp]) {
    let mut ptrs: Vec<Addr> = Vec::with_capacity(fops.len());
    for &op in fops {
        match op {
            FOp::Malloc { size } => ptrs.push(alloc.alloc(size).ptr),
            FOp::Free { block, sized } => {
                std::hint::black_box(alloc.dealloc(ptrs[block as usize], sized));
            }
        }
    }
}

/// Live-block bookkeeping that flags overlapping blocks and frees of
/// blocks that are not live.
#[derive(Debug, Default)]
pub struct Heap {
    live: BTreeMap<Addr, u64>,
    /// Allocations that overlapped a live block, plus frees of non-live
    /// blocks.
    pub violations: u64,
}

impl Heap {
    /// Records an allocation of at least `size` bytes at `ptr`.
    pub fn alloc(&mut self, ptr: Addr, size: u64) {
        let end = ptr.saturating_add(size.max(1));
        let below = self.live.range(..=ptr).next_back();
        let above = self.live.range(ptr..).next();
        let overlaps =
            below.is_some_and(|(&p, &s)| p + s > ptr) || above.is_some_and(|(&p, _)| p < end);
        if overlaps {
            self.violations += 1;
        }
        self.live.insert(ptr, size.max(1));
    }

    /// Records a free of `ptr`.
    pub fn free(&mut self, ptr: Addr) {
        if self.live.remove(&ptr).is_none() {
            self.violations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_flags_overlap_and_wild_free() {
        let mut h = Heap::default();
        h.alloc(0x100, 32);
        h.alloc(0x120, 32);
        assert_eq!(h.violations, 0);
        h.alloc(0x110, 8);
        assert_eq!(h.violations, 1);
        h.free(0x500);
        assert_eq!(h.violations, 2);
        h.free(0x100);
        assert_eq!(h.violations, 2);
    }

    #[test]
    fn trace_flattening_mirrors_replay_pool() {
        let t: Trace = [
            Op::Free {
                index: 3,
                sized: true,
            },
            Op::Malloc { size: 16 },
            Op::Malloc { size: 32 },
            Op::FreeNewest { sized: false },
            Op::Free {
                index: 7,
                sized: true,
            },
            Op::FreeNewest { sized: true },
        ]
        .into_iter()
        .collect();
        let f = from_trace(&t);
        assert_eq!(counts(&f), (2, 2));
        assert_eq!(
            f[2],
            FOp::Free {
                block: 1,
                sized: false
            }
        );
    }
}
