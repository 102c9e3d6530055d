//! Property-based tests over the cross-thread invariants the multi-core
//! subsystem leans on.
//!
//! The multi-core timing layer replays per-core streams against state the
//! serial functional phase captured, so its correctness rests on two
//! allocator invariants holding for *every* interleaving of cross-thread
//! traffic:
//!
//! 1. **No double residency** — a block is never on two thread-cache free
//!    lists at once, however it migrates (remote free, release to the
//!    transfer cache, central-list refill, steal).
//! 2. **Conservation** — the remote free → transfer cache → central list
//!    flow never creates or loses blocks: for every size class, the
//!    objects carved out of spans equal the live blocks plus the free
//!    blocks across all tiers.
//!
//! Every substrate runs on the one multi-core engine, so the engine's own
//! properties are checked substrate by substrate: at one core it is
//! exactly the single-core driver, its replay is deterministic, and
//! cross-thread churn keeps every fast path's malloc-cache consistency
//! assertions quiet.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use mallacc::{Mode, SimMode};
use mallacc_explore::run_multicore;
use mallacc_multicore::MtRunResult;
use mallacc_substrate::{AnySim, SubstrateKind};
use mallacc_tcmalloc::{ClassId, TcMalloc};
use mallacc_test_support::arb_cross_thread_ops;
use mallacc_workloads::{MacroWorkload, MtOp, MtTrace};

const THREADS: usize = 4;

/// Runs `trace` on `kind`'s multi-core engine under `mode`, full detail.
fn run_mt(kind: SubstrateKind, mode: Mode, trace: &MtTrace) -> MtRunResult<()> {
    run_multicore(
        kind,
        mode,
        trace.cores(),
        SimMode::Full,
        trace.ops().iter().copied(),
    )
}

/// Replays a one-core trace on `kind`'s single-core driver, resolving app
/// touches to the addresses the multi-core engine gives core 0.
fn run_driver(kind: SubstrateKind, mode: Mode, sim: SimMode, trace: &MtTrace) -> AnySim {
    let mut d = AnySim::new(kind, mode);
    d.set_sampling(sim.plan());
    let mut ptrs: HashMap<u64, u64> = HashMap::new();
    let mut cursor = 0u64;
    for &(_, op) in trace.ops() {
        match op {
            MtOp::Malloc { size, token } => {
                ptrs.insert(token, d.malloc(size).ptr);
            }
            MtOp::Free { token, sized } => {
                d.free(
                    ptrs.remove(&token).expect("trace frees known tokens"),
                    sized,
                );
            }
            MtOp::AppRun { cycles } => d.app_run(u64::from(cycles)),
            MtOp::AppTouch {
                lines,
                working_set_lines,
            } => {
                let ws = u64::from(working_set_lines).max(1);
                let addrs: Vec<u64> = (0..u64::from(lines))
                    .map(|i| 0x7000_0000 + ((cursor + i) % ws) * 64)
                    .collect();
                cursor = (cursor + u64::from(lines)) % ws;
                d.app_touch(&addrs);
            }
        }
    }
    d
}

/// At one core the multi-core engine is exactly the single-core driver:
/// the same per-core totals and malloc-cache counters, for every
/// substrate, accelerator mode and timing fidelity.
#[test]
fn one_core_engine_equals_the_driver() {
    let omnetpp = MacroWorkload::by_name("471.omnetpp").expect("known workload");
    let traces = [
        MtTrace::producer_consumer(1, 300, 3),
        MtTrace::scaled(&omnetpp, 1, 300, 5),
    ];
    for kind in SubstrateKind::ALL {
        for mode in [
            Mode::Baseline,
            Mode::mallacc_default(),
            Mode::limit_all(),
            Mode::offload_default(),
            Mode::offload_both(),
        ] {
            for sim in [SimMode::Full, SimMode::sampled_default()] {
                for trace in &traces {
                    let mt = run_multicore(kind, mode, 1, sim, trace.ops().iter().copied());
                    let single = run_driver(kind, mode, sim, trace);
                    let core = &mt.per_core[0];
                    assert_eq!(core.totals, single.totals(), "{kind:?} {mode:?} {sim:?}");
                    assert_eq!(
                        core.mc,
                        single.malloc_cache().stats(),
                        "{kind:?} {mode:?} {sim:?}"
                    );
                }
            }
        }
    }
}

/// The ring frees across cores on every substrate; the engine counts
/// each free whose issuing core is not the allocating core.
#[test]
fn ring_has_remote_frees_on_every_substrate() {
    let trace = MtTrace::producer_consumer(2, 300, 11);
    for kind in SubstrateKind::ALL {
        let r = run_mt(kind, Mode::Baseline, &trace);
        assert_eq!(
            r.remote_frees as usize,
            trace.malloc_count(),
            "{kind:?}: every ring free is remote"
        );
        assert!(r.aggregate().allocator_cycles() > 0, "{kind:?}: no cycles");
    }
}

/// Scaled macro traffic stays core-local on every substrate, and every
/// core does work.
#[test]
fn scaled_traffic_stays_local_on_every_substrate() {
    let omnetpp = MacroWorkload::by_name("471.omnetpp").expect("known workload");
    let trace = MtTrace::scaled(&omnetpp, 4, 200, 3);
    for kind in SubstrateKind::ALL {
        let r = run_mt(kind, Mode::mallacc_default(), &trace);
        assert_eq!(r.remote_frees, 0, "{kind:?}: scaled traffic is core-local");
        assert!(
            r.per_core.iter().all(|c| c.totals.allocator_cycles() > 0),
            "{kind:?}: idle core"
        );
    }
}

/// Everything a multi-core run reports that must not depend on the host
/// schedule.
fn run_signature(r: &MtRunResult<()>) -> impl PartialEq + std::fmt::Debug {
    (
        r.cycles_per_call().to_bits(),
        r.makespan_cycles(),
        r.epochs,
        r.shared_l3_accesses,
        r.remote_frees,
        r.steal_invalidates,
        r.per_core
            .iter()
            .map(|c| (c.totals, c.mc, c.l3))
            .collect::<Vec<_>>(),
    )
}

/// Checks both cross-thread invariants for every class seen so far.
fn check_cross_thread_invariants(
    a: &TcMalloc,
    classes: &HashSet<ClassId>,
) -> Result<(), TestCaseError> {
    for &cls in classes {
        // 1. No block sits on two thread caches (or twice on one) at once.
        let mut seen: HashSet<u64> = HashSet::new();
        for tid in 0..a.num_threads() {
            for block in a.free_list_blocks_on(tid, cls) {
                prop_assert!(
                    seen.insert(block),
                    "block {block:#x} of {cls:?} is on two thread caches"
                );
            }
        }
        // 2. carved = live + free across thread caches, transfer, central.
        prop_assert_eq!(
            a.carved_objects(cls) as usize,
            a.live_blocks_of(cls) + a.free_blocks_of(cls),
            "class {:?} population not conserved",
            cls
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary cross-thread churn — every allocation may be freed from
    /// any *other* thread — never puts a block on two thread caches and
    /// never breaks per-class conservation, at any intermediate state.
    #[test]
    fn cross_thread_churn_preserves_residency_and_conservation(
        ops in arb_cross_thread_ops(THREADS, 120)
    ) {
        let mut a = TcMalloc::with_threads(Default::default(), THREADS);
        let mut live: Vec<u64> = Vec::new();
        let mut classes: HashSet<ClassId> = HashSet::new();
        for (tid, size, sel, do_free, sized) in ops {
            let o = a.malloc_on(tid, size);
            if let Some(cls) = o.cls {
                classes.insert(cls);
            }
            live.push(o.ptr);
            if do_free {
                let i = sel as usize % live.len();
                let p = live.swap_remove(i);
                // Free from a different thread than the one that just
                // allocated — the migration path under test.
                let victim = (tid + 1 + sel as usize % (THREADS - 1)) % THREADS;
                a.free_on(victim, p, sized);
            }
            check_cross_thread_invariants(&a, &classes)?;
        }
    }

    /// The producer–consumer ring drains completely: every remote free
    /// funnels back through the transfer cache and central list without
    /// losing a block, and at the end the entire carved population of
    /// every class is free again.
    #[test]
    fn ring_remote_frees_conserve_blocks_through_drain(
        cores in 1usize..5,
        calls in 1usize..50,
        seed in any::<u64>(),
    ) {
        let trace = MtTrace::producer_consumer(cores, calls, seed);
        let mut a = TcMalloc::with_threads(Default::default(), cores);
        let mut addr_of: HashMap<u64, u64> = HashMap::new();
        let mut classes: HashSet<ClassId> = HashSet::new();
        for &(core, op) in trace.ops() {
            match op {
                MtOp::Malloc { size, token } => {
                    let o = a.malloc_on(core, size);
                    if let Some(cls) = o.cls {
                        classes.insert(cls);
                    }
                    prop_assert!(addr_of.insert(token, o.ptr).is_none());
                }
                MtOp::Free { token, sized } => {
                    let p = addr_of.remove(&token).expect("trace frees known tokens");
                    a.free_on(core, p, sized);
                }
                _ => {}
            }
            check_cross_thread_invariants(&a, &classes)?;
        }
        prop_assert_eq!(a.live_blocks(), 0, "ring must drain fully");
        for &cls in &classes {
            prop_assert_eq!(a.free_blocks_of(cls) as u64, a.carved_objects(cls));
        }
        if cores > 1 {
            prop_assert!(a.stats().remote_frees > 0, "multi-core ring frees remotely");
        }
    }

    /// Ring traces are well-formed for any parameters: every token is
    /// freed exactly once after its malloc, and nothing leaks.
    #[test]
    fn ring_traces_free_every_token_exactly_once(
        cores in 1usize..9,
        calls in 0usize..80,
        seed in any::<u64>(),
    ) {
        let trace = MtTrace::producer_consumer(cores, calls, seed);
        let mut live: HashSet<u64> = HashSet::new();
        for &(_, op) in trace.ops() {
            match op {
                MtOp::Malloc { token, .. } => prop_assert!(live.insert(token)),
                MtOp::Free { token, .. } => prop_assert!(live.remove(&token)),
                _ => {}
            }
        }
        prop_assert!(live.is_empty(), "{} blocks leaked", live.len());
        prop_assert_eq!(trace.malloc_count(), cores * calls);
    }

    /// The two-phase multi-core replay is deterministic for any trace
    /// shape on every substrate: identical runs give bit-identical timing,
    /// epoch counts, shared-L3 traffic and per-core statistics.
    #[test]
    fn multicore_replay_is_deterministic(
        cores in 1usize..5,
        calls in 4usize..32,
        seed in any::<u64>(),
    ) {
        let trace = MtTrace::producer_consumer(cores, calls, seed);
        for kind in SubstrateKind::ALL {
            let run = || run_mt(kind, Mode::mallacc_default(), &trace);
            prop_assert_eq!(run_signature(&run()), run_signature(&run()), "{:?}", kind);
        }
    }

    /// Cross-thread churn — remote frees, rpmalloc's deferred-list
    /// adoptions, TCMalloc's steals — replays cleanly on every substrate
    /// under Mallacc. In a debug build each fast path `debug_assert`s that
    /// every malloc-cache hit returns exactly the block and next head the
    /// shared heap produced.
    #[test]
    fn cross_thread_churn_keeps_every_malloc_cache_consistent(
        ops in arb_cross_thread_ops(THREADS, 120)
    ) {
        let mut stream = Vec::new();
        let mut live: Vec<u64> = Vec::new();
        for (token, (tid, size, sel, do_free, sized)) in (0u64..).zip(ops) {
            stream.push((tid, MtOp::Malloc { size, token }));
            live.push(token);
            if do_free {
                let victim = live.swap_remove(sel as usize % live.len());
                let other = (tid + 1 + sel as usize % (THREADS - 1)) % THREADS;
                stream.push((other, MtOp::Free { token: victim, sized }));
            }
        }
        let trace = MtTrace::from_ops(THREADS, stream);
        for kind in SubstrateKind::ALL {
            let r = run_mt(kind, Mode::mallacc_default(), &trace);
            let t = r.aggregate();
            prop_assert_eq!(t.malloc_calls as usize, trace.malloc_count(), "{:?}", kind);
        }
    }
}
