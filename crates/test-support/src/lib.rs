//! Shared proptest strategies for the workspace's property suites.
//!
//! The allocator-differential, multi-core, exploration and validation test
//! suites all generate the same few shapes of random input: allocator op
//! streams, cross-thread churn, (cost, gain) point clouds, sweep
//! configuration points. Before this crate each suite carried its own
//! copy; they drifted (different size distributions, different weights)
//! and bug-reproducing generator tweaks had to be applied in several
//! places. The canonical versions live here; test files only add the
//! assertions.
//!
//! Everything returns `impl Strategy`, so suites can keep composing
//! (`prop_map`, weighting) on top of the shared bases.
//!
//! The golden-snapshot suites share one comparison, [`assert_golden`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use proptest::prelude::*;

use mallacc::SimMode;
use mallacc_explore::{AccelKind, ConfigPoint, RunScale, Substrate};
use mallacc_ooo::SamplingPlan;

/// One step of an allocator differential stream (replayed through both
/// functional allocator models in lockstep).
#[derive(Debug, Clone, Copy)]
pub enum DiffOp {
    /// Allocate `size` bytes on both allocators.
    Malloc {
        /// Requested size in bytes.
        size: u64,
    },
    /// Free the `index % live`-th live pair on both.
    Free {
        /// Selector into the live set (reduced modulo its length).
        index: u64,
        /// Use the sized-delete path.
        sized: bool,
    },
}

/// Strategy: a malloc/free stream mixing small (bin-served) and large
/// requests 3:1, with frees interleaved at the same weight as small
/// allocations. The distribution matters: it keeps several size classes
/// live at once while still exercising the large-object path.
pub fn arb_diff_stream(max_len: usize) -> impl Strategy<Value = Vec<DiffOp>> {
    let op = prop_oneof![
        3 => (1u64..4_096).prop_map(|size| DiffOp::Malloc { size }),
        1 => (8_192u64..600_000).prop_map(|size| DiffOp::Malloc { size }),
        3 => (any::<u64>(), any::<bool>()).prop_map(|(index, sized)| DiffOp::Free { index, sized }),
    ];
    prop::collection::vec(op, 1..max_len)
}

/// Strategy: cross-thread churn for an allocator with `threads` thread
/// caches. Each tuple is `(tid, size, selector, do_free, sized)`: thread
/// `tid` allocates `size` bytes, and if `do_free`, a *different* thread
/// (derived from `selector`) frees a victim from the live set — the
/// block-migration path the multi-core invariants guard.
pub fn arb_cross_thread_ops(
    threads: usize,
    max_len: usize,
) -> impl Strategy<Value = Vec<(usize, u64, u16, bool, bool)>> {
    prop::collection::vec(
        (
            0usize..threads,
            1u64..300_000,
            any::<u16>(),
            any::<bool>(),
            any::<bool>(),
        ),
        1..max_len,
    )
}

/// Strategy: an arbitrary set of finite `(cost, gain)` result points, the
/// input shape of the Pareto-frontier helpers.
pub fn arb_points(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..10_000.0, -100.0f64..100.0), 0..max_len)
}

/// Strategy: an arbitrary sampled-execution cadence. Draws warmup,
/// window, and period from ranges that keep the detailed fraction
/// meaningful (the window always fits in the period because the period
/// is drawn as a multiple of `warmup + detailed`), plus an occasional
/// zero-length startup interval — the degenerate corner the sampling
/// properties care about most.
pub fn arb_sampling_plan() -> impl Strategy<Value = SamplingPlan> {
    (
        0u64..=512,  // warmup µops (0 is legal: measure cold)
        1u64..=1024, // detailed window µops
        1u64..=8,    // period as a multiple of warmup + detailed
        0u64..=2,    // startup interval, in periods
    )
        .prop_map(|(warmup, detailed, factor, startup_periods)| {
            let period = (warmup + detailed).max(1) * factor;
            let plan = SamplingPlan::new(warmup, detailed, period)
                .expect("window and period are non-zero by construction");
            plan.with_startup(period * startup_periods)
        })
}

/// Strategy: an arbitrary sweep configuration point (cheap axes only —
/// consumers hash and compare these, they never run them).
pub fn arb_config_point() -> impl Strategy<Value = ConfigPoint> {
    (
        (
            1usize..=64,
            0u32..4,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            0usize..4,
            0usize..14,
            1usize..=8,
            any::<u64>(),
        ),
        0usize..4,
        1usize..=64,
        prop_oneof![
            2 => Just(SimMode::Full),
            1 => Just(SimMode::sampled_default()),
            1 => arb_sampling_plan().prop_map(SimMode::Sampled),
        ],
    )
        .prop_map(
            |(
                (
                    entries,
                    extra_latency,
                    prefetch,
                    index_opt,
                    sampling,
                    substrate,
                    workload,
                    cores,
                    seed,
                ),
                accel,
                queue_depth,
                sim,
            )| {
                ConfigPoint {
                    entries,
                    extra_latency,
                    prefetch,
                    index_opt,
                    sampling,
                    accel: AccelKind::ALL[accel],
                    queue_depth,
                    substrate: Substrate::ALL[substrate],
                    workload: mallacc_workloads::AnyWorkload::all_names()[workload].to_string(),
                    cores,
                    seed,
                    scale: RunScale::quick(),
                    sim,
                }
            },
        )
}

/// Parameters for one fleet scenario run, as drawn by
/// [`arb_fleet_params`]: which catalogue scenario to stream, on how many
/// cores, how many requests, and the arrival seed.
#[derive(Debug, Clone, Copy)]
pub struct FleetParams {
    /// A name from [`mallacc_fleet::Scenario::all`].
    pub scenario: &'static str,
    /// Simulated core count.
    pub cores: usize,
    /// Requests to issue.
    pub requests: u64,
    /// Arrival/request RNG seed.
    pub seed: u64,
}

/// Strategy: parameters for one fleet scenario run — any catalogue
/// scenario, mostly 1..=8 cores with occasional 16/32-core draws (the
/// lifted multicore cap), a request volume small enough that a property
/// case simulates in milliseconds, and an arbitrary seed.
pub fn arb_fleet_params() -> impl Strategy<Value = FleetParams> {
    let n = mallacc_fleet::Scenario::all().len();
    let cores = prop_oneof![
        4 => 1usize..=8,
        1 => (0usize..2).prop_map(|wide| if wide == 0 { 16 } else { 32 }),
    ];
    (0..n, cores, 4u64..48, any::<u64>()).prop_map(|(idx, cores, requests, seed)| FleetParams {
        scenario: mallacc_fleet::Scenario::all()[idx].name,
        cores,
        requests,
        seed,
    })
}

/// A naive reference heap interpreter: the malloc contract with no
/// allocator structure at all.
///
/// The differential suites replay every substrate's
/// [`GenericAlloc`](mallacc_substrate::GenericAlloc)/[`GenericFree`](mallacc_substrate::GenericFree)
/// outcomes through one of these. It knows nothing about size classes,
/// spans, or caches — just the laws any correct allocator must obey:
/// every block is rounded up (never down), live blocks never overlap,
/// and every free names a live block and recalls its exact rounded
/// size. Violations return `Err` with the offending addresses so a
/// shrunk proptest case reads like a bug report.
#[derive(Debug, Default)]
pub struct RefHeap {
    /// ptr → (requested, alloc_size) for every live block.
    live: std::collections::BTreeMap<u64, (u64, u64)>,
    /// Live pointers in allocation order. `pick` indexes this rather
    /// than the address-sorted map so that the same `DiffOp::Free`
    /// selector names the same *logical* block on every substrate —
    /// address layouts differ across allocators, allocation order
    /// does not.
    order: Vec<u64>,
}

impl RefHeap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks and records one allocation outcome.
    pub fn on_alloc(&mut self, a: &mallacc_substrate::GenericAlloc) -> Result<(), String> {
        if a.ptr == 0 {
            return Err("allocator returned null".to_string());
        }
        if a.alloc_size < a.requested {
            return Err(format!(
                "under-allocation: requested {} got {}",
                a.requested, a.alloc_size
            ));
        }
        if let Some((&p, &(_, s))) = self.live.range(..=a.ptr).next_back() {
            if p + s > a.ptr {
                return Err(format!(
                    "overlap: new [{:#x},+{}) collides with live [{p:#x},+{s})",
                    a.ptr, a.alloc_size
                ));
            }
        }
        if let Some((&p, &(_, s))) = self.live.range(a.ptr..a.ptr + a.alloc_size).next() {
            return Err(format!(
                "overlap: new [{:#x},+{}) collides with live [{p:#x},+{s})",
                a.ptr, a.alloc_size
            ));
        }
        self.live.insert(a.ptr, (a.requested, a.alloc_size));
        self.order.push(a.ptr);
        Ok(())
    }

    /// Checks and records one free outcome.
    pub fn on_free(&mut self, f: &mallacc_substrate::GenericFree) -> Result<(), String> {
        self.order.retain(|&p| p != f.ptr);
        match self.live.remove(&f.ptr) {
            None => Err(format!("free of unknown block {:#x}", f.ptr)),
            Some((req, size)) if size != f.alloc_size => Err(format!(
                "size amnesia at {:#x}: allocated {size} (for request {req}), freed {}",
                f.ptr, f.alloc_size
            )),
            Some(_) => Ok(()),
        }
    }

    /// Live blocks currently tracked.
    pub fn live_blocks(&self) -> usize {
        self.live.len()
    }

    /// Sum of rounded sizes of live blocks.
    pub fn bytes_in_use(&self) -> u64 {
        self.live.values().map(|&(_, s)| s).sum()
    }

    /// The `selector % live`-th live pointer *in allocation order*,
    /// for replaying [`DiffOp::Free`] selectors; `None` when empty.
    pub fn pick(&self, selector: u64) -> Option<u64> {
        if self.order.is_empty() {
            return None;
        }
        let i = (selector % self.order.len() as u64) as usize;
        self.order.get(i).copied()
    }
}

/// Compares `actual` with the snapshot `tests/golden/<name>` of the
/// workspace, or rewrites the snapshot when `UPDATE_GOLDEN` is set. A
/// mismatch names the first line that differs; review an intentional
/// change's diff like any other code change.
///
/// # Panics
///
/// Panics when the snapshot is missing or differs from `actual`.
pub fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nregenerate with UPDATE_GOLDEN=1 cargo test",
            path.display()
        )
    });
    if let Some((n, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "drift against {} at line {}:\n  expected: {want}\n  actual:   {got}\n\
             If this change is intentional, regenerate with UPDATE_GOLDEN=1.",
            path.display(),
            n + 1
        );
    }
    assert!(
        expected == actual,
        "drift against {}: the report's length changed.\n--- actual ---\n{actual}\n\
         If this change is intentional, regenerate with UPDATE_GOLDEN=1.",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{ProptestConfig, TestRunner};

    fn sample<S: Strategy>(s: &S, seed: u32) -> S::Value {
        let runner = TestRunner::new(ProptestConfig::with_cases(1), "test-support-sample");
        let mut rng = runner.rng_for(seed, 0);
        s.generate(&mut rng)
    }

    #[test]
    fn diff_streams_are_nonempty_and_bounded() {
        let s = arb_diff_stream(50);
        for seed in 0..40 {
            let ops = sample(&s, seed);
            assert!(!ops.is_empty() && ops.len() < 50);
            for op in &ops {
                if let DiffOp::Malloc { size } = op {
                    assert!((1..600_000).contains(size));
                    assert!(!(4_096..8_192).contains(size), "dead band violated");
                }
            }
        }
    }

    #[test]
    fn ref_heap_catches_contract_violations() {
        use mallacc_substrate::{GenericAlloc, GenericFree};
        let a = |ptr: u64, requested: u64, alloc_size: u64| GenericAlloc {
            ptr,
            requested,
            alloc_size,
        };
        let mut h = RefHeap::new();
        h.on_alloc(&a(0x1000, 30, 32)).unwrap();
        assert!(h.on_alloc(&a(0, 8, 8)).is_err(), "null");
        assert!(h.on_alloc(&a(0x2000, 64, 48)).is_err(), "under-allocation");
        assert!(h.on_alloc(&a(0x1010, 16, 16)).is_err(), "overlap above");
        assert!(h.on_alloc(&a(0xff8, 16, 16)).is_err(), "overlap below");
        h.on_alloc(&a(0x1020, 16, 16)).unwrap();
        assert_eq!((h.live_blocks(), h.bytes_in_use()), (2, 48));
        assert_eq!(h.pick(3), Some(0x1020));
        let f = |ptr: u64, alloc_size: u64| GenericFree { ptr, alloc_size };
        assert!(h.on_free(&f(0x3000, 8)).is_err(), "unknown block");
        assert!(h.on_free(&f(0x1000, 16)).is_err(), "size amnesia");
        // The failed size-amnesia free still removed the block (it
        // reported the divergence); the second free must now be unknown.
        assert!(h.on_free(&f(0x1000, 32)).is_err(), "double free");
        h.on_free(&f(0x1020, 16)).unwrap();
        assert_eq!(h.live_blocks(), 0);
    }

    #[test]
    fn cross_thread_ops_respect_the_thread_bound() {
        let s = arb_cross_thread_ops(4, 60);
        for seed in 0..40 {
            for (tid, size, _, _, _) in sample(&s, seed) {
                assert!(tid < 4);
                assert!(size >= 1);
            }
        }
    }

    #[test]
    fn fleet_params_resolve_and_stay_bounded() {
        let s = arb_fleet_params();
        let mut saw_wide = false;
        for seed in 0..80 {
            let p = sample(&s, seed);
            assert!(mallacc_fleet::Scenario::by_name(p.scenario).is_some());
            assert!((1..=8).contains(&p.cores) || p.cores == 16 || p.cores == 32);
            saw_wide |= p.cores >= 16;
            assert!((4..48).contains(&p.requests));
        }
        assert!(saw_wide, "wide core counts must be drawn sometimes");
    }

    #[test]
    fn config_points_are_valid_and_hashable() {
        let s = arb_config_point();
        let mut saw_sampled = false;
        for seed in 0..40 {
            let p = sample(&s, seed);
            assert!(p.entries >= 1);
            assert_eq!(p.key(), p.clone().key());
            saw_sampled |= p.sim != SimMode::Full;
        }
        assert!(saw_sampled, "sampled sim modes must be drawn sometimes");
    }

    #[test]
    fn sampling_plans_are_well_formed_and_round_trip() {
        let s = arb_sampling_plan();
        let mut saw_degenerate = false;
        for seed in 0..80 {
            let p = sample(&s, seed);
            assert!(p.detailed_uops >= 1);
            assert!(p.period >= 1);
            assert_eq!(SamplingPlan::parse(&p.canonical_string()), Ok(p));
            saw_degenerate |= p.warmup_uops + p.detailed_uops >= p.period;
        }
        assert!(
            saw_degenerate,
            "degenerate (everything-detailed) plans must be drawn sometimes"
        );
    }
}
