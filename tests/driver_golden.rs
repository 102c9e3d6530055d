//! Golden snapshot of the per-call drivers of every substrate.
//!
//! One fixed op program runs on every substrate × accelerator mode ×
//! {full detail, default sampling plan}. The snapshot records what the
//! machine model computes — per-call cycles and pointers, cycle totals,
//! engine µop and load counts, malloc-cache and offload-queue counters —
//! and deliberately leaves out call-kind labels, so the driver can be
//! restructured freely as long as every simulated number stays put.
//!
//! Regenerate only for an intentional model change, and review the diff:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test driver_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use mallacc::{CallRecord, Mode, SamplingPlan};
use mallacc_substrate::{AnySim, SubstrateKind};

/// Calls printed one by one at the head of every run, besides the large
/// ones; the rest of the run is pinned by a digest over every call.
const LISTED_CALLS: usize = 24;

/// Total ops in the program (mallocs, frees and machine events).
const PROGRAM_OPS: u64 = 6_000;

/// A run's per-call log: the listed calls, the call count and an FNV-1a
/// digest over every call's pointer and cycles.
struct Calls {
    listed: String,
    count: usize,
    digest: u64,
}

impl Calls {
    fn record(&mut self, tag: &str, r: CallRecord) {
        let (ptr, cycles) = (r.ptr, r.cycles);
        for b in ptr.to_le_bytes().into_iter().chain(cycles.to_le_bytes()) {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        if self.count < LISTED_CALLS || tag.starts_with('l') {
            let n = self.count;
            writeln!(self.listed, "  #{n:<5} {tag:<6} {ptr:#x} {cycles}").unwrap();
        }
        self.count += 1;
    }
}

/// Drives the fixed op program: sized and unsized frees, one allocation
/// over 256 KiB, antagonist evictions, context switches, application
/// compute and memory traffic.
fn run_program(sim: &mut AnySim) -> Calls {
    let mut calls = Calls {
        listed: String::new(),
        count: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let mut live: Vec<u64> = Vec::new();
    let mut r = 0x2545_f491_4f6c_dd1du64;
    let touch: Vec<u64> = (0..24).map(|i| 0x7000_0000 + i * 64).collect();
    for i in 0..PROGRAM_OPS {
        match i {
            700 => {
                let large = sim.malloc(300 * 1024);
                calls.record("large", large);
                calls.record("lfree", sim.free(large.ptr, false));
                continue;
            }
            900 | 1800 | 4000 => {
                sim.context_switch(2_000);
                continue;
            }
            _ => {}
        }
        if i % 97 == 50 {
            sim.antagonize(0.5);
        }
        if i % 61 == 30 {
            sim.app_run(300);
        }
        if i % 89 == 40 {
            sim.app_touch(&touch);
        }
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        if live.len() < 8 || r % 100 < 55 {
            let size = match r % 7 {
                0..=3 => 16 + (r >> 8) % 8 * 16,
                4 | 5 => 128 + (r >> 8) % 16 * 32,
                _ => 1024 + (r >> 8) % 4 * 1024,
            };
            let r = sim.malloc(size);
            calls.record("m", r);
            live.push(r.ptr);
        } else {
            let ptr = live.swap_remove((r >> 16) as usize % live.len());
            let sized = !r.is_multiple_of(3);
            calls.record("f", sim.free(ptr, sized));
        }
    }
    for ptr in live {
        calls.record("f", sim.free(ptr, true));
    }
    calls
}

fn report() -> String {
    let mut out = String::new();
    let plans = [
        ("full", None),
        ("sampled", Some(SamplingPlan::default_plan())),
    ];
    for kind in SubstrateKind::ALL {
        for (mode_name, mode) in [
            ("baseline", Mode::Baseline),
            ("mallacc", Mode::mallacc_default()),
            ("limit", Mode::limit_all()),
            ("offload", Mode::offload_default()),
            ("both", Mode::offload_both()),
        ] {
            for (sim_name, plan) in plans {
                let mut sim = AnySim::new(kind, mode);
                sim.set_sampling(plan);
                let calls = run_program(&mut sim);
                let (t, e, m) = (sim.totals(), sim.engine(), sim.malloc_cache().stats());
                let s = e.stats();
                let ff = e.sampling_report().map_or(0, |r| r.ff_uops);
                writeln!(out, "== {kind:?} {mode_name} {sim_name}").unwrap();
                writeln!(out, "calls {} digest {:016x}", calls.count, calls.digest).unwrap();
                out.push_str(&calls.listed);
                writeln!(
                    out,
                    "totals malloc {}/{} free {}/{} now {}\n\
                     engine uops {} loads {} stores {} branches {} mispredicts {} ff {ff}\n\
                     mc lookup {}/{} ins {} ext {} evict {} pop {}/{} push {} pf {} blocked {}",
                    t.malloc_calls,
                    t.malloc_cycles,
                    t.free_calls,
                    t.free_cycles,
                    e.now(),
                    s.uops,
                    s.loads,
                    s.stores,
                    s.branches,
                    s.mispredicts,
                    m.lookup_hits,
                    m.lookup_misses,
                    m.inserts,
                    m.range_extends,
                    m.evictions,
                    m.pop_hits,
                    m.pop_misses,
                    m.push_hits,
                    m.prefetches,
                    m.blocked_cycles
                )
                .unwrap();
                match sim.offload_stats() {
                    Some(o) => writeln!(
                        out,
                        "offload enq {} ret {} full {} stall {} busy {} maxocc {}",
                        o.enqueued,
                        o.retired,
                        o.queue_full_stalls,
                        o.stall_cycles,
                        o.busy_cycles,
                        o.max_occupancy
                    ),
                    None => writeln!(out, "offload none"),
                }
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn every_driver_matches_its_snapshot() {
    let actual = report();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/driver_substrates.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nrun UPDATE_GOLDEN=1 cargo test --test driver_golden",
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
            "driver drift against {} at line {}:\n  expected: {want}\n  actual:   {got}",
            path.display(),
            n + 1
        );
    }
    assert_eq!(expected, actual, "driver snapshot length drift");
}
