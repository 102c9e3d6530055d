//! Golden snapshots of the multi-core engine.
//!
//! * `mt_quick.txt` — the `repro mt --quick` report: the producer–consumer
//!   ring and the two scaled macro workloads at 1/2/4/8 cores on TCMalloc,
//!   with cycles per call, improvements, remote frees, steals,
//!   malloc-cache hit rates and malloc tails.
//! * `mt_substrates.txt` — every substrate × {baseline, mallacc, offload,
//!   both} on the 2-core ring and on 4-core scaled `471.omnetpp`: per-core
//!   totals and malloc-cache counters, epochs, shared-L3 accesses and
//!   remote frees.
//!
//! Both are byte-identical on every run and on every host.
//!
//! Snapshots live in `tests/golden/`. When an intentional model change
//! shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test mt_golden
//! ```
//!
//! and review the diff like any other code change.

mod common;

use std::fmt::Write as _;

use common::repro;
use mallacc::{Mode, SimMode};
use mallacc_explore::run_multicore;
use mallacc_substrate::SubstrateKind;
use mallacc_test_support::assert_golden;
use mallacc_workloads::{MacroWorkload, MtTrace};

#[test]
fn quick_report_matches_snapshot() {
    assert_golden("mt_quick.txt", &repro(&["mt", "--quick"]));
}

fn substrate_report() -> String {
    let omnetpp = MacroWorkload::by_name("471.omnetpp").expect("known workload");
    let traces = [
        ("ring x2", MtTrace::producer_consumer(2, 200, 7)),
        ("471.omnetpp x4", MtTrace::scaled(&omnetpp, 4, 120, 11)),
    ];
    let mut out = String::new();
    for (name, trace) in &traces {
        for kind in SubstrateKind::ALL {
            for (mode_name, mode) in [
                ("baseline", Mode::Baseline),
                ("mallacc", Mode::mallacc_default()),
                ("offload", Mode::offload_default()),
                ("both", Mode::offload_both()),
            ] {
                let r = run_multicore(
                    kind,
                    mode,
                    trace.cores(),
                    SimMode::Full,
                    trace.ops().iter().copied(),
                );
                writeln!(
                    out,
                    "== {name} {} {mode_name}\n\
                     epochs {} shared-l3 {} remote-frees {} steal-invalidates {}",
                    kind.name(),
                    r.epochs,
                    r.shared_l3_accesses,
                    r.remote_frees,
                    r.steal_invalidates
                )
                .unwrap();
                for (core, c) in r.per_core.iter().enumerate() {
                    let (t, m) = (c.totals, c.mc);
                    writeln!(
                        out,
                        "core {core} malloc {}/{} free {}/{} app {} \
                         mc lookup {}/{} pop {}/{} push {} pf {} inval {}",
                        t.malloc_calls,
                        t.malloc_cycles,
                        t.free_calls,
                        t.free_cycles,
                        t.app_cycles,
                        m.lookup_hits,
                        m.lookup_misses,
                        m.pop_hits,
                        m.pop_misses,
                        m.push_hits,
                        m.prefetches,
                        m.list_invalidations
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn every_substrate_matches_snapshot() {
    assert_golden("mt_substrates.txt", &substrate_report());
}
