//! Golden-trace snapshot tests: the canonical fast-path malloc/free
//! kernels must produce byte-identical stall breakdowns and Chrome trace
//! JSON on every run, on every host, and at every `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional model change
//! shifts the attribution, regenerate them with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test profile_golden
//! ```
//!
//! and review the diff like any other code change — the whole point is
//! that *unintentional* attribution drift fails CI.

mod common;

use common::repro;
use mallacc::Mode;
use mallacc_prof::chrome::{chrome_trace, validate_chrome_trace};
use mallacc_prof::report::{profile_fastpath, render_component_table, render_stall_table};
use mallacc_test_support::assert_golden;

/// Kernel scale for the snapshots: small enough to run in milliseconds,
/// large enough that every fast-path component shows up.
const PAIRS: u64 = 32;
const WARMUP: u64 = 8;
const UOPS: usize = 48;

#[test]
fn baseline_fastpath_stall_breakdown_matches_snapshot() {
    let (p, _) = profile_fastpath(Mode::Baseline, "baseline", PAIRS, WARMUP, 0);
    assert_golden("fastpath_baseline.txt", &render_stall_table(&p));
}

#[test]
fn mallacc_fastpath_stall_breakdown_matches_snapshot() {
    let (p, _) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, 0);
    assert_golden("fastpath_mallacc.txt", &render_stall_table(&p));
}

#[test]
fn component_attribution_matches_snapshot() {
    let (base, _) = profile_fastpath(Mode::Baseline, "baseline", PAIRS, WARMUP, 0);
    let (mall, _) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, 0);
    let (limit, _) = profile_fastpath(Mode::limit_all(), "limit", PAIRS, WARMUP, 0);
    assert_golden(
        "fastpath_components.txt",
        &render_component_table(&[&base, &mall, &limit]),
    );
}

#[test]
fn chrome_trace_json_matches_snapshot_and_schema() {
    let (_, base) = profile_fastpath(Mode::Baseline, "baseline", PAIRS, WARMUP, UOPS);
    let (_, mall) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, UOPS);
    let doc = chrome_trace(&[&base, &mall], &["baseline", "mallacc"]);
    validate_chrome_trace(&doc).expect("snapshot trace must satisfy the schema");
    assert_golden("fastpath_trace.json", &doc.render_pretty());
}

#[test]
fn repeated_runs_are_byte_identical() {
    let run = || {
        let (p, prof) = profile_fastpath(Mode::mallacc_default(), "mallacc", PAIRS, WARMUP, UOPS);
        let trace = chrome_trace(&[&prof], &["mallacc"]);
        (render_stall_table(&p), trace.render())
    };
    assert_eq!(run(), run());
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    let run = |jobs| {
        repro(&[
            "profile",
            "--pairs",
            "32",
            "--warmup",
            "8",
            "--mt-calls",
            "40",
            "--uops",
            "0",
            "--jobs",
            jobs,
        ])
    };
    assert_eq!(run("1"), run("3"), "--jobs must not change the report");
}
