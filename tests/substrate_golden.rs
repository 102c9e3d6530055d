//! Golden snapshot for the `repro substrate --smoke` report: the
//! four-substrate Mallacc-vs-offload-vs-both head-to-head and the
//! per-substrate summary must be byte-identical on every run, on every
//! host, and at every `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional model or
//! generator change shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test substrate_golden
//! ```
//!
//! and review the diff like any other code change — unintentional drift
//! in any substrate's fast-path timing fails CI.

mod common;

use common::repro;
use mallacc_test_support::assert_golden;

fn smoke(jobs: &str) -> String {
    repro(&["substrate", "--smoke", "--jobs", jobs])
}

#[test]
fn smoke_report_matches_snapshot() {
    assert_golden("substrate_smoke.txt", &smoke("1"));
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    assert_eq!(smoke("1"), smoke("4"), "--jobs must not change the report");
}

#[test]
fn mallacc_wins_where_fast_paths_are_fat() {
    // The generality story in one assertion: the substrates whose fast
    // paths chase size-class tables and free lists (tcmalloc, jemalloc,
    // percpu) must show a positive mean Mallacc improvement; rpmalloc's
    // thin intrusive pop may sit at ~zero but stays inside the
    // probe-overhead bound enforced by the report's own verdict.
    let text = smoke("1");
    let summary: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("== per-substrate summary"))
        .collect();
    for fat in ["tcmalloc", "jemalloc", "percpu"] {
        let row = summary
            .iter()
            .find(|l| l.starts_with(fat))
            .unwrap_or_else(|| panic!("no summary row for {fat}:\n{text}"));
        let mean: f64 = row
            .split_whitespace()
            .nth(2)
            .and_then(|v| v.trim_end_matches('%').parse().ok())
            .unwrap_or_else(|| panic!("unparseable row {row:?}"));
        assert!(mean > 0.0, "{fat} should gain from Mallacc:\n{text}");
    }
}
