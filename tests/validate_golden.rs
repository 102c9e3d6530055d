//! Golden snapshot for the `repro validate --smoke` report: the full text
//! output must be byte-identical on every run, on every host, and at
//! every `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional model or
//! generator change shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test validate_golden
//! ```
//!
//! and review the diff like any other code change — unintentional drift
//! in the oracle numbers or the fuzz corpus fails CI.

mod common;

use common::repro;
use mallacc_test_support::assert_golden;

fn smoke(jobs: &str) -> String {
    repro(&["validate", "--smoke", "--jobs", jobs])
}

#[test]
fn smoke_report_matches_snapshot_and_passes() {
    assert_golden("validate_smoke.txt", &smoke("1"));
}

#[test]
fn substrate_table_matches_snapshot() {
    // The substrate-conformance section gets its own snapshot so drift
    // in the allocator-law corpus is visible independently of the
    // (much larger) full report.
    let text = smoke("1");
    let section: String = text
        .split("== ")
        .find(|s| s.starts_with("substrate conformance"))
        .map(|s| format!("== {s}"))
        .expect("report has a substrate section");
    assert_golden("validate_substrate_table.txt", &section);
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    assert_eq!(smoke("1"), smoke("4"), "--jobs must not change the report");
}
