//! Golden snapshot for the `repro sample --smoke` report: the sampled-vs-
//! full error table for every macro workload, under the default cadence,
//! must be byte-identical on every run, on every host, and at every
//! `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional engine, plan or
//! workload change shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sample_golden
//! ```
//!
//! and review the diff like any other code change — unintentional drift
//! in the sampled CPI extrapolation fails CI.

mod common;

use common::repro;
use mallacc_test_support::assert_golden;

fn smoke(jobs: &str) -> String {
    repro(&["sample", "--smoke", "--jobs", jobs])
}

#[test]
fn smoke_report_matches_snapshot_and_passes() {
    assert_golden("sample_smoke.txt", &smoke("1"));
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    assert_eq!(smoke("1"), smoke("4"), "--jobs must not change the report");
}
