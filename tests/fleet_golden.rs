//! Golden snapshot for the `repro fleet --smoke` report: the full text
//! output — scaling curves, tail-latency tables and p99 knees for every
//! catalogue scenario — must be byte-identical on every run, on every
//! host, and at every `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional engine or
//! scenario change shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test fleet_golden
//! ```
//!
//! and review the diff like any other code change — unintentional drift
//! in the traffic generators or the timing model fails CI.

mod common;

use common::repro;
use mallacc_test_support::assert_golden;

fn smoke(jobs: &str) -> String {
    repro(&["fleet", "--smoke", "--jobs", jobs])
}

#[test]
fn smoke_report_matches_snapshot() {
    assert_golden("fleet_smoke.txt", &smoke("1"));
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    assert_eq!(smoke("1"), smoke("4"), "--jobs must not change the report");
}
