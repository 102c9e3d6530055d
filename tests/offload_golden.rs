//! Golden snapshot for the `repro offload --smoke` report: the full text
//! output — the Mallacc-vs-offload head-to-head, queue-depth sweep, fleet
//! streams and area/speedup Pareto table — must be byte-identical on
//! every run, on every host, and at every `--jobs` value.
//!
//! Snapshots live in `tests/golden/`. When an intentional model or
//! generator change shifts the report, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test offload_golden
//! ```
//!
//! and review the diff like any other code change — unintentional drift
//! in the helper-core timing or the head-to-head verdicts fails CI.

mod common;

use common::repro;
use mallacc_test_support::assert_golden;

fn smoke(jobs: &str) -> String {
    repro(&["offload", "--smoke", "--jobs", jobs])
}

#[test]
fn smoke_report_matches_snapshot() {
    assert_golden("offload_smoke.txt", &smoke("1"));
}

#[test]
fn jobs_value_does_not_change_a_byte() {
    assert_eq!(smoke("1"), smoke("4"), "--jobs must not change the report");
}

#[test]
fn smoke_head_to_head_has_wins_on_both_sides() {
    // The acceptance bar of the head-to-head: at least one workload where
    // the offload core beats Mallacc and at least one where it loses,
    // visible in the pinned smoke report itself.
    let text = smoke("1");
    let verdicts: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("== offload queue-depth"))
        .filter_map(|l| l.split_whitespace().last())
        .collect();
    assert!(verdicts.contains(&"offload"), "no offload win:\n{text}");
    assert!(verdicts.contains(&"mallacc"), "no mallacc win:\n{text}");
}
