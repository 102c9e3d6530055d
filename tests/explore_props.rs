//! Property-based tests over the design-space exploration subsystem:
//! Pareto-frontier correctness, memo-key stability, and the sweep
//! engine's determinism and memoisation contracts.

use proptest::prelude::*;

use mallacc_explore::{
    run_sweep, AccelKind, ConfigPoint, ParamGrid, RunScale, Substrate, SweepOptions,
};
use mallacc_stats::{dominates, knee_index, pareto_frontier};
use mallacc_test_support::{arb_config_point, arb_points};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frontier point is non-dominated, and every excluded point is
    /// dominated by some frontier point — the frontier is exactly the
    /// non-dominated set.
    #[test]
    fn frontier_is_exactly_the_nondominated_set(points in arb_points(24)) {
        let frontier = pareto_frontier(&points);
        for &i in &frontier {
            prop_assert!(
                !points.iter().any(|&p| dominates(p, points[i])),
                "frontier point {i} is dominated"
            );
        }
        for i in 0..points.len() {
            if !frontier.contains(&i) {
                prop_assert!(
                    points.iter().any(|&p| dominates(p, points[i])),
                    "excluded point {i} is non-dominated"
                );
            }
        }
    }

    /// The frontier is minimal: no frontier point dominates another (so
    /// nothing on it is redundant), and it is sorted by ascending cost.
    #[test]
    fn frontier_is_minimal_and_cost_sorted(points in arb_points(24)) {
        let frontier = pareto_frontier(&points);
        for &a in &frontier {
            for &b in &frontier {
                prop_assert!(
                    !dominates(points[a], points[b]),
                    "frontier point {a} dominates frontier point {b}"
                );
            }
        }
        for w in frontier.windows(2) {
            prop_assert!(points[w[0]].0 <= points[w[1]].0, "frontier not cost-sorted");
        }
    }

    /// The knee always sits on the frontier.
    #[test]
    fn knee_is_on_the_frontier(points in arb_points(24)) {
        if let Some(knee) = knee_index(&points) {
            prop_assert!(pareto_frontier(&points).contains(&knee));
        } else {
            prop_assert!(points.is_empty(), "finite points must yield a knee");
        }
    }

    /// The memo key is a pure function of the configuration: hashing the
    /// same point twice gives the same key.
    #[test]
    fn memo_key_is_stable(point in arb_config_point()) {
        prop_assert_eq!(point.key(), point.clone().key());
        prop_assert_eq!(point.key_hex(), format!("{:016x}", point.key()));
    }

    /// Changing any single config axis changes the memo key (the canonical
    /// strings differ, and the hash separates them).
    #[test]
    fn memo_key_changes_with_every_axis(point in arb_config_point()) {
        let variants = vec![
            ConfigPoint { entries: if point.entries == 1 { 2 } else { point.entries - 1 }, ..point.clone() },
            ConfigPoint { extra_latency: point.extra_latency + 1, ..point.clone() },
            ConfigPoint { prefetch: !point.prefetch, ..point.clone() },
            ConfigPoint { index_opt: !point.index_opt, ..point.clone() },
            ConfigPoint { sampling: !point.sampling, ..point.clone() },
            ConfigPoint {
                substrate: {
                    // Rotate to the next substrate in canonical order.
                    let i = Substrate::ALL
                        .iter()
                        .position(|&s| s == point.substrate)
                        .expect("drawn substrate is canonical");
                    Substrate::ALL[(i + 1) % Substrate::ALL.len()]
                },
                ..point.clone()
            },
            ConfigPoint {
                workload: if point.workload == "tp" { "gauss".to_string() } else { "tp".to_string() },
                ..point.clone()
            },
            ConfigPoint { cores: point.cores + 1, ..point.clone() },
            ConfigPoint {
                accel: if point.accel == AccelKind::Mallacc { AccelKind::Offload } else { AccelKind::Mallacc },
                ..point.clone()
            },
            ConfigPoint { queue_depth: point.queue_depth + 1, ..point.clone() },
            ConfigPoint { seed: point.seed.wrapping_add(1), ..point.clone() },
            ConfigPoint { scale: RunScale { calls: point.scale.calls + 1, ..point.scale }, ..point.clone() },
            ConfigPoint { scale: RunScale { warmup: point.scale.warmup + 1, ..point.scale }, ..point.clone() },
        ];
        for v in variants {
            prop_assert_ne!(
                v.canonical_string(),
                point.canonical_string(),
                "axis change left the canonical string unchanged"
            );
            prop_assert_ne!(v.key(), point.key(), "axis change left the key unchanged");
        }
    }
}

fn tiny_grid() -> ParamGrid {
    ParamGrid {
        entries: vec![4, 16],
        substrates: Substrate::ALL.to_vec(),
        workloads: vec!["tp_small".to_string(), "xapian.pages".to_string()],
        scale: RunScale {
            calls: 240,
            warmup: 40,
        },
        ..ParamGrid::default()
    }
}

/// The acceptance criterion: a sweep's results are bit-identical whether
/// the engine runs on one host thread or eight.
#[test]
fn sweep_results_are_bit_identical_across_jobs() {
    let grid = tiny_grid();
    let run = |jobs| {
        run_sweep(
            &grid,
            &SweepOptions {
                jobs,
                memo_path: None,
            },
        )
        .expect("sweep runs")
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.points, parallel.points);
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.frontier, parallel.frontier);
    assert_eq!(serial.knee, parallel.knee);
}

/// Fleet points of every substrate at 32 cores run on the one multi-core
/// engine; their reports are byte-identical at every `--jobs`.
#[test]
fn thirty_two_core_fleet_reports_are_identical_across_jobs() {
    let mut grid = ParamGrid::parse(
        "workload=fleet:rpc-fanout;substrate=tcmalloc,jemalloc,rpmalloc,percpu;cores=32",
    )
    .expect("grid parses");
    grid.scale = RunScale {
        calls: 320,
        warmup: 0,
    };
    let run = |jobs| {
        let report = run_sweep(
            &grid,
            &SweepOptions {
                jobs,
                memo_path: None,
            },
        )
        .expect("sweep runs");
        assert_eq!(report.points.len(), Substrate::ALL.len());
        (report.render(), report.to_json().render())
    };
    assert_eq!(run(1), run(2));
}

/// The acceptance criterion: a second run over the same grid is served
/// entirely from the memo store and reproduces the same results.
#[test]
fn second_sweep_hits_the_memo_for_every_point() {
    let dir = std::env::temp_dir().join(format!("mallacc-explore-props-{}", std::process::id()));
    let opts = SweepOptions {
        jobs: 2,
        memo_path: Some(dir.join("memo.json")),
    };
    let grid = tiny_grid();
    let first = run_sweep(&grid, &opts).expect("first sweep runs");
    assert_eq!(first.memo_hits, 0, "cold store serves nothing");
    let second = run_sweep(&grid, &opts).expect("second sweep runs");
    assert_eq!(
        second.memo_hits,
        second.points.len(),
        "warm store serves every point"
    );
    assert_eq!(first.results, second.results);
    std::fs::remove_dir_all(&dir).ok();
}
