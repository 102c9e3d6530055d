//! The benchmark's own checks: its metric catalogue matches
//! `BENCHMARK.json`, and its simulated counts and digests repeat exactly.

use std::collections::HashSet;

use mallacc_perfbench::metrics::{result_line, valid_name, valid_unit, END_TO_END, PER_LAYER};
use mallacc_perfbench::run::{self, Scale, Workload};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

#[test]
fn metric_names_are_valid_unique_and_carry_units() {
    let mut seen = HashSet::new();
    for &(name, unit, better, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "invalid metric name {name}");
        assert!(
            valid_unit(unit),
            "metric {name} has an invalid unit {unit:?}"
        );
        assert!(
            matches!(better, "higher" | "lower"),
            "{name}: better={better}"
        );
        assert!(seen.insert(name), "metric {name} is listed twice");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()) && seen.insert(w.name()));
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let json = benchmark_json();
    for &(name, unit, better, _) in END_TO_END.iter().chain(PER_LAYER) {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(
        names,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json names something the benchmark does not produce"
    );
}

#[test]
fn result_line_has_the_required_shape() {
    let line = result_line(
        10,
        0,
        &[mallacc_perfbench::metrics::Metric {
            name: "setup_s",
            unit: "s",
            value: 0.25,
        }],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
}

/// Per-layer metrics that are simulated counts or ratios of counts: these
/// repeat exactly at a fixed seed (host times need not).
fn is_count(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "ratio" | "uops" | "uops/cycle")
        || name == "model.alloc_improvement_pct"
}

fn counts_of(w: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let out = run::run(w, seed, 0.0, true, Scale::Tiny);
    assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.text);
    let metrics = out.metrics.metrics();
    metrics
        .iter()
        .zip(PER_LAYER)
        .filter(|(_, &(name, unit, _, _))| is_count(name, unit))
        .map(|(m, _)| (m.name, m.value))
        .collect()
}

#[test]
fn counts_and_digests_repeat_exactly_across_tiny_runs() {
    for w in Workload::ALL {
        for seed in [3, 4] {
            let a = run::digest_of(w, seed, Scale::Tiny);
            let b = run::digest_of(w, seed, Scale::Tiny);
            assert_eq!(
                a,
                b,
                "{} seed {seed}: digest differs between runs",
                w.name()
            );
            assert_eq!(
                counts_of(w, seed),
                counts_of(w, seed),
                "{} seed {seed}: per-layer counts differ between runs",
                w.name()
            );
        }
        assert_ne!(
            run::digest_of(w, 3, Scale::Tiny),
            run::digest_of(w, 4, Scale::Tiny),
            "{}: the seed must reach the generated inputs",
            w.name()
        );
    }
}

#[test]
fn plain_tiny_run_reports_every_end_to_end_metric() {
    let out = run::run(Workload::PaperMacro, 1, 0.0, false, Scale::Tiny);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    for m in out.metrics.metrics() {
        assert!(m.value > 0.0, "{} must never be 0", m.name);
    }
}

#[test]
fn rss_probe_prints_only_a_positive_peak() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mallacc-perfbench"))
        .args(["--workload", "fleet-2core", "--seed", "1", "--rss-probe"])
        .output()
        .expect("the benchmark binary starts");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let mb: f64 = text.trim().parse().expect("a single number");
    assert!(mb > 0.0, "peak {mb} MB");
}
