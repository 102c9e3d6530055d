//! The `repro fleet` subcommand: datacenter fleet scenarios, driven by
//! `mallacc-fleet`.
//!
//! Runs request-driven service-traffic scenarios on the multi-core
//! simulator and reports, per scenario, strong/weak scaling curves and
//! per-malloc tail latency (p50/p99/p999 cycles) for baseline vs. Mallacc,
//! plus the p99 *knee*: the core count at which per-core malloc caches
//! stop improving p99.
//!
//! Every cell's result is a pure function of `(seed, scenario, cores,
//! scaling)`, so the report is byte-identical for every `--jobs` value —
//! the smoke report is golden-snapshotted on exactly that promise.

use std::path::PathBuf;

use crate::cli::{self, CommonSpec, Report, ScaleFlag};
use mallacc::SimMode;
use mallacc_fleet::{json_doc, render_report, run_fleet, FleetConfig, Scenario};

/// Parsed `repro fleet` arguments.
#[derive(Debug, Clone)]
pub struct FleetArgs {
    /// Scenario names to run (empty = the whole catalogue).
    pub scenarios: Vec<String>,
    /// Core counts to sweep (`None` = the scale's default).
    pub cores: Option<Vec<usize>>,
    /// Total requests of every strong-scaling cell.
    pub strong_requests: u64,
    /// Requests per core of every weak-scaling cell.
    pub weak_requests_per_core: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 or 1 = sequential). Output-invariant.
    pub jobs: usize,
    /// Smoke scale (1/2/4 cores) instead of the full 1..16 sweep.
    pub smoke: bool,
    /// Timing execution mode of every cell (`full` or `sampled[:plan]`).
    pub sim: SimMode,
    /// Machine-readable report output file.
    pub json: Option<PathBuf>,
}

impl Default for FleetArgs {
    fn default() -> Self {
        let full = FleetConfig::full(42, 1);
        Self {
            scenarios: Vec::new(),
            cores: None,
            strong_requests: full.strong_requests,
            weak_requests_per_core: full.weak_requests_per_core,
            seed: 42,
            jobs: 1,
            smoke: false,
            sim: SimMode::Full,
            json: None,
        }
    }
}

impl FleetArgs {
    /// Parses the argument list after `fleet`. Shared flags are
    /// collected by [`cli::parse_flags`] and applied last, so
    /// explicit request volumes win over `--smoke`/`--full` regardless
    /// of flag order.
    pub fn parse(args: &[String]) -> Result<FleetArgs, String> {
        let mut parsed = FleetArgs::default();
        let (mut strong, mut weak) = (None, None);
        let common = cli::parse_flags(args, "fleet", CommonSpec::ALL, |flag, f| {
            match flag {
                "--cores" => {
                    let spec = f.value(flag)?;
                    let mut cores = Vec::new();
                    for part in spec.split(',') {
                        let c: usize = part
                            .trim()
                            .parse()
                            .map_err(|_| format!("--cores: bad core count {part:?}"))?;
                        if c == 0 {
                            return Err("--cores: core counts must be >= 1".to_string());
                        }
                        if c > 64 {
                            return Err("--cores: core counts must be <= 64".to_string());
                        }
                        cores.push(c);
                    }
                    if cores.is_empty() {
                        return Err("--cores needs at least one value".to_string());
                    }
                    parsed.cores = Some(cores);
                }
                "--scenario" => parsed.scenarios.push(f.value(flag)?),
                "--sim" => parsed.sim = SimMode::parse(&f.value(flag)?)?,
                "--requests" => strong = Some(f.int(flag)?),
                "--weak-requests" => weak = Some(f.int(flag)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        parsed.seed = common.seed.unwrap_or(parsed.seed);
        parsed.jobs = common.jobs.unwrap_or(parsed.jobs);
        match common.scale {
            Some(ScaleFlag::Smoke) => {
                let smoke = FleetConfig::smoke(parsed.seed, parsed.jobs);
                parsed.smoke = true;
                parsed.strong_requests = smoke.strong_requests;
                parsed.weak_requests_per_core = smoke.weak_requests_per_core;
            }
            Some(ScaleFlag::Full) => {
                let full = FleetConfig::full(parsed.seed, parsed.jobs);
                parsed.smoke = false;
                parsed.strong_requests = full.strong_requests;
                parsed.weak_requests_per_core = full.weak_requests_per_core;
            }
            None => {}
        }
        parsed.strong_requests = strong.unwrap_or(parsed.strong_requests);
        parsed.weak_requests_per_core = weak.unwrap_or(parsed.weak_requests_per_core);
        parsed.json = common.json;
        if parsed.strong_requests == 0 || parsed.weak_requests_per_core == 0 {
            return Err("request volumes must be at least 1".to_string());
        }
        Ok(parsed)
    }

    /// Resolves the arguments into an engine configuration.
    fn config(&self) -> Result<FleetConfig, String> {
        let scenarios: Vec<&'static Scenario> = if self.scenarios.is_empty() {
            Scenario::all().iter().collect()
        } else {
            self.scenarios
                .iter()
                .map(|name| {
                    Scenario::by_name(name).ok_or_else(|| {
                        let known: Vec<&str> = Scenario::all().iter().map(|s| s.name).collect();
                        format!(
                            "unknown scenario {name:?} (available: {})",
                            known.join(", ")
                        )
                    })
                })
                .collect::<Result<_, _>>()?
        };
        let default = if self.smoke {
            FleetConfig::smoke(self.seed, self.jobs)
        } else {
            FleetConfig::full(self.seed, self.jobs)
        };
        Ok(FleetConfig {
            scenarios,
            core_counts: self.cores.clone().unwrap_or(default.core_counts),
            strong_requests: self.strong_requests,
            weak_requests_per_core: self.weak_requests_per_core,
            seed: self.seed,
            jobs: self.jobs,
            sim: self.sim,
        })
    }
}

/// Runs `repro fleet`. An unknown scenario name is bad input.
pub fn fleet_report(args: &FleetArgs) -> Result<Report, String> {
    let result = run_fleet(&args.config()?);
    let mut report = Report::new(render_report(&result));
    if let Some(path) = &args.json {
        report.json.push((path.clone(), json_doc(&result)));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn tiny() -> FleetArgs {
        FleetArgs {
            scenarios: vec!["rpc-fanout".to_string()],
            cores: Some(vec![1, 2]),
            strong_requests: 24,
            weak_requests_per_core: 8,
            ..FleetArgs::default()
        }
    }

    #[test]
    fn parse_covers_scales_and_rejections() {
        let a = FleetArgs::parse(&s(&["--smoke", "--jobs", "4"])).unwrap();
        assert!(a.smoke);
        assert_eq!(a.jobs, 4);
        let smoke = FleetConfig::smoke(42, 1);
        assert_eq!(a.strong_requests, smoke.strong_requests);

        let b = FleetArgs::parse(&s(&[
            "--cores",
            "1,4,16",
            "--scenario",
            "tenant-mix",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(b.cores.as_deref(), Some(&[1, 4, 16][..]));
        assert_eq!(b.scenarios, vec!["tenant-mix"]);
        assert_eq!(b.seed, 7);

        let wide = FleetArgs::parse(&s(&["--cores", "1,32,64"])).unwrap();
        assert_eq!(wide.cores.as_deref(), Some(&[1, 32, 64][..]));

        assert!(FleetArgs::parse(&s(&["--nope"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "0"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "65"])).is_err());
        assert!(FleetArgs::parse(&s(&["--cores", "x"])).is_err());
        assert!(FleetArgs::parse(&s(&["--scenario"])).is_err());
        assert!(FleetArgs::parse(&s(&["--requests", "0"])).is_err());
    }

    #[test]
    fn unknown_scenario_lists_the_catalogue() {
        let a = FleetArgs {
            scenarios: vec!["no-such".to_string()],
            ..tiny()
        };
        let err = fleet_report(&a).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("rpc-fanout"), "{err}");
    }

    #[test]
    fn report_names_the_load_bearing_sections() {
        let text = fleet_report(&tiny()).unwrap().text;
        for needle in [
            "fleet report",
            "strong scaling",
            "weak scaling",
            "malloc tail latency",
            "p99 knee",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn report_is_identical_across_jobs() {
        let mut a = tiny();
        a.jobs = 1;
        let seq = fleet_report(&a).unwrap().text;
        a.jobs = 4;
        let par = fleet_report(&a).unwrap().text;
        assert_eq!(seq, par, "--jobs must not change a single byte");
    }

    #[test]
    fn json_export_carries_cells() {
        use mallacc_stats::Json;
        let a = FleetArgs {
            json: Some("fleet.json".into()),
            ..tiny()
        };
        let report = fleet_report(&a).unwrap();
        let data = &report.json[0].1;
        assert_eq!(
            data.get("schema").and_then(Json::as_str),
            Some("mallacc-fleet/1")
        );
        assert_eq!(
            data.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
    }
}
