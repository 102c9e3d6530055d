//! The `repro explore` subcommand: design-space sweeps over the
//! accelerator configuration, driven by `mallacc-explore`.

use std::path::PathBuf;

use crate::cli::{self, CommonSpec, Report, ScaleFlag};
use mallacc_explore::{run_sweep, ParamGrid, RunScale, SweepOptions};

/// Parsed `repro explore` arguments.
#[derive(Debug, Clone, Default)]
pub struct ExploreArgs {
    /// The sweep grid.
    pub grid: ParamGrid,
    /// Worker threads (0 = one per CPU).
    pub jobs: usize,
    /// Memo-store file.
    pub memo: Option<PathBuf>,
    /// JSON report output file.
    pub json: Option<PathBuf>,
    /// Fail unless at least this fraction of points came from the memo
    /// store (the CI warm-cache assertion).
    pub assert_memo_frac: Option<f64>,
}

impl ExploreArgs {
    /// Parses the argument list after `explore`. Shared flags are
    /// collected by [`cli::parse_flags`] and applied last, so an
    /// explicit `--grid`/`--preset` wins over `--smoke` regardless of
    /// flag order.
    pub fn parse(args: &[String]) -> Result<ExploreArgs, String> {
        let mut parsed = ExploreArgs::default();
        let mut quick = false;
        let mut grid_spec: Option<String> = None;
        let mut preset: Option<String> = None;
        let common = cli::parse_flags(args, "explore", CommonSpec::NO_FULL, |flag, f| {
            match flag {
                "--grid" => grid_spec = Some(f.value(flag)?),
                "--preset" => preset = Some(f.value(flag)?),
                "--quick" => quick = true,
                "--memo" => parsed.memo = Some(PathBuf::from(f.value(flag)?)),
                "--assert-memo-frac" => {
                    parsed.assert_memo_frac = Some(
                        f.value(flag)?
                            .parse::<f64>()
                            .map_err(|_| "--assert-memo-frac needs a number".to_string())?,
                    );
                }
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if common.scale == Some(ScaleFlag::Smoke) {
            parsed.grid = ParamGrid::smoke();
        }
        if let Some(name) = preset {
            parsed.grid = match name.as_str() {
                "micro-entries" => ParamGrid::micro_entries(),
                name => return Err(format!("unknown preset {name:?}; available: micro-entries")),
            };
        }
        if let Some(spec) = grid_spec {
            parsed.grid = ParamGrid::parse(&spec)?;
        }
        if quick {
            parsed.grid.scale = RunScale::quick();
        }
        parsed.grid.seed = common.seed.unwrap_or(parsed.grid.seed);
        parsed.jobs = common.jobs.unwrap_or(parsed.jobs);
        parsed.json = common.json;
        Ok(parsed)
    }
}

/// Runs the sweep. A grid naming unknown workloads or an unreadable memo
/// store is bad input; a memo hit fraction below `--assert-memo-frac`
/// fails the verdict.
pub fn explore_report(args: &ExploreArgs) -> Result<Report, String> {
    let opts = SweepOptions {
        jobs: args.jobs,
        memo_path: args.memo.clone(),
    };
    let sweep = run_sweep(&args.grid, &opts)?;
    let rendered = sweep.render();
    let mut report = Report::new(rendered.strip_suffix('\n').unwrap_or(&rendered).to_string());
    if let Some(frac) = args.assert_memo_frac {
        let got = sweep.memo_hit_fraction();
        report.pass = got >= frac;
        let verdict = if report.pass { "≥" } else { "below" };
        report.text.push_str(&format!(
            "\nmemo hit fraction {got:.2} {verdict} required {frac:.2}"
        ));
    }
    if let Some(path) = &args.json {
        report.json.push((path.clone(), sweep.to_json()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_smoke_and_flags() {
        let a = ExploreArgs::parse(&s(&["--smoke", "--jobs", "4", "--assert-memo-frac", "0.9"]))
            .unwrap();
        assert_eq!(a.grid, ParamGrid::smoke());
        assert_eq!(a.jobs, 4);
        assert_eq!(a.assert_memo_frac, Some(0.9));
    }

    #[test]
    fn parse_grid_spec_with_quick_and_seed() {
        let a =
            ExploreArgs::parse(&s(&["--grid", "entries=2,4", "--quick", "--seed", "7"])).unwrap();
        assert_eq!(a.grid.entries, vec![2, 4]);
        assert_eq!(a.grid.scale, RunScale::quick());
        assert_eq!(a.grid.seed, 7);
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(ExploreArgs::parse(&s(&["--frobnicate"])).is_err());
        assert!(ExploreArgs::parse(&s(&["--grid"])).is_err());
        assert!(ExploreArgs::parse(&s(&["--preset", "nope"])).is_err());
    }

    #[test]
    fn explore_report_carries_the_sweep_json() {
        let a = ExploreArgs::parse(&s(&["--grid", "entries=4", "--quick", "--json", "r.json"]))
            .unwrap();
        let report = explore_report(&a).unwrap();
        assert!(report.pass);
        let (path, doc) = &report.json[0];
        assert_eq!(path.to_str(), Some("r.json"));
        assert_eq!(
            doc.get("schema").and_then(mallacc_stats::Json::as_str),
            Some("mallacc-explore-sweep/1")
        );
    }
}
