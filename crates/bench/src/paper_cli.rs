//! The paper's experiments as one `repro` command: `repro fig13`,
//! `repro table2`, `repro mt`, … or `repro all` for every one in turn.
//!
//! Experiments with structured datasets (fig13, fig14, fig17, table2, mt)
//! compute the data once and derive both the text and the `--json`
//! document from it, so the two always carry the same numbers.

use std::path::PathBuf;

use crate::cli::{self, CommonSpec, Report};
use crate::{figures, mt, tables, Scale};
use mallacc_stats::Json;

/// Every experiment, in the order `repro all` runs them.
pub const EXPERIMENTS: [&str; 20] = [
    "fig1",
    "fig2",
    "fig4",
    "fig6",
    "table1",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table2",
    "area",
    "ablate",
    "generality",
    "resilience",
    "sensitivity",
    "sized-delete",
    "cpi",
    "mt",
];

/// Parsed `repro <experiment>` arguments.
#[derive(Debug, Clone)]
pub struct PaperArgs {
    /// The experiments to run: one, or every one for `all`.
    pub names: Vec<&'static str>,
    /// Run scale.
    pub scale: Scale,
    /// Figure 17 with the index-keyed malloc cache (`--no-index-opt`
    /// turns it off).
    pub index_keying: bool,
    /// Machine-readable dataset output file.
    pub json: Option<PathBuf>,
}

impl PaperArgs {
    /// Parses `args`: the experiment name (or `all`), then its flags.
    pub fn parse(args: &[String]) -> Result<PaperArgs, String> {
        let (word, flags) = args.split_first().ok_or("needs an experiment name")?;
        let names = if word == "all" {
            EXPERIMENTS.to_vec()
        } else {
            let name = EXPERIMENTS.iter().find(|n| *n == word);
            vec![*name.ok_or_else(|| format!("unknown experiment {word:?}"))?]
        };
        let mut scale = Scale::full();
        let mut index_keying = true;
        let common = cli::parse_flags(flags, "experiment", CommonSpec::SEED, |flag, f| {
            match flag {
                "--quick" => scale = Scale::quick(),
                "--no-index-opt" => index_keying = false,
                "--calls" => scale.calls = f.int(flag)? as usize,
                "--trials" => scale.trials = f.int(flag)? as usize,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        scale.seed = common.seed.unwrap_or(scale.seed);
        Ok(PaperArgs {
            names,
            scale,
            index_keying,
            json: common.json,
        })
    }
}

/// Runs one experiment: its text, and its dataset if it has one.
fn experiment(name: &str, scale: Scale, index_keying: bool) -> (String, Option<Json>) {
    match name {
        "fig1" => (figures::fig1(scale), None),
        "fig2" => (figures::fig2(scale), None),
        "fig4" => (figures::fig4(scale), None),
        "fig6" => (figures::fig6(scale), None),
        "fig13" => {
            let d = figures::improvement_data(scale, false);
            (figures::render_fig13(&d), Some(d.to_json()))
        }
        "fig14" => {
            let d = figures::improvement_data(scale, true);
            (figures::render_fig14(&d), Some(d.to_json()))
        }
        "fig15" => (figures::fig15(scale), None),
        "fig16" => (figures::fig16(scale), None),
        "fig17" => {
            let d = figures::fig17_data(scale, index_keying);
            (figures::render_fig17(&d), Some(d.to_json()))
        }
        "fig18" => (figures::fig18(scale), None),
        "table1" => (tables::table1(scale), None),
        "table2" => {
            let d = tables::table2_data(scale);
            (
                tables::render_table2(&d, scale),
                Some(tables::table2_json(&d)),
            )
        }
        "area" => (tables::area(), None),
        "ablate" => (figures::ablation(scale), None),
        "generality" => (figures::generality(scale), None),
        "resilience" => (figures::resilience(scale), None),
        "sized-delete" => (figures::sized_delete(scale), None),
        "cpi" => (figures::cpi(scale), None),
        "sensitivity" => (figures::sensitivity(scale), None),
        "mt" => {
            let d = mt::mt_data(scale);
            (mt::render_mt(&d), Some(mt::mt_json(&d)))
        }
        _ => unreachable!("parse admits only known experiments"),
    }
}

/// Runs the selected experiments. `all` separates the reports, and ends
/// the last, with a blank line.
pub fn paper_report(args: &PaperArgs) -> Report {
    let mut texts = Vec::new();
    let mut datasets = Vec::new();
    for &name in &args.names {
        let (text, data) = experiment(name, args.scale, args.index_keying);
        texts.push(text);
        if let Some(data) = data {
            datasets.push((name.to_string(), data));
        }
    }
    let text = match texts.as_slice() {
        [one] => one.clone(),
        all => all.join("\n\n") + "\n",
    };
    let mut report = Report::new(text);
    if let Some(path) = &args.json {
        let scale = args.scale;
        let doc = Json::obj([
            ("schema", "mallacc-repro/1".into()),
            (
                "scale",
                Json::obj([
                    ("calls", scale.calls.into()),
                    ("warmup", scale.warmup.into()),
                    ("trials", scale.trials.into()),
                    ("seed", scale.seed.into()),
                ]),
            ),
            ("experiments", Json::Obj(datasets.into_iter().collect())),
        ]);
        report.json.push((path.clone(), doc));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_names_scales_and_rejections() {
        let a = PaperArgs::parse(&s(&["fig13", "--quick", "--seed", "5", "--calls", "9"])).unwrap();
        assert_eq!(a.names, vec!["fig13"]);
        assert_eq!((a.scale.calls, a.scale.seed), (9, 5));
        assert_eq!(
            PaperArgs::parse(&s(&["all"])).unwrap().names,
            EXPERIMENTS.to_vec()
        );
        assert!(
            !PaperArgs::parse(&s(&["fig17", "--no-index-opt"]))
                .unwrap()
                .index_keying
        );
        assert!(PaperArgs::parse(&s(&["fig99"])).is_err());
        assert!(PaperArgs::parse(&s(&["area", "--jobs", "2"])).is_err());
        assert!(PaperArgs::parse(&s(&["area", "--calls", "x"])).is_err());
    }

    #[test]
    fn datasets_land_under_their_experiment() {
        let a = PaperArgs {
            names: vec!["area", "table2"],
            scale: Scale {
                calls: 200,
                warmup: 0,
                trials: 2,
                seed: 0,
            },
            index_keying: true,
            json: Some("repro.json".into()),
        };
        let report = paper_report(&a);
        assert!(report.text.ends_with('\n'), "all-style text ends blank");
        let experiments = report.json[0].1.get("experiments").cloned().unwrap();
        assert!(experiments.get("table2").is_some());
        assert!(experiments.get("area").is_none(), "area has no dataset");
    }
}
