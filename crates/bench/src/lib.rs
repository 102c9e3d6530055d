//! The Mallacc reproduction harness.
//!
//! One generator per table and figure of the paper's evaluation (§6), each
//! returning the rendered text that the `repro` binary prints:
//!
//! | paper artefact | generator |
//! |---|---|
//! | Figure 1 (per-call cost PDF, perlbench)      | [`figures::fig1`] |
//! | Figure 2 (malloc time CDF, all workloads)    | [`figures::fig2`] |
//! | Figure 4 (fast-path component costs)         | [`figures::fig4`] |
//! | Figure 6 (size classes per workload)         | [`figures::fig6`] |
//! | Table 1 (simulator validation)               | [`tables::table1`] |
//! | Figure 13 (allocator time improvement)       | [`figures::fig13`] |
//! | Figure 14 (malloc time improvement)          | [`figures::fig14`] |
//! | Figure 15 (xapian call-duration PDFs)        | [`figures::fig15`] |
//! | Figure 16 (xalancbmk call-duration PDFs)     | [`figures::fig16`] |
//! | Figure 17 (cache-size sweep)                 | [`figures::fig17`] |
//! | Figure 18 (time in allocator)                | [`figures::fig18`] |
//! | Table 2 (full-program speedup, t-tested)     | [`tables::table2`] |
//! | §6.4 (silicon area)                          | [`tables::area`] |
//!
//! Plus the [`figures::ablation`] study for the design choices DESIGN.md
//! calls out (per-component accelerator configs, prefetch on/off, generic
//! size keying), and the beyond-the-paper [`mt`] multi-core report
//! (per-core malloc caches over a shared L3 at 1/2/4/8 cores).
//!
//! The figures with structured datasets (13, 14, 17, Table 2, mt) split
//! into a `*_data` computation and a `render_*` text function consuming
//! it; `repro --json PATH` serialises the same datasets, so the JSON and
//! the text always carry identical numbers. `repro explore`
//! ([`explore_cli`]) drives the `mallacc-explore` design-space sweep
//! engine, and `repro profile` ([`profile_cli`]) drives the
//! `mallacc-prof` cycle-attribution layer (per-op stall breakdowns,
//! Figure 2-style component tables, Chrome trace export). `repro
//! validate` ([`validate_cli`]) drives the `mallacc-validate`
//! conformance subsystem (analytic latency oracle, reference-spec
//! differential fuzzing, metamorphic laws). `repro fleet`
//! ([`fleet_cli`]) drives the `mallacc-fleet` datacenter scenario
//! engine (request-driven traffic, strong/weak scaling curves, and
//! per-malloc tail latency on the multi-core simulator).
//!
//! Every subcommand parses its flags and returns one [`cli::Report`];
//! [`COMMANDS`] lists them with their usage, and [`cli::dispatch`] — what
//! the `repro` binary runs — prints, writes and exits on the report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod explore_cli;
pub mod figures;
pub mod fleet_cli;
pub mod mt;
pub mod offload_cli;
pub mod paper_cli;
pub mod profile_cli;
pub mod sample_cli;
pub mod sim_fixture;
pub mod substrate_cli;
pub mod tables;
pub mod validate_cli;

pub use experiments::Scale;

use cli::{Command, EXPERIMENT};
use explore_cli::{explore_report, ExploreArgs};
use fleet_cli::{fleet_report, FleetArgs};
use offload_cli::{offload_report, OffloadArgs};
use paper_cli::{paper_report, PaperArgs};
use profile_cli::{profile_report, ProfileArgs};
use sample_cli::{sample_report, SampleArgs};
use substrate_cli::{substrate_report, SubstrateArgs};
use validate_cli::{validate_report, ValidateArgs};

/// Every `repro` command: its name, its flags and how it runs.
pub const COMMANDS: [Command; 8] = [
    Command {
        name: "explore",
        usage: "[--smoke] [--grid SPEC] [--preset NAME] [--quick] [--seed N] [--jobs N] \
                [--memo PATH] [--json PATH] [--assert-memo-frac F]",
        run: |args| explore_report(&ExploreArgs::parse(args)?),
    },
    Command {
        name: "profile",
        usage: "[--smoke] [--quick] [--pairs N] [--warmup N] [--mt-calls N] [--seed N] \
                [--jobs N] [--uops N] [--trace PATH] [--json PATH]",
        run: |args| Ok(profile_report(&ProfileArgs::parse(args)?)),
    },
    Command {
        name: "validate",
        usage: "[--smoke] [--full] [--kernel-n N] [--fuzz N] [--laws N] [--offload-fuzz N] \
                [--sample-fuzz N] [--substrate-fuzz N] [--seed N] [--jobs N] [--json PATH]",
        run: |args| Ok(validate_report(&ValidateArgs::parse(args)?)),
    },
    Command {
        name: "fleet",
        usage: "[--smoke] [--full] [--cores A,B,...] [--scenario NAME]... [--requests N] \
                [--weak-requests N] [--sim full|sampled[:W:D:P[:S]]] [--seed N] [--jobs N] \
                [--json PATH]",
        run: |args| fleet_report(&FleetArgs::parse(args)?),
    },
    Command {
        name: "offload",
        usage: "[--smoke] [--full] [--substrate NAME] [--workload NAME]... [--scenario NAME]... \
                [--depths A,B,...] [--cores A,B,...] [--calls N] [--warmup N] [--requests N] \
                [--sim full|sampled[:W:D:P[:S]]] [--seed N] [--jobs N] [--json PATH]",
        run: |args| Ok(offload_report(&OffloadArgs::parse(args)?)),
    },
    Command {
        name: "sample",
        usage: "[--smoke] [--full] [--substrate NAME] [--workload NAME]... [--mallocs N] \
                [--plan W:D:P[:S]] [--seed N] [--jobs N] [--json PATH]",
        run: |args| Ok(sample_report(&SampleArgs::parse(args)?)),
    },
    Command {
        name: "substrate",
        usage: "[--smoke] [--full] [--substrate NAME]... [--workload NAME]... [--calls N] \
                [--warmup N] [--sim full|sampled[:W:D:P[:S]]] [--seed N] [--jobs N] [--json PATH]",
        run: |args| Ok(substrate_report(&SubstrateArgs::parse(args)?)),
    },
    Command {
        name: EXPERIMENT,
        usage: "[--quick] [--calls N] [--trials N] [--seed N] [--no-index-opt] [--json PATH]\n\
                \x20      experiments: fig1 fig2 fig4 fig6 table1 fig13 fig14 fig15 fig16 fig17 \
                fig18 table2 area ablate generality resilience sensitivity sized-delete cpi mt, \
                or all",
        run: |args| Ok(paper_report(&PaperArgs::parse(args)?)),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use cli::dispatch;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// Parses `args` with the parser of command `name`, running nothing.
    fn parse(name: &str, args: &[String]) -> Result<(), String> {
        match name {
            "explore" => ExploreArgs::parse(args).map(drop),
            "profile" => ProfileArgs::parse(args).map(drop),
            "validate" => ValidateArgs::parse(args).map(drop),
            "fleet" => FleetArgs::parse(args).map(drop),
            "offload" => OffloadArgs::parse(args).map(drop),
            "sample" => SampleArgs::parse(args).map(drop),
            "substrate" => SubstrateArgs::parse(args).map(drop),
            EXPERIMENT => {
                paper_cli::PaperArgs::parse(&[s(&["fig13"]), args.to_vec()].concat()).map(drop)
            }
            other => panic!("no parser for {other}"),
        }
    }

    /// A valid value for `flag`.
    fn valid_value(flag: &str) -> &'static str {
        match flag {
            "--grid" => "entries=4",
            "--preset" => "micro-entries",
            "--scenario" => "rpc-fanout",
            "--workload" => "gauss",
            "--substrate" => "jemalloc",
            "--sim" => "sampled",
            "--plan" => "64:256:4096",
            "--cores" | "--depths" => "1,2",
            "--assert-memo-frac" => "0.5",
            "--memo" | "--trace" | "--json" => "out.json",
            _ => "3",
        }
    }

    #[test]
    fn every_flag_in_the_usage_parses() {
        for cmd in COMMANDS {
            let mut flags = 0;
            for token in cmd.usage.split_whitespace() {
                let Some(flag) = token.strip_prefix("[--") else {
                    continue;
                };
                // `[--smoke]` stands alone; `[--seed` is followed by `N]`.
                let bare = flag.trim_end_matches("...");
                let flag = format!("--{}", bare.trim_end_matches(']'));
                let mut args = vec![flag.clone()];
                if !bare.ends_with(']') {
                    args.push(valid_value(&flag).to_string());
                }
                parse(cmd.name, &args)
                    .unwrap_or_else(|e| panic!("repro {} {args:?}: {e}", cmd.name));
                flags += 1;
            }
            assert!(flags > 0, "{} names no flags", cmd.name);
        }
        let experiments = COMMANDS.iter().find(|c| c.name == EXPERIMENT).unwrap();
        for name in paper_cli::EXPERIMENTS {
            let listed = experiments.usage.split([' ', ',']).any(|w| w == name);
            assert!(listed, "usage leaves out experiment {name}");
        }
    }

    #[test]
    fn bad_input_exits_2_and_prints_nothing() {
        for args in [
            &[][..],
            &["explore", "--frobnicate"],
            &["explore", "--preset", "no-such"],
            &["profile", "--frobnicate"],
            &["profile", "--pairs", "0"],
            &["validate", "--frobnicate"],
            &["validate", "--fuzz", "0"],
            &["fleet", "--frobnicate"],
            &["fleet", "--scenario", "no-such"],
            &["offload", "--frobnicate"],
            &["offload", "--workload", "no-such"],
            &["sample", "--frobnicate"],
            &["sample", "--workload", "no-such"],
            &["substrate", "--frobnicate"],
            &["substrate", "--substrate", "no-such"],
            &["area", "--frobnicate"],
            &["no-such"],
        ] {
            let out = dispatch(&COMMANDS, &s(args));
            assert_eq!(out.code, 2, "repro {args:?}");
            assert_eq!(out.stdout, "", "repro {args:?} printed to stdout");
        }
    }

    #[test]
    fn the_json_report_is_written_and_announced() {
        let path = std::env::temp_dir().join(format!("repro-cli-{}.json", std::process::id()));
        let out = dispatch(&COMMANDS, &s(&["area", "--json", path.to_str().unwrap()]));
        assert_eq!(out.code, 0);
        assert!(out
            .stdout
            .ends_with(&format!("\nwrote {}\n", path.display())));
        let doc = mallacc_stats::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            doc.get("schema").and_then(mallacc_stats::Json::as_str),
            Some("mallacc-repro/1")
        );
    }

    #[test]
    fn a_failed_write_exits_1_after_printing_the_report() {
        let dir = std::env::temp_dir();
        let out = dispatch(&COMMANDS, &s(&["area", "--json", dir.to_str().unwrap()]));
        assert_eq!(out.code, 1);
        assert!(
            out.stdout.contains("area cost of Mallacc"),
            "{}",
            out.stdout
        );
        assert!(!out.stdout.contains("wrote"), "{}", out.stdout);
    }
}
