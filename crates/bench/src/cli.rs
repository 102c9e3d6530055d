//! The one report path shared by every `repro` subcommand.
//!
//! A subcommand (`explore`, `profile`, `validate`, `fleet`, `offload`,
//! `sample`, `substrate`, and the paper's experiments) does two things:
//! it parses its own flags with [`parse_flags`], and it returns one
//! [`Report`] — or `Err` for bad input. [`run`] does everything else:
//!
//! * prints the report text, writes its JSON documents and announces
//!   each with a `wrote PATH` line;
//! * exits 2 on bad input (message on stderr, nothing on stdout), 1 on a
//!   failed verdict or a failed write, and 0 otherwise.
//!
//! [`parse_flags`] recognises the shared flags — `--smoke`, `--full`,
//! `--seed N`, `--jobs N`, `--json PATH` — gated per subcommand by a
//! [`CommonSpec`], and hands every other flag to the subcommand's own
//! matcher. The shared flags are *collected*, not applied: each
//! subcommand applies `scale` first and explicit overrides after, so
//! `--smoke --fuzz 7` and `--fuzz 7 --smoke` both mean "smoke scale, but
//! 7 fuzz slots".
//!
//! [`run_indexed`] is the strided-worker slot runner behind every
//! "byte-identical across `--jobs`" report.

use std::path::PathBuf;

use mallacc_stats::Json;

/// What one subcommand produced.
#[derive(Debug)]
pub struct Report {
    /// The report text; `repro` prints it followed by a newline.
    pub text: String,
    /// JSON documents to write, in order, each to its path.
    pub json: Vec<(PathBuf, Json)>,
    /// The verdict: `false` exits 1.
    pub pass: bool,
}

impl Report {
    /// A passing report of `text` that writes nothing.
    pub fn new(text: String) -> Self {
        Self {
            text,
            json: Vec::new(),
            pass: true,
        }
    }
}

/// One `repro` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The word that selects it; [`EXPERIMENT`] for the paper's
    /// experiments, which take every other word.
    pub name: &'static str,
    /// Its flags, as the usage text shows them.
    pub usage: &'static str,
    /// Parses the flags after the name and computes the report.
    pub run: fn(&[String]) -> Result<Report, String>,
}

/// The name of the command that runs the paper's experiments. Any word
/// no other command carries goes to it, as its first argument.
pub const EXPERIMENT: &str = "<experiment>";

/// What one `repro` invocation printed to stdout, and its exit code.
#[derive(Debug)]
pub struct Outcome {
    /// The process exit code.
    pub code: i32,
    /// Everything printed to stdout.
    pub stdout: String,
}

impl Outcome {
    fn bad_input() -> Self {
        Self {
            code: 2,
            stdout: String::new(),
        }
    }
}

/// The usage text of `commands`, one line per command.
pub fn usage(commands: &[Command]) -> String {
    let lines: Vec<String> = commands
        .iter()
        .map(|c| format!("repro {} {}", c.name, c.usage))
        .collect();
    format!("usage: {}", lines.join("\n       "))
}

/// Runs the command `args` names: `args[0]` selects it from `commands`
/// and the rest are its flags. A word no command carries goes, with its
/// flags, to the [`EXPERIMENT`] command. No arguments print the usage and
/// exit 2.
pub fn dispatch(commands: &[Command], args: &[String]) -> Outcome {
    let Some(word) = args.first() else {
        eprintln!("{}", usage(commands));
        return Outcome::bad_input();
    };
    let (cmd, args) = match commands.iter().find(|c| c.name == word) {
        Some(cmd) => (cmd, &args[1..]),
        None => {
            let experiments = commands.iter().find(|c| c.name == EXPERIMENT);
            (experiments.expect("an experiment command"), args)
        }
    };
    run(cmd, args)
}

/// Runs `cmd` on its flags `args`: computes the report, writes its JSON
/// documents, and returns what `repro` prints and exits with.
pub fn run(cmd: &Command, args: &[String]) -> Outcome {
    let report = match (cmd.run)(args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "repro {}: {e}\nusage: repro {} {}",
                cmd.name, cmd.name, cmd.usage
            );
            return Outcome::bad_input();
        }
    };
    let mut out = Outcome {
        code: if report.pass { 0 } else { 1 },
        stdout: format!("{}\n", report.text),
    };
    for (path, doc) in &report.json {
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("repro {}: writing {}: {e}", cmd.name, path.display());
            out.code = 1;
            break;
        }
        out.stdout.push_str(&format!("wrote {}\n", path.display()));
    }
    out
}

/// The run scale selected by `--smoke`/`--full` (whichever came last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleFlag {
    /// CI-sized runs.
    Smoke,
    /// Paper-sized runs.
    Full,
}

/// Values of the shared subcommand flags, as collected by
/// [`parse_flags`]. `None` means the flag did not appear.
#[derive(Debug, Clone, Default)]
pub struct CommonFlags {
    /// `--smoke`/`--full`.
    pub scale: Option<ScaleFlag>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--json PATH`.
    pub json: Option<PathBuf>,
}

/// Which shared flags a subcommand accepts beyond `--json`, which every
/// subcommand accepts. Disabled flags fall through to the subcommand's
/// own matcher, which rejects them as unknown.
#[derive(Debug, Clone, Copy)]
pub struct CommonSpec {
    /// Accept `--smoke`.
    pub smoke: bool,
    /// Accept `--full`.
    pub full: bool,
    /// Accept `--seed`.
    pub seed: bool,
    /// Accept `--jobs`.
    pub jobs: bool,
}

impl CommonSpec {
    /// Every shared flag enabled (`validate`, `fleet`, `offload`,
    /// `sample`, `substrate`).
    pub const ALL: CommonSpec = CommonSpec {
        smoke: true,
        full: true,
        seed: true,
        jobs: true,
    };

    /// Everything but `--full` (`profile`, whose second scale is
    /// `--quick`, and `explore`, whose scales are grid presets).
    pub const NO_FULL: CommonSpec = CommonSpec {
        full: false,
        ..CommonSpec::ALL
    };

    /// Only `--seed` (the paper's experiments — `mt`, the figures and the
    /// tables — whose scale flag is `--quick` and which run serially, so
    /// no `--jobs`).
    pub const SEED: CommonSpec = CommonSpec {
        smoke: false,
        full: false,
        seed: true,
        jobs: false,
    };
}

/// A cursor over one subcommand's flags, handed to its flag matcher.
#[derive(Debug)]
pub struct Flags<'a> {
    args: &'a [String],
    i: usize,
}

impl Flags<'_> {
    /// The value of the current flag `flag`, advancing the cursor past it.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.i += 1;
        self.args
            .get(self.i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The integer value of the current flag `flag`.
    pub fn int(&mut self, flag: &str) -> Result<u64, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs an integer"))
    }
}

/// Parses the flags of subcommand `sub`. The shared flags `spec` enables
/// (and `--json`) are collected into the returned [`CommonFlags`]; every
/// other flag goes to `own`, which consumes it and its value through the
/// [`Flags`] cursor and returns `Ok(true)`, or returns `Ok(false)` for a
/// flag it does not know.
pub fn parse_flags(
    args: &[String],
    sub: &str,
    spec: CommonSpec,
    mut own: impl FnMut(&str, &mut Flags<'_>) -> Result<bool, String>,
) -> Result<CommonFlags, String> {
    let mut common = CommonFlags::default();
    let mut cursor = Flags { args, i: 0 };
    while cursor.i < args.len() {
        let flag = args[cursor.i].as_str();
        match flag {
            "--smoke" if spec.smoke => common.scale = Some(ScaleFlag::Smoke),
            "--full" if spec.full => common.scale = Some(ScaleFlag::Full),
            "--seed" if spec.seed => common.seed = Some(cursor.int(flag)?),
            "--jobs" if spec.jobs => common.jobs = Some(cursor.int(flag)? as usize),
            "--json" => common.json = Some(PathBuf::from(cursor.value(flag)?)),
            _ => {
                if !own(flag, &mut cursor)? {
                    return Err(format!("unknown {sub} flag {flag:?}"));
                }
            }
        }
        cursor.i += 1;
    }
    Ok(common)
}

/// Runs `total` independent slots, optionally across `jobs` workers, and
/// merges results in slot order. Each slot's result must be a pure
/// function of its index, so the merged output is identical for every
/// `jobs` value — the invariant behind every jobs-invariance golden.
pub fn run_indexed<T: Send>(total: u64, jobs: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let total = total as usize;
    if jobs <= 1 || total <= 1 {
        return (0..total as u64).map(f).collect();
    }
    let workers = jobs.min(total);
    // Worker w takes indices w, w+workers, w+2*workers, … and keeps its
    // results tagged by index; the merge below restores slot order.
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                s.spawn(move || {
                    (w..total)
                        .step_by(workers)
                        .map(|i| (i, f(i as u64)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for chunk in per_worker {
        for (i, value) in chunk {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every slot ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// Parses `args` with a matcher that knows only `--n N`.
    fn parse(args: &[&str], spec: CommonSpec) -> Result<(CommonFlags, Option<u64>), String> {
        let mut n = None;
        let common = parse_flags(&s(args), "test", spec, |flag, f| {
            match flag {
                "--n" => n = Some(f.int(flag)?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok((common, n))
    }

    #[test]
    fn common_flags_are_collected_and_gated() {
        let (flags, n) = parse(
            &[
                "--smoke", "--seed", "7", "--n", "3", "--jobs", "4", "--json", "out.json",
            ],
            CommonSpec::ALL,
        )
        .unwrap();
        assert_eq!(flags.scale, Some(ScaleFlag::Smoke));
        assert_eq!(flags.seed, Some(7));
        assert_eq!(flags.jobs, Some(4));
        assert_eq!(n, Some(3));
        assert_eq!(
            flags.json.as_deref().and_then(|p| p.to_str()),
            Some("out.json")
        );

        // A disabled flag falls through to the matcher, which rejects it.
        let err = parse(&["--jobs", "2"], CommonSpec::SEED).unwrap_err();
        assert_eq!(err, "unknown test flag \"--jobs\"");
    }

    #[test]
    fn last_scale_flag_wins() {
        let (flags, _) = parse(&["--smoke", "--full"], CommonSpec::ALL).unwrap();
        assert_eq!(flags.scale, Some(ScaleFlag::Full));
    }

    #[test]
    fn missing_values_error_with_the_flag_name() {
        assert_eq!(
            parse(&["--seed"], CommonSpec::ALL).unwrap_err(),
            "--seed needs a value"
        );
        assert_eq!(
            parse(&["--n", "x"], CommonSpec::ALL).unwrap_err(),
            "--n needs an integer"
        );
    }

    #[test]
    fn run_indexed_is_jobs_invariant() {
        let f = |i: u64| i * i + 1;
        let serial = run_indexed(23, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(23, jobs, f), serial, "jobs={jobs}");
        }
        assert!(run_indexed(0, 4, f).is_empty());
    }
}
