//! `mallacc-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `mallacc-perfbench --workload NAME --seed N --rss-probe` runs one round
//! of the workload and prints only the process's peak resident memory in
//! MB; the benchmark starts such probes itself to measure `fleet-2core`'s
//! `peak_rss_mb`.

use std::process::ExitCode;

use mallacc_perfbench::metrics::result_line;
use mallacc_perfbench::run::{self, Scale, Workload};

const USAGE: &str = "usage: mallacc-perfbench --workload paper-macro|substrate-sweep|fleet-2core \
--seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut rss_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        println!("{}", run::rss_probe(args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    let out = run::run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    );
    for line in &out.text {
        println!("{line}");
    }
    let metrics = out.metrics.metrics();
    for (m, help) in metrics.iter().zip(out.metrics.help()) {
        println!("{:<34} {:>18.6} {:<10} {help}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(out.attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}
