//! `repro` — regenerate every table and figure of the Mallacc paper, and
//! run the beyond-the-paper subcommands (`explore`, `profile`, `validate`,
//! `fleet`, `offload`, `sample`, `substrate`).
//!
//! `repro` with no arguments prints the usage of every command, taken
//! from [`mallacc_bench::COMMANDS`]. `--json PATH` writes the command's
//! machine-readable report — the same numbers the text renders, not a
//! re-run.

use mallacc_bench::{cli, COMMANDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::dispatch(&COMMANDS, &args);
    print!("{}", outcome.stdout);
    std::process::exit(outcome.code);
}
