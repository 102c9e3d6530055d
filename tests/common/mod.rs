//! What the golden suites share beyond `assert_golden`: running `repro`
//! in-process, through the same dispatch the binary uses.

use mallacc_bench::{cli, COMMANDS};

/// What `repro ARGS` prints, less the newline that ends every report
/// (the snapshots hold the report text). Fails unless it exits 0.
pub fn repro(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let out = cli::dispatch(&COMMANDS, &args);
    assert_eq!(out.code, 0, "repro {args:?} must pass:\n{}", out.stdout);
    let text = out.stdout.strip_suffix('\n');
    text.expect("stdout ends in a newline").to_string()
}
