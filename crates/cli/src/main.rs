//! `rsq` — command-line streaming JSONPath.
//!
//! ```text
//! rsq QUERY [FILE]              print every matched node (stdin if no FILE)
//! rsq --count QUERY [FILE]      print only the number of matches
//! rsq --positions QUERY [FILE]  print byte offsets, one per line
//! rsq --verify QUERY [FILE]     also evaluate on a DOM oracle and compare
//! rsq --stats [FILE]            document statistics (size/depth/verbosity)
//! rsq --compile QUERY           dump the query automaton in Graphviz DOT
//! ```
//!
//! Hardening flags: `--strict`, `--max-depth N`, `--max-bytes N`,
//! `--max-matches N`. Stdin is consumed in chunks with limits enforced
//! while bytes arrive. Diagnostics go to stderr only; the exit code
//! identifies the failure class (see `--help`).

use rsq_cli::{run, CliError, CliErrorKind, Invocation};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

/// Size of the blocks stdout is written in.
const STDOUT_BLOCK: usize = 64 * 1024;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match Invocation::parse(&args) {
        Ok(inv) => inv,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{}", rsq_cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // Unlocked handles: in serve mode the writers go to whichever thread
    // emits, and the lock guards are not `Send`. `Stdout` is
    // line-buffered — one `write(2)` per match or per document — so the
    // lines are gathered into 64 KiB blocks and flushed on every way out:
    // a batch with failed documents returns `Err` after printing the good
    // ones. Serve mode flushes after each write itself, so a response
    // still leaves when its document is answered.
    let mut out = BufWriter::with_capacity(STDOUT_BLOCK, std::io::stdout());
    let result = run(&invocation, &mut out, &mut std::io::stderr());
    let flushed = out.flush().map_err(|e| CliError {
        kind: CliErrorKind::Failure,
        message: format!("write error: {e}"),
    });
    let result = result.and(flushed);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("rsq: {error}");
            ExitCode::from(error.kind.exit_code())
        }
    }
}
