//! `moesi-sim` — a command-line driver for the MOESI/Futurebus simulator.
//!
//! ```text
//! moesi-sim --protocol moesi,dragon,write-through --workload ping-pong --steps 2000 --check
//! moesi-sim --cpus 8 --workload general --census --trace 10
//! moesi-sim --trace-file trace.txt --protocol berkeley --check
//! moesi-sim verify --protocol moesi --caches 3
//! moesi-sim verify --matrix --jobs 4
//! moesi-sim faults --rate 0.2 --seed 7
//! moesi-sim bench --seed 7 --json
//! ```
//!
//! Run `moesi-sim --help` (or `moesi-sim verify --help`,
//! `moesi-sim faults --help`, `moesi-sim bench --help`) for the full
//! option list.
//!
//! Each subcommand lives in its own module — config struct, argument
//! parser, usage text and runner together: [`simulate`] (the default,
//! flag-driven simulation), [`verify`], [`faults`], [`bench`], [`synth`]
//! and [`table`]. [`chrome`] holds the shared Chrome-trace writer.

/// `print!` for the subcommands' reports: see [`out`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out(format_args!($($arg)*))
    };
}

/// `println!` for the subcommands' reports: see [`out`].
macro_rules! outln {
    () => {
        $crate::out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod bench;
mod chrome;
mod faults;
mod simulate;
mod synth;
mod table;
mod verify;

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout has been found closed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes a report to stdout. A closed stdout (`moesi-sim ... | head`)
/// means the reader has stopped reading, which is not an error: later
/// writes are dropped, and the subcommand runs to its end, so it still
/// writes its files and its result still sets the exit code. Any other
/// write error panics, as `print!` does.
fn out(args: std::fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// Parses `args` with `parse` and hands the config to `run`, mapping the
/// three outcomes every subcommand shares onto exit codes: success, a
/// runtime error (1), the `--help` sentinel (print usage, success) and a
/// usage error (2).
fn dispatch<C>(
    args: &[String],
    usage: &str,
    parse: impl FnOnce(&[String]) -> Result<C, String>,
    run: impl FnOnce(&C) -> Result<(), String>,
) -> ExitCode {
    match parse(args) {
        Ok(cfg) => match run(&cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) if msg.is_empty() => {
            out!("{usage}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{usage}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("table") => dispatch(
            &args[1..],
            table::TABLE_USAGE,
            table::parse_table_args,
            table::run_table,
        ),
        Some("faults") => dispatch(
            &args[1..],
            faults::FAULTS_USAGE,
            faults::parse_faults_args,
            faults::run_faults,
        ),
        Some("bench") => dispatch(
            &args[1..],
            bench::BENCH_USAGE,
            bench::parse_bench_args,
            bench::run_bench,
        ),
        Some("synth") => dispatch(
            &args[1..],
            synth::SYNTH_USAGE,
            synth::parse_synth_args,
            synth::run_synth,
        ),
        Some("verify") => dispatch(
            &args[1..],
            verify::VERIFY_USAGE,
            verify::parse_verify_args,
            verify::run_verify,
        ),
        _ => dispatch(&args, simulate::USAGE, simulate::parse_args, simulate::run),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    /// Splits a flat option string into owned argv words for parser tests.
    pub(crate) fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::args;

    #[test]
    fn shared_flags_parse_identically_across_subcommands() {
        let shared = "--seed 11 --jobs 3 --trace-out /tmp/t.json";
        let v = crate::verify::parse_verify_args(&args(shared)).expect("verify");
        let f = crate::faults::parse_faults_args(&args(shared)).expect("faults");
        let b = crate::bench::parse_bench_args(&args(shared)).expect("bench");
        assert_eq!((v.jobs, f.jobs, b.jobs), (3, 3, 3));
        assert_eq!((v.seed, f.seed, b.seed), (Some(11), 11, 11));
        assert_eq!(v.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(f.trace_out, b.trace_out);
        assert_eq!(v.trace_out, f.trace_out);
        for err in [
            crate::verify::parse_verify_args(&args("--jobs 0")).unwrap_err(),
            crate::faults::parse_faults_args(&args("--jobs 0")).unwrap_err(),
            crate::bench::parse_bench_args(&args("--jobs 0")).unwrap_err(),
        ] {
            assert!(err.contains("at least 1"), "{err}");
        }
    }
}
