//! Library half of the `gfl` command-line tool: argument parsing and the
//! command implementations, kept separate from `main.rs` so they are unit
//! testable.
//!
//! The parser is deliberately small (the allowed dependency set has no
//! clap): a subcommand followed by `--key value` / `--flag` pairs, each
//! declared once as a row of the command's table in [`args`]. A command is
//! table → config (`from_args`, which validates everything that needs no
//! data) → build → drive → report; a new flag is one row plus the getter
//! call that reads it into the config.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod trace_cli;

pub use args::{Args, ParseError};

/// Top-level usage text.
pub const USAGE: &str = "\
gfl — Group-based Hierarchical Federated Learning (ICPP'23 reproduction)

USAGE:
  gfl <COMMAND> [--key value]...

COMMANDS:
  simulate   run a federated training session end to end
  group      form client groups and report their quality
  cost       print the calibrated cost-model curves (Fig. 2a / Fig. 8)
  theory     evaluate the Theorem 1 convergence bound
  help       show this message (or `gfl <command> --help`)

Run `gfl <command> --help` for the command's options.";

/// Entry point shared by `main.rs` and tests. Returns the process exit
/// code and prints to the given writer.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    let Some(command) = argv.first() else {
        let _ = writeln!(out, "{USAGE}");
        return 2;
    };
    let rest = &argv[1..];
    let result = match command.as_str() {
        "simulate" => commands::simulate(rest, out),
        "group" => commands::group(rest, out),
        "cost" => commands::cost(rest, out),
        "theory" => commands::theory(rest, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            return 0;
        }
        other => {
            let _ = writeln!(out, "unknown command '{other}'\n\n{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(()) => 0,
        Err(commands::CommandError::Help(text)) => {
            let _ = writeln!(out, "{text}");
            0
        }
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}
