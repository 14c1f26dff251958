//! The binaries as processes: `gfl-trace --help` exits 0.

use std::process::Command;

#[test]
fn gfl_trace_help_exits_0() {
    let mut help = Command::new(env!("CARGO_BIN_EXE_gfl-trace"));
    assert_eq!(help.arg("--help").output().unwrap().status.code(), Some(0));
}
