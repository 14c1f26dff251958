//! The binaries as processes: `gfl-trace --help` exits 0, and `gfl` exits 2
//! naming a `GFL_THREADS` value that names nothing, never 101.

use std::process::Command;

const BAD_ENV: &str = "GFL_THREADS=abc GFL_THREADS=-1 GFL_THREADS=1.5";

#[test]
fn gfl_trace_help_exits_0() {
    let mut help = Command::new(env!("CARGO_BIN_EXE_gfl-trace"));
    assert_eq!(help.arg("--help").output().unwrap().status.code(), Some(0));
}

#[test]
fn bad_env_values_exit_2_naming_the_value() {
    for env in BAD_ENV.split(' ') {
        let (var, value) = env.split_once('=').unwrap();
        let mut gfl = Command::new(env!("CARGO_BIN_EXE_gfl"));
        gfl.args(["simulate", "--samples", "900", "--rounds", "1"]);
        let out = gfl.env(var, value).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        let named = stdout.starts_with(&format!("error: {env}: "));
        assert!(out.status.code() == Some(2) && named, "{env}: {stdout}");
    }
}
