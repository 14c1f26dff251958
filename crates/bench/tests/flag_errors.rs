//! A bad flag is a usage error in the snapshot binaries, as in `gfl` and
//! `gfl-experiments`: exit 2 with `error: …` naming the value, never a
//! panic (exit 101) and never a silent default.

use std::process::Command;

#[test]
fn bad_flags_exit_2_naming_the_value() {
    let round = env!("CARGO_BIN_EXE_bench_round");
    let scale = env!("CARGO_BIN_EXE_bench_scale");
    let cases: [(&str, &[&str], &str); 8] = [
        (round, &["--rounds", "abc"], "--rounds abc: "),
        (round, &["--rounds", "0"], "--rounds 0: "),
        (round, &["--rounds", "-1"], "--rounds -1: "),
        (round, &["--rounds"], "--rounds needs a value"),
        (round, &["--frobnicate"], "`--frobnicate`"),
        (scale, &["--clients", "abc"], "--clients abc: "),
        (scale, &["--clients", "0"], "--clients 0: "),
        (scale, &["--rounds", "1"], "`--rounds`"),
    ];
    for (binary, args, named) in cases {
        let out = Command::new(binary)
            .args(args)
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let case = format!("{binary} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{case}"
        );
    }
}
