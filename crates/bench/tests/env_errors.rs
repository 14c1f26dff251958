//! A bad `GFL_THREADS` is a usage error in the snapshot
//! binaries, as in `gfl` and `gfl-experiments`: exit 2 with the parser's
//! message, not a panic (exit 101).

use std::process::Command;

#[test]
fn bad_env_values_exit_2_with_the_parsers_message() {
    let binaries = [
        env!("CARGO_BIN_EXE_bench_round"),
        env!("CARGO_BIN_EXE_bench_scale"),
    ];
    for binary in binaries {
        let out = Command::new(binary)
            .env("GFL_THREADS", "abc")
            .output()
            .expect("the binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{binary}: {stderr}");
        assert!(!stderr.contains("panicked"), "{binary}: {stderr}");
        assert!(
            stderr.starts_with("error: GFL_THREADS=abc: "),
            "{binary}: {stderr}"
        );
    }
}
