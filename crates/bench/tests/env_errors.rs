//! A bad `GFL_SIMD` or `GFL_THREADS` is a usage error in the snapshot
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
        for (var, value) in [("GFL_SIMD", "neon"), ("GFL_THREADS", "abc")] {
            let out = Command::new(binary)
                .env_remove("GFL_SIMD")
                .env_remove("GFL_THREADS")
                .env(var, value)
                .output()
                .expect("the binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{binary} {var}={value}: {stderr}"
            );
            assert!(
                !stderr.contains("panicked"),
                "{binary} {var}={value}: {stderr}"
            );
            assert!(
                stderr.starts_with(&format!("error: {var}={value}: ")),
                "{binary} {var}={value}: {stderr}"
            );
        }
    }
}
