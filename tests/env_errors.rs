//! A bad `GFL_SIMD` or `GFL_THREADS` is a usage error in every example, as
//! in `gfl`: exit 2 with the parser's message, not a panic (exit 101).
//!
//! The examples are the binaries `cargo test` builds beside this one
//! (`target/<profile>/examples/`); `cargo build --examples -p
//! gfl-integration` builds them for a run of this file alone.

use std::process::Command;

const EXAMPLES: [&str; 7] = [
    "quickstart",
    "edge_deployment",
    "secure_pipeline",
    "custom_grouping",
    "theory_explorer",
    "chaos_run",
    "churn_run",
];

#[test]
fn bad_env_values_exit_2_in_every_example() {
    let deps = std::env::current_exe().unwrap();
    let dir = deps
        .parent()
        .and_then(|d| d.parent())
        .unwrap()
        .join("examples");
    for example in EXAMPLES {
        let binary = dir
            .join(example)
            .with_extension(std::env::consts::EXE_EXTENSION);
        for (var, value) in [("GFL_SIMD", "neon"), ("GFL_THREADS", "abc")] {
            let out = Command::new(&binary)
                .env_remove("GFL_SIMD")
                .env_remove("GFL_THREADS")
                .env(var, value)
                .output()
                .unwrap_or_else(|e| panic!("{}: {e}", binary.display()));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{example} {var}={value}: {stderr}"
            );
            assert!(
                !stderr.contains("panicked"),
                "{example} {var}={value}: {stderr}"
            );
        }
    }
}
