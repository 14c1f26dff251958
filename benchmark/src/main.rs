//! The `gfl-benchmark` binary: see [`gfl_benchmark::cli::USAGE`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gfl_benchmark::cli::main(&argv));
}
