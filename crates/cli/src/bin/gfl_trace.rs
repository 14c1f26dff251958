//! The `gfl-trace` binary: see [`gfl_cli::trace_cli::usage`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout();
    std::process::exit(gfl_cli::trace_cli::run(&argv, &mut out));
}
