#!/usr/bin/env bash
# Builds the release `gfl` binary and the benchmark from source, then runs the
# benchmark with the given arguments:
#
#   bash benchmark/run.sh run --seed 1              every workload, both passes
#   bash benchmark/run.sh compare A/results.json B/results.json
#   bash benchmark/run.sh --workload dense-train --seed 3 --seconds 15 --trace 0
#
# Both builds share one target directory (CARGO_TARGET_DIR, default ./target),
# so `gfl-benchmark` finds `gfl` and `gfl-trace` beside itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to a log: a driver reads this script's standard output.
log="$target/benchmark-build.log"
mkdir -p "$target"
if ! {
  cargo build --release --offline -p gfl-cli &&
  cargo build --release --offline --manifest-path "$here/Cargo.toml"
} >"$log" 2>&1; then
  cat "$log" >&2
  echo "benchmark/run.sh: build failed (log: $log)" >&2
  exit 1
fi

exec "$target/release/gfl-benchmark" "$@"
