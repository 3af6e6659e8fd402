#!/usr/bin/env bash
# The benchmark command: build (offline, release) and run.
#
#   benchmark/run.sh                      every workload, end to end and traced;
#                                         writes benchmark/out/results.json
#   benchmark/run.sh --quick              the same at smoke-test size (seconds)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run; the last line of stdout is
#                                         the JSON result
#   benchmark/run.sh --manifest           print BENCHMARK.json
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR when
# set, else to benchmark/target; everything else is written under
# benchmark/out.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/nra-benchmark" --out "$here/out" "$@"
