#!/usr/bin/env bash
# Build `msched` and the benchmark from source, then run one measurement.
#
#   bash msbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default: target). Build output goes to stderr; the last line of stdout
# is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p malleable-bench --bin msched >&2
cargo build --release --offline --quiet --manifest-path msbench/Cargo.toml >&2
"$target/release/msbench" "$@" --msched "$target/release/msched"
