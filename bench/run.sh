#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is the result
#   bench/run.sh [--seed <n>] [--seconds <s>] [--runs <r>]
#       every workload, untraced and traced, each in its own process:
#       prints `workload name value unit` lines, writes bench/out/RESULT.json,
#       exits non-zero on any failed check
#   bench/run.sh trace <workload>        writes bench/out/TRACE_<workload>.json
#   bench/run.sh compare A.json B.json   verdict per metric and workload
#
# Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
# when set, to target/ of the checkout otherwise.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/bench" "$@"
