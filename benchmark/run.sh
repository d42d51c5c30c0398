#!/usr/bin/env bash
# The repo benchmark's one command (see /BENCHMARK.json, README.md here).
#
#   benchmark/run.sh                      every workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh selfcheck [--workload W]
#
# Builds `rsq` from the repo's sources and the harness from this
# directory, offline, then hands over. Build time is printed on stderr and
# is not part of any metric.
set -euo pipefail
cd "$(dirname "$0")/.."

build_start=$(date +%s%N)
cargo build --release --offline --quiet -p rsq-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
echo "build: $(( ($(date +%s%N) - build_start) / 1000000 )) ms" >&2

# Without CARGO_TARGET_DIR each workspace builds into its own target/.
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rsq-benchmark" \
    --rsq "${CARGO_TARGET_DIR:-target}/release/rsq" "$@"
