#!/usr/bin/env bash
# The repository benchmark's one command. Run from the repository root:
#
#   bash perfbench/run.sh --workload <wallet_screen|chain_backfill|drift_adapt> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Builds the serving replica (the repository's own `phishinghook-served`)
# and the benchmark from source into $CARGO_TARGET_DIR (default
# `.bench_build`), then runs one workload. Build output goes to stderr;
# the last line of stdout is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The replica must run with its defaults: no serving knob may leak in.
while IFS='=' read -r name _; do
    unset "$name"
done < <(env | grep '^PHISHINGHOOK_' || true)

cargo build --release --offline --quiet -p phishinghook-serve --bin phishinghook-served >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --build-dir "$CARGO_TARGET_DIR" "$@"
