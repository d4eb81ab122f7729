#!/usr/bin/env bash
# The perf ledger's one entry point. Builds `ceci-serve` (root workspace,
# release) and the ledger package, then runs the ledger.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last stdout line is the JSON result
#   benchmark/run.sh [--seed <n>] [--smoke] [--aa]
#       all four workloads with every end-to-end and per-layer metric;
#       --aa runs the set twice and compares the two
set -euo pipefail
cd "$(dirname "$0")/.."

# One target directory for both workspaces: the driver names it through
# CARGO_TARGET_DIR; a developer's run shares the root `target/`.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR="$target"

traced=1
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-}" == "0" ]]; then
        traced=0
    fi
done

# Build output goes to stderr: stdout carries the metrics.
cargo build --release --offline -p ceci-service --bin ceci-serve >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin ledger >&2
# `ledger-layers` is the only target that calls the library crates, so it
# is the only one a signature change elsewhere can break. The served run
# does not need it; the traced run does.
if ! cargo build --release --offline --manifest-path benchmark/Cargo.toml --bin ledger-layers >&2; then
    if [[ "$traced" == 1 ]]; then
        echo "error: ledger-layers does not build; the traced run needs it" >&2
        exit 1
    fi
    echo "warning: ledger-layers does not build; continuing with the served run only" >&2
fi

exec "$target/release/ledger" \
    --serve-bin "$target/release/ceci-serve" \
    --layers-bin "$target/release/ledger-layers" \
    --out benchmark/out "$@"
