#!/usr/bin/env bash
# Builds the benchmark and the nsky-server daemon from source, then runs
# one workload from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr; the benchmark's report goes to stdout,
# its last line being the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p nsky-perfbench -p nsky-server --bins >&2
exec "$target/release/nsky-perfbench" "$@"
