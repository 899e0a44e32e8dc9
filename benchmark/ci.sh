#!/usr/bin/env bash
# One line for a CI job: build the benchmark, run its tests (unit tests plus
# the test that runs every workload in smoke mode and holds BENCHMARK.json
# to what is emitted), then one quick set with the release binary.
# Numbers from a quick set are not for claims; the exit code is.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"
cargo run --release --quiet --offline --manifest-path "$manifest" -- run --quick
