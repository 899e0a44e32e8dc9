#!/usr/bin/env bash
# A/A: two full sets of the same build, compared under the benchmark's own
# bounds. Exits non-zero if any (workload, end-to-end metric) pair reads
# worse in the second set than in the first, or if a run fails a check.
#
# Each set is ROUNDS interleaved rounds (default 10, round r on seed
# SEED + r): ten values per metric, the same count the spread rule in
# README.md is stated for. Ten rounds take about 20 minutes per set on two
# vCPUs; ROUNDS=3 is the 5-minute version.
set -euo pipefail
cd "$(dirname "$0")/.."
rounds=${ROUNDS:-10}
seed=${SEED:-1}
out=${OUT:-benchmark/out/aa}
bench() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}
bench run --rounds "$rounds" --seed "$seed" --out "$out/first"
bench run --rounds "$rounds" --seed "$seed" --out "$out/second"
bench compare "$out/first/result.json" "$out/second/result.json"
