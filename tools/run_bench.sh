#!/usr/bin/env bash
# Tier-1 verification plus the tuning-throughput benchmark.
#
#   tools/run_bench.sh [build-dir]
#
# Builds everything, runs the full ctest suite, then runs
# bench_tuning_throughput and copies BENCH_tuning_throughput.json (stable
# schema, see docs/performance.md) to the repository root so the tuning
# trajectory is tracked in-tree.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

# The bench writes its CSVs/JSON into the working directory, the JSON
# before its gates run: publish it even when a gate fails, then exit with
# the bench's status.
status=0
(cd "$build_dir" && ./bench_tuning_throughput) || status=$?
cp "$build_dir/BENCH_tuning_throughput.json" "$repo_root/BENCH_tuning_throughput.json"
echo "BENCH_tuning_throughput.json updated at $repo_root"
exit "$status"
