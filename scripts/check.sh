#!/usr/bin/env bash
# Resilience gate: build every preset and run the tests under it. The
# default and asan presets run the full tier-1 test list; tsan runs the
# concurrency-heavy labelled suites. The default preset additionally runs
# the pipeline benchmark's own unit tests and the bench regression gate.
# Usage: scripts/check.sh [preset...]
#   scripts/check.sh              # default + tsan + asan
#   scripts/check.sh tsan         # just one preset
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default tsan asan)
fi

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure + build"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$(nproc)"
  if [ "$preset" = default ]; then
    echo "==> [$preset] full test suite"
    ctest --preset "$preset" --output-on-failure
    # perfbench/ is a CMake package of its own; configure it where
    # perfbench/run.py builds it, so a later benchmark run reuses the build.
    echo "==> [$preset] perfbench unit tests (percentiles, span self time, verbs)"
    cmake -S perfbench -B .bench_build/perfbench \
      -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build .bench_build/perfbench --target perfbench_tests \
      -j "$(nproc)"
    .bench_build/perfbench/perfbench_tests
    echo "==> [$preset] bench smoke (crash check + JSON artifacts)"
    scripts/bench_smoke.sh build build/bench-artifacts
    echo "==> [$preset] bench regression gate (scale-free metrics vs baseline)"
    for artifact in BENCH_fanin.json BENCH_store_overload.json \
                    BENCH_tree.json BENCH_restart.json BENCH_query.json; do
      scripts/bench_compare.py "bench/baselines/$artifact" \
        "build/bench-artifacts/$artifact"
    done
  elif [ "$preset" = asan ]; then
    # Every suite: set lifetimes and decoders live in the unlabelled ones
    # (test_core, test_store, test_daemon, test_sampler) too.
    echo "==> [$preset] full test suite"
    ctest --preset "$preset" --output-on-failure
  else
    # tsan keeps to the concurrency-heavy fault suites and the wire codecs
    # (the preset's own filter applies on top of the labels): test_daemon,
    # test_core and test_failure_recovery are not tsan-clean.
    echo "==> [$preset] chaos + overload + codec + tree + persist + query suites"
    ctest --preset "$preset" --output-on-failure \
      -L 'chaos|overload|codec|tree|persist|query'
  fi
done
echo "==> all presets green"
