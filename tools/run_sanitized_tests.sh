#!/usr/bin/env bash
# Build and run the test suite under sanitizers (separate build trees, so
# none pollutes the regular build/). Usage:
#
#   tools/run_sanitized_tests.sh [address|undefined|thread|fuzz]...
#
# With no argument the address and undefined suites run in full.
# `thread` builds with TSan and runs the concurrent components: the
# telemetry registry, the sharded verifier pool (stress + determinism
# suites, which drive one worker thread per shard while another thread
# pushes policy revisions into the COW mailboxes), the PolicyIndex
# tests, the first use of the EC comb table from four threads (in a
# process of its own, so the table is cold when they start), the
# RuntimePolicy digest memo (four threads take one policy's first
# digest), and two
# sharded scenario files through cia_scenario — the alert storm and the
# churn campaign with mid-run resizes (live agent migration), so a pool
# race shows up attributed to the campaign that hit it. `fuzz`
# builds with ASan+UBSan combined and runs the bounded fuzz smoke: every
# cia_fuzz target on its committed corpus with fixed seeds, plus the
# fleet invariant checker — a crash, sanitizer abort, or contract
# violation fails the step. Exits non-zero on the first failing step.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined)
fi

for san in "${sanitizers[@]}"; do
  case "$san" in
    address|undefined|thread|fuzz) ;;
    *)
      echo "unknown sanitizer '$san' (expected address, undefined, thread, or fuzz)" >&2
      exit 2
      ;;
  esac
  build_dir="$repo_root/build-$san"
  flags="$san"
  if [ "$san" = fuzz ]; then
    flags="address,undefined"
  fi
  echo "==> [$san] configure ($build_dir)"
  cmake -B "$build_dir" -S "$repo_root" -DCIA_SANITIZE="$flags" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "==> [$san] build"
  cmake --build "$build_dir" -j "$(nproc)"
  case "$san" in
    thread)
      echo "==> [$san] telemetry tests"
      "$build_dir/tests/cia_tests" \
        --gtest_filter='MetricsRegistryTest.*:HistogramTest.*:ExportTest.*:LogBridgeTest.*:TracerTest.*'
      echo "==> [$san] EC comb table, cold first use from four threads"
      "$build_dir/tests/cia_tests" --gtest_filter='EcConcurrencyTest.*'
      echo "==> [$san] verifier pool (shard workers + COW policy swaps)"
      "$build_dir/tests/cia_tests" \
        --gtest_filter='PoolStressTest.*:PoolDeterminismTest.*:PoolFleetTest.*:PoolPolicyTest.*:PoolRingTest.*:PoolReshardTest.*:PolicyIndexTest.*'
      echo "==> [$san] policy digest memo, first digest from four threads"
      "$build_dir/tests/cia_tests" --gtest_filter='PolicyDigestMemoTest.*'
      echo "==> [$san] sharded scenarios (alert storm, churn with resizes)"
      "$build_dir/tools/cia_scenario" run "$repo_root/scenarios/alert-storm.json"
      "$build_dir/tools/cia_scenario" run \
        "$repo_root/scenarios/churn-resize.json" --self-check
      ;;
    fuzz)
      # Fixed seeds keep the smoke deterministic; the iteration budget is
      # sized to stay around half a minute per target under ASan+UBSan.
      echo "==> [$san] fuzz smoke (all targets, fixed seeds)"
      "$build_dir/tools/cia_fuzz" --target=all --seed=1 --iters=8000
      "$build_dir/tools/cia_fuzz" --target=all --seed=2026 --iters=3000
      echo "==> [$san] fleet invariants"
      "$build_dir/tools/cia_fuzz" --invariants --seed=7
      "$build_dir/tools/cia_fuzz" --invariants --seed=11
      ;;
    *)
      echo "==> [$san] ctest"
      (cd "$build_dir" && ctest --output-on-failure -j "$(nproc)")
      ;;
  esac
  echo "==> [$san] OK"
done
echo "all sanitized suites passed"
