#!/usr/bin/env bash
# rumlab CI: the tier-1 suite in Release, then the same suite under
# AddressSanitizer, then the concurrency tier under ThreadSanitizer.
#
#   ./ci.sh            # all three stages
#   ./ci.sh release    # just the Release build + tests
#   ./ci.sh asan       # just the ASan build + tests
#   ./ci.sh tsan       # just the TSan build + concurrency tier
#
# The TSan stage runs the concurrency and differential tests by default
# (TSan's ~10x slowdown makes the full suite take tens of minutes); set
# RUMLAB_CI_FULL_TSAN=1 to run everything under TSan as well.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
STAGE="${1:-all}"
case "${STAGE}" in
  all|release|asan|tsan) ;;
  *)
    echo "usage: $0 [all|release|asan|tsan]" >&2
    exit 2
    ;;
esac

run_stage() {
  local name="$1" build_dir="$2" sanitize="$3" test_filter="$4"
  echo "=== ${name}: configure + build (${build_dir}) ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE="${5}" \
    -DRUMLAB_SANITIZE="${sanitize}"
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}" ${test_filter})
}

if [[ "${STAGE}" == "all" || "${STAGE}" == "release" ]]; then
  run_stage "release" "build-ci" "" "" "Release"
  # The saturation tier is re-run with an explicit ctest timeout: these
  # tests drive open-loop overload through the request scheduler, and a
  # scheduler bug that stalls the virtual clock (a batch that never
  # dispatches, a ledger that never closes) would otherwise hang ctest
  # instead of failing it.
  echo "=== release: saturation tier (explicit, with timeout) ==="
  (cd build-ci && ctest --output-on-failure --timeout 120 -R saturation_test)
  # The memory-arbiter tier is re-run explicitly: its differential cases
  # (enabled=false byte-identical to static; a never-replanning arbiter
  # byte-identical to the unarbitrated twin) and the A10 acceptance case
  # (arbitrated budget beats every static split, shares migrating with the
  # phases) are the PR's contract, and a filtered config must never drop
  # them silently.
  echo "=== release: memory-arbiter tier (explicit) ==="
  (cd build-ci && ctest --output-on-failure -R memory_arbiter_test)
  echo "=== release: machine-readable bench smoke ==="
  # The two JSON-emitting benches must run and produce parseable output; no
  # thresholds are enforced here (wall-clock is not comparable across CI
  # hosts), only the schema contract.
  (cd build-ci/bench &&
    ./bench_wallclock --benchmark_filter='(Get|Insert)/(btree|lsm-leveled)$' \
      --benchmark_min_time=0.02 \
      --benchmark_out=BENCH_wallclock_smoke.json \
      --benchmark_out_format=json >/dev/null &&
    ./bench_concurrency --smoke >/dev/null &&
    python3 -m json.tool BENCH_wallclock_smoke.json >/dev/null &&
    python3 -m json.tool BENCH_concurrency.json >/dev/null &&
    echo "BENCH_wallclock_smoke.json + BENCH_concurrency.json parse OK")
  # Disabled-layers overhead guard: with tracing, metrics, AND the service
  # layer off (all defaults), the Get path must stay within 3% (geomean) of
  # the committed BENCH_wallclock.json baseline. This is what makes
  # "tracing is cheap when disabled" and "Options::service.enabled=false is
  # a true no-op" enforced contracts rather than comments. Wall-clock
  # baselines are host-specific: set RUMLAB_SKIP_BENCH_GUARD=1 on hosts
  # that did not produce the committed baseline, and refresh the baseline
  # (run bench_wallclock, commit the JSON) when it moves for a good reason.
  if [[ "${RUMLAB_SKIP_BENCH_GUARD:-0}" == "1" ]]; then
    echo "=== release: bench guard skipped (RUMLAB_SKIP_BENCH_GUARD=1) ==="
  else
    echo "=== release: disabled-Get-path guard (<3%: observability AND scheduler off) ==="
    # Three passes, per-benchmark minimum: wall clock on a shared host
    # swings +-8% with transient load, and the *floor* over a few runs is
    # the stable estimator. One slow pass must not fail the guard.
    # MultiGet64 rides in the same guard: the batched read path is a
    # first-class Get path and must not regress either.
    (cd build-ci/bench &&
      for pass in 1 2 3; do
        ./bench_wallclock --benchmark_filter='^(Get|MultiGet64)/' \
          --benchmark_min_time=0.25 \
          --benchmark_out="BENCH_wallclock_guard${pass}.json" \
          --benchmark_out_format=json >/dev/null
      done)
    python3 - BENCH_wallclock.json \
        build-ci/bench/BENCH_wallclock_guard1.json \
        build-ci/bench/BENCH_wallclock_guard2.json \
        build-ci/bench/BENCH_wallclock_guard3.json <<'PYEOF'
import json, math, sys
baseline_path, fresh_paths = sys.argv[1], sys.argv[2:]
def get_times(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if b["name"].startswith(("Get/", "MultiGet64/"))
            and b.get("real_time")}
runs = [get_times(p) for p in fresh_paths]
fresh = {name: min(r[name] for r in runs)
         for name in set.intersection(*(set(r) for r in runs))}
baseline = get_times(baseline_path)
shared = sorted(set(fresh) & set(baseline))
if not shared:
    sys.exit("bench guard: no shared Get/ benchmarks between fresh run "
             "and committed baseline")
log_sum = 0.0
for name in shared:
    ratio = fresh[name] / baseline[name]
    log_sum += math.log(ratio)
    print(f"  {name:<24} {ratio:6.3f}x")
geomean = math.exp(log_sum / len(shared))
print(f"  geomean over {len(shared)} Get/MultiGet64 benchmarks: "
      f"{geomean:.4f}x (limit 1.03)")
if geomean > 1.03:
    sys.exit("bench guard FAILED: disabled-observability Get path "
             f"regressed {100 * (geomean - 1):.1f}% vs baseline")
print("bench guard OK")
PYEOF
    # Scan-path guard: the one-seek range scan (cross-run index + k-way
    # merge) must not regress either -- same 3-pass floor estimator, same
    # 3% geomean limit, over the Scan/ScanHot families on the structures
    # the refactor touched plus the sorted ideal.
    echo "=== release: Scan-path guard (<3%) ==="
    (cd build-ci/bench &&
      for pass in 1 2 3; do
        ./bench_wallclock \
          --benchmark_filter='^Scan(16|128|4K)/(btree|lsm-leveled|lsm-tiered|sorted-column)$|^ScanHot' \
          --benchmark_min_time=0.25 \
          --benchmark_out="BENCH_scan_guard${pass}.json" \
          --benchmark_out_format=json >/dev/null
      done)
    python3 - BENCH_wallclock.json \
        build-ci/bench/BENCH_scan_guard1.json \
        build-ci/bench/BENCH_scan_guard2.json \
        build-ci/bench/BENCH_scan_guard3.json <<'PYEOF'
import json, math, sys
baseline_path, fresh_paths = sys.argv[1], sys.argv[2:]
def get_times(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b["real_time"] for b in doc.get("benchmarks", [])
            if b["name"].startswith("Scan") and b.get("real_time")}
runs = [get_times(p) for p in fresh_paths]
fresh = {name: min(r[name] for r in runs)
         for name in set.intersection(*(set(r) for r in runs))}
baseline = get_times(baseline_path)
shared = sorted(set(fresh) & set(baseline))
if not shared:
    sys.exit("scan guard: no shared Scan benchmarks between fresh run "
             "and committed baseline")
log_sum = 0.0
for name in shared:
    ratio = fresh[name] / baseline[name]
    log_sum += math.log(ratio)
    print(f"  {name:<32} {ratio:6.3f}x")
geomean = math.exp(log_sum / len(shared))
print(f"  geomean over {len(shared)} Scan benchmarks: {geomean:.4f}x "
      f"(limit 1.03)")
if geomean > 1.03:
    sys.exit("scan guard FAILED: Scan path regressed "
             f"{100 * (geomean - 1):.1f}% vs baseline")
print("scan guard OK")
PYEOF
  fi
fi

if [[ "${STAGE}" == "all" || "${STAGE}" == "asan" ]]; then
  # pin_parity_test runs inside the full ASan ctest sweep below, but is also
  # named explicitly so a filtered/parallel config can never silently drop
  # the accounting-parity gate for the zero-copy pin path.
  run_stage "asan" "build-asan" "address" "" "Debug"
  echo "=== asan: pin parity (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R pin_parity_test)
  # The chaos tier is likewise named explicitly: every factory method under
  # seeded fault plans must answer exactly or with an explicit error Status,
  # and ChaosTest.SameSeedReplaysIdenticalErrorTallies is the deterministic
  # replay gate (same fault seed => byte-identical error and RUM tallies).
  echo "=== asan: chaos tier (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R chaos_test)
  # The scan differential tier is named explicitly: the cross-run index's
  # byte-identical-to-fallback contract (every policy, every range shape,
  # tombstones, compressed runs, post-crash) must hold with ASan watching
  # the cursor/segment machinery.
  echo "=== asan: scan differential tier (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R scan_differential_test)
  # The observability tier is named explicitly too: ring wraparound, drain,
  # and the event-counts-match-device-counters acceptance contract must hold
  # with ASan watching the ring and registry memory.
  echo "=== asan: trace tier (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R trace_test)
  # The compaction-policy tier (every policy differential against the
  # std::map oracle + structural invariants after every flush) and the
  # cost-model validation (predicted vs measured amplifications within
  # tolerance) are named explicitly so the policy/merge machinery always
  # runs with ASan watching the run-shuffling unique_ptr moves.
  echo "=== asan: compaction policy + cost model tiers (explicit) ==="
  (cd build-asan &&
    ctest --output-on-failure -R "compaction_policy_test|cost_model_test")
  # The saturation tier is named explicitly: the scheduler's queue churn
  # (deque pops, batch vectors, coalescing scratch) and the admission
  # controllers must hold their exact ledgers with ASan watching, and the
  # virtual clock keeps the queueing dynamics identical to the Release run.
  echo "=== asan: saturation tier (explicit, with timeout) ==="
  (cd build-asan && ctest --output-on-failure --timeout 300 -R saturation_test)
  # The memory-arbiter tier runs under ASan with the live-resize machinery
  # watched: SetCapacity trims evict real pages, filter rebuilds swap real
  # bloom blocks, and the ledger tests walk every footprint term.
  echo "=== asan: memory-arbiter tier (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R memory_arbiter_test)
  # The MultiGet differential tier is named explicitly: the batched read
  # path's byte-identical-to-Get-loop contract (every factory method, every
  # batch size, duplicates/misses/tombstones, post-crash, faulty loads) must
  # hold with ASan watching the batch grouping and shared page walks.
  echo "=== asan: multiget differential tier (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R multiget_differential_test)
  # core_test is named explicitly for its KeySet differential tier: the flat
  # live-key set's probing, wraparound and backward-shift erase must match
  # std::unordered_set over millions of ops with ASan watching the array.
  echo "=== asan: core / KeySet differential tier (explicit) ==="
  (cd build-asan && ctest --output-on-failure -R core_test)
fi

if [[ "${STAGE}" == "all" || "${STAGE}" == "tsan" ]]; then
  # chaos_test rides in the TSan tier for its concurrent case: sharded
  # methods hammering one shared FaultyDevice + CachingDevice stack while
  # faults inject, with per-worker error tallies absorbing the failures.
  # trace_test rides along for concurrent trace emission: four workers
  # appending to per-thread rings while drawing the shared sequence number.
  # compaction_policy_test rides in the TSan tier too: the chaos tier's
  # concurrent case exercises lsm-lazy/lsm-hybrid merges under sharding,
  # and the differential tier keeps the policy oracle checks in the sweep.
  # scan_differential_test and multiget_differential_test are listed
  # explicitly (the differential_test pattern would match them as
  # substrings, but the dependence should not be load-bearing); the MultiGet
  # tier's concurrent value is the sharded wrapper's per-shard batch
  # dispatch under its shard mutexes.
  # saturation_test rides in the TSan tier for the closed-loop front door:
  # ScheduledMethod's lock-guarded bookkeeping around unlocked inner calls
  # is exactly the shape TSan exists to check.
  # memory_arbiter_test rides along for the arbiter's lock discipline: the
  # lock-free epoch clock, the replan's arbiter-mutex -> component-atomics
  # ordering, and the pool registration/unregistration paths.
  # core_test rides in the TSan tier for its SpinLock cases: four threads
  # bump a plain counter under the spin-then-park lock that guards the cache
  # partitions and the scheduler ledger, so a lock that admitted two holders
  # is a reported race, and a waiter parks and wakes through the futex path.
  # btree_test is single-threaded; it rides along so the in-place leaf
  # edits' page-image parity with the copy path (a write pin taken under a
  # read pin of the same page) also holds in this Debug build, asserts on.
  TSAN_FILTER="-R concurrency_test|differential_test|scan_differential_test|multiget_differential_test|chaos_test|trace_test|compaction_policy_test|saturation_test|memory_arbiter_test|core_test|btree_test"
  if [[ "${RUMLAB_CI_FULL_TSAN:-0}" == "1" ]]; then
    TSAN_FILTER=""
  fi
  run_stage "tsan" "build-tsan" "thread" "${TSAN_FILTER}" "Debug"
fi

echo "=== ci.sh: all requested stages passed ==="
