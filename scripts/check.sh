#!/usr/bin/env bash
# Repository check.
#
# Full mode (default, what CI always runs):
#   1. tier-1 verify: configure + build + ctest (includes the osp_lint
#      selftest + clean-tree pass registered as ctest tests);
#   2. bench-JSON schema check: every BENCH_*.json artifact parses and
#      carries the keys the perf trajectory depends on;
#   3. invariant lint: scripts/osp_lint.py fixture selftest + the src/
#      tree pass (redundant with ctest when GTest/Python are present —
#      explicit here so a missing interpreter can't silently drop it);
#   4. clang-tidy baseline: scripts/run_tidy.sh diffs the curated check
#      set against scripts/tidy_baseline.txt (SKIPs with a notice when
#      clang-tidy is not installed; the CI analysis job requires it);
#   5. examples smoke: runs osp_cli end to end off the policy/scenario
#      registries (list, gen | run pipe, a small bench grid) plus
#      quickstart, so the examples cannot silently rot;
#   6. shard smoke: bench --shard / merge bit-identity round trip;
#   7. adversarial dashboard: BENCH_adversarial.json regenerates byte-
#      identically, re-passes the paper's-bounds gates, and the theorem3
#      smoke grid shards/merges bit-identically; BENCH_uniform.json and
#      BENCH_capacity.json (the generator artifacts) regenerate
#      byte-identically too;
#   8. ASan/UBSan build of the engine-critical tests plus a sanitized
#      `bench_router --smoke`, and the forced-ISA equivalence sweep;
#   9. TSan: a -DOSP_SANITIZE=thread build of the threaded suites
#      (test_engine's 1/2/5-thread batch determinism, test_serve's
#      workers-1/2/4 equivalence) and the sustained serving smoke at
#      --workers 4, under scripts/tsan.supp — a data race in the barrier
#      or tally-merge paths fails the check even when the deterministic
#      output happens to look right.
#
# Quick mode (scripts/check.sh --quick, for local iteration):
#   runs stages 1-3 only and PRINTS the stages it skipped, so what CI
#   will additionally run is always visible.  CI never uses --quick; a
#   change is not green until the full script passes.
#
# Tidy mode (scripts/check.sh --tidy): stage 4 alone, for iterating on
#   tidy findings without rebuilding the world.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=full
for arg in "$@"; do
  case "$arg" in
    --quick) mode=quick ;;
    --tidy) mode=tidy ;;
    *) echo "usage: scripts/check.sh [--quick | --tidy]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

if [[ "${mode}" == "tidy" ]]; then
  echo "== clang-tidy baseline (scripts/run_tidy.sh) =="
  scripts/run_tidy.sh
  exit 0
fi

echo "== tier-1: configure + build + ctest =="
cmake -B build -S .
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

echo
echo "== bench artifacts: BENCH_*.json schema check =="
python3 scripts/check_bench_json.py

echo
echo "== invariant lint: osp_lint selftest + src/ tree =="
python3 scripts/osp_lint.py --selftest
python3 scripts/osp_lint.py

if [[ "${mode}" == "quick" ]]; then
  echo
  echo "== quick mode: SKIPPED stages (CI runs them all) =="
  echo "   - clang-tidy baseline (scripts/run_tidy.sh; or check.sh --tidy)"
  echo "   - examples smoke (osp_cli + quickstart)"
  echo "   - shard smoke (bench --shard / merge bit-identity)"
  echo "   - ASan/UBSan suites + forced-ISA sweep + bench_router --smoke"
  echo "   - TSan threaded suites + sustained smoke"
  echo "== all quick checks passed =="
  exit 0
fi

echo
echo "== clang-tidy baseline (scripts/run_tidy.sh) =="
scripts/run_tidy.sh

echo
echo "== examples smoke: osp_cli (registry-driven) + quickstart =="
./build/osp_cli list > /dev/null
./build/osp_cli gen random --seed 3 | ./build/osp_cli run --alg randpr
./build/osp_cli bench --scenario random --alg randpr,greedy:maxw --trials 50
# Config-file scenario (with a sweep axis) and the buffered-ranker mode.
printf '%s\n' 'scenario = regular' 'm = 12' 'sigma = 3' 'sweep.k = 2,3' \
  > build/check_demo.cfg
./build/osp_cli bench --config build/check_demo.cfg --alg randpr --trials 20
./build/osp_cli bench --scenario router/buffered-smoke \
  --ranker randPr,drop-tail --trials 4
# Sustained serving runtime: a multi-worker smoke run (each row carries a
# serial-reference cross-check) and the unknown-scenario error path,
# which must enumerate the catalog rather than fail bare.
./build/osp_cli bench --scenario sustained/steady-smoke --sustained \
  --workers 2
if ./build/osp_cli bench --scenario sustained/no-such --sustained \
    2> build/check_sustained_err.txt; then
  echo "unknown sustained scenario unexpectedly succeeded" >&2
  exit 1
fi
grep -q "registered scenarios" build/check_sustained_err.txt
rm -f build/check_sustained_err.txt
# docs/CATALOG.md is generated output: regenerate and fail on drift.
./build/osp_cli list --markdown | diff -u docs/CATALOG.md -
./build/quickstart > /dev/null

echo
echo "== shard smoke: bench --shard / merge bit-identity =="
# The sharding contract end to end: the dry-run cell list, a 3-shard
# split of a small sweep, the partial-format validator, and a merge that
# must reproduce the unsharded BENCH artifact byte for byte.  CI's
# shard-matrix job runs the same check over the larger catalog sweeps.
rm -f BENCH_shardsmoke.json build/shardsmoke_*.part build/shardsmoke_merged.json
./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
  --trials 3 --seed 11 --dry-run > /dev/null
./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
  --trials 3 --seed 11 --json shardsmoke > /dev/null
for i in 0 1 2; do
  ./build/osp_cli bench --scenario engine/ladder --alg randpr,greedy:maxw \
    --trials 3 --seed 11 --json shardsmoke \
    --shard "$i/3" --out "build/shardsmoke_$i.part" > /dev/null
done
python3 scripts/check_bench_json.py build/shardsmoke_*.part
./build/osp_cli merge build/shardsmoke_*.part --out build/shardsmoke_merged.json
cmp BENCH_shardsmoke.json build/shardsmoke_merged.json
# Overlapping partials must fail with an enumerated error, not merge.
if ./build/osp_cli merge build/shardsmoke_0.part build/shardsmoke_0.part \
    build/shardsmoke_1.part build/shardsmoke_2.part \
    --out build/shardsmoke_bad.json 2> build/shardsmoke_err.txt; then
  echo "overlapping-partials merge unexpectedly succeeded" >&2
  exit 1
fi
grep -q "overlap" build/shardsmoke_err.txt
rm -f BENCH_shardsmoke.json build/shardsmoke_*.part \
  build/shardsmoke_merged.json build/shardsmoke_err.txt

echo
echo "== adversarial dashboard: regenerate + gates + shard smoke =="
# BENCH_adversarial.json has no wall-clock fields: regenerating it must
# reproduce the committed artifact byte for byte and re-pass the
# paper's-bounds gates in check_bench_json.py.  The theorem3 smoke grid
# then exercises the adversarial families through the generic shard
# pipeline (CI's examples job runs the same probe at N in {1, 2}).
# The results are thread-count-independent; OSP_THREADS pins only the
# preamble's recorded worker count to the committed value.
OSP_THREADS=1 ./build/bench_adversarial > /dev/null
git diff --exit-code BENCH_adversarial.json
# BENCH_uniform.json and BENCH_capacity.json are timing-free too and come
# from the random instance generators: a change to any generated
# instance's bytes or RNG draws shows up as a diff here.
OSP_THREADS=1 ./build/bench_uniform > /dev/null
OSP_THREADS=1 ./build/bench_capacity > /dev/null
git diff --exit-code BENCH_uniform.json BENCH_capacity.json
python3 scripts/check_bench_json.py BENCH_adversarial.json
rm -f BENCH_advsmoke.json build/advsmoke_*.part build/advsmoke_merged.json
./build/osp_cli bench --scenario adversarial/theorem3-smoke \
  --alg randpr,greedy:first --trials 25 --seed 11 --json advsmoke > /dev/null
for i in 0 1; do
  ./build/osp_cli bench --scenario adversarial/theorem3-smoke \
    --alg randpr,greedy:first --trials 25 --seed 11 --json advsmoke \
    --shard "$i/2" --out "build/advsmoke_$i.part" > /dev/null
done
python3 scripts/check_bench_json.py build/advsmoke_*.part
./build/osp_cli merge build/advsmoke_*.part --out build/advsmoke_merged.json
cmp BENCH_advsmoke.json build/advsmoke_merged.json
rm -f BENCH_advsmoke.json build/advsmoke_*.part build/advsmoke_merged.json

echo
echo "== sanitizers: ASan/UBSan build of fuzz + engine + queue tests =="
cmake -B build-asan -S . -DOSP_SANITIZE=ON
cmake --build build-asan -j "${jobs}" --target test_fuzz test_engine test_game test_instance test_rand_pr test_net test_queue test_serve test_simd bench_router
(cd build-asan && ctest --output-on-failure -R 'test_(fuzz|engine|game|instance|rand_pr|net|queue|serve|simd)')

echo
echo "== sanitizers: forced-ISA decision equivalence smoke =="
# Every ISA tier this CPU can run must produce identical decisions under
# ASan/UBSan; the available set comes from the version subcommand so the
# loop adapts to the host (scalar-only, x86, aarch64) automatically.
isas="$(./build/osp_cli version | sed -n 's/^isa\.available: //p')"
echo "available tiers: ${isas}"
for isa in ${isas}; do
  echo "-- OSP_FORCE_ISA=${isa}"
  (cd build-asan && OSP_FORCE_ISA="${isa}" \
    ctest --output-on-failure -R 'test_(simd|engine)' > /dev/null)
done
# Forcing an unknown ISA must fail loudly — never fall back silently.
if OSP_FORCE_ISA=bogus ./build/osp_cli version > /dev/null 2>&1; then
  echo "OSP_FORCE_ISA=bogus unexpectedly succeeded" >&2
  exit 1
fi

echo
echo "== sanitizers: bench_router --smoke (heap vs sort cross-check) =="
(cd build-asan && ./bench_router --smoke)

echo
echo "== TSan: threaded suites + sustained smoke (race detection) =="
# The determinism proofs (batch runner at 1/2/5 threads, serve workers
# 1/2/4 vs the serial reference) assert equal OUTPUT; ThreadSanitizer
# asserts the stronger property that no heap cell is ever touched by two
# threads without a happens-before edge, so a benign-looking race cannot
# hide behind a lucky schedule.  scripts/tsan.supp is empty on purpose.
cmake -B build-tsan -S . -DOSP_SANITIZE=thread
cmake --build build-tsan -j "${jobs}" --target test_engine test_serve osp_cli
export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp"
(cd build-tsan && ctest --output-on-failure -R 'test_(engine|serve)')
./build-tsan/osp_cli bench --scenario sustained/steady-smoke --sustained \
  --workers 4
unset TSAN_OPTIONS

echo
echo "== all checks passed =="
