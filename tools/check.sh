#!/usr/bin/env bash
# CI-style driver: configure + build + mediation lint + sanitized tests in
# one command.
#
#   tools/check.sh                 # ubsan-asan preset (the default gate)
#   tools/check.sh asan            # any preset from CMakePresets.json
#   tools/check.sh tsan
#   tools/check.sh --metrics       # additionally smoke the BENCH_*.json path
#   tools/check.sh --bench         # additionally run the repository
#                                  # benchmark's self-test (perfbench/) and
#                                  # smoke the perf benches (bench_hotpath,
#                                  # bench_table1, bench_lint, bench_fleet,
#                                  # bench_audit + the trajectory diff gate)
#   JOBS=4 tools/check.sh          # override parallelism
#
# --metrics and --bench combine, in any order, before the preset name.
# Exits nonzero on the first failing stage. clang-tidy runs only when the
# binary is installed (the container image does not ship it).
set -euo pipefail

cd "$(dirname "$0")/.."

METRICS=0
BENCH=0
while [ $# -gt 0 ]; do
  case "$1" in
    --metrics) METRICS=1; shift ;;
    --bench)   BENCH=1; shift ;;
    *) break ;;
  esac
done

PRESET="${1:-ubsan-asan}"
JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="build-${PRESET}"
[ "$PRESET" = "default" ] && BUILD_DIR="build"

step() { printf '\n=== %s ===\n' "$*"; }

step "configure (preset: $PRESET)"
cmake --preset "$PRESET"

step "build"
cmake --build --preset "$PRESET" -j "$JOBS"

step "overhaul-lint (mediation + concurrency + domain invariants R1-R13, SARIF validated)"
"./$BUILD_DIR/tools/lint/overhaul-lint" \
  --root src --rules tools/lint/overhaul_lint.rules \
  --baseline tools/lint/overhaul_lint.baseline \
  --cache "$BUILD_DIR/overhaul_lint.cache" \
  --sarif "$BUILD_DIR/overhaul_lint.sarif" --stats
"./$BUILD_DIR/tools/obs/json_check" "$BUILD_DIR/overhaul_lint.sarif"
# The SARIF must carry the concurrency and domain rule metadata — a
# regression that silently drops R8-R13 would otherwise pass the
# clean-tree run.
for rule in R8 R9 R10 R11 R12 R13; do
  grep -q "\"id\":\"$rule\"" "$BUILD_DIR/overhaul_lint.sarif" || {
    echo "missing rule $rule in overhaul_lint.sarif" >&2; exit 1; }
done

step "ctest (preset: $PRESET)"
ctest --preset "$PRESET" -j "$JOBS"

# The Wayland-backend battery runs again by name so a regression in the
# second backend is called out as its own stage even when the full suite
# above already covered it (and so sanitizer presets gate it explicitly).
step "ctest -R wl (Wayland backend battery)"
(cd "$BUILD_DIR" && ctest -R '^wl' --output-on-failure -j "$JOBS")

# Same rationale for the concurrency & determinism battery: the analyzer's
# dataflow suites plus the whole-tree R8-R10 run gate as a named stage.
step "ctest lint concurrency battery (R8-R10)"
(cd "$BUILD_DIR" &&
  ctest -R '^lint\.(concurrency|DataflowRules|ExtractMembers|ExtractFlow|Explain|Cache)' \
    --output-on-failure -j "$JOBS")

# And for the domain-aware battery: clock-domain soundness, decision/audit
# completeness, and barrier discipline (R11-R13) gate as a named stage —
# the domain-typed taint suites plus the whole-tree lint.domains run.
step "ctest lint domain battery (R11-R13)"
(cd "$BUILD_DIR" &&
  ctest -R '^lint\.(domains|DomainRules|DecisionAudit|BarrierLanes)' \
    --output-on-failure -j "$JOBS")

# The binary audit pipeline gates as its own stage: ring/intern semantics,
# snapshot round-trip + corrupt-stream rejection, and the facade's
# line-for-line equivalence with the text log (incl. the audit_dump CLI run
# as a subprocess) — DESIGN.md §16.
step "ctest -R audit (binary audit pipeline battery)"
(cd "$BUILD_DIR" && ctest -R '^audit\.' --output-on-failure -j "$JOBS")

# The multi-seat fleet battery gates as its own stage: shard lifecycle and
# isolation plus the cross-shard P2 oracle property test (DESIGN.md §14),
# and the parallel-vs-serial engine equivalence test (DESIGN.md §15).
step "ctest -R fleet (multi-seat fleet battery)"
(cd "$BUILD_DIR" && ctest -R '^fleet' --output-on-failure -j "$JOBS")

# Every build type compiles under -Werror: GCC's -O3 inlining in Release
# reaches warnings the RelWithDebInfo presets never see.
step "Release build (-DCMAKE_BUILD_TYPE=Release, -Werror)"
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "$JOBS"

# The parallel engine's race gate: the fleet + simulation-core batteries
# (whose tests spawn up to 8-lane worker pools) rebuilt and re-run under
# ThreadSanitizer. Skipped when this whole run already uses the tsan preset.
if [ "$PRESET" != "tsan" ]; then
  step "tsan engine battery (fleet.* + sim.* under ThreadSanitizer)"
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j "$JOBS" --target fleet_test sim_test
  (cd build-tsan && ctest -R '^(fleet|sim)\.' --output-on-failure -j "$JOBS")
fi

if [ "$METRICS" = 1 ]; then
  step "metrics smoke (bench_table1 --quick + strict JSON validation)"
  (cd "$BUILD_DIR" && ./bench/bench_table1 --quick >/dev/null &&
    ./tools/obs/json_check BENCH_table1.json)
fi

if [ "$BENCH" = 1 ]; then
  # The repository benchmark (BENCHMARK.json) builds src/ itself, into the
  # git-ignored .bench_build/ (about a minute the first time), and its
  # self-test runs every workload briefly against its decision oracle, so a
  # src/ change that breaks the harness fails here rather than at
  # benchmark time.
  step "perfbench --selftest (repository benchmark harness)"
  python3 perfbench/run.py --selftest

  step "bench smoke (bench_hotpath + bench_table1 wl, --quick)"
  (cd "$BUILD_DIR" &&
    ./bench/bench_hotpath --quick >/dev/null &&
    ./tools/obs/json_check BENCH_hotpath.json &&
    ./bench/bench_table1 --quick --backend=wl >/dev/null &&
    ./tools/obs/json_check BENCH_table1_wl.json)

  # Gated Table-I run: --ci keeps 5 repetitions + warmup so each row's
  # ratio_min/ratio_max interval is real, then bench_gate passes rows whose
  # interval straddles 1.0 (noise) or sits below it (improvement) and fails
  # only when a whole interval exceeds the threshold — a CI-bounds verdict,
  # not a point-estimate one.
  step "bench_table1 --ci + bench_gate (interval gate on ratio CI bounds)"
  (cd "$BUILD_DIR" &&
    ./bench/bench_table1 --ci >/dev/null &&
    ./tools/obs/json_check BENCH_table1.json &&
    ./tools/obs/bench_gate --threshold=1.25 --min-reps=5 BENCH_table1.json)

  step "bench_fleet --quick (multi-seat fleet smoke + BENCH_fleet.json)"
  (cd "$BUILD_DIR" &&
    ./bench/bench_fleet --quick &&
    ./tools/obs/json_check BENCH_fleet.json)

  # Binary audit append vs the text log path: the ratio is the reproduced
  # quantity (gated >= 3x inside the bench in optimized builds), and the
  # JSON feeds the trajectory diff below.
  step "bench_audit --quick (binary vs text append gate + BENCH_audit.json)"
  (cd "$BUILD_DIR" &&
    ./bench/bench_audit --quick &&
    ./tools/obs/json_check BENCH_audit.json)

  # Trajectory gate: this run's headline metrics (fleet decisions/sec, the
  # hot-path ns/op family, the binary audit speedup) against the committed
  # previous values. Catches order-of-magnitude mistakes; refresh with
  # bench_diff --update when a change legitimately moves a metric.
  step "bench trajectory diff (vs tools/bench_baseline.json)"
  (cd "$BUILD_DIR" &&
    ./tools/obs/bench_diff --baseline=../tools/bench_baseline.json \
      --threshold=25 BENCH_fleet.json BENCH_hotpath.json BENCH_audit.json)

  step "bench_lint (analyzer cold/warm cache gate, --quick)"
  (cd "$BUILD_DIR" &&
    ./bench/bench_lint --quick &&
    ./tools/obs/json_check BENCH_lint.json)
fi

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy (src/ + tools/)"
  # The preset build dirs carry compile_commands.json when the generator
  # supports it; fall back to a plain include flag otherwise.
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    git ls-files 'src/*.cpp' 'tools/*.cpp' |
      xargs clang-tidy -p "$BUILD_DIR" --quiet
  else
    git ls-files 'src/*.cpp' 'tools/*.cpp' |
      xargs clang-tidy --quiet -- -std=c++20 -Isrc -Itools/lint
  fi
else
  step "clang-tidy not installed — skipping (config: .clang-tidy)"
fi

step "all checks passed"
