#!/usr/bin/env sh
# Builds every benchmark and runs the fast ones, emitting BENCH_smoke.json,
# BENCH_compact_scaling.json, BENCH_leaf_scaling.json, BENCH_xy_scaling.json,
# BENCH_io_scaling.json and BENCH_serve_throughput.json — the artifacts CI
# uploads to grow the performance trajectory (schemas: docs/BENCHMARKS.md).
# The xy point doubles as a regression tripwire: the job fails if the
# incremental schedule is not at least as fast per post-first-round iteration
# as the scratch schedule at the 10k-box size. The serve point asserts the
# compile-once path is >= 3x compile-per-request, and (on hosts with >= 4
# cores) that 4 serving threads scale >= 2.5x over 1. That core-gated bar
# stamps its verdict into the serve artifact as a top-level "gate" field:
# "passed", or "skipped_cores<4" when the host was too small to assert. The leaf point also runs the warm-vs-cold schedule pair and
# asserts warm-started re-solves use <= half the post-first-round pivots
# of cold at 32 cells.
#
# Usage: scripts/bench_smoke.sh [build-dir] [smoke.json] [scaling.json]
#                               [leaf.json] [xy.json] [io.json] [serve.json]
set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_smoke.json}"
SCALING_OUT="${3:-BENCH_compact_scaling.json}"
LEAF_OUT="${4:-BENCH_leaf_scaling.json}"
XY_OUT="${5:-BENCH_xy_scaling.json}"
IO_OUT="${6:-BENCH_io_scaling.json}"
SERVE_OUT="${7:-BENCH_serve_throughput.json}"

# Portable core count: nproc is not POSIX (absent on stock macOS).
if command -v nproc >/dev/null 2>&1; then
  JOBS="$(nproc)"
elif JOBS="$(getconf _NPROCESSORS_ONLN 2>/dev/null)" && [ -n "$JOBS" ]; then
  :
else
  JOBS=2
fi

cmake --build "$BUILD_DIR" -j "$JOBS" --target rsg_benchmarks

# run_bench <binary-name> <output.json> [benchmark-filter]
run_bench() {
  bin="$BUILD_DIR/bench/$1"
  out="$2"
  filter="${3:-}"
  if [ ! -x "$bin" ]; then
    echo "error: benchmark binary '$bin' is missing or not executable" >&2
    echo "       (configure with -DRSG_BUILD_BENCH=ON and install Google Benchmark)" >&2
    exit 1
  fi
  "$bin" \
    ${filter:+--benchmark_filter="$filter"} \
    --benchmark_min_time=0.05 \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json
  # Fail loudly on truncated/invalid output rather than uploading junk.
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out"
  echo "wrote $out"
}

run_bench bench_orientations "$OUT"
# The 1k and 10k points of the scaling sweep, and of the adversarial ring
# solves — fast enough for CI (the naive 10k configuration is ~1/3 s per
# repetition). Run the binary with no filter locally for the full
# 1k/10k/50k trajectory and the 1M condensed point.
run_bench bench_compact_scaling "$SCALING_OUT" '/(1000|10000)$'
# The solve_lp sweep at the CI-sized library counts (the full 2..256-cell
# trajectory and the primal-vs-dual table need a local run), plus the
# warm-vs-cold leaf-schedule pair at 8 and 32 cells — the 32-cell pair
# feeds the warm-start gate below. The size alternation is anchored on
# both sides so it cannot accidentally match /128 or /256.
run_bench bench_leaf_scaling "$LEAF_OUT" 'BM_LeafSolveSparseDual/(2|4|8)$|BM_LeafSchedule(Warm|Cold)/(8|32)$'
# The scratch-vs-incremental x/y schedule at the 10k acceptance size (the
# scratch row is the one-shot-pass reference loop of tests/oracles).
run_bench bench_xy_scaling "$XY_OUT" '/10000$'
# The streaming I/O pipeline at the 100k size (the bounded-buffer contract
# is asserted inside the benchmark — a violation turns into an error_occurred
# entry and fails the JSON check below). The 1M acceptance point needs an
# unfiltered local run.
run_bench bench_io_scaling "$IO_OUT" '/100000$'
# The serving stack: compile-once vs compile-per-request, the 1/2/4/8-thread
# sweep, and cache cold vs hit.
run_bench bench_serve_throughput "$SERVE_OUT"

# A benchmark that tripped its in-bench assertion still writes JSON; fail
# on any error_occurred entry rather than uploading a poisoned artifact.
python3 - "$IO_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
errors = [b["name"] for b in data.get("benchmarks", []) if b.get("error_occurred")]
if errors:
    sys.exit("error: benchmarks failed their in-bench assertions: " + ", ".join(errors))
EOF

# Regression tripwire: the incremental schedule must never be SLOWER than
# the scratch schedule per post-first-round iteration at the 10k size. The
# local acceptance bar is >= 2x; CI only enforces >= 1.0x so shared-runner
# noise cannot flake the job, but a real regression fails loudly.
python3 - "$XY_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
post = {}
for bench in data.get("benchmarks", []):
    name = bench.get("name", "")
    if name.endswith("/10000") and "post_round_ms" in bench:
        post[name.split("/")[0]] = bench["post_round_ms"]
scratch = post.get("BM_XyScheduleScratch")
incremental = post.get("BM_XyScheduleIncremental")
if scratch is None or incremental is None:
    sys.exit("error: BENCH_xy_scaling.json is missing the 10k post_round_ms counters")
speedup = scratch / incremental if incremental else float("inf")
print(f"xy schedule 10k post-first-round: scratch {scratch:.2f} ms, "
      f"incremental {incremental:.2f} ms, speedup {speedup:.2f}x")
if speedup < 1.0:
    sys.exit(f"error: incremental x/y schedule regressed below scratch ({speedup:.2f}x < 1.0x)")
EOF

# Warm-start tripwire: at the 32-cell leaf schedule, carrying the previous
# round's basis must at least HALVE the post-first-round pivot count vs
# re-solving cold — the acceptance bar for the warm-started dual re-solves.
# The first round is excluded on both sides (it is always cold), and the
# warm run must actually have adopted carried bases (warm_accepted > 0) so
# a silently-declining warm path cannot pass by accident.
python3 - "$LEAF_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
rows = {b["name"]: b for b in data.get("benchmarks", []) if "post_round_pivots" in b}
warm = rows.get("BM_LeafScheduleWarm/32")
cold = rows.get("BM_LeafScheduleCold/32")
if warm is None or cold is None:
    sys.exit("error: BENCH_leaf_scaling.json is missing the 32-cell warm/cold schedule pair")
wp, cp = warm["post_round_pivots"], cold["post_round_pivots"]
accepted = warm.get("warm_accepted", 0)
print(f"leaf schedule 32 cells: post-first-round pivots warm {wp:.0f} vs cold {cp:.0f} "
      f"({cp / wp if wp else float('inf'):.2f}x), warm bases adopted {accepted:.0f}")
if accepted <= 0:
    sys.exit("error: the warm schedule adopted no carried bases (warm_accepted == 0)")
if wp * 2 > cp:
    sys.exit(f"error: warm-start pivot reduction below the 2x acceptance bar "
             f"(warm {wp:.0f} vs cold {cp:.0f})")
EOF

# Serving tripwires. (1) Compile-once must amortize the sample/AST work:
# >= 3x over compile-per-request, on any host — the ratio is CPU-bound and
# does not depend on core count. (2) 4 serving threads must be >= 2.5x the
# 1-thread rate — but only asserted when the host actually has >= 4 cores
# (the `cores` counter in the artifact records hardware_concurrency); on
# smaller runners the sweep is still recorded for the trajectory.
python3 - "$SERVE_OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
by_name = {b["name"]: b for b in data.get("benchmarks", []) if "real_time" in b}

per_request = by_name.get("BM_ServeCompilePerRequest")
once = by_name.get("BM_ServeCompileOnce")
if per_request is None or once is None:
    sys.exit("error: BENCH_serve_throughput.json is missing the compile-once pair")
speedup = per_request["real_time"] / once["real_time"] if once["real_time"] else float("inf")
print(f"serve compile-once: per-request {per_request['real_time']:.2f} ms, "
      f"compile-once {once['real_time']:.2f} ms, speedup {speedup:.2f}x")
if speedup < 3.0:
    sys.exit(f"error: compile-once speedup below the 3x acceptance bar ({speedup:.2f}x)")

sweep = {int(b["pool_threads"]): b for b in by_name.values()
         if b["name"].startswith("BM_ServeThreadSweep") and "pool_threads" in b}
one, four = sweep.get(1), sweep.get(4)
if one is None or four is None:
    sys.exit("error: BENCH_serve_throughput.json is missing the 1/4-thread sweep points")
cores = int(one.get("cores", 0))
scaling = one["real_time"] / four["real_time"] if four["real_time"] else float("inf")
print(f"serve thread sweep: 1t {one['real_time']:.2f} ms, 4t {four['real_time']:.2f} ms, "
      f"scaling {scaling:.2f}x on {cores} core(s)")
# Stamp the thread-scaling verdict into the artifact: a skipped bar must be
# legible as skipped, not indistinguishable from a pass.
data["gate"] = "passed" if cores >= 4 else "skipped_cores<4"
with open(sys.argv[1], "w") as f:
    json.dump(data, f, indent=1)
if cores >= 4 and scaling < 2.5:
    sys.exit(f"error: 1->4 thread scaling below the 2.5x acceptance bar ({scaling:.2f}x)")
if cores < 4:
    print(f"note: thread-scaling bar skipped (host has {cores} core(s), bar needs >= 4); "
          f"artifact stamped gate=skipped_cores<4")
EOF

# Every artifact CI uploads must exist and be non-empty — a silently
# skipped benchmark must fail the job, not upload a hole in the trajectory.
# Each must also be documented in docs/BENCHMARKS.md: an artifact nobody can
# interpret is as bad as a missing one.
status=0
# check_artifact <path> <canonical-name>: the path may be caller-overridden,
# so the documentation grep uses the canonical CI artifact name.
check_artifact() {
  if [ ! -s "$1" ]; then
    echo "error: expected benchmark artifact '$1' was not produced" >&2
    status=1
  fi
  if [ -f docs/BENCHMARKS.md ] && ! grep -q "$2" docs/BENCHMARKS.md; then
    echo "error: artifact '$2' is not documented in docs/BENCHMARKS.md" >&2
    status=1
  fi
}
check_artifact "$OUT" BENCH_smoke.json
check_artifact "$SCALING_OUT" BENCH_compact_scaling.json
check_artifact "$LEAF_OUT" BENCH_leaf_scaling.json
check_artifact "$XY_OUT" BENCH_xy_scaling.json
check_artifact "$IO_OUT" BENCH_io_scaling.json
check_artifact "$SERVE_OUT" BENCH_serve_throughput.json
exit "$status"
