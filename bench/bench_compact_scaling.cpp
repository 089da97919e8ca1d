// The compaction hot path at scale (§6.4): constraint generation plus
// longest-path solving on synthetic RAM-style grids of 1k/10k/50k/1M boxes.
//
// Three configurations sweep each size:
//   naive      the §6.4.1 overconstraining pairwise generator (O(n^2) pairs)
//              plus the pass-based Bellman–Ford solver
//   scanline   the visibility scan-line generator (sweep net finder +
//              ordered-segment profile) plus the pass-based solver
//   condensed  compact_flat as the product runs it: the scan-line generator
//              plus the condensed solver (SCCs in topological order)
//
// compact_flat always runs the condensed solver, so the naive and scanline
// rows assemble their pass the same way (normalize, build, solve, read the
// geometry back) from the product's pass helpers plus the naive generator
// and the pass-based solver of the test support library (tests/oracles).
// The condensed row also runs a 1M-box field, the top of the trajectory.
//
// The solve-only rows time the condensed solver on adversarial rings:
//   BM_SolveInfeasibleRing   n variables in one SCC whose single +1 edge
//                            makes a positive cycle (plus -5 back edges);
//                            the predecessor walk refuses it after O(n)
//                            relaxations
//   BM_SolveZeroCycleRing    the same ring with zero weights both ways and
//                            one anchor: feasible, every member equal
//
// CI runs the 1k/10k sizes via scripts/bench_smoke.sh and uploads the JSON
// as BENCH_compact_scaling.json; run the binary with no filter for the full
// trajectory (the 1M point takes seconds to minutes).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "oracles/pass_based_solver.hpp"
#include "oracles/reference_constraints.hpp"
#include "oracles/synth_design.hpp"
#include "support/error.hpp"

namespace {

using namespace rsg;
using namespace rsg::compact;

// Lazy per size: a filtered run (CI smoke) must not pay for the fields it
// never touches — the 1M grid alone is ~40 MB and seconds to synthesize.
const SynthField& field_of_size(int boxes) {
  if (boxes <= 1000) {
    static const SynthField field = make_grid_field_of_size(1000);
    return field;
  }
  if (boxes <= 10000) {
    static const SynthField field = make_grid_field_of_size(10000);
    return field;
  }
  if (boxes <= 50000) {
    static const SynthField field = make_grid_field_of_size(50000);
    return field;
  }
  static const SynthField field = make_grid_field_of_size(1000000);
  return field;
}

struct PassResult {
  std::size_t constraint_count = 0;
  Coord width_after = 0;
};

// One x pass of the configuration `mode` names.
PassResult compact_once(const SynthField& field, const char* mode) {
  if (mode[0] == 'c') {  // condensed
    const FlatResult result =
        compact_flat(field.boxes, CompactionRules::mosis(), {}, field.stretchable);
    return {result.constraint_count, result.width_after};
  }
  Coord width_before = 0;
  std::vector<CompactionBox> boxes =
      normalized_compaction_boxes(field.boxes, field.stretchable, width_before);
  ConstraintSystem system;
  add_box_variables(system, boxes);
  if (mode[0] == 'n') {
    oracle::generate_constraints_naive(system, boxes, CompactionRules::mosis());
  } else {
    generate_constraints(system, boxes, CompactionRules::mosis());
  }
  oracle::solve_leftmost(system, oracle::EdgeOrder::kSorted);
  // Read the geometry back as compact_flat does, so every row pays the
  // same output cost.
  PassResult result;
  result.constraint_count = system.constraint_count();
  std::vector<LayerBox> out;
  result.width_after = read_solved_boxes(system, boxes, out);
  benchmark::DoNotOptimize(out.data());
  return result;
}

void run_mode(benchmark::State& state, const char* mode) {
  const SynthField& field = field_of_size(static_cast<int>(state.range(0)));
  PassResult result;
  for (auto _ : state) {
    result = compact_once(field, mode);
    benchmark::DoNotOptimize(result.width_after);
  }
  state.counters["boxes"] = static_cast<double>(field.boxes.size());
  state.counters["constraints"] = static_cast<double>(result.constraint_count);
  state.counters["width_after"] = static_cast<double>(result.width_after);
}

void BM_CompactNaive(benchmark::State& state) { run_mode(state, "naive"); }
void BM_CompactScanline(benchmark::State& state) { run_mode(state, "scanline"); }
void BM_CompactCondensed(benchmark::State& state) { run_mode(state, "condensed"); }

BENCHMARK(BM_CompactNaive)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactScanline)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactCondensed)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// n variables: v -> v+1 weighted `forward`, v[n-1] -> v[0] weighted
// `closing`, v+1 -> v weighted `back`, and an anchor lifting v[n/2] to 7.
ConstraintSystem ring_system(int n, Coord forward, Coord closing, Coord back) {
  ConstraintSystem system;
  for (int i = 0; i < n; ++i) system.add_variable("r" + std::to_string(i), i);
  for (int i = 0; i + 1 < n; ++i) system.add_constraint(i, i + 1, forward, ConstraintKind::kSpacing);
  system.add_constraint(n - 1, 0, closing, ConstraintKind::kSpacing);
  for (int i = 0; i + 1 < n; ++i) system.add_constraint(i + 1, i, back, ConstraintKind::kSpacing);
  system.add_constraint(-1, n / 2, 7, ConstraintKind::kAnchor);
  return system;
}

void BM_SolveInfeasibleRing(benchmark::State& state) {
  ConstraintSystem system = ring_system(static_cast<int>(state.range(0)), 0, 1, -5);
  std::size_t refused = 0;
  for (auto _ : state) {
    try {
      solve_leftmost_condensed(system);
    } catch (const Error&) {
      ++refused;
    }
  }
  if (refused != static_cast<std::size_t>(state.iterations())) {
    state.SkipWithError("the positive ring was not refused");
  }
  state.counters["variables"] = static_cast<double>(system.variable_count());
  state.counters["constraints"] = static_cast<double>(system.constraint_count());
}

void BM_SolveZeroCycleRing(benchmark::State& state) {
  ConstraintSystem system = ring_system(static_cast<int>(state.range(0)), 0, 0, 0);
  SolveStats stats;
  for (auto _ : state) {
    stats = solve_leftmost_condensed(system);
    benchmark::DoNotOptimize(system.values.data());
  }
  state.counters["variables"] = static_cast<double>(system.variable_count());
  state.counters["relaxations"] = static_cast<double>(stats.relaxations);
  state.counters["pops"] = static_cast<double>(stats.pops);
}

BENCHMARK(BM_SolveInfeasibleRing)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SolveZeroCycleRing)->Arg(10000)->Unit(benchmark::kMillisecond);

double time_once(int boxes, const char* mode) {
  const SynthField& field = field_of_size(boxes);
  const auto start = std::chrono::steady_clock::now();
  const PassResult result = compact_once(field, mode);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result.width_after);
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void print_scaling_table() {
  std::printf("== compaction hot path at scale (§6.4) ==\n");
  std::printf("%-8s %-14s %-14s %-14s %-10s\n", "boxes", "naive(ms)", "scanline(ms)",
              "condensed(ms)", "speedup");
  for (const int n : {1000, 10000}) {
    const double naive = time_once(n, "naive");
    const double scan = time_once(n, "scanline");
    const double condensed = time_once(n, "condensed");
    std::printf("%-8zu %-14.2f %-14.2f %-14.2f %-10.1f\n", field_of_size(n).boxes.size(), naive,
                scan, condensed, naive / condensed);
  }
  std::printf("speedup = naive / (scanline generation + condensed solve); the\n");
  std::printf("acceptance bar is >= 10x at the 10k size. 50k sizes run under\n");
  std::printf("the registered benchmarks below (or --benchmark_filter=/50000).\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The summary table costs unfiltered full runs (the naive 10k case is
  // ~1/3 s), so only print it for a bare invocation — filtered CI smoke
  // runs and --benchmark_list_tests skip straight to the harness.
  if (argc == 1) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
