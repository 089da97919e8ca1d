// The compaction hot path at scale (§6.4): constraint generation plus
// longest-path solving on synthetic RAM-style grids of 1k/10k/50k/1M boxes.
//
// Three configurations sweep each size:
//   naive     the §6.4.1 overconstraining pairwise generator (O(n^2) pairs)
//             plus the pass-based Bellman–Ford solver
//   scanline  the visibility scan-line generator (sweep net finder +
//             ordered-segment profile) plus the pass-based solver
//   worklist  the scan-line generator plus the SPFA-style worklist solver
//
// The worklist row also runs a 1M-box field, the top of the trajectory.
//
// CI runs the 1k/10k sizes via scripts/bench_smoke.sh and uploads the JSON
// as BENCH_compact_scaling.json; run the binary with no filter for the full
// trajectory (the 1M point takes seconds to minutes).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "compact/flat_compactor.hpp"
#include "compact/synth_design.hpp"

namespace {

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

FlatOptions options_for(const char* mode) {
  FlatOptions options;
  if (mode[0] == 'n') {  // naive
    options.naive_constraints = true;
    options.solver = SolverKind::kPassBased;
  } else if (mode[0] == 's') {  // scanline
    options.solver = SolverKind::kPassBased;
  } else {  // worklist
    options.solver = SolverKind::kWorklist;
  }
  return options;
}

void run_mode(benchmark::State& state, const char* mode) {
  const SynthField& field = field_of_size(static_cast<int>(state.range(0)));
  const FlatOptions options = options_for(mode);
  FlatResult result;
  for (auto _ : state) {
    result = compact_flat(field.boxes, CompactionRules::mosis(), options, field.stretchable);
    benchmark::DoNotOptimize(result.width_after);
  }
  state.counters["boxes"] = static_cast<double>(field.boxes.size());
  state.counters["constraints"] = static_cast<double>(result.constraint_count);
  state.counters["width_after"] = static_cast<double>(result.width_after);
}

void BM_CompactNaive(benchmark::State& state) { run_mode(state, "naive"); }
void BM_CompactScanline(benchmark::State& state) { run_mode(state, "scanline"); }
void BM_CompactWorklist(benchmark::State& state) { run_mode(state, "worklist"); }

BENCHMARK(BM_CompactNaive)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactScanline)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompactWorklist)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

double time_once(int boxes, const char* mode) {
  const SynthField& field = field_of_size(boxes);
  const FlatOptions options = options_for(mode);
  const auto start = std::chrono::steady_clock::now();
  const FlatResult result =
      compact_flat(field.boxes, CompactionRules::mosis(), options, field.stretchable);
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result.width_after);
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void print_scaling_table() {
  std::printf("== compaction hot path at scale (§6.4) ==\n");
  std::printf("%-8s %-14s %-14s %-14s %-10s\n", "boxes", "naive(ms)", "scanline(ms)",
              "worklist(ms)", "speedup");
  for (const int n : {1000, 10000}) {
    const double naive = time_once(n, "naive");
    const double scan = time_once(n, "scanline");
    const double work = time_once(n, "worklist");
    std::printf("%-8zu %-14.2f %-14.2f %-14.2f %-10.1f\n", field_of_size(n).boxes.size(), naive,
                scan, work, naive / work);
  }
  std::printf("speedup = naive / (scanline generation + worklist solve); the\n");
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
