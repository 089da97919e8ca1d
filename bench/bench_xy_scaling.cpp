// The x/y schedule at scale: scratch rebuilds vs the incremental engine
// (dirty-band regeneration + warm-started solves) on synthetic RAM-style
// grids of 1k/10k/50k boxes. The incremental row is the product's
// compact_flat_schedule; the scratch row is the reference loop of one-shot
// compact_flat passes from the test support library (tests/oracles).
//
// Protocol: the fixed-work schedule the PR 3 benches established —
// max_rounds = 8, stop_when_converged = false — so both modes do the same
// number of rounds on the same geometry trajectory (the final geometries
// are byte-identical; tests/incremental_test.cpp pins that). The headline
// metric is the mean wall time of the POST-FIRST rounds: round 1 is a full
// build either way, every later round is where the incremental engine
// splices clean-band constraint slices and warm-starts the solver instead
// of rebuilding from scratch. The acceptance bar is incremental >= 2x
// scratch on that metric at the 10k size; scripts/bench_smoke.sh fails
// the build if the 10k ratio ever drops below 1.0 (regression tripwire).
//
// CI runs the 10k size via scripts/bench_smoke.sh and uploads the JSON as
// BENCH_xy_scaling.json; run the binary with no filter for the full table.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "compact/xy_schedule.hpp"
#include "oracles/scratch_passes.hpp"
#include "oracles/synth_design.hpp"

namespace {

using namespace rsg::compact;

constexpr int kRounds = 8;

const SynthField& field_of_size(int boxes) {
  static SynthField fields[3] = {
      make_grid_field_of_size(1000),
      make_grid_field_of_size(10000),
      make_grid_field_of_size(50000),
  };
  if (boxes <= 1000) return fields[0];
  if (boxes <= 10000) return fields[1];
  return fields[2];
}

XyScheduleResult run_schedule(const SynthField& field, bool incremental) {
  XyScheduleOptions schedule;
  schedule.max_rounds = kRounds;
  schedule.stop_when_converged = false;
  return incremental ? compact_flat_schedule(field.boxes, CompactionRules::mosis(), {},
                                             schedule, field.stretchable)
                     : oracle::compact_flat_schedule_scratch(
                           field.boxes, CompactionRules::mosis(), schedule, field.stretchable);
}

double post_round_ms(const XyScheduleResult& result) {
  double total = 0.0;
  for (std::size_t r = 1; r < result.round_stats.size(); ++r) {
    total += result.round_stats[r].wall_ms;
  }
  return result.round_stats.size() > 1
             ? total / static_cast<double>(result.round_stats.size() - 1)
             : 0.0;
}

void run_mode(benchmark::State& state, bool incremental) {
  const SynthField& field = field_of_size(static_cast<int>(state.range(0)));
  XyScheduleResult result;
  for (auto _ : state) {
    result = run_schedule(field, incremental);
    benchmark::DoNotOptimize(result.width_after);
  }
  state.counters["boxes"] = static_cast<double>(field.boxes.size());
  state.counters["rounds"] = static_cast<double>(result.rounds);
  state.counters["post_round_ms"] = post_round_ms(result);
  state.counters["round1_ms"] =
      result.round_stats.empty() ? 0.0 : result.round_stats.front().wall_ms;
  state.counters["width_after"] = static_cast<double>(result.width_after);
  state.counters["height_after"] = static_cast<double>(result.height_after);
}

void BM_XyScheduleScratch(benchmark::State& state) { run_mode(state, false); }
void BM_XyScheduleIncremental(benchmark::State& state) { run_mode(state, true); }

BENCHMARK(BM_XyScheduleScratch)->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_XyScheduleIncremental)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void print_scaling_table() {
  std::printf("== x/y schedule at scale: scratch vs incremental (%d fixed rounds) ==\n", kRounds);
  std::printf("%-8s %-16s %-16s %-10s %-12s %-10s\n", "boxes", "scratch post(ms)",
              "incr post(ms)", "speedup", "tail(ms)", "geom match");
  for (const int n : {1000, 10000}) {
    const SynthField& field = field_of_size(n);
    const XyScheduleResult scratch = run_schedule(field, false);
    const XyScheduleResult incremental = run_schedule(field, true);
    // Converged tail: rounds whose sweeps were fully spliced from clean
    // bands — the regime the engine is built for.
    double tail = 0.0;
    int tail_rounds = 0;
    for (const RoundStats& rs : incremental.round_stats) {
      if (rs.round > 1 && rs.partners_reswept == 0) {
        tail += rs.wall_ms;
        ++tail_rounds;
      }
    }
    std::printf("%-8zu %-16.2f %-16.2f %-10.2f %-12.2f %-10s\n", field.boxes.size(),
                post_round_ms(scratch), post_round_ms(incremental),
                post_round_ms(scratch) / post_round_ms(incremental),
                tail_rounds > 0 ? tail / tail_rounds : 0.0,
                scratch.boxes == incremental.boxes ? "yes" : "NO");
  }
  std::printf("post = mean wall time of rounds 2..%d; the acceptance bar is\n", kRounds);
  std::printf("incremental >= 2x scratch at the 10k size with byte-identical\n");
  std::printf("geometry. tail = mean time of fully-clean rounds (no band dirty).\n");
  std::printf("50k sizes run under the registered benchmarks below.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The summary table runs four full schedules, so only print it for a
  // bare invocation — filtered CI smoke runs skip straight to the harness.
  if (argc == 1) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
