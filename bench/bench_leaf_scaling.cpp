// The §6.1–§6.3 leaf/LP path at scale: solve_lp on growing synthetic leaf
// libraries.
//
// One LeafLpModel is built per library size (make_leaf_library chains every
// cell to itself and its successor, so the LP couples the whole library),
// then solve_lp solves it: the bounded-variable dual simplex from the
// all-slack basis over a CSC matrix and a Markowitz LU basis with
// Forrest–Tomlin updates. The compaction objective is componentwise
// nonnegative, so the dual never runs a phase 1 — which is ~98 % of the
// pivots its primal fallback (detail::solve_lp_primal) would spend on these
// libraries.
//
// The acceptance bars: the dual at ZERO phase-1 pivots and zero fallbacks,
// with >= 2x fewer total pivots than the primal fallback at the 32-cell
// library, objectives bit-identical to the dense test oracle
// (sparse_simplex_test pins both); and warm-started schedule re-solves at
// <= half the post-first-round pivots of cold ones. CI runs the small sizes
// via scripts/bench_smoke.sh and uploads BENCH_leaf_scaling.json; run the
// binary with no filter for the full sweep and the primal-vs-dual table.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "compact/leaf_compactor.hpp"
#include "oracles/synth_design.hpp"

namespace {

using namespace rsg::compact;

constexpr int kBoxesPerCell = 8;

const LeafLpModel& model_for(int num_cells) {
  static std::map<int, LeafLpModel> models;
  auto it = models.find(num_cells);
  if (it == models.end()) {
    const SynthLeafLibrary lib = make_leaf_library(num_cells, kBoxesPerCell, /*seed=*/7);
    it = models
             .emplace(num_cells,
                      build_leaf_lp(lib.cells, lib.interfaces, lib.cell_names, lib.pitch_specs,
                                    CompactionRules::mosis()))
             .first;
  }
  return it->second;
}

void BM_LeafSolveSparseDual(benchmark::State& state) {
  const LeafLpModel& model = model_for(static_cast<int>(state.range(0)));
  LpSolution solution;
  for (auto _ : state) {
    solution = solve_lp(model.lp);
    benchmark::DoNotOptimize(solution.objective);
  }
  state.counters["rows"] = static_cast<double>(model.lp.constraints.size());
  state.counters["cols"] = static_cast<double>(model.lp.num_vars);
  state.counters["pivots"] = static_cast<double>(solution.stats.iterations);
  state.counters["phase1_pivots"] = static_cast<double>(solution.stats.phase1_pivots);
  state.counters["dual_pivots"] = static_cast<double>(solution.stats.dual_pivots);
  state.counters["dual_fallbacks"] = static_cast<double>(solution.stats.dual_fallbacks);
  state.counters["refactorizations"] = static_cast<double>(solution.stats.refactorizations);
  state.counters["nnz_refactorizations"] =
      static_cast<double>(solution.stats.nnz_refactorizations);
  // The hyper-sparse claim, per size: the fraction of upper-triangular
  // positions the graph-ordered FTRAN never touched. Grows with the
  // library (the rhs stays a few nonzeros while m grows), which is what
  // makes the 64/128/256-cell sweep falsifiable.
  state.counters["ftran_rows"] = static_cast<double>(solution.stats.ftran_rows);
  state.counters["ftran_skip_ratio"] =
      solution.stats.ftran_rows > 0
          ? static_cast<double>(solution.stats.ftran_rows_skipped) /
                static_cast<double>(solution.stats.ftran_rows)
          : 0.0;
  state.counters["objective"] = solution.objective;
}

// The warm-start acceptance workload: the full leaf x/y schedule, fixed
// round count, warm vs cold. The convergence profile on these libraries:
// round 0 is always cold; round 1 rebuilds a SMALLER model from the
// compacted geometry (shape mismatch — genuinely cold); round 2's model
// matches round 1's shape but the moved geometry reshuffles the matrix,
// so the carried basis factorizes singular and the engine correctly
// declines it. From round 3 on the model is stable and every warm
// re-solve adopts the carried basis at ~zero pivots — the re-solve case
// the handle exists for. Six fixed rounds give that steady state the
// majority of the post-first-round work; bench_smoke.sh gates
// post_round_pivots(warm) * 2 <= post_round_pivots(cold) at 32 cells.
void run_schedule(benchmark::State& state, bool warm_start) {
  const SynthLeafLibrary lib =
      make_leaf_library(static_cast<int>(state.range(0)), kBoxesPerCell, /*seed=*/7);
  LeafXyOptions options;
  options.warm_start = warm_start;
  options.max_rounds = 6;
  options.stop_when_converged = false;  // stable work per run
  LeafXyResult result;
  for (auto _ : state) {
    result = compact_leaf_schedule(lib.cells, lib.interfaces, lib.cell_names, lib.pitch_specs,
                                   CompactionRules::mosis(), options);
    benchmark::DoNotOptimize(result.rounds);
  }
  double first_round = 0.0;
  double post_rounds = 0.0;
  double warm_accepted = 0.0;
  for (std::size_t r = 0; r < result.round_stats.size(); ++r) {
    const LeafRoundStats& rs = result.round_stats[r];
    const double pivots = static_cast<double>(rs.x_lp.iterations + rs.y_lp.iterations);
    (r == 0 ? first_round : post_rounds) += pivots;
    warm_accepted += static_cast<double>(rs.x_lp.warm_accepted + rs.y_lp.warm_accepted);
  }
  state.counters["rounds"] = static_cast<double>(result.rounds);
  state.counters["first_round_pivots"] = first_round;
  state.counters["post_round_pivots"] = post_rounds;
  state.counters["warm_accepted"] = warm_accepted;
}

void BM_LeafScheduleWarm(benchmark::State& state) { run_schedule(state, /*warm_start=*/true); }
void BM_LeafScheduleCold(benchmark::State& state) { run_schedule(state, /*warm_start=*/false); }

// The sweep runs on to 256 cells, where the hyper-sparse solves and the LU
// factor sizes either pay off in the artifact or visibly fail to.
BENCHMARK(BM_LeafSolveSparseDual)
    ->RangeMultiplier(2)
    ->Range(2, 256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafScheduleWarm)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafScheduleCold)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void print_scaling_table() {
  std::printf("== leaf/LP compaction at scale (§6.1–§6.3): solve_lp vs primal fallback ==\n");
  std::printf("%-7s %-7s %-7s %-11s %-11s %-12s %-12s %-10s %-9s\n", "cells", "rows", "cols",
              "primal(ms)", "dual(ms)", "primal piv", "dual piv", "piv ratio", "obj match");
  using Clock = std::chrono::steady_clock;
  for (const int cells : {2, 4, 8, 16, 32}) {
    const LeafLpModel& model = model_for(cells);
    const auto t0 = Clock::now();
    const LpSolution primal = detail::solve_lp_primal(model.lp);
    const auto t1 = Clock::now();
    const LpSolution dual = solve_lp(model.lp);
    const auto t2 = Clock::now();
    const double primal_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double dual_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    const bool match = std::abs(dual.objective - primal.objective) <=
                       1e-6 * (1.0 + std::abs(primal.objective));
    char primal_piv[32];
    std::snprintf(primal_piv, sizeof primal_piv, "%d(p1 %d)", primal.stats.iterations,
                  primal.stats.phase1_pivots);
    char dual_piv[32];
    std::snprintf(dual_piv, sizeof dual_piv, "%d(p1 %d)", dual.stats.iterations,
                  dual.stats.phase1_pivots);
    std::printf("%-7d %-7zu %-7d %-11.2f %-11.2f %-12s %-12s %-10.2f %-9s\n", cells,
                model.lp.constraints.size(), model.lp.num_vars, primal_ms, dual_ms, primal_piv,
                dual_piv,
                static_cast<double>(primal.stats.iterations) /
                    static_cast<double>(dual.stats.iterations),
                match ? "yes" : "NO");
  }
  std::printf("Acceptance bar: solve_lp (the dual) at ZERO phase-1 pivots with piv ratio\n");
  std::printf("(primal/dual) >= 2 at the largest size, objectives matching.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The summary table runs every size unfiltered, so only print it for a
  // bare invocation — filtered CI smoke runs and --benchmark_list_tests
  // skip straight to the harness.
  if (argc == 1) print_scaling_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
