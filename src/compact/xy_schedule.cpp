#include "compact/xy_schedule.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "support/error.hpp"
#include "support/fault_injection.hpp"

namespace rsg::compact {

namespace {

struct Extents {
  Coord width = 0;
  Coord height = 0;
};

Extents extents_of(const std::vector<LayerBox>& boxes) {
  if (boxes.empty()) return {};
  Coord min_x = boxes.front().box.lo.x;
  Coord max_x = boxes.front().box.hi.x;
  Coord min_y = boxes.front().box.lo.y;
  Coord max_y = boxes.front().box.hi.y;
  for (const LayerBox& lb : boxes) {
    min_x = std::min(min_x, lb.box.lo.x);
    max_x = std::max(max_x, lb.box.hi.x);
    min_y = std::min(min_y, lb.box.lo.y);
    max_y = std::max(max_y, lb.box.hi.y);
  }
  return {max_x - min_x, max_y - min_y};
}

}  // namespace

XyScheduleResult compact_flat_schedule(const std::vector<LayerBox>& boxes,
                                       const CompactionRules& rules, const FlatOptions& options,
                                       const XyScheduleOptions& schedule,
                                       const std::vector<bool>& stretchable) {
  XyScheduleResult result;
  result.boxes = boxes;
  const Extents before = extents_of(boxes);
  result.width_before = before.width;
  result.height_before = before.height;

  // Resume: restore the whole loop state from the checkpoint and continue
  // at the next round. The `boxes` argument is ignored by design — the
  // checkpointed geometry IS the loop state.
  int start_round = 0;
  if (schedule.resume != nullptr) {
    const XyCheckpoint& ck = *schedule.resume;
    result.boxes = ck.boxes;
    result.width_before = ck.width_before;
    result.height_before = ck.height_before;
    result.x_infeasible = ck.x_infeasible;
    result.y_infeasible = ck.y_infeasible;
    result.converged = ck.converged;
    result.round_stats = ck.round_stats;
    result.rounds = ck.rounds_done;
    start_round = ck.rounds_done;
  }

  // The incremental engine keeps per-axis band/warm state alive across the
  // whole schedule.
  IncrementalCompactor engine(rules, options, schedule.incremental_options, stretchable);

  // One axis pass under the best-effort policy: an infeasible constraint
  // system (rigid geometry violating its own spacing rules) keeps the
  // current geometry for this axis instead of propagating the error.
  // Returns the FlatResult when the pass ran, nullopt when it was skipped.
  const auto run_pass = [&](bool y_axis, bool& infeasible,
                            bool& skipped) -> std::optional<FlatResult> {
    try {
      FlatResult pass = y_axis ? engine.compact_y(result.boxes) : engine.compact_x(result.boxes);
      result.boxes = std::move(pass.boxes);
      return pass;
    } catch (const IncrementalDivergence&) {
      // An engine bug, not an infeasible layout: the byte-identity check
      // mode must fail loudly even under best effort.
      throw;
    } catch (const Error&) {
      if (!schedule.best_effort) throw;
      infeasible = true;
      skipped = true;
      return std::nullopt;
    }
  };

  // A checkpoint taken after the schedule already terminated (converged
  // with stop_when_converged, or frozen by a doubly-infeasible round) must
  // resume to the identical result without running another round.
  const bool resume_terminal =
      schedule.resume != nullptr &&
      ((result.converged && schedule.stop_when_converged) ||
       (!result.round_stats.empty() && result.round_stats.back().x_skipped &&
        result.round_stats.back().y_skipped));

  // A cancel/deadline signal raised before any round runs still rejects
  // the work up front — "expired before it started" must not pay for a
  // full round first.
  if (schedule.cancel != nullptr) schedule.cancel->check("x/y schedule start");

  using Clock = std::chrono::steady_clock;
  for (int round = start_round; !resume_terminal && round < schedule.max_rounds; ++round) {
    const std::vector<LayerBox> previous = result.boxes;
    RoundStats stats;
    stats.round = round + 1;
    const auto t0 = Clock::now();

    const Extents pre_x = extents_of(result.boxes);
    const std::optional<FlatResult> x_pass =
        run_pass(/*y_axis=*/false, result.x_infeasible, stats.x_skipped);
    const Extents pre_y = extents_of(result.boxes);
    stats.width_delta = pre_x.width - pre_y.width;
    const std::optional<FlatResult> y_pass =
        run_pass(/*y_axis=*/true, result.y_infeasible, stats.y_skipped);
    stats.height_delta = pre_y.height - extents_of(result.boxes).height;

    if (x_pass) {
      stats.constraints_emitted += x_pass->constraint_count;
      stats.solve_pops += x_pass->solve.pops;
      stats.warm_x = x_pass->solve.warm_accepted;
    }
    if (y_pass) {
      stats.constraints_emitted += y_pass->constraint_count;
      stats.solve_pops += y_pass->solve.pops;
      stats.warm_y = y_pass->solve.warm_accepted;
    }
    // Each pass either ran or was skipped as infeasible; either way the
    // engine swept (or reused) its shards first.
    stats.partners_reswept += engine.x_stats().partners_reswept + engine.y_stats().partners_reswept;
    stats.partners_reused += engine.x_stats().partners_reused + engine.y_stats().partners_reused;
    stats.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    result.round_stats.push_back(std::move(stats));
    result.rounds = round + 1;

    const bool frozen =
        result.round_stats.back().x_skipped && result.round_stats.back().y_skipped;
    if (!frozen && result.boxes == previous) result.converged = true;

    if (schedule.checkpoint_sink) {
      XyCheckpoint ck;
      ck.rounds_done = result.rounds;
      ck.converged = result.converged;
      ck.x_infeasible = result.x_infeasible;
      ck.y_infeasible = result.y_infeasible;
      ck.width_before = result.width_before;
      ck.height_before = result.height_before;
      ck.boxes = result.boxes;
      ck.stretchable = stretchable;
      ck.round_stats = result.round_stats;
      schedule.checkpoint_sink(ck);
    }

    if (frozen) {
      // Both axes infeasible: no pass can ever run again (the geometry is
      // frozen), so looping to the cap would do nothing — terminate early
      // and do NOT claim convergence.
      break;
    }
    if (result.converged && schedule.stop_when_converged) break;

    // Test hook: hold the schedule for `param` ms (default 50) at the round
    // boundary so deadline/cancel tests can deterministically interrupt a
    // run BETWEEN rounds — after the checkpoint flush, before the poll.
    int stall_ms = 0;
    if (fault::fired("xy_schedule.round_stall", &stall_ms)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms > 0 ? stall_ms : 50));
    }
    // Round boundary: the checkpoint sink above has already persisted this
    // round, so abandoning here loses no work — a resumed run continues at
    // round + 1 bit-for-bit.
    if (schedule.cancel != nullptr) {
      schedule.cancel->check(("x/y schedule round " + std::to_string(result.rounds)).c_str());
    }
  }

  const Extents after = extents_of(result.boxes);
  result.width_after = after.width;
  result.height_after = after.height;
  result.convergence = {result.rounds, schedule.max_rounds, result.converged};
  return result;
}

}  // namespace rsg::compact
