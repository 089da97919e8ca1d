#include "compact/xy_schedule.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>

#include "layout/flatten.hpp"
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
  // whole schedule; the scratch path rebuilds each pass (the equivalence
  // baseline). The naive generator has no band structure.
  std::optional<IncrementalCompactor> engine;
  if (schedule.incremental && !options.naive_constraints) {
    engine.emplace(rules, options, schedule.incremental_options, stretchable);
  }

  // One axis pass under the best-effort policy: an infeasible constraint
  // system (rigid geometry violating its own spacing rules) keeps the
  // current geometry for this axis instead of propagating the error.
  // Returns the FlatResult when the pass ran, nullopt when it was skipped.
  const auto run_pass = [&](bool y_axis, bool& infeasible,
                            bool& skipped) -> std::optional<FlatResult> {
    try {
      FlatResult pass =
          engine ? (y_axis ? engine->compact_y(result.boxes) : engine->compact_x(result.boxes))
                 : (y_axis ? compact_flat_y(result.boxes, rules, options, stretchable)
                           : compact_flat(result.boxes, rules, options, stretchable));
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
    if (engine) {
      if (x_pass || stats.x_skipped) {
        stats.partners_reswept += engine->x_stats().partners_reswept;
        stats.partners_reused += engine->x_stats().partners_reused;
      }
      if (y_pass || stats.y_skipped) {
        stats.partners_reswept += engine->y_stats().partners_reswept;
        stats.partners_reused += engine->y_stats().partners_reused;
      }
    }
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

namespace {

// The schedule's working copy of a leaf library: flattened per-cell
// geometry plus the current pitch vector of every spec'd interface —
// cheap to snapshot for the convergence test and to materialize into the
// tables a pass consumes.
struct LeafLibraryState {
  std::map<std::string, std::vector<LayerBox>> geometry;
  std::map<std::tuple<std::string, std::string, int>, Point> vectors;

  bool operator==(const LeafLibraryState&) const = default;

  CellTable cells() const {
    CellTable table;
    for (const auto& [name, boxes] : geometry) {
      Cell& cell = table.create(name);
      for (const LayerBox& lb : boxes) cell.add_box(lb.layer, lb.box);
    }
    return table;
  }

  InterfaceTable interfaces() const {
    InterfaceTable table;
    for (const auto& [key, vector] : vectors) {
      table.declare(std::get<0>(key), std::get<1>(key), std::get<2>(key),
                    Interface{vector, Orientation::kNorth});
    }
    return table;
  }
};

}  // namespace

LeafXyResult compact_leaf_schedule(const CellTable& cells, const InterfaceTable& interfaces,
                                   const std::vector<std::string>& cell_names,
                                   const std::vector<PitchSpec>& pitch_specs,
                                   const CompactionRules& rules, const LeafXyOptions& options) {
  if (pitch_specs.empty()) {
    throw Error("leaf schedule: no pitch specs (use compact_leaf_cells for a pitch-free pass)");
  }
  LeafLibraryState state;
  for (const PitchSpec& spec : pitch_specs) {
    const Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (!(iface.orientation == Orientation::kNorth)) {
      throw Error("leaf schedule handles North-oriented interfaces only");
    }
    if (iface.vector.x <= 0 && iface.vector.y <= 0) {
      throw Error("leaf schedule: interface between '" + spec.cell_a + "' and '" + spec.cell_b +
                  "' has no positive pitch on either axis");
    }
    state.vectors[{spec.cell_a, spec.cell_b, spec.interface_index}] = iface.vector;
  }
  for (const std::string& name : cell_names) {
    state.geometry[name] = flatten_boxes(cells.get(name));
  }

  // Partition the specs by compactable axis; a spec with both components
  // positive rides both passes (its y pass sees the x pass's new pitch).
  // Re-evaluated from the CURRENT vectors each round: a pitch between
  // non-interacting cells can legally collapse to zero, after which it no
  // longer satisfies the positive-pitch precondition of that axis's pass
  // and simply stays where the collapse left it.
  const auto specs_for_axis = [&](bool y_axis) {
    std::vector<PitchSpec> specs;
    for (const PitchSpec& spec : pitch_specs) {
      const Point& vector = state.vectors.at({spec.cell_a, spec.cell_b, spec.interface_index});
      if ((y_axis ? vector.y : vector.x) > 0) specs.push_back(spec);
    }
    return specs;
  };

  LeafXyResult result;
  // One warm-start handle per axis, alive across rounds: round k's optimal
  // basis seeds round k+1's solve of the same axis. The engine validates
  // the carried basis itself (shape, nonsingularity, dual feasibility) and
  // cold-starts when it is stale — e.g. when an axis's spec list changed
  // and the LP shape with it — so the handles need no management here.
  LpWarmStart warm_x;
  LpWarmStart warm_y;
  LpWarmStart* const warm_x_ptr = options.warm_start ? &warm_x : nullptr;
  LpWarmStart* const warm_y_ptr = options.warm_start ? &warm_y : nullptr;
  for (int round = 0; round < options.max_rounds; ++round) {
    const LeafLibraryState before = state;
    LeafRoundStats stats;
    stats.round = round + 1;
    const LeafRoundStats* previous =
        result.round_stats.empty() ? nullptr : &result.round_stats.back();

    const std::vector<PitchSpec> x_specs = specs_for_axis(/*y_axis=*/false);
    const std::vector<PitchSpec> y_specs = specs_for_axis(/*y_axis=*/true);
    if (!x_specs.empty()) {
      const CellTable pass_cells = state.cells();
      const InterfaceTable pass_interfaces = state.interfaces();
      const LeafResult x = compact_leaf_cells(pass_cells, pass_interfaces, cell_names, x_specs,
                                              rules, options.width_weight,
                                              options.stretchable_layers, options.lp, warm_x_ptr);
      for (const auto& [name, boxes] : x.cells) state.geometry[name] = boxes;
      for (std::size_t s = 0; s < x_specs.size(); ++s) {
        const PitchSpec& spec = x_specs[s];
        state.vectors[{spec.cell_a, spec.cell_b, spec.interface_index}].x = x.pitches[s];
      }
      stats.x_ran = true;
      stats.x_lp = x.lp_stats;
      stats.x_objective = x.objective;
      result.lp_total += x.lp_stats;
    }

    if (!y_specs.empty()) {
      const CellTable pass_cells = state.cells();
      const InterfaceTable pass_interfaces = state.interfaces();
      const LeafResult y = compact_leaf_cells_y(pass_cells, pass_interfaces, cell_names, y_specs,
                                                rules, options.width_weight,
                                                options.stretchable_layers, options.lp,
                                                warm_y_ptr);
      for (const auto& [name, boxes] : y.cells) state.geometry[name] = boxes;
      for (std::size_t s = 0; s < y_specs.size(); ++s) {
        const PitchSpec& spec = y_specs[s];
        state.vectors[{spec.cell_a, spec.cell_b, spec.interface_index}].y = y.pitches[s];
      }
      stats.y_ran = true;
      stats.y_lp = y.lp_stats;
      stats.y_objective = y.objective;
      result.lp_total += y.lp_stats;
    }

    // Convergence: the pitch vectors are back unchanged and neither axis
    // found a better objective than last round. Box positions are NOT part
    // of the test — the leaf LPs have tied alternative optima, and each
    // pass's tie-break depends on the other axis's coordinates, so the
    // geometry can wander inside the optimal face forever while every
    // quantity the schedule optimizes (pitches, objective) sits still.
    const auto close = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
    };
    // An axis that ran in neither round is trivially stable (its specs
    // dropped off — e.g. every pitch collapsed to zero); comparing its
    // default 0.0 against a real objective would stall convergence.
    const auto axis_plateau = [&](bool ran, double objective, bool prev_ran,
                                  double prev_objective) {
      if (ran != prev_ran) return false;
      return !ran || close(objective, prev_objective);
    };
    const bool plateau =
        previous != nullptr &&
        axis_plateau(stats.x_ran, stats.x_objective, previous->x_ran, previous->x_objective) &&
        axis_plateau(stats.y_ran, stats.y_objective, previous->y_ran, previous->y_objective);
    result.round_stats.push_back(std::move(stats));
    result.rounds = round + 1;
    // Recomputed every round, not latched: under stop_when_converged =
    // false a later round may move a pitch vector again, and the flag must
    // describe the ROUND THE RESULT CAME FROM, not any earlier plateau.
    result.converged = state == before || (plateau && state.vectors == before.vectors);
    if (result.converged && options.stop_when_converged) break;
  }

  result.cells = state.cells();
  result.interfaces = state.interfaces();
  return result;
}

}  // namespace rsg::compact
