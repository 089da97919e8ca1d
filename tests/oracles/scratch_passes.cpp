#include "oracles/scratch_passes.hpp"

#include <chrono>
#include <utility>

#include "oracles/reference_constraints.hpp"

namespace rsg::compact::oracle {

FlatResult compact_flat_y(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                          const std::vector<bool>& stretchable) {
  FlatResult result = compact_flat(transposed_boxes(boxes), rules, {}, stretchable);
  result.boxes = transposed_boxes(result.boxes);
  return result;
}

FlatResult compact_flat_naive(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                              const std::vector<bool>& stretchable) {
  FlatResult result;
  std::vector<CompactionBox> cboxes =
      normalized_compaction_boxes(boxes, stretchable, result.width_before);
  ConstraintSystem system;
  add_box_variables(system, cboxes);
  generate_constraints_naive(system, cboxes, rules);
  result.constraint_count = system.constraint_count();
  result.variable_count = system.variable_count();
  result.solve = solve_leftmost_condensed(system);
  result.width_after = read_solved_boxes(system, cboxes, result.boxes);
  return result;
}

XyScheduleResult compact_flat_schedule_scratch(const std::vector<LayerBox>& boxes,
                                               const CompactionRules& rules,
                                               const XyScheduleOptions& schedule,
                                               const std::vector<bool>& stretchable) {
  using Clock = std::chrono::steady_clock;
  XyScheduleResult result;
  result.boxes = boxes;
  for (int round = 1; round <= schedule.max_rounds; ++round) {
    const auto t0 = Clock::now();
    const FlatResult x = compact_flat(result.boxes, rules, {}, stretchable);
    FlatResult y = compact_flat_y(x.boxes, rules, stretchable);
    if (y.boxes == result.boxes) result.converged = true;
    result.boxes = std::move(y.boxes);
    RoundStats stats;
    stats.round = round;
    stats.constraints_emitted = x.constraint_count + y.constraint_count;
    stats.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    result.round_stats.push_back(stats);
    result.rounds = round;
    if (result.converged && schedule.stop_when_converged) break;
  }
  const auto extent = [](const std::vector<LayerBox>& layout, Coord& width, Coord& height) {
    if (layout.empty()) return;
    Box bounds = layout.front().box;
    for (const LayerBox& lb : layout) bounds = bounds.bounding_union(lb.box);
    width = bounds.width();
    height = bounds.height();
  };
  extent(boxes, result.width_before, result.height_before);
  extent(result.boxes, result.width_after, result.height_after);
  result.convergence = {result.rounds, schedule.max_rounds, result.converged};
  return result;
}

}  // namespace rsg::compact::oracle
