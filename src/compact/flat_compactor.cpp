#include "compact/flat_compactor.hpp"

#include <algorithm>

#include "compact/xy_schedule.hpp"
#include "support/error.hpp"

namespace rsg::compact {

std::vector<LayerBox> transposed_boxes(const std::vector<LayerBox>& boxes) {
  std::vector<LayerBox> out;
  out.reserve(boxes.size());
  for (const LayerBox& lb : boxes) {
    out.push_back({lb.layer, Box(lb.box.lo.y, lb.box.lo.x, lb.box.hi.y, lb.box.hi.x)});
  }
  return out;
}

FlatResult compact_flat_y(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                          const FlatOptions& options, const std::vector<bool>& stretchable) {
  FlatResult result = compact_flat(transposed_boxes(boxes), rules, options, stretchable);
  result.boxes = transposed_boxes(result.boxes);
  return result;
}

XyResult compact_flat_xy(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                         const FlatOptions& options, const std::vector<bool>& stretchable) {
  XyScheduleOptions one_round;
  one_round.max_rounds = 1;
  const XyScheduleResult full =
      compact_flat_schedule(boxes, rules, options, one_round, stretchable);
  XyResult result;
  result.boxes = full.boxes;
  result.width_before = full.width_before;
  result.width_after = full.width_after;
  result.height_before = full.height_before;
  result.height_after = full.height_after;
  return result;
}

std::vector<CompactionBox> normalized_compaction_boxes(const std::vector<LayerBox>& boxes,
                                                       const FlatOptions& options,
                                                       const std::vector<bool>& stretchable,
                                                       Coord& width_before) {
  if (!stretchable.empty() && stretchable.size() != boxes.size()) {
    throw Error("compact_flat: stretchable mask size mismatch");
  }
  // Normalize: shift so the leftmost edge is at 0 (the anchor wall).
  Coord min_x = 0;
  Coord max_x = 0;
  if (!boxes.empty()) {
    min_x = boxes.front().box.lo.x;
    max_x = boxes.front().box.hi.x;
    for (const LayerBox& lb : boxes) {
      min_x = std::min(min_x, lb.box.lo.x);
      max_x = std::max(max_x, lb.box.hi.x);
    }
  }
  width_before = max_x - min_x;

  std::vector<CompactionBox> cboxes;
  cboxes.reserve(boxes.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    CompactionBox cb;
    cb.geometry = boxes[i];
    cb.geometry.box = cb.geometry.box.translated({-min_x, 0});
    cb.stretchable = options.mark_all_stretchable ||
                     (!stretchable.empty() && stretchable[i]);
    cboxes.push_back(cb);
  }
  return cboxes;
}

FlatResult compact_flat(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                        const FlatOptions& options, const std::vector<bool>& stretchable) {
  FlatResult result;
  std::vector<CompactionBox> cboxes =
      normalized_compaction_boxes(boxes, options, stretchable, result.width_before);

  BuilderOptions builder_options;
  builder_options.generator = options.naive_constraints ? ConstraintGenerator::kNaive
                                                        : ConstraintGenerator::kScanline;
  ConstraintSystemBuilder builder(rules, builder_options);
  builder.emit_batch(cboxes);
  ConstraintSystem& system = builder.system();
  result.constraint_count = system.constraint_count();
  result.variable_count = system.variable_count();

  result.solve = options.solver == SolverKind::kWorklist
                     ? solve_leftmost_worklist(system)
                     : solve_leftmost(system, options.edge_order);
  if (options.apply_rubber_band) {
    result.rubber = rubber_band(system, /*max_iterations=*/64, options.solver);
  }

  result.boxes.reserve(cboxes.size());
  Coord width = 0;
  for (const CompactionBox& cb : cboxes) {
    const Coord left = system.values[static_cast<std::size_t>(cb.left_var)];
    const Coord right = system.values[static_cast<std::size_t>(cb.right_var)];
    result.boxes.push_back(
        {cb.geometry.layer, Box(left, cb.geometry.box.lo.y, right, cb.geometry.box.hi.y)});
    width = std::max(width, right);
  }
  result.width_after = width;
  return result;
}

}  // namespace rsg::compact
