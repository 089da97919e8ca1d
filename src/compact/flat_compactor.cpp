#include "compact/flat_compactor.hpp"

#include <algorithm>

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

std::vector<CompactionBox> normalized_compaction_boxes(const std::vector<LayerBox>& boxes,
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
    cb.stretchable = !stretchable.empty() && stretchable[i];
    cboxes.push_back(cb);
  }
  return cboxes;
}

Coord read_solved_boxes(const ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                        std::vector<LayerBox>& out) {
  out.reserve(out.size() + boxes.size());
  Coord width = 0;
  for (const CompactionBox& cb : boxes) {
    const Coord left = system.values[static_cast<std::size_t>(cb.left_var)];
    const Coord right = system.values[static_cast<std::size_t>(cb.right_var)];
    out.push_back(
        {cb.geometry.layer, Box(left, cb.geometry.box.lo.y, right, cb.geometry.box.hi.y)});
    width = std::max(width, right);
  }
  return width;
}

FlatResult compact_flat(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                        const FlatOptions& options, const std::vector<bool>& stretchable) {
  FlatResult result;
  std::vector<CompactionBox> cboxes =
      normalized_compaction_boxes(boxes, stretchable, result.width_before);

  ConstraintSystem system;
  add_box_variables(system, cboxes);
  generate_constraints(system, cboxes, rules);
  result.constraint_count = system.constraint_count();
  result.variable_count = system.variable_count();

  result.solve = solve_leftmost_condensed(system);
  if (options.apply_rubber_band) result.rubber = rubber_band(system);
  result.width_after = read_solved_boxes(system, cboxes, result.boxes);
  return result;
}

}  // namespace rsg::compact
