// Flat one-dimensional compaction — the experimental compactor of §6.4,
// assembled from the scan-line constraint generator, the longest-path
// solver and the rubber-band post-pass. Compacts in x; y coordinates are
// fixed (horizontal edges "shrink or expand in response to the displacement
// of the vertical edges", §6.3).
#pragma once

#include <vector>

#include "compact/bellman_ford.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/rubber_band.hpp"
#include "compact/scanline.hpp"

namespace rsg::compact {

struct FlatOptions {
  bool apply_rubber_band = false;
};

struct FlatResult {
  std::vector<LayerBox> boxes;
  Coord width_before = 0;
  Coord width_after = 0;
  std::size_t constraint_count = 0;
  std::size_t variable_count = 0;
  SolveStats solve;
  RubberBandStats rubber;
};

// `stretchable` entries (parallel to `boxes`, may be empty = all rigid)
// mark boxes allowed to shrink to their layer's minimum width — the
// cell-tagged bus/device sizing hook of §6.4.1.
FlatResult compact_flat(const std::vector<LayerBox>& boxes, const CompactionRules& rules,
                        const FlatOptions& options = {},
                        const std::vector<bool>& stretchable = {});

// The shared pass prologue of compact_flat and the incremental engine:
// normalizes the geometry (leftmost edge to the anchor wall), records the
// starting width, and builds the CompactionBox batch with the stretchable
// marking applied. Kept in one place so the incremental engine's
// byte-identical-to-compact_flat contract cannot drift.
std::vector<CompactionBox> normalized_compaction_boxes(const std::vector<LayerBox>& boxes,
                                                       const std::vector<bool>& stretchable,
                                                       Coord& width_before);

// The shared pass epilogue: each box's x extent read back from its solved
// edge variables (y unchanged) into `out`. Returns the compacted width,
// the rightmost right edge.
Coord read_solved_boxes(const ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                        std::vector<LayerBox>& out);

// Axis swap used by every y-by-transposition path (the incremental
// engine's y passes, tests): [lo.y, lo.x, hi.y, hi.x] per box. The
// thesis's compactor is one-dimensional (§6.3, "we will restrict ourselves
// to one dimensional compaction in the x dimension"); y compaction is an x
// pass over the transposed layout.
std::vector<LayerBox> transposed_boxes(const std::vector<LayerBox>& boxes);

}  // namespace rsg::compact
