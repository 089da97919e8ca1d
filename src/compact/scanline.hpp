// Constraint generation (§6.4.1).
//
// Implements the "correct scan line method" of Figure 6.7: a vertical scan
// line sweeps left to right holding, per layer, what a viewer on the line
// looking LEFT would see. Constraints connect what the viewer sees to the
// boxes newly reaching the line; hidden edges never enter the profile, so
// fragmented layouts (Figure 6.5) are not overconstrained — the property
// bench_fig65_fragmentation measures against the §6.4.1 naive pairwise
// generator of the test support library (tests/oracles).
//
// Emitted constraint kinds:
//   kWidth    R_i - L_i >= width (original width, or the layer minimum for
//             boxes marked stretchable — the §6.4.1 bus/device sizing hook)
//   kSpacing  L_b - R_a >= spacing(layers) for interacting, disjoint boxes
//             whose y ranges come within the spacing of each other
//   kConnect  R_a - L_b >= 0 and L_b - L_a >= 0 for same-layer boxes that
//             touch or overlap (electrical continuity must survive)
//   kOrder    f - e >= 0 for every originally-ordered edge pair of
//             OVERLAPPING interacting layers (transistor topology: poly
//             stays across diffusion)
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"
#include "compact/design_rule_table.hpp"

namespace rsg::compact {

struct CompactionBox {
  LayerBox geometry;
  bool stretchable = false;  // may shrink to the layer's minimum width
  int left_var = -1;         // filled by add_boxes
  int right_var = -1;
  int pitch = -1;            // leaf compaction: instance pitch variable
  int pitch_coeff = 0;       //   X_global = X_var + pitch_coeff * λ
};

// Creates the two edge variables for every box (unless already assigned —
// leaf compaction shares variables between instance copies).
void add_box_variables(ConstraintSystem& system, std::vector<CompactionBox>& boxes);

// The visibility scan-line generator of Figure 6.7. Scaled implementation:
// net discovery is a per-layer sort/sweep abutment pass over a min-lo.y
// augmented segment tree and the visibility profile is an ordered segment
// map, so generation is O((n + a + k) log n) in the box count n, abutting
// pair count a, and emitted-constraint count k. The sweep runs as `bands`
// y bands per layer (the band-sharded sweeps below); the constraint stream
// is byte-identical for every band count.
void generate_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules, int bands = 1);

// --- band-sharded sweeps -------------------------------------------------
//
// The visibility profile is pointwise in y: what a viewer sees at height y
// depends only on boxes whose y extent covers y. Partitioning the y axis
// into bands therefore decomposes each layer's sweep into independent
// shards — queries and inserts clipped to the band — whose partner sets
// union back to exactly the full-layer sweep's. That is the reuse unit of
// the incremental x/y schedule (compact/incremental.hpp): a shard whose
// participating boxes did not move re-contributes its stored partner list
// without being re-swept.

// One (profile layer, y band) shard's contribution: partner runs keyed by
// the querying box index (stable across rounds), in sweep order.
struct SweepShard {
  std::vector<std::size_t> query_boxes;  // boxes with >= 1 partner, sweep order
  std::vector<std::size_t> run_offsets;  // size query_boxes.size() + 1
  std::vector<std::size_t> partners;     // concatenated partner box indices
};

// Sorted cut list partitioning y into at most `bands` bands by box-count
// quantiles: band k covers [cuts[k], cuts[k+1]); the first and last cut are
// +-infinity sentinels so every window lands in a band.
std::vector<Coord> band_cuts(const std::vector<CompactionBox>& boxes, int bands);

// The incremental engine's default band count: `threads` <= 0 means one
// band per hardware core, and the result is always at least 1. Sweeps run
// serially; the name is kept for the benchmark metadata that reports it.
int resolve_sweep_threads(int threads);

// The sweep order every generator uses: left edge, then right edge, stable
// on the box index.
std::vector<std::size_t> sweep_order(const std::vector<CompactionBox>& boxes);

// The y window box `box` opens onto profile layer `layer` (its y extent
// grown by the §6.4.1 shadow margin), or false when the layers neither
// match nor interact. This is the participation predicate shared by the
// band sweep and the incremental engine's dirty detection: a box affects a
// shard exactly when its window overlaps the band.
bool layer_window(const CompactionBox& box, int layer, const CompactionRules& rules, Coord& y0,
                  Coord& y1);

// Runs profile layer `layer`'s share of the Figure 6.7 sweep restricted to
// the band [y0, y1): windows and profile extents are clipped to the band.
void sweep_layer_band(int layer, Coord y0, Coord y1, const std::vector<CompactionBox>& boxes,
                      const std::vector<std::size_t>& order, const CompactionRules& rules,
                      SweepShard& out);

// Runs the listed shard sweeps (layer-major indices: layer * bands + band
// into `shards`). generate_constraints passes every index; the incremental
// engine passes only the dirty ones.
void sweep_shards(const std::vector<CompactionBox>& boxes, const std::vector<std::size_t>& order,
                  const CompactionRules& rules, const std::vector<Coord>& cuts,
                  const std::vector<std::size_t>& shard_indices, std::vector<SweepShard>& shards);

// Emits the width/anchor constraints, then the pair constraints merged
// from the shard partner lists: per box in sweep order the partners are
// gathered, sorted and deduplicated — exactly the generate_constraints
// emission, so any shard partition of the same geometry produces the
// byte-identical constraint stream.
void emit_constraints_from_shards(ConstraintSystem& system,
                                  const std::vector<CompactionBox>& boxes,
                                  const std::vector<std::size_t>& order,
                                  const CompactionRules& rules,
                                  const std::vector<const SweepShard*>& shards);

}  // namespace rsg::compact
