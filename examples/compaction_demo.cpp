// Chapter 6 in action: flat compaction with the rubber-band pass, symbolic
// contact expansion, and leaf-cell compaction as a technology port — the
// library is recompacted under a tighter rule set and a new sample library
// (cells + pitches) is rebuilt from the result (§6.3), then both axes at
// once through the leaf x/y schedule with the dual-simplex engine's
// telemetry on display.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "compact/flat_compactor.hpp"
#include "compact/layer_expand.hpp"
#include "compact/leaf_compactor.hpp"
#include "layout/design_rules.hpp"

using namespace rsg;
using namespace rsg::compact;

namespace {

// A small 2-D leaf library: three cells of three two-box rows, chained by
// horizontal interfaces (every cell to itself and to its successor) plus
// one vertical self-interface per cell, so the library tiles as a grid.
// Every pitch clears the widest MOSIS spacing (6) by the 8-unit clearance,
// so the drawn library is a feasible starting point.
struct LeafLibrary {
  CellTable cells;
  InterfaceTable interfaces;
  std::vector<std::string> names;
  std::vector<PitchSpec> specs;
};

LeafLibrary make_grid_library() {
  constexpr Layer kLayers[4] = {Layer::kMetal1, Layer::kPoly, Layer::kDiffusion, Layer::kMetal2};
  constexpr int kCells = 3;
  constexpr Coord kClearance = 8;
  constexpr Coord kHeight = 2 * 20 + 4;  // rows at y = 0, 20, 40, 4 tall
  LeafLibrary lib;
  std::vector<Coord> widths;
  for (int c = 0; c < kCells; ++c) {
    lib.names.push_back("leaf" + std::to_string(c));
    Cell& cell = lib.cells.create(lib.names.back());
    Coord width = 0;
    for (int r = 0; r < 3; ++r) {
      const Coord y = 20 * r;
      const Coord x1 = r == 0 ? 0 : (c + r) % 3;  // row 0 anchors the cell's left edge
      const Coord w1 = 6 + 2 * ((c + 2 * r) % 4);
      const Coord x2 = x1 + w1 + kClearance + (c * r) % 5;
      const Coord w2 = 8 + (c + r) % 5;
      cell.add_box(kLayers[(c + r) % 4], Box(x1, y, x1 + w1, y + 4));
      cell.add_box(kLayers[(c + r + 2) % 4], Box(x2, y, x2 + w2, y + 4));
      width = std::max(width, x2 + w2);
    }
    widths.push_back(width);
  }
  for (int c = 0; c < kCells; ++c) {
    const std::string& name = lib.names[static_cast<std::size_t>(c)];
    const Interface east{{widths[static_cast<std::size_t>(c)] + kClearance, 0},
                         Orientation::kNorth};
    lib.interfaces.declare(name, name, 1, east);
    lib.specs.push_back({name, name, 1, 1.0 + c % 3});
    if (c + 1 < kCells) {
      const std::string& next = lib.names[static_cast<std::size_t>(c) + 1];
      lib.interfaces.declare(name, next, 1, east);
      lib.specs.push_back({name, next, 1, 1.0 + (c + 1) % 2});
    }
  }
  for (int c = 0; c < kCells; ++c) {
    const std::string& name = lib.names[static_cast<std::size_t>(c)];
    lib.interfaces.declare(name, name, 2,
                           Interface{{0, kHeight + kClearance}, Orientation::kNorth});
    lib.specs.push_back({name, name, 2, 1.0 + c % 2});
  }
  return lib;
}

}  // namespace

int main() {
  try {
    // --- Flat compaction -----------------------------------------------------
    std::vector<LayerBox> sparse = {
        {Layer::kMetal1, Box(0, 0, 10, 4)},   {Layer::kMetal1, Box(40, 0, 50, 4)},
        {Layer::kPoly, Box(70, -10, 74, 14)}, {Layer::kMetal1, Box(90, 0, 100, 4)},
        {Layer::kDiffusion, Box(120, -4, 140, 10)},
    };
    FlatOptions options;
    options.apply_rubber_band = true;
    const FlatResult flat = compact_flat(sparse, CompactionRules::mosis(), options);
    std::cout << "flat compaction: width " << flat.width_before << " -> " << flat.width_after
              << " (" << flat.constraint_count << " constraints, " << flat.solve.passes
              << " relaxation passes)\n";

    // --- Symbolic contact expansion (Figure 6.9) ------------------------------
    const std::vector<LayerBox> with_contact = {{Layer::kContact, Box(0, 0, 24, 16)}};
    const auto expanded = expand_contacts(with_contact);
    std::cout << "contact 24x16 expands to " << expanded.size() << " mask boxes ("
              << cut_count(Box(0, 0, 24, 16)) << " cuts)\n";

    // --- Leaf-cell technology port (§6.1/§6.3) --------------------------------
    // A leaf cell drawn for a loose process; the pitch between instances is
    // the design-critical quantity, weighted by its replication estimate.
    CellTable cells;
    InterfaceTable interfaces;
    Cell& leaf = cells.create("bitcell");
    leaf.add_box(Layer::kMetal1, Box(0, 0, 10, 4));
    leaf.add_box(Layer::kPoly, Box(14, -6, 18, 10));
    leaf.add_box(Layer::kMetal1, Box(26, 0, 36, 4));
    interfaces.declare("bitcell", "bitcell", 1, Interface{{52, 0}, Orientation::kNorth});

    const std::vector<PitchSpec> specs = {{"bitcell", "bitcell", 1, /*replication=*/256.0}};
    const LeafResult ported =
        compact_leaf_cells(cells, interfaces, {"bitcell"}, specs, CompactionRules::mosis());
    std::cout << "leaf-cell port: pitch " << ported.original_pitches[0] << " -> "
              << ported.pitches[0] << " ("
              << ported.variable_count << " unknowns after folding vs "
              << ported.unfolded_variable_count << " unfolded)\n";
    std::cout << "  LP engine (dual default): " << ported.lp_stats.iterations << " pivots, "
              << ported.lp_stats.dual_pivots << " dual, " << ported.lp_stats.phase1_pivots
              << " phase-1, " << ported.lp_stats.dual_fallbacks << " fallbacks\n";
    std::cout << "a 256-cell row shrinks from " << 256 * ported.original_pitches[0] << " to "
              << 256 * ported.pitches[0] << " units\n";

    // Rebuild the new library — the compacted cells plus pitches become the
    // sample layout for the next technology.
    CellTable new_cells;
    InterfaceTable new_interfaces;
    make_compacted_library(ported, specs, new_cells, new_interfaces);
    std::cout << "rebuilt library: cell 'bitcell' with "
              << new_cells.get("bitcell").box_count() << " boxes, interface #1 pitch "
              << new_interfaces.get("bitcell", "bitcell", 1).vector.x << "\n";

    // --- Leaf x/y schedule (both axes, dual engine) ---------------------------
    // A small 2-D library: horizontal chain pitches plus vertical
    // self-pitches, alternated to a pitch/objective fixpoint.
    const LeafLibrary lib = make_grid_library();
    const LeafXyResult xy = compact_leaf_schedule(lib.cells, lib.interfaces, lib.names,
                                                  lib.specs, CompactionRules::mosis());
    std::cout << "leaf x/y schedule: " << xy.rounds << " round(s), "
              << (xy.converged ? "converged" : "capped") << "; " << xy.lp_total.iterations
              << " LP pivots total (" << xy.lp_total.dual_pivots << " dual, "
              << xy.lp_total.phase1_pivots << " phase-1, " << xy.lp_total.dual_fallbacks
              << " fallbacks)\n";
    for (const LeafRoundStats& round : xy.round_stats) {
      std::cout << "  round " << round.round << ": x obj " << round.x_objective << " ("
                << round.x_lp.iterations << " piv), y obj " << round.y_objective << " ("
                << round.y_lp.iterations << " piv)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
