#include "oracles/synth_design.hpp"

#include <algorithm>
#include <cmath>
#include <random>

namespace rsg::compact {

namespace {

void add(SynthField& field, Layer layer, Box box, bool stretchable) {
  field.boxes.push_back({layer, box});
  field.stretchable.push_back(stretchable);
}

}  // namespace

SynthField make_grid_field(int rows, int cols) {
  SynthField field;
  field.boxes.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) * 5);
  constexpr Coord kPitch = 40;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const Coord tx = c * kPitch;
      const Coord ty = r * kPitch;
      // One RAM-style cell: a transistor (poly over diffusion), a vertical
      // metal1 bit-line fragment that abuts the next row's fragment (one
      // electrical net per column), a horizontal metal2 word-line strip that
      // abuts the next column's strip, and a contact cut. The tile pitch
      // leaves ~14 units of slack for the compactor to reclaim.
      add(field, Layer::kDiffusion, Box(tx + 0, ty + 0, tx + 12, ty + 12), false);
      add(field, Layer::kPoly, Box(tx + 4, ty - 6, tx + 8, ty + 18), false);
      add(field, Layer::kMetal1, Box(tx + 18, ty - 2, tx + 22, ty + 38), true);
      add(field, Layer::kMetal2, Box(tx - 1, ty + 16, tx + 39, ty + 20), true);
      add(field, Layer::kContactCut, Box(tx + 18, ty + 4, tx + 22, ty + 8), false);
    }
  }
  return field;
}

SynthField make_grid_field_of_size(int boxes) {
  const int cells = std::max(1, boxes / 5);
  const int side = std::max(1, static_cast<int>(std::lround(std::sqrt(cells))));
  const int cols = (cells + side - 1) / side;
  return make_grid_field(side, cols);
}

SynthField make_pla_field(int inputs, int terms) {
  SynthField field;
  const Coord width = inputs * 16 + 8;
  const Coord height = terms * 12 + 4;
  // Horizontal diffusion term rows.
  for (int t = 0; t < terms; ++t) {
    add(field, Layer::kDiffusion, Box(0, t * 12, width, t * 12 + 4), true);
  }
  // Vertical poly input columns crossing every row, with metal1 output
  // stripes between every other pair of columns.
  for (int i = 0; i < inputs; ++i) {
    add(field, Layer::kPoly, Box(i * 16, -4, i * 16 + 4, height), true);
    if (i % 2 == 0) {
      add(field, Layer::kMetal1, Box(i * 16 + 8, -4, i * 16 + 12, height), true);
    }
  }
  // Pseudo-programmed crosspoints: a contact cut where the personality
  // matrix has a device.
  for (int t = 0; t < terms; ++t) {
    for (int i = 0; i < inputs; ++i) {
      if ((i * 7 + t * 3) % 3 == 0) continue;
      add(field, Layer::kContactCut, Box(i * 16 + 9, t * 12, i * 16 + 13, t * 12 + 4), false);
    }
  }
  return field;
}

SynthField make_random_field(std::uint32_t seed, int tiles) {
  SynthField field;
  std::mt19937 rng(seed ^ 0x51F15EEDu);
  auto rnd = [&](Coord lo, Coord hi) {
    return std::uniform_int_distribution<Coord>(lo, hi)(rng);
  };
  constexpr Coord kTile = 60;
  const int side = std::max(1, static_cast<int>(std::lround(std::ceil(std::sqrt(tiles)))));
  for (int t = 0; t < tiles; ++t) {
    // Keep each motif 8 units inside its tile: vertically adjacent tiles
    // then stay outside every spacing rule (max 6), while horizontally
    // adjacent tiles still interact in x — which is what the x compactor
    // resolves.
    const Coord tx = (t % side) * kTile;
    const Coord ty = (t / side) * kTile;
    switch (rng() % 4) {
      case 0: {  // a lone box on a random layer
        constexpr Layer kLayers[4] = {Layer::kMetal1, Layer::kPoly, Layer::kDiffusion,
                                      Layer::kMetal2};
        const Layer layer = kLayers[rng() % 4];
        const Coord x = tx + rnd(8, 30);
        const Coord y = ty + rnd(8, 30);
        add(field, layer, Box(x, y, x + rnd(2, 20), y + rnd(2, 20)), rng() % 2 == 0);
        break;
      }
      case 1: {  // a fragmented stretchable bus (Figure 6.5)
        const int pieces = static_cast<int>(2 + rng() % 4);
        const Coord y = ty + rnd(8, 40);
        Coord x = tx + rnd(8, 12);
        for (int p = 0; p < pieces; ++p) {
          const Coord len = rnd(4, 8);
          add(field, Layer::kDiffusion, Box(x, y, x + len, y + 4), true);
          x += len;  // abutting: one electrical net
        }
        break;
      }
      case 2: {  // a transistor: poly crossing diffusion
        const Coord x = tx + rnd(8, 28);
        const Coord y = ty + rnd(14, 28);
        add(field, Layer::kDiffusion, Box(x, y, x + 16, y + 8), false);
        add(field, Layer::kPoly, Box(x + rnd(4, 8), y - 6, x + rnd(10, 14), y + 14), false);
        break;
      }
      default: {  // an overlapping same-net metal1 L plus a metal2 strap
        const Coord x = tx + rnd(8, 24);
        const Coord y = ty + rnd(8, 24);
        add(field, Layer::kMetal1, Box(x, y, x + rnd(12, 20), y + 4), true);
        add(field, Layer::kMetal1, Box(x, y, x + 4, y + rnd(12, 20)), true);
        add(field, Layer::kMetal2, Box(tx + rnd(32, 40), ty + rnd(32, 40), tx + rnd(44, 50),
                                       ty + rnd(44, 50)),
            rng() % 2 == 0);
        break;
      }
    }
  }
  return field;
}

SynthLeafLibrary make_leaf_library(int num_cells, int boxes_per_cell, std::uint32_t seed) {
  SynthLeafLibrary lib;
  std::mt19937 rng(seed ^ 0x1EAF5EEDu);
  auto rnd = [&](Coord lo, Coord hi) {
    return std::uniform_int_distribution<Coord>(lo, hi)(rng);
  };
  constexpr Layer kLayers[4] = {Layer::kMetal1, Layer::kPoly, Layer::kDiffusion, Layer::kMetal2};
  // Wider than any MOSIS spacing (max 6), so the original library is a
  // feasible witness for every generated constraint system.
  constexpr Coord kClearance = 8;

  std::vector<Coord> widths;
  for (int c = 0; c < num_cells; ++c) {
    const std::string name = "leaf" + std::to_string(c);
    Cell& cell = lib.cells.create(name);
    lib.cell_names.push_back(name);
    Coord width = 0;
    const int rows = (boxes_per_cell + 1) / 2;
    for (int r = 0; r < rows; ++r) {
      const Coord y = r * 20;
      const Coord w1 = rnd(6, 14);
      const Coord x1 = r == 0 ? 0 : rnd(0, 3);  // row 0 anchors the gauge pin
      cell.add_box(kLayers[(c + r) % 4], Box(x1, y, x1 + w1, y + 4));
      width = std::max(width, x1 + w1);
      if (2 * r + 1 < boxes_per_cell) {
        const Coord w2 = rnd(6, 14);
        const Coord x2 = x1 + w1 + kClearance + rnd(0, 6);
        cell.add_box(kLayers[(c + r + 2) % 4], Box(x2, y, x2 + w2, y + 4));
        width = std::max(width, x2 + w2);
      }
    }
    widths.push_back(width);
  }

  for (int c = 0; c < num_cells; ++c) {
    const std::string& name = lib.cell_names[static_cast<std::size_t>(c)];
    lib.interfaces.declare(name, name, 1,
                           Interface{{widths[static_cast<std::size_t>(c)] + kClearance, 0},
                                     Orientation::kNorth});
    lib.pitch_specs.push_back({name, name, 1, 1.0 + c % 3});
    if (c + 1 < num_cells) {
      const std::string& next = lib.cell_names[static_cast<std::size_t>(c) + 1];
      lib.interfaces.declare(name, next, 1,
                             Interface{{widths[static_cast<std::size_t>(c)] + kClearance, 0},
                                       Orientation::kNorth});
      lib.pitch_specs.push_back({name, next, 1, 1.0 + (c + 1) % 2});
    }
  }
  return lib;
}

SynthLeafLibrary make_leaf_library_2d(int num_cells, int boxes_per_cell, std::uint32_t seed) {
  SynthLeafLibrary lib = make_leaf_library(num_cells, boxes_per_cell, seed);
  // Row r sits at y = r * 20 with 4-tall boxes, so every cell is exactly
  // this tall; the vertical pitch clears it by the same margin the
  // horizontal chain uses (wider than any MOSIS spacing — a feasible
  // witness again).
  constexpr Coord kClearance = 8;
  const Coord height = (static_cast<Coord>((boxes_per_cell + 1) / 2) - 1) * 20 + 4;
  for (int c = 0; c < num_cells; ++c) {
    const std::string& name = lib.cell_names[static_cast<std::size_t>(c)];
    lib.interfaces.declare(name, name, 2,
                           Interface{{0, height + kClearance}, Orientation::kNorth});
    lib.pitch_specs.push_back({name, name, 2, 1.0 + c % 2});
  }
  return lib;
}

}  // namespace rsg::compact
