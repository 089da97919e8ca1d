// Synthetic compaction workloads for the scaling benchmarks and the
// equivalence property tests (the test support library: nothing in src/
// calls them).
//
// The thesis's showcase designs (RAM, PLA, multiplier) are regular tilings
// of small multi-layer cells; these generators reproduce that shape
// parametrically so the compaction hot path can be driven from hundreds to
// tens of thousands of boxes. Every field is feasible by construction: no
// rigid box spans two tiles, so the solvers can always satisfy cross-tile
// spacing by pushing whole columns apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compact/leaf_compactor.hpp"
#include "geom/box.hpp"
#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"

namespace rsg::compact {

struct SynthField {
  std::vector<LayerBox> boxes;
  std::vector<bool> stretchable;  // parallel to boxes
};

// RAM-style tiling: rows x cols cells, each a small diffusion/poly/metal
// motif (a transistor, a bit-line fragment and a word-line strip) with
// deliberate slack so compaction has work to do.
SynthField make_grid_field(int rows, int cols);

// A grid field holding approximately `boxes` boxes (the benchmark's size
// knob): the tiling is squared off from the per-cell box count.
SynthField make_grid_field_of_size(int boxes);

// PLA-style planes: vertical poly columns crossing horizontal diffusion
// term rows, with metal output stripes — long thin boxes, the shape that
// stresses the visibility profile hardest.
SynthField make_pla_field(int inputs, int terms);

// Seeded random tile field for property testing: every tile draws one of
// several motifs (single box, fragmented bus, transistor, overlapping
// same-net metal) with jittered geometry and a seeded stretchable mask.
SynthField make_random_field(std::uint32_t seed, int tiles);

// Synthetic leaf-cell library for the §6.1–§6.3 LP path at scale: the
// workload bench_leaf_scaling sweeps and the dense/sparse simplex
// equivalence tests replay. `num_cells` cells of `boxes_per_cell` boxes
// each (jittered two-box rows on rotating layers), chained by North
// interfaces — every cell to itself and to its successor — so one LP
// couples the whole library through 2·num_cells − 1 pitch variables.
// Feasible by construction: each original pitch clears the widest design
// rule, so the initial library is a witness solution.
struct SynthLeafLibrary {
  CellTable cells;
  InterfaceTable interfaces;
  std::vector<std::string> cell_names;
  std::vector<PitchSpec> pitch_specs;
};

SynthLeafLibrary make_leaf_library(int num_cells, int boxes_per_cell, std::uint32_t seed);

// The two-dimensional variant: the same chained library plus one vertical
// self-interface per cell (index 2, y pitch = cell height + clearance), so
// the library tiles as a grid. The y-pitch specs exercise the transposed
// leaf pipeline (compact_leaf_cells_y) and the x/y leaf schedule.
SynthLeafLibrary make_leaf_library_2d(int num_cells, int boxes_per_cell, std::uint32_t seed);

}  // namespace rsg::compact
