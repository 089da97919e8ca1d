#include "compact/leaf_compactor.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "compact/flat_compactor.hpp"  // transposed_boxes
#include "layout/flatten.hpp"
#include "support/error.hpp"

namespace rsg::compact {

namespace {

bool layer_in(const std::vector<Layer>& layers, Layer layer) {
  return std::find(layers.begin(), layers.end(), layer) != layers.end();
}

struct BatchVars {
  std::vector<bool> stretchable;  // per box
};

// The §6.3 rewrite of a (pitched) constraint system into its LP: each
// constraint X_to - X_from + k·λ >= w becomes the row
// X_from - X_to - k·λ <= -w over nonnegative unknowns, with edge variable v
// in column v and pitch p in column variable_count + p. The objective is
// zero — build_leaf_lp weights pitches and widths. kAnchor rows against
// the origin with non-positive weight are dropped: X >= 0 is implicit.
LpProblem system_to_lp(const ConstraintSystem& system) {
  const int num_edges = static_cast<int>(system.variable_count());
  LpProblem lp;
  lp.num_vars = num_edges + static_cast<int>(system.pitch_count());
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (const Constraint& c : system.constraints()) {
    if (c.from < 0 && c.weight <= 0) continue;
    LpConstraint row;
    if (c.from >= 0) row.terms.emplace_back(c.from, 1.0);
    row.terms.emplace_back(c.to, -1.0);
    if (c.pitch >= 0) row.terms.emplace_back(num_edges + c.pitch, -c.pitch_coeff);
    row.rhs = -static_cast<double>(c.weight);
    lp.constraints.push_back(std::move(row));
  }
  return lp;
}

std::vector<CompactionBox> cell_batch(const LeafCellVars& cv,
                                      const std::vector<bool>& stretchable) {
  std::vector<CompactionBox> batch;
  batch.reserve(cv.boxes.size());
  for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
    CompactionBox cb;
    cb.geometry = cv.boxes[b];
    cb.left_var = cv.left_vars[b];
    cb.right_var = cv.right_vars[b];
    cb.stretchable = stretchable[b];
    batch.push_back(cb);
  }
  return batch;
}

}  // namespace

LeafLpModel build_leaf_lp(const CellTable& cells, const InterfaceTable& interfaces,
                          const std::vector<std::string>& cell_names,
                          const std::vector<PitchSpec>& pitch_specs, const CompactionRules& rules,
                          double width_weight, const std::vector<Layer>& stretchable_layers) {
  LeafLpModel model;
  ConstraintSystem& system = model.system;
  std::map<std::string, BatchVars> batch_vars;

  // One shared set of edge variables per CELL — the folding that forces
  // "all instances of a cell A in the final layout [to] have exactly the
  // same geometry" (§6.1).
  for (const std::string& name : cell_names) {
    const Cell& cell = cells.get(name);
    LeafCellVars cv;
    BatchVars bv;
    cv.boxes = flatten_boxes(cell);
    if (cv.boxes.empty()) throw Error("leaf compaction: cell '" + name + "' has no geometry");
    for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
      const Box& box = cv.boxes[b].box;
      if (box.lo.x < 0) {
        throw Error("leaf compaction: cell '" + name +
                    "' has boxes at negative local x; shift the cell first");
      }
      cv.left_vars.push_back(system.add_variable(name + ".L" + std::to_string(b), box.lo.x));
      cv.right_vars.push_back(system.add_variable(name + ".R" + std::to_string(b), box.hi.x));
      bv.stretchable.push_back(layer_in(stretchable_layers, cv.boxes[b].layer));
    }
    model.cells.emplace(name, std::move(cv));
    batch_vars.emplace(name, std::move(bv));
  }

  // Intra-cell constraints (Fig 6.3's solid edges).
  for (const std::string& name : cell_names) {
    std::vector<CompactionBox> batch =
        cell_batch(model.cells.at(name), batch_vars.at(name).stretchable);
    generate_constraints(system, batch, rules);
  }

  // Pitch variables + inter-cell constraints from each interface's pair
  // layout (Fig 6.3's arc edges, folded through λ).
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    const PitchSpec& spec = pitch_specs[s];
    const Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (!(iface.orientation == Orientation::kNorth)) {
      throw Error("leaf compaction handles North-oriented interfaces only (1-D model)");
    }
    if (iface.vector.x <= 0) {
      throw Error("leaf compaction requires a positive x pitch between '" + spec.cell_a +
                  "' and '" + spec.cell_b + "'");
    }
    const int pitch = system.add_pitch("lambda." + spec.cell_a + "." + spec.cell_b + "#" +
                                           std::to_string(spec.interface_index),
                                       iface.vector.x);
    model.pitch_ids.push_back(pitch);
    model.original_pitches.push_back(iface.vector.x);
    model.pitch_y.push_back(iface.vector.y);

    const LeafCellVars& cva = model.cells.at(spec.cell_a);
    const LeafCellVars& cvb = model.cells.at(spec.cell_b);
    model.unfolded_variable_count += 2 * (cva.boxes.size() + cvb.boxes.size());

    // Pair layout: A at the origin (coeff 0), B at (λ, V.y) (coeff 1).
    // Instance copies SHARE the cell variables; the scan line then emits
    // inter-cell constraints already folded through λ.
    std::vector<CompactionBox> pair =
        cell_batch(cva, batch_vars.at(spec.cell_a).stretchable);
    for (std::size_t b = 0; b < cvb.boxes.size(); ++b) {
      CompactionBox cb;
      cb.geometry = cvb.boxes[b];
      cb.geometry.box = cb.geometry.box.translated({iface.vector.x, iface.vector.y});
      cb.left_var = cvb.left_vars[b];
      cb.right_var = cvb.right_vars[b];
      cb.stretchable = batch_vars.at(spec.cell_b).stretchable[b];
      cb.pitch = pitch;
      cb.pitch_coeff = 1;
      pair.push_back(cb);
    }
    generate_constraints(system, pair, rules);
  }

  // LP: minimize Σ weight_s λ_s + width_weight Σ (R - L), subject to the
  // constraint system rewritten as  X_from - X_to - k λ <= -w  with all
  // variables >= 0. The width term is carried by one auxiliary column per
  // box — W >= R - L with cost +width_weight — instead of the literal
  // +R/-L cost pair: at any optimum W = R - L so the value is identical,
  // but the objective stays COMPONENTWISE NONNEGATIVE, which is what makes
  // the all-slack basis dual-feasible and lets solve_lp's dual engine skip
  // phase 1 outright (a -width_weight left-edge cost would start every left
  // edge at a working upper bound instead).
  model.lp = system_to_lp(system);
  const int num_edges = static_cast<int>(system.variable_count());
  for (const std::string& name : cell_names) {
    const LeafCellVars& cv = model.cells.at(name);
    for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
      const int width_col = model.lp.num_vars++;
      model.lp.objective.push_back(width_weight);
      LpConstraint width;  // R - L - W <= 0
      width.terms.emplace_back(cv.right_vars[b], 1.0);
      width.terms.emplace_back(cv.left_vars[b], -1.0);
      width.terms.emplace_back(width_col, -1.0);
      width.rhs = 0.0;
      model.lp.constraints.push_back(std::move(width));
    }
  }
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    model.lp.objective[static_cast<std::size_t>(num_edges + model.pitch_ids[s])] +=
        pitch_specs[s].replication_weight;
  }

  // Gauge fixing: pin each cell's originally-leftmost edge to x = 0. A
  // cell's frame (origin) is otherwise a free gauge the LP would exploit —
  // drifting a cell's content rightward relative to its origin shrinks an
  // incoming pitch without shrinking the physical layout. Pinning the
  // leftmost box keeps origin-to-content offsets honest; the combination
  // with the implicit X >= 0 makes it an equality.
  for (const std::string& name : cell_names) {
    const LeafCellVars& cv = model.cells.at(name);
    std::size_t leftmost = 0;
    for (std::size_t b = 1; b < cv.boxes.size(); ++b) {
      if (cv.boxes[b].box.lo.x < cv.boxes[leftmost].box.lo.x) leftmost = b;
    }
    LpConstraint pin;
    pin.terms.emplace_back(cv.left_vars[leftmost], 1.0);
    pin.rhs = 0.0;
    model.lp.constraints.push_back(std::move(pin));
  }
  return model;
}

LeafResult solve_leaf_model(const LeafLpModel& model, LpWarmStart* warm) {
  LeafResult result;
  result.original_pitches = model.original_pitches;
  result.pitch_y = model.pitch_y;
  result.variable_count = model.system.variable_count() + model.system.pitch_count();
  result.unfolded_variable_count = model.unfolded_variable_count;
  result.constraint_count = model.system.constraint_count();

  const LpSolution solution = solve_lp(model.lp, warm);
  result.lp_stats = solution.stats;
  if (!solution.feasible) throw Error("leaf compaction: constraint system infeasible");
  if (!solution.bounded) throw Error("leaf compaction: objective unbounded (missing anchors)");
  result.objective = solution.objective;

  // Round and verify. Edge positions round to nearest; a failed
  // verification relaxes the pitches upward (always feasible for spacing-
  // style systems) before giving up.
  ConstraintSystem system = model.system;
  const std::size_t num_edges = system.variable_count();
  for (std::size_t v = 0; v < num_edges; ++v) {
    system.values[v] = static_cast<Coord>(std::llround(solution.x[v]));
  }
  for (std::size_t p = 0; p < system.pitch_count(); ++p) {
    system.pitch_values[p] = static_cast<Coord>(std::llround(solution.x[num_edges + p]));
  }
  for (int attempt = 0; attempt < 4 && !system.satisfied(); ++attempt) {
    for (Coord& pitch : system.pitch_values) ++pitch;
  }
  if (!system.satisfied()) {
    throw Error("leaf compaction: rounding produced an infeasible layout");
  }

  for (const auto& [name, cv] : model.cells) {
    std::vector<LayerBox> out;
    for (std::size_t b = 0; b < cv.boxes.size(); ++b) {
      const Coord left = system.values[static_cast<std::size_t>(cv.left_vars[b])];
      const Coord right = system.values[static_cast<std::size_t>(cv.right_vars[b])];
      out.push_back(
          {cv.boxes[b].layer, Box(left, cv.boxes[b].box.lo.y, right, cv.boxes[b].box.hi.y)});
    }
    result.cells.emplace(name, std::move(out));
  }
  for (const int pitch_id : model.pitch_ids) {
    result.pitches.push_back(system.pitch_values[static_cast<std::size_t>(pitch_id)]);
  }
  return result;
}

LeafResult compact_leaf_cells(const CellTable& cells, const InterfaceTable& interfaces,
                              const std::vector<std::string>& cell_names,
                              const std::vector<PitchSpec>& pitch_specs,
                              const CompactionRules& rules, double width_weight,
                              const std::vector<Layer>& stretchable_layers,
                              LpWarmStart* warm) {
  return solve_leaf_model(build_leaf_lp(cells, interfaces, cell_names, pitch_specs, rules,
                                        width_weight, stretchable_layers),
                          warm);
}

LeafResult compact_leaf_cells_y(const CellTable& cells, const InterfaceTable& interfaces,
                                const std::vector<std::string>& cell_names,
                                const std::vector<PitchSpec>& pitch_specs,
                                const CompactionRules& rules, double width_weight,
                                const std::vector<Layer>& stretchable_layers,
                                LpWarmStart* warm) {
  // Transpose the library: every cell's flattened geometry axis-swapped,
  // every spec'd interface's pitch vector component-swapped. The mirrored
  // preconditions are checked HERE so the errors name the y axis instead
  // of surfacing as confusing transposed-x complaints.
  CellTable tcells;
  for (const std::string& name : cell_names) {
    const std::vector<LayerBox> flat = flatten_boxes(cells.get(name));
    for (const LayerBox& lb : flat) {
      if (lb.box.lo.y < 0) {
        throw Error("leaf y-compaction: cell '" + name +
                    "' has boxes at negative local y; shift the cell first");
      }
    }
    Cell& tcell = tcells.create(name);
    for (const LayerBox& lb : transposed_boxes(flat)) tcell.add_box(lb.layer, lb.box);
  }
  InterfaceTable tinterfaces;
  for (const PitchSpec& spec : pitch_specs) {
    const Interface iface = interfaces.get(spec.cell_a, spec.cell_b, spec.interface_index);
    if (iface.vector.y <= 0) {
      throw Error("leaf y-compaction requires a positive y pitch between '" + spec.cell_a +
                  "' and '" + spec.cell_b + "'");
    }
    tinterfaces.declare(spec.cell_a, spec.cell_b, spec.interface_index,
                        Interface{{iface.vector.y, iface.vector.x}, iface.orientation});
  }

  LeafResult result = compact_leaf_cells(tcells, tinterfaces, cell_names, pitch_specs, rules,
                                         width_weight, stretchable_layers, warm);
  // Transpose back: x in the solved frame is y in the caller's. The pitch
  // bookkeeping already reads correctly — `pitches` carries the optimized
  // (transposed-x = real-y) values, `pitch_y` the untouched x components.
  for (auto& [name, boxes] : result.cells) boxes = transposed_boxes(boxes);
  result.y_axis = true;
  return result;
}

void make_compacted_library(const LeafResult& result, const std::vector<PitchSpec>& pitch_specs,
                            CellTable& out_cells, InterfaceTable& out_interfaces) {
  if (result.y_axis) {
    throw Error(
        "make_compacted_library: result came from compact_leaf_cells_y — use "
        "make_compacted_library_y (its pitch bookkeeping is axis-mirrored)");
  }
  for (const auto& [name, boxes] : result.cells) {
    Cell& cell = out_cells.create(name);
    for (const LayerBox& lb : boxes) cell.add_box(lb.layer, lb.box);
  }
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    const PitchSpec& spec = pitch_specs[s];
    out_interfaces.declare(spec.cell_a, spec.cell_b, spec.interface_index,
                           Interface{{result.pitches[s], result.pitch_y[s]},
                                     Orientation::kNorth});
  }
}

void make_compacted_library_y(const LeafResult& result, const std::vector<PitchSpec>& pitch_specs,
                              CellTable& out_cells, InterfaceTable& out_interfaces) {
  if (!result.y_axis) {
    throw Error(
        "make_compacted_library_y: result came from an x compaction — use "
        "make_compacted_library");
  }
  for (const auto& [name, boxes] : result.cells) {
    Cell& cell = out_cells.create(name);
    for (const LayerBox& lb : boxes) cell.add_box(lb.layer, lb.box);
  }
  for (std::size_t s = 0; s < pitch_specs.size(); ++s) {
    const PitchSpec& spec = pitch_specs[s];
    // Mirrored bookkeeping: `pitches` are the optimized y values, `pitch_y`
    // the untouched x components.
    out_interfaces.declare(spec.cell_a, spec.cell_b, spec.interface_index,
                           Interface{{result.pitch_y[s], result.pitches[s]},
                                     Orientation::kNorth});
  }
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
                                              options.stretchable_layers, warm_x_ptr);
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
                                                options.stretchable_layers, warm_y_ptr);
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
