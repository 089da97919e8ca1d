// Leaf-cell compaction (§6.1–§6.3) — the thesis's proposal for making the
// RSG technology-transportable.
//
// Instead of compacting assembled structures, compact the LIBRARY: the
// unknowns are the vertical box edges of each leaf cell plus one pitch
// variable λ per interface, and every instance of a cell shares one set of
// edge variables. Inter-cell constraints generated from an interface's pair
// layout fold through λ exactly as Figure 6.3 prescribes (the edge
// "4 -> 1' weighted z4" becomes "4 -> 1 weighted z4 - λa"), which both
// shrinks the unknown count (8 -> 5 in the figure's example) and forces all
// instances of a cell to share one geometry. Because edge weights now
// contain λ, Bellman–Ford no longer applies and the system is solved as a
// linear program (§6.3) with a user cost function over the pitches —
// weighted by expected replication factors, not by cell sizes (§6.2).
//
// The pipeline is split so the LP scaling benchmark and the LP equivalence
// tests can hold the model fixed: build_leaf_lp() assembles the shared
// constraint system (the scan-line generator, one batch per cell and per
// interface pair layout) and its LP view;
// solve_leaf_model() runs solve_lp (compact/simplex.hpp), rounds,
// verifies, and rebuilds the geometry; compact_leaf_cells() is the two
// chained. The compaction objective is emitted componentwise nonnegative
// precisely so solve_lp's dual engine can skip phase 1.
//
// Restrictions (documented §6.3 scope): compaction is one-dimensional in x;
// interfaces must be North-oriented with positive x pitch; leaf-cell boxes
// must sit at non-negative local x. compact_leaf_cells_y lifts the
// one-dimensionality the same way the flat path does — transpose the
// library, compact in x, transpose back — with the mirrored restrictions
// (positive y pitch, non-negative local y); compact_leaf_schedule
// alternates the two into a leaf-aware x/y round.
//
// This is a library, not a pipeline stage: the generator's `.compact:xy`
// directive runs the flat schedule (compact/xy_schedule.hpp), and no
// product header includes this one. compaction_demo and the Chapter 6
// figure benchmarks call it directly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "compact/constraint_graph.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/simplex.hpp"
#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"

namespace rsg::compact {

struct PitchSpec {
  std::string cell_a;
  std::string cell_b;
  int interface_index = 1;
  // The cost weight of this pitch — "based on empirical estimates of what n
  // and m are expected to be" (§6.2). Larger = replicated more often.
  double replication_weight = 1.0;
};

struct LeafResult {
  // Compacted geometry per cell (x recomputed, y untouched).
  std::map<std::string, std::vector<LayerBox>> cells;
  // New pitch per PitchSpec, parallel to the input vector. Only the x
  // component is optimized; pitch_y preserves each interface's original y
  // offset for library reconstruction.
  std::vector<Coord> pitches;
  std::vector<Coord> original_pitches;
  std::vector<Coord> pitch_y;

  std::size_t variable_count = 0;           // folded: edges + pitches
  std::size_t unfolded_variable_count = 0;  // what per-instance edges would need
  std::size_t constraint_count = 0;
  double objective = 0.0;
  LpStats lp_stats;
  // Set by compact_leaf_cells_y: `pitches` are then the optimized Y pitches
  // and `pitch_y` the untouched x components. make_compacted_library and
  // its _y twin check it, so a result cannot be rebuilt axis-swapped.
  bool y_axis = false;
};

// One cell's shared edge variables and local geometry inside a LeafLpModel.
struct LeafCellVars {
  std::vector<LayerBox> boxes;
  std::vector<int> left_vars;   // per box
  std::vector<int> right_vars;
};

// The assembled leaf-compaction model: the folded constraint system, its LP
// view (objective + gauge pins included), and the bookkeeping needed to
// turn an LP solution back into a library.
struct LeafLpModel {
  ConstraintSystem system;
  LpProblem lp;
  std::map<std::string, LeafCellVars> cells;
  std::vector<int> pitch_ids;  // per PitchSpec
  std::vector<Coord> original_pitches;
  std::vector<Coord> pitch_y;
  std::size_t unfolded_variable_count = 0;
};

// `cell_names` lists the leaf cells whose geometry may change; every
// PitchSpec's interface must exist in `interfaces`. Boxes listed in
// `stretchable_layers` may shrink to minimum width (buses); all other boxes
// are rigid (devices).
LeafLpModel build_leaf_lp(const CellTable& cells, const InterfaceTable& interfaces,
                          const std::vector<std::string>& cell_names,
                          const std::vector<PitchSpec>& pitch_specs, const CompactionRules& rules,
                          double width_weight = 1e-3,
                          const std::vector<Layer>& stretchable_layers = {});

// Solves the model with solve_lp, rounds to the integer grid (relaxing
// pitches upward if rounding broke a constraint), and rebuilds the
// per-cell geometry. Throws rsg::Error on infeasible systems.
//
// `warm` (optional) carries the optimal basis from one solve of a
// structurally-identical model into the next — the leaf schedule's
// per-round re-solves are one bound change apart, so round k's
// basis is usually dual-feasible for round k+1 and the re-solve skips most
// of its pivots. Pass an empty LpWarmStart on the first call and the SAME
// handle on every subsequent one; the engine falls back to a cold start
// (and reports it in LpStats::warm_attempted/warm_accepted) whenever the
// carried basis is stale, singular, or dual-infeasible.
LeafResult solve_leaf_model(const LeafLpModel& model, LpWarmStart* warm = nullptr);

// build_leaf_lp + solve_leaf_model.
LeafResult compact_leaf_cells(const CellTable& cells, const InterfaceTable& interfaces,
                              const std::vector<std::string>& cell_names,
                              const std::vector<PitchSpec>& pitch_specs,
                              const CompactionRules& rules, double width_weight = 1e-3,
                              const std::vector<Layer>& stretchable_layers = {},
                              LpWarmStart* warm = nullptr);

// Leaf y-compaction by the flat path's transposition trick: transpose every
// cell's geometry and every spec'd interface vector, run the x pipeline,
// transpose back. Mirrored restrictions: interfaces need a POSITIVE Y
// pitch and boxes non-negative local y. In the result, `pitches` are the
// optimized y pitches and `pitch_y` carries each interface's untouched x
// component (the exact mirror of the x path's bookkeeping).
LeafResult compact_leaf_cells_y(const CellTable& cells, const InterfaceTable& interfaces,
                                const std::vector<std::string>& cell_names,
                                const std::vector<PitchSpec>& pitch_specs,
                                const CompactionRules& rules, double width_weight = 1e-3,
                                const std::vector<Layer>& stretchable_layers = {},
                                LpWarmStart* warm = nullptr);

// Rebuilds a fresh cell table + interface table from a compaction result —
// "after the compaction is completed, it is possible to build a new sample
// layout for the new technology ... from the new cell definitions of the
// leaf cells and the new pitch parameters" (§6.3). Axis-checked: the plain
// variant takes an x result, the _y variant a compact_leaf_cells_y result
// (whose pitch bookkeeping is mirrored); feeding either the wrong axis
// throws instead of silently declaring component-swapped interfaces.
void make_compacted_library(const LeafResult& result, const std::vector<PitchSpec>& pitch_specs,
                            CellTable& out_cells, InterfaceTable& out_interfaces);
void make_compacted_library_y(const LeafResult& result, const std::vector<PitchSpec>& pitch_specs,
                              CellTable& out_cells, InterfaceTable& out_interfaces);

// --- the leaf-aware x/y round ----------------------------------------------
//
// The alternating schedule of compact/xy_schedule.hpp applied to the
// library: compact_leaf_schedule alternates compact_leaf_cells (x) with
// compact_leaf_cells_y over a pitch-spec list partitioned by axis — specs
// with a positive x pitch feed the x pass, specs with a positive y pitch
// the y pass, both-positive specs feed both — rebuilding the library
// between passes until a round leaves every pitch and objective unchanged.

struct LeafXyOptions {
  // Hard cap; each round is one x pass (compact_leaf_cells) followed by one
  // y pass (compact_leaf_cells_y). Leaf rounds converge much faster than
  // flat ones — the library couples globally through the pitches — so the
  // default cap is small.
  int max_rounds = 4;
  bool stop_when_converged = true;
  double width_weight = 1e-3;
  std::vector<Layer> stretchable_layers;
  // Carry each axis's optimal basis into the next round's solve.
  // Consecutive rounds of one axis are structurally identical LPs a few
  // bound changes apart, so the carried basis usually prices dual-feasible
  // and the re-solve spends a fraction of a cold start's pivots
  // (LeafRoundStats::{x,y}_lp.warm_accepted says when it held; the engine
  // cold-starts on its own whenever it does not). The solved objective is
  // identical either way — only the pivot path (and, on LPs with tied
  // optima, which optimal vertex reports) changes.
  bool warm_start = true;
};

// Per-round LP telemetry — the leaf analogue of RoundStats, reported by
// compaction_demo and asserted by the leaf schedule tests.
struct LeafRoundStats {
  int round = 0;   // 1-based
  bool x_ran = false;  // false when the round had no specs on that axis
  bool y_ran = false;
  LpStats x_lp;
  LpStats y_lp;
  double x_objective = 0.0;
  double y_objective = 0.0;
};

struct LeafXyResult {
  // The compacted library: cell geometry plus every spec'd interface with
  // both axis components updated — ready to serve as the next technology's
  // sample library (§6.3).
  CellTable cells;
  InterfaceTable interfaces;
  int rounds = 0;
  // A round left every pitch vector unchanged and neither axis improved
  // its objective (box positions may still wander inside the tied optimal
  // face — each pass's tie-break depends on the other axis's coordinates,
  // so pitch/objective stability IS the schedule's fixpoint).
  bool converged = false;
  LpStats lp_total;        // summed over every pass of every round
  std::vector<LeafRoundStats> round_stats;
};

// Alternates leaf x and y compaction to a library fixpoint. Every spec must
// have a positive pitch on at least one axis; specs positive on both feed
// both passes (the y pass re-optimizes y under the x pass's fresh pitches).
// Throws rsg::Error on infeasible systems, like the underlying compactors.
LeafXyResult compact_leaf_schedule(const CellTable& cells, const InterfaceTable& interfaces,
                                   const std::vector<std::string>& cell_names,
                                   const std::vector<PitchSpec>& pitch_specs,
                                   const CompactionRules& rules,
                                   const LeafXyOptions& options = {});

}  // namespace rsg::compact
