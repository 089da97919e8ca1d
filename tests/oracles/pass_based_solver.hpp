// The pass-based longest-path solvers of §6.4.2: full sweeps over the edge
// list until fixpoint. They are the references the condensed solvers of
// compact/bellman_ford.hpp are checked against (compact_scaling_test,
// longest_path_test), and the baseline whose pass count bench_t642_bellman
// reports. Nothing in src/ calls them.
#pragma once

#include <vector>

#include "compact/bellman_ford.hpp"

namespace rsg::compact::oracle {

enum class EdgeOrder {
  kSorted,     // by the source variable's initial abscissa (§6.4.2)
  kInsertion,  // as generated
  kReversed,   // adversarial: worst case for the relaxation count
};

// The least solution with every variable >= 0, into system.values, by
// full edge-list sweeps in `order`: "in the case where the initial ordering
// is preserved in the final layout exactly one relaxation step is required
// instead of the |V| required in the worst case" (§6.4.2). Throws
// rsg::Error on a positive cycle.
SolveStats solve_leftmost(ConstraintSystem& system, EdgeOrder order = EdgeOrder::kSorted);

// The greatest solution subject to every variable <= width, by full
// edge-list sweeps until fixpoint: the reference for
// solve_rightmost_condensed. Throws rsg::Error on a positive cycle.
SolveStats solve_rightmost_pass_based(ConstraintSystem& system, Coord width,
                                      std::vector<Coord>& upper_bounds);

}  // namespace rsg::compact::oracle
