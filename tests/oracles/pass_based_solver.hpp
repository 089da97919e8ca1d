// The pass-based rightmost longest-path solver — the reference the worklist
// solver of compact/bellman_ford.hpp is checked against
// (compact_scaling_test). Test-only: nothing in src/ calls it.
#pragma once

#include <vector>

#include "compact/bellman_ford.hpp"

namespace rsg::compact::oracle {

// The greatest solution subject to every variable <= width, by full
// edge-list sweeps until fixpoint. Same contract as
// solve_rightmost_worklist without a warm seed; throws rsg::Error on a
// positive cycle.
SolveStats solve_rightmost_pass_based(ConstraintSystem& system, Coord width,
                                      std::vector<Coord>& upper_bounds);

}  // namespace rsg::compact::oracle
