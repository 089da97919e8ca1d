// The dense two-phase simplex tableau — the reference the LP engine of
// compact/simplex.hpp is checked against (simplex_test, sparse_simplex_test,
// lp_property_test). Test-only: nothing in src/ calls it.
#pragma once

#include "compact/simplex.hpp"

namespace rsg::compact::oracle {

// Same contract as solve_lp: feasible/bounded flags, x and objective, and
// LpStats pivot counters (iterations, degenerate, Bland, phase 1). Throws
// rsg::Error on malformed problems.
LpSolution solve_lp_dense(const LpProblem& problem);

}  // namespace rsg::compact::oracle
