#include "oracles/pass_based_solver.hpp"

#include "support/error.hpp"

namespace rsg::compact::oracle {

SolveStats solve_rightmost_pass_based(ConstraintSystem& system, Coord width,
                                      std::vector<Coord>& upper_bounds) {
  SolveStats stats;
  // Greatest solution with X <= width: start at the ceiling and lower each
  // variable to satisfy X[to] - X[from] >= w as a bound on X[from]:
  // X[from] <= X[to] - w + pitch.
  upper_bounds.assign(system.variable_count(), width);
  const int max_passes = static_cast<int>(system.variable_count()) + 2;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool changed = false;
    for (const Constraint& c : system.constraints()) {
      if (c.from < 0) continue;  // anchors bound from below only
      const Coord pitch =
          c.pitch < 0 ? 0 : c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
      const Coord bound = upper_bounds[static_cast<std::size_t>(c.to)] - c.weight + pitch;
      Coord& from = upper_bounds[static_cast<std::size_t>(c.from)];
      if (from > bound) {
        from = bound;
        ++stats.relaxations;
        changed = true;
      }
    }
    if (!changed) {
      stats.converged = true;
      return stats;
    }
  }
  throw Error("compaction constraints are infeasible (positive cycle)");
}

}  // namespace rsg::compact::oracle
