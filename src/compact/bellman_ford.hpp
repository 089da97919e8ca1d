// Constraint solving by Bellman–Ford relaxation (§6.4.2).
//
// Assigns each variable the LOWEST abscissa satisfying all constraints —
// pushing "all the objects in a layout as much to the left as they can go".
// Pitch terms must be fixed before solving (leaf compaction uses the LP
// solver instead); this solver rejects systems with free pitch variables.
//
// §6.4.2's observation is reproduced exactly: traversing edges sorted by
// the initial abscissa of their source makes the initial ordering a good
// estimate of the final one, and "in the case where the initial ordering is
// preserved in the final layout exactly one relaxation step is required
// instead of the |V| required in the worst case" — bench_t642_bellman
// counts the passes both ways.
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"

namespace rsg::compact {

struct SolveStats {
  int passes = 0;                 // full sweeps over the edge list
  std::size_t relaxations = 0;    // individual successful tightenings
  std::size_t pops = 0;           // worklist solvers: variables dequeued
  bool converged = false;
  // Warm start (the incremental x/y schedule seeds each round's solve from
  // the previous round's coordinates). `warm_accepted` means the seeded
  // fixpoint was verified as the exact least (greatest) solution;
  // `warm_pops_saved` counts the variables whose seeded value survived to
  // the solution — work a cold solve would have spent raising them from the
  // source distance. A rejected warm start falls back to the cold path, so
  // the returned values are always the exact extreme solution.
  bool warm_attempted = false;
  bool warm_accepted = false;
  std::size_t warm_pops_saved = 0;
};

enum class EdgeOrder {
  kSorted,     // by the source variable's initial abscissa (§6.4.2)
  kInsertion,  // as generated
  kReversed,   // adversarial: worst case for the relaxation count
};

// The pass-based solver: full edge-list sweeps in `order` until fixpoint —
// the §6.4.2 baseline whose pass count bench_t642_bellman reports. Solves
// into system.values. Throws rsg::Error on infeasible systems (a positive
// cycle — the layout cannot satisfy its own constraints).
SolveStats solve_leftmost(ConstraintSystem& system, EdgeOrder order = EdgeOrder::kSorted);

// The worklist (SPFA-style) solvers every compaction path runs: after one
// seeding sweep in §6.4.2's sorted order (by the source's initial abscissa;
// descending sink abscissa for the rightmost dual), only the out-edges
// (in-edges for the dual) of variables whose value changed are revisited,
// so sparse updates stop touching the whole edge list. The least solution
// is unique, so the values are identical to solve_leftmost's; infeasible
// systems throw the same rsg::Error. The rightmost variant computes the
// greatest solution subject to every variable <= width (the rubber-band
// pass's slack intervals).
//
// `warm_seed` (optional, size == variable_count) warm-starts the solve from
// a previous solution instead of the source distance: the values are seeded
// (clamped into the feasible half-line), raised (lowered) to a fixpoint by
// the worklist, and the fixpoint is then VERIFIED as the least (greatest)
// solution by walking tight constraints from the anchors — any solution is
// an upper (lower) bound on the extreme solution, so tight-chain support
// for every variable proves exactness. A seed that fails verification
// falls back to the cold solve, so warm starting never changes the result,
// only the work (SolveStats reports the outcome).
SolveStats solve_leftmost_worklist(ConstraintSystem& system,
                                   const std::vector<Coord>* warm_seed = nullptr);
SolveStats solve_rightmost_worklist(ConstraintSystem& system, Coord width,
                                    std::vector<Coord>& upper_bounds,
                                    const std::vector<Coord>* warm_seed = nullptr);

}  // namespace rsg::compact
