// Constraint solving by longest paths (§6.4.2).
//
// Assigns each variable the LOWEST abscissa satisfying all constraints —
// pushing "all the objects in a layout as much to the left as they can go".
// Pitch terms must be fixed before solving (leaf compaction uses the LP
// solver instead): each constraint's pitch term is read from
// system.pitch_values and folded into its weight.
//
// §6.4.2 sorts the edges by the initial abscissa of their source, so that
// "in the case where the initial ordering is preserved in the final layout
// exactly one relaxation step is required instead of the |V| required in
// the worst case". That pass-based baseline lives in the test support
// library (tests/oracles), where bench_t642_bellman counts its passes.
//
// The condensed solvers every compaction path runs get that one-step bound
// by construction instead of by ordering. A constraint graph is a DAG of
// strongly connected components (SCCs): a rigid box is a 2-cycle (width
// constraints both ways), a connected net a larger one, and everything else
// points one way. Once every SCC feeding a component is final, so is the
// component's input, so one visit per SCC in topological order solves the
// whole system:
//
//   * an iterative Tarjan over the CSR adjacency finds the SCCs; Tarjan
//     emits them sinks first, so they are visited in reverse emission order;
//   * a single-variable SCC is final when visited and just pushes its value
//     along its out-edges (a positive self-loop is infeasible);
//   * a nontrivial SCC is relaxed to its fixpoint by a FIFO queue over its
//     internal edges only, then pushes its values out once.
//
// Positive cycles can only live inside a nontrivial SCC. Each relaxation
// there records the tail that set the value (the predecessor); every `size`
// relaxations the predecessor pointers are walked, and a cycle among them
// proves a positive cycle: around such a cycle each value was set from its
// predecessor's, and the edge that closed it raised its head strictly, so
// the cycle's weight is > 0. Conversely with a positive cycle the values
// grow without bound, while an acyclic predecessor graph bounds every value
// by a simple path — so the walk always finds one. The walk is O(size) per
// `size` relaxations, O(1) amortized per relaxation: an infeasible ring of
// n variables throws after O(n) relaxations, not the O(n · m) of an
// enqueue-count guard.
//
// Without positive cycles the work is O(n + m) plus the FIFO rounds inside
// the nontrivial SCCs, which on layouts are small.
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"

namespace rsg::compact {

struct SolveStats {
  int passes = 0;                 // full sweeps over the edge list (condensed: 1)
  std::size_t relaxations = 0;    // individual successful tightenings
  std::size_t pops = 0;           // condensed solvers: variables visited or dequeued
  bool converged = false;
  // Warm start (the incremental x/y schedule seeds each round's solve from
  // the previous round's coordinates). `warm_accepted` means the seed
  // satisfied every constraint and was proved the exact least solution;
  // `warm_pops_saved` counts the variables with a nonzero seeded value —
  // work a cold solve would have spent raising them from the source
  // distance. A rejected seed falls back to the cold solve, so the returned
  // values are always the exact least solution.
  bool warm_attempted = false;
  bool warm_accepted = false;
  std::size_t warm_pops_saved = 0;
};

// The condensed solver (see the header comment): the least solution with
// every variable >= 0, into system.values. The least solution is unique, so
// the values are identical to the pass-based baseline's; infeasible systems
// throw rsg::Error.
//
// `warm_seed` (optional, size == variable_count) is accepted as the answer
// only when it satisfies every constraint (the X >= 0 floor included) and
// is proved least by walking tight constraints from the anchors: any
// solution bounds the least one from above, and tight-chain support for
// every variable proves equality. Any other seed falls back to the cold
// solve, so warm starting never changes the result, only the work
// (SolveStats reports the outcome).
SolveStats solve_leftmost_condensed(ConstraintSystem& system,
                                    const std::vector<Coord>* warm_seed = nullptr);

// The rightmost dual: the greatest solution subject to every variable
// <= width (the rubber-band pass's slack intervals), into upper_bounds. It
// runs the same kernel on the reversed edges, measuring each variable's
// distance from the width ceiling. Throws the same rsg::Error on a
// positive cycle.
SolveStats solve_rightmost_condensed(ConstraintSystem& system, Coord width,
                                     std::vector<Coord>& upper_bounds);

}  // namespace rsg::compact
