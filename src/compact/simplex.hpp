// The linear-programming solver of leaf-cell compaction.
//
// §6.3: the leaf-cell constraint graph "cannot be solved by shortest path
// algorithms such as Bellman Ford because the weights on the edges are not
// all constants ... a simple minded way to solve the system would be to
// convert the graph to a system of linear equations and solve the system
// using a linear programming algorithm like Simplex" — this is that solver.
// One engine sits behind solve_lp:
//
//   minimize  c . x   subject to  sum_j a_ij x_j <= b_i ,  0 <= x <= u
//
// solve_lp runs a BOUNDED-VARIABLE dual simplex from the all-slack basis.
// Every variable carries [0, u_j] bounds (u_j may be +inf), nonbasic
// variables sit at either bound, and a negative-cost column starts nonbasic
// AT ITS UPPER BOUND, which is dual-feasible with no artificial machinery;
// the leaf-compaction objective is componentwise nonnegative, so those LPs
// never run a phase 1. Columns with a negative cost and no finite user
// bound get a large WORKING bound; if the optimum ever rests on a working
// bound the engine DECLINES to the primal path. The ratio test is two-pass
// Harris: pass 1 computes the tolerance-relaxed ratio bound, pass 2 takes
// the largest-magnitude pivot inside it, and a pivot-magnitude floor
// declines rather than admit a near-singular pivot into the factorization.
// The engine also accepts an LpWarmStart basis (a previous solve one bound
// change away), falling back to the cold all-slack start when the carried
// basis is singular or dual-infeasible.
//
// The decline fallback, detail::solve_lp_primal, is a two-phase primal
// revised simplex on the same machinery: a column-major (CSC) constraint
// matrix and a sparse LU basis — Markowitz-ordered elimination at
// refactorization, Forrest–Tomlin updates per pivot, refactorization on
// either a pivot-count interval or measured nnz growth of the factors, and
// hyper-sparse FTRAN/BTRAN that walk only the positions reachable from the
// nonzeros of the right-hand side (LpStats::ftran_rows_skipped measures
// it). It prices Dantzig and switches to Bland's rule after a streak of
// degenerate pivots (anti-cycling), reverting once a pivot makes progress.
// It has no bounded-variable machinery and solves the equivalent
// row-augmented problem (one x_j <= u_j row per finite bound).
//
// The dense two-phase tableau these engines are checked against is a test
// oracle (tests/oracles/dense_tableau.hpp), not part of the library.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace rsg::compact {

// The "no upper bound" sentinel of LpProblem::upper.
inline constexpr double kLpUnbounded = std::numeric_limits<double>::infinity();

struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  // (variable index, coefficient)
  double rhs = 0.0;
};

struct LpProblem {
  int num_vars = 0;
  std::vector<double> objective;  // size num_vars
  std::vector<LpConstraint> constraints;
  // Optional per-variable upper bounds: empty means every variable is
  // unbounded above; otherwise size num_vars with kLpUnbounded for the
  // unbounded entries. The dual engine honors these natively (nonbasic
  // variables may rest at either bound); the primal fallback solves the
  // row-augmented equivalent.
  std::vector<double> upper;
};

struct LpStats {
  int iterations = 0;         // pivots of the AUTHORITATIVE solve, all phases
  int degenerate_pivots = 0;  // pivots with (numerically) zero step
  int bland_pivots = 0;       // pivots taken under the anti-cycling fallback
  int refactorizations = 0;   // fresh LU factorizations
  int nnz_refactorizations = 0;  // the subset triggered by factor nnz growth
                                 // (Forrest–Tomlin fill), not the pivot count
  int phase1_pivots = 0;      // primal: pivots spent reaching feasibility
  int dual_pivots = 0;        // dual-iteration pivots
  int dual_fallbacks = 0;     // 1 when the dual declined and the primal
                              // engine finished the solve
  // A declined dual attempt's work is reported HERE, not folded into the
  // primal totals above: after a DECLINE->primal fallback, `iterations` /
  // `refactorizations` / `wall_ms` describe the primal solve alone and the
  // abandoned attempt is accounted separately (pinned by sparse_simplex_test).
  int declined_dual_pivots = 0;
  int declined_refactorizations = 0;
  double declined_wall_ms = 0.0;
  double wall_ms = 0.0;  // wall time of the authoritative solve
  // Warm starts: attempts = an LpWarmStart handle with matching
  // shape was offered; accepted = its basis factorized nonsingular AND
  // priced dual-feasible, so the solve continued from it instead of the
  // cold all-slack start.
  int warm_attempted = 0;
  int warm_accepted = 0;
  // Hyper-sparse FTRAN telemetry: total upper-triangular positions across
  // every FTRAN, and how many the graph-ordered solve never touched. The
  // skip ratio (skipped / rows) is what bench_leaf_scaling publishes per
  // library size.
  long long ftran_rows = 0;
  long long ftran_rows_skipped = 0;

  // Field-wise sum — the single merge point for the leaf schedule's
  // per-pass accumulation, so a future counter cannot be threaded through
  // one site and missed in another.
  LpStats& operator+=(const LpStats& other) {
    iterations += other.iterations;
    degenerate_pivots += other.degenerate_pivots;
    bland_pivots += other.bland_pivots;
    refactorizations += other.refactorizations;
    nnz_refactorizations += other.nnz_refactorizations;
    phase1_pivots += other.phase1_pivots;
    dual_pivots += other.dual_pivots;
    dual_fallbacks += other.dual_fallbacks;
    declined_dual_pivots += other.declined_dual_pivots;
    declined_refactorizations += other.declined_refactorizations;
    declined_wall_ms += other.declined_wall_ms;
    wall_ms += other.wall_ms;
    warm_attempted += other.warm_attempted;
    warm_accepted += other.warm_accepted;
    ftran_rows += other.ftran_rows;
    ftran_rows_skipped += other.ftran_rows_skipped;
    return *this;
  }
};

struct LpSolution {
  bool feasible = false;
  bool bounded = true;
  std::vector<double> x;
  double objective = 0.0;
  LpStats stats;
};

// A basis carried from one dual solve into the next — the warm-start
// contract of the leaf schedule's per-round re-solves (round k's optimal
// basis is one bound change from round k+1's). The handle is OPAQUE state:
// callers only construct an empty one, pass it to consecutive solves over
// structurally-identical problems, and let the engine manage it. The engine
// accepts the carried basis only when the problem shape matches AND the
// basis factorizes nonsingular AND it prices dual-feasible; anything else
// falls back to the cold all-slack start (LpStats::warm_attempted/accepted
// tell the two apart). A solve that DECLINES to the primal engine clears
// the handle, so a stale basis can never leak into a later round.
struct LpWarmStart {
  std::vector<int> basis;               // slot -> column (structural or slack)
  std::vector<unsigned char> at_upper;  // nonbasic-at-upper flags, per column
  int num_vars = 0;                     // shape stamp: structural variables
  int num_rows = 0;                     //   and constraint rows
  bool valid() const { return num_rows > 0 && static_cast<int>(basis.size()) == num_rows; }
  void clear() {
    basis.clear();
    at_upper.clear();
    num_vars = 0;
    num_rows = 0;
  }
};

// Solves `problem` with the dual engine, declining to the primal engine
// where the dual cannot certify its answer (LpStats::dual_fallbacks). `warm`
// (optional) carries the optimal basis between consecutive solves of
// structurally-identical problems; see LpWarmStart for the acceptance
// contract. Throws rsg::Error on malformed problems (size mismatches,
// out-of-range variable indices).
LpSolution solve_lp(const LpProblem& problem, LpWarmStart* warm = nullptr);

// After this many consecutive degenerate pivots the primal engine (and the
// dense test oracle) switch from Dantzig to Bland pricing until a pivot
// makes progress. Exposed so the anti-cycling regression tests can reason
// about when the guard engages.
inline constexpr int kDegeneratePivotStreak = 12;

namespace detail {
// Throws rsg::Error unless the objective (and a non-empty `upper`) has
// num_vars entries.
void check_problem_shape(const LpProblem& problem);

// True when LpProblem::upper carries at least one finite bound.
bool has_finite_upper(const LpProblem& problem);

// The row-augmented equivalent: `upper` cleared, one x_j <= u_j constraint
// appended per finite bound (identical optimum, identical x).
LpProblem upper_bounds_as_rows(const LpProblem& problem);

// The primal engine on its own — the dual's decline fallback. Public so the
// LP test corpus can check it against the dense oracle directly; the
// library always calls solve_lp.
LpSolution solve_lp_primal(const LpProblem& problem);
}  // namespace detail

}  // namespace rsg::compact
