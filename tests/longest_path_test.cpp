// Adversarial tests for the condensed longest-path solvers
// (compact/bellman_ford.hpp): infeasible rings must be refused after work
// linear in the graph, large zero-weight components must solve exactly,
// self-loops and chains of components with pitched constraints must come
// out right, and a seeded corpus of random systems must agree with the
// pass-based solvers on every value or on the infeasibility verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>

#include "compact/bellman_ford.hpp"
#include "oracles/pass_based_solver.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

// n variables in a ring: v -> v+1 with weight `forward`, the closing edge
// v[n-1] -> v[0] with `closing`, and a `back` edge v+1 -> v.
ConstraintSystem ring(int n, Coord forward, Coord closing, Coord back) {
  ConstraintSystem system;
  for (int i = 0; i < n; ++i) system.add_variable("r" + std::to_string(i), i);
  for (int i = 0; i + 1 < n; ++i) system.add_constraint(i, i + 1, forward, ConstraintKind::kSpacing);
  system.add_constraint(n - 1, 0, closing, ConstraintKind::kSpacing);
  for (int i = 0; i + 1 < n; ++i) system.add_constraint(i + 1, i, back, ConstraintKind::kSpacing);
  return system;
}

// Total distance the solver moved the values from where it starts them.
// Every relaxation moves one integer value at least 1 the same way and
// nothing moves back, so this bounds the relaxations of a solve that threw
// (the solvers work in place; a throw returns no SolveStats).
Coord total_movement(const std::vector<Coord>& values, Coord start) {
  Coord sum = 0;
  for (const Coord x : values) sum += x > start ? x - start : start - x;
  return sum;
}

TEST(LongestPath, InfeasibleRingThrowsAfterLinearWork) {
  // One +1 edge closes a 20,000-variable ring into a positive cycle. An
  // enqueue-count guard needs ~n laps of n relaxations to give up; the
  // predecessor walk must see the cycle within 2 (n + m) relaxations.
  const int n = 20000;
  ConstraintSystem system = ring(n, 0, 1, -5);
  const Coord bound = 2 * static_cast<Coord>(system.variable_count() + system.constraint_count());

  EXPECT_THROW(solve_leftmost_condensed(system), Error);
  EXPECT_GT(total_movement(system.values, 0), 0);
  EXPECT_LE(total_movement(system.values, 0), bound);

  const Coord width = 1000;
  std::vector<Coord> upper;
  EXPECT_THROW(solve_rightmost_condensed(system, width, upper), Error);
  ASSERT_EQ(upper.size(), system.variable_count());
  EXPECT_GT(total_movement(upper, width), 0);
  EXPECT_LE(total_movement(upper, width), bound);
}

TEST(LongestPath, InfeasibleRingIsRefusedWhateverItsStartingValues) {
  // The same verdict when anchors lift some members above the floor before
  // the ring is relaxed, and when the positive edge sits mid-ring.
  const int n = 5000;
  ConstraintSystem system = ring(n, 0, 0, -5);
  system.add_constraint(n / 2, n / 2 + 1, 1, ConstraintKind::kSpacing);
  for (int i = 0; i < n; i += 97) system.add_constraint(-1, i, 3 + i % 11, ConstraintKind::kAnchor);
  EXPECT_THROW(solve_leftmost_condensed(system), Error);
  std::vector<Coord> upper;
  EXPECT_THROW(solve_rightmost_condensed(system, 100, upper), Error);
}

TEST(LongestPath, ZeroWeightComponentSolvesExactly) {
  // A 20,000-variable ring of zero-weight edges both ways is one SCC with
  // a zero cycle: feasible, every member equal. An anchor lifts one member
  // to 7, so all of them are 7; an edge out of the ring to `tail` puts it
  // at 10 and caps the ring at width - 3 from the right.
  const int n = 20000;
  ConstraintSystem system = ring(n, 0, 0, 0);
  system.add_constraint(-1, n / 2, 7, ConstraintKind::kAnchor);
  const int tail = system.add_variable("tail", n);
  system.add_constraint(n / 3, tail, 3, ConstraintKind::kSpacing);
  const Coord edges = static_cast<Coord>(system.variable_count() + system.constraint_count());

  const SolveStats left = solve_leftmost_condensed(system);
  EXPECT_TRUE(left.converged);
  EXPECT_LE(static_cast<Coord>(left.relaxations), 2 * edges);
  for (int i = 0; i < n; ++i) ASSERT_EQ(system.values[static_cast<std::size_t>(i)], 7) << i;
  EXPECT_EQ(system.values[static_cast<std::size_t>(tail)], 10);

  const Coord width = 50;
  std::vector<Coord> upper;
  const SolveStats right = solve_rightmost_condensed(system, width, upper);
  EXPECT_TRUE(right.converged);
  EXPECT_LE(static_cast<Coord>(right.relaxations), 2 * edges);
  for (int i = 0; i < n; ++i) ASSERT_EQ(upper[static_cast<std::size_t>(i)], width - 3) << i;
  EXPECT_EQ(upper[static_cast<std::size_t>(tail)], width);
}

TEST(LongestPath, PositiveSelfLoopThrows) {
  // Alone, and inside a zero-weight 2-cycle.
  for (const bool in_cycle : {false, true}) {
    ConstraintSystem system;
    const int a = system.add_variable("a", 0);
    const int b = system.add_variable("b", 10);
    system.add_constraint(a, b, 4, ConstraintKind::kSpacing);
    if (in_cycle) system.add_constraint(b, a, -4, ConstraintKind::kSpacing);
    system.add_constraint(b, b, 1, ConstraintKind::kSpacing);
    EXPECT_THROW(solve_leftmost_condensed(system), Error) << in_cycle;
    std::vector<Coord> upper;
    EXPECT_THROW(solve_rightmost_condensed(system, 100, upper), Error) << in_cycle;
  }
  // A zero or negative self-loop is no constraint at all.
  ConstraintSystem system;
  const int a = system.add_variable("a", 0);
  system.add_constraint(a, a, 0, ConstraintKind::kSpacing);
  system.add_constraint(a, a, -3, ConstraintKind::kSpacing);
  system.add_constraint(-1, a, 2, ConstraintKind::kAnchor);
  solve_leftmost_condensed(system);
  EXPECT_EQ(system.values[0], 2);
  std::vector<Coord> upper;
  solve_rightmost_condensed(system, 9, upper);
  EXPECT_EQ(upper[0], 9);
}

TEST(LongestPath, ChainOfComponentsWithPitchedConstraints) {
  // Rigid boxes (2-cycles: right = left + width exactly) chained by spacing
  // constraints, some of them pitched (X[to] - X[from] + c * λ >= w with λ
  // fixed). A net ties box c to a free variable, so {c.l, c.r, net} is a
  // 3-variable component in the middle of the chain.
  ConstraintSystem system;
  const int lambda = system.add_pitch("lambda", 0);
  system.pitch_values[static_cast<std::size_t>(lambda)] = 6;
  const auto add_box = [&](const std::string& name, Coord width) {
    const int l = system.add_variable(name + ".l", 0);
    const int r = system.add_variable(name + ".r", 0);
    system.add_constraint(l, r, width, ConstraintKind::kWidth);
    system.add_constraint(r, l, -width, ConstraintKind::kWidth);
    return std::pair<int, int>{l, r};
  };
  const auto pitched = [&](int from, int to, Coord weight, int coeff) {
    Constraint c;
    c.from = from;
    c.to = to;
    c.weight = weight;
    c.pitch = lambda;
    c.pitch_coeff = coeff;
    system.add_constraint(c);
  };
  const auto [a_l, a_r] = add_box("a", 4);
  const auto [b_l, b_r] = add_box("b", 3);
  const auto [c_l, c_r] = add_box("c", 5);
  const auto [d_l, d_r] = add_box("d", 2);
  system.add_constraint(-1, a_l, 1, ConstraintKind::kAnchor);
  system.add_constraint(a_r, b_l, 2, ConstraintKind::kSpacing);  // b.l >= 7
  pitched(b_r, c_l, 10, 1);                                      // c.l >= b.r + 4 = 14
  // The net holds net = c.r + 1 in both directions.
  const int net = system.add_variable("net", 0);
  system.add_constraint(c_r, net, 1, ConstraintKind::kConnect);
  system.add_constraint(net, c_r, -1, ConstraintKind::kConnect);
  pitched(net, d_l, 1, -1);                                      // d.l >= net + 7 = 27
  system.add_constraint(a_l, d_l, 3, ConstraintKind::kSpacing);  // slack

  ConstraintSystem pass = system;
  oracle::solve_leftmost(pass);
  const SolveStats stats = solve_leftmost_condensed(system);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(system.values, pass.values);
  const std::vector<Coord> expected{1, 5, 7, 10, 14, 19, 27, 29, 20};
  EXPECT_EQ(system.values, expected);

  std::vector<Coord> oracle_upper;
  oracle::solve_rightmost_pass_based(pass, 29, oracle_upper);
  std::vector<Coord> upper;
  solve_rightmost_condensed(system, 29, upper);
  EXPECT_EQ(upper, oracle_upper);
  EXPECT_EQ(upper, expected);  // the chain is tight from end to end
}

// A random system: `n` variables, constraints between random endpoints
// (one in eight from the origin) with small weights biased negative so
// both feasible and infeasible systems are common, some of them pitched.
ConstraintSystem random_system(std::mt19937& rng, int n) {
  ConstraintSystem system;
  for (int i = 0; i < n; ++i) system.add_variable("v" + std::to_string(i), i);
  const int pitches = static_cast<int>(rng() % 3);
  for (int p = 0; p < pitches; ++p) {
    system.add_pitch("p" + std::to_string(p), 0);
    system.pitch_values[static_cast<std::size_t>(p)] = static_cast<Coord>(rng() % 9) - 4;
  }
  const int m = static_cast<int>(rng() % static_cast<std::uint32_t>(3 * n + 1));
  for (int e = 0; e < m; ++e) {
    Constraint c;
    c.from = rng() % 8 == 0 ? -1 : static_cast<int>(rng() % static_cast<std::uint32_t>(n));
    c.to = static_cast<int>(rng() % static_cast<std::uint32_t>(n));
    c.weight = static_cast<Coord>(rng() % 13) - 8;
    if (pitches > 0 && rng() % 4 == 0) {
      c.pitch = static_cast<int>(rng() % static_cast<std::uint32_t>(pitches));
      c.pitch_coeff = rng() % 2 == 0 ? 1 : -1;
    }
    system.add_constraint(c);
  }
  return system;
}

TEST(LongestPath, RandomCorpusMatchesPassBasedSolvers) {
  // Equal values or the same infeasibility verdict, in both directions,
  // against the pass-based leftmost solver and the rightmost oracle. Every
  // feasible system is also re-solved from a random warm seed and from its
  // exact solution: the seed may change the work, never the answer.
  std::mt19937 rng(20250617);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const int n = trial % 10 == 0 ? 40 + static_cast<int>(rng() % 160)
                                   : 1 + static_cast<int>(rng() % 12);
    const ConstraintSystem system = random_system(rng, n);

    ConstraintSystem pass = system;
    ConstraintSystem condensed = system;
    bool pass_threw = false;
    bool condensed_threw = false;
    try {
      oracle::solve_leftmost(pass);
    } catch (const Error&) {
      pass_threw = true;
    }
    try {
      solve_leftmost_condensed(condensed);
    } catch (const Error&) {
      condensed_threw = true;
    }
    ASSERT_EQ(pass_threw, condensed_threw) << "trial " << trial;

    const Coord width =
        pass_threw ? 40 : *std::max_element(pass.values.begin(), pass.values.end());
    std::vector<Coord> pass_upper;
    std::vector<Coord> condensed_upper;
    bool pass_upper_threw = false;
    bool condensed_upper_threw = false;
    try {
      oracle::solve_rightmost_pass_based(pass, width, pass_upper);
    } catch (const Error&) {
      pass_upper_threw = true;
    }
    try {
      solve_rightmost_condensed(condensed, width, condensed_upper);
    } catch (const Error&) {
      condensed_upper_threw = true;
    }
    ASSERT_EQ(pass_upper_threw, condensed_upper_threw) << "trial " << trial;
    ASSERT_EQ(pass_threw, pass_upper_threw) << "trial " << trial;
    if (pass_threw) {
      ++infeasible;
      continue;
    }
    ++feasible;
    ASSERT_EQ(pass.values, condensed.values) << "trial " << trial;
    ASSERT_EQ(pass_upper, condensed_upper) << "trial " << trial;

    std::vector<Coord> seed(system.variable_count());
    for (Coord& x : seed) x = static_cast<Coord>(rng() % 30) - 3;
    ConstraintSystem warm = system;
    const SolveStats random_seed = solve_leftmost_condensed(warm, &seed);
    EXPECT_TRUE(random_seed.warm_attempted);
    ASSERT_EQ(warm.values, pass.values) << "trial " << trial;
    const SolveStats exact_seed = solve_leftmost_condensed(warm, &pass.values);
    EXPECT_TRUE(exact_seed.warm_accepted) << "trial " << trial;
    EXPECT_EQ(exact_seed.pops, 0u);
    ASSERT_EQ(warm.values, pass.values) << "trial " << trial;
  }
  // Both verdicts are well represented.
  EXPECT_GT(feasible, 500);
  EXPECT_GT(infeasible, 500);
}

}  // namespace
}  // namespace rsg::compact
