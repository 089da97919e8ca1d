#include "compact/bellman_ford.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "support/error.hpp"

namespace rsg::compact {

namespace {

std::vector<std::size_t> edge_order(const ConstraintSystem& system, EdgeOrder order) {
  std::vector<std::size_t> indices(system.constraint_count());
  std::iota(indices.begin(), indices.end(), 0);
  if (order == EdgeOrder::kInsertion) return indices;
  std::stable_sort(indices.begin(), indices.end(), [&](std::size_t i, std::size_t j) {
    const Constraint& a = system.constraints()[i];
    const Constraint& b = system.constraints()[j];
    const Coord xa = a.from < 0 ? 0 : system.initial(a.from);
    const Coord xb = b.from < 0 ? 0 : system.initial(b.from);
    return xa < xb;
  });
  if (order == EdgeOrder::kReversed) std::reverse(indices.begin(), indices.end());
  return indices;
}

Coord pitch_term(const ConstraintSystem& system, const Constraint& c) {
  if (c.pitch < 0) return 0;
  return c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
}

// CSR adjacency over constraint indices, keyed by one endpoint (the source
// for the leftmost solver, the sink for the rightmost dual). Constraints
// whose key is the implicit origin are excluded — they are handled by the
// seeding sweep and never need revisiting.
struct Adjacency {
  std::vector<std::size_t> offsets;  // size n + 1
  std::vector<std::size_t> edges;    // constraint indices, grouped by key
};

template <class KeyFn>
Adjacency build_adjacency(const ConstraintSystem& system, KeyFn key) {
  Adjacency adj;
  const std::size_t n = system.variable_count();
  adj.offsets.assign(n + 1, 0);
  const std::vector<Constraint>& cs = system.constraints();
  for (const Constraint& c : cs) {
    const int k = key(c);
    if (k >= 0) ++adj.offsets[static_cast<std::size_t>(k) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) adj.offsets[v + 1] += adj.offsets[v];
  adj.edges.resize(adj.offsets[n]);
  std::vector<std::size_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (std::size_t e = 0; e < cs.size(); ++e) {
    const int k = key(cs[e]);
    if (k >= 0) adj.edges[cursor[static_cast<std::size_t>(k)]++] = e;
  }
  return adj;
}

// Tight-chain verification for a warm-started leftmost solve. Any vector
// satisfying every constraint bounds the least solution from above, so the
// raised fixpoint F has F >= L. A variable is "supported" when its value is
// witnessed by a tight chain from the anchors: value 0 (the implicit
// X >= 0 floor), a tight origin constraint, or a tight constraint from a
// supported variable. A supported value is <= the longest path from the
// origin, i.e. <= L — so if every variable is supported, F == L exactly.
bool verify_leftmost_support(const ConstraintSystem& system, const Adjacency& out) {
  const std::vector<Constraint>& cs = system.constraints();
  const std::size_t n = system.variable_count();
  std::vector<char> supported(n, 0);
  std::vector<std::size_t> stack;
  std::size_t found = 0;
  const auto mark = [&](std::size_t v) {
    if (!supported[v]) {
      supported[v] = 1;
      ++found;
      stack.push_back(v);
    }
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (system.values[v] <= 0) mark(v);
  }
  for (const Constraint& c : cs) {
    if (c.from >= 0) continue;
    if (system.values[static_cast<std::size_t>(c.to)] == c.weight - pitch_term(system, c)) {
      mark(static_cast<std::size_t>(c.to));
    }
  }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t e = out.offsets[u]; e < out.offsets[u + 1]; ++e) {
      const Constraint& c = cs[out.edges[e]];
      const auto to = static_cast<std::size_t>(c.to);
      if (!supported[to] &&
          system.values[to] == system.values[u] + c.weight - pitch_term(system, c)) {
        mark(to);
      }
    }
  }
  return found == n;
}

// The rightmost dual: any vector satisfying the constraints under the width
// ceiling bounds the greatest solution from below, and a variable is
// supported when its bound is witnessed by a tight chain to the ceiling.
bool verify_rightmost_support(const ConstraintSystem& system, const Adjacency& in, Coord width,
                              const std::vector<Coord>& upper_bounds) {
  const std::vector<Constraint>& cs = system.constraints();
  const std::size_t n = system.variable_count();
  std::vector<char> supported(n, 0);
  std::vector<std::size_t> stack;
  std::size_t found = 0;
  const auto mark = [&](std::size_t v) {
    if (!supported[v]) {
      supported[v] = 1;
      ++found;
      stack.push_back(v);
    }
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (upper_bounds[v] >= width) mark(v);
  }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t e = in.offsets[u]; e < in.offsets[u + 1]; ++e) {
      const Constraint& c = cs[in.edges[e]];
      const auto from = static_cast<std::size_t>(c.from);
      if (!supported[from] &&
          upper_bounds[from] == upper_bounds[u] - c.weight + pitch_term(system, c)) {
        mark(from);
      }
    }
  }
  return found == n;
}

}  // namespace

SolveStats solve_leftmost(ConstraintSystem& system, EdgeOrder order) {
  SolveStats stats;
  const std::vector<std::size_t> edges = edge_order(system, order);

  // Least solution of X[to] >= X[from] + w - pitch with X >= 0: start at 0
  // and raise until fixpoint (longest path from the implicit origin).
  std::fill(system.values.begin(), system.values.end(), 0);

  const int max_passes = static_cast<int>(system.variable_count()) + 2;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++stats.passes;
    bool changed = false;
    for (const std::size_t e : edges) {
      const Constraint& c = system.constraints()[e];
      const Coord from = c.from < 0 ? 0 : system.values[static_cast<std::size_t>(c.from)];
      const Coord bound = from + c.weight - pitch_term(system, c);
      Coord& to = system.values[static_cast<std::size_t>(c.to)];
      if (to < bound) {
        to = bound;
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

SolveStats solve_leftmost_worklist(ConstraintSystem& system,
                                   const std::vector<Coord>* warm_seed) {
  SolveStats stats;
  const std::size_t n = system.variable_count();
  const Adjacency out = build_adjacency(system, [](const Constraint& c) { return c.from; });
  const std::vector<Constraint>& cs = system.constraints();

  std::deque<std::size_t> queue;
  std::vector<char> in_queue(n, 0);
  // SPFA cycle detection: the k-th enqueue of a variable witnesses a path
  // of >= k edges; without a positive cycle every longest path is simple,
  // so more than |V| enqueues means the constraints are infeasible. The
  // warm phase abandons to the cold path instead of throwing, so the
  // established cold guard stays the single infeasibility verdict.
  std::vector<std::size_t> enqueues(n, 0);
  bool abandon_warm = false;
  bool warm_phase = false;
  // A good seed needs at most a sparse cascade; more relaxations than
  // variables means the seed was globally off, and finishing the raise
  // just to fail verification would cost more than the cold solve saves.
  const std::size_t warm_relax_budget = n;
  auto relax = [&](const Constraint& c) {
    const Coord from = c.from < 0 ? 0 : system.values[static_cast<std::size_t>(c.from)];
    const Coord bound = from + c.weight - pitch_term(system, c);
    const auto to = static_cast<std::size_t>(c.to);
    if (system.values[to] < bound) {
      system.values[to] = bound;
      ++stats.relaxations;
      if (warm_phase && stats.relaxations > warm_relax_budget) {
        abandon_warm = true;
        return;
      }
      if (!in_queue[to]) {
        if (++enqueues[to] > n + 1) {
          if (warm_phase) {
            abandon_warm = true;
            return;
          }
          throw Error("compaction constraints are infeasible (positive cycle)");
        }
        in_queue[to] = 1;
        queue.push_back(to);
      }
    }
  };
  auto drain = [&] {
    while (!queue.empty() && !abandon_warm) {
      const std::size_t v = queue.front();
      queue.pop_front();
      in_queue[v] = 0;
      ++stats.pops;
      for (std::size_t e = out.offsets[v]; e < out.offsets[v + 1]; ++e) {
        relax(cs[out.edges[e]]);
      }
    }
  };

  if (warm_seed != nullptr && warm_seed->size() == n && n > 0) {
    // Warm phase: seed from the previous solution (clamped onto the X >= 0
    // half-line), raise to a fixpoint, then verify the fixpoint is the
    // least solution. One unsorted sweep finds the violated constraints;
    // the worklist drains the cascade.
    stats.warm_attempted = true;
    warm_phase = true;
    for (std::size_t v = 0; v < n; ++v) {
      system.values[v] = std::max<Coord>(0, (*warm_seed)[v]);
    }
    const std::vector<Coord> seeded = system.values;
    ++stats.passes;
    for (const Constraint& c : cs) {
      relax(c);
      if (abandon_warm) break;
    }
    drain();
    if (!abandon_warm && verify_leftmost_support(system, out)) {
      stats.warm_accepted = true;
      for (std::size_t v = 0; v < n; ++v) {
        if (system.values[v] > 0 && system.values[v] == seeded[v]) ++stats.warm_pops_saved;
      }
      stats.converged = true;
      return stats;
    }
    // Verification failed (the seed overshot the least solution somewhere)
    // or the raise cascaded past the budget: rerun cold. Exactness first.
    warm_phase = false;
    abandon_warm = false;
    queue.clear();
    std::fill(in_queue.begin(), in_queue.end(), 0);
    std::fill(enqueues.begin(), enqueues.end(), 0);
  }

  std::fill(system.values.begin(), system.values.end(), 0);

  // Seeding sweep: every constraint once, sorted by the source's initial
  // abscissa — §6.4.2's observation makes this nearly converge when the
  // initial ordering survives, leaving the worklist only the sparse
  // leftovers. Variables enqueued during the sweep are drained after it.
  ++stats.passes;
  for (const std::size_t e : edge_order(system, EdgeOrder::kSorted)) relax(cs[e]);
  drain();
  stats.converged = true;
  return stats;
}

SolveStats solve_rightmost_worklist(ConstraintSystem& system, Coord width,
                                    std::vector<Coord>& upper_bounds,
                                    const std::vector<Coord>* warm_seed) {
  SolveStats stats;
  const std::size_t n = system.variable_count();
  // The dual direction: lowering upper_bounds[c.to] can lower
  // upper_bounds[c.from], so the adjacency is keyed by the sink.
  const Adjacency in = build_adjacency(
      system, [](const Constraint& c) { return c.from < 0 ? -1 : c.to; });
  const std::vector<Constraint>& cs = system.constraints();

  std::deque<std::size_t> queue;
  std::vector<char> in_queue(n, 0);
  std::vector<std::size_t> enqueues(n, 0);
  bool abandon_warm = false;
  bool warm_phase = false;
  const std::size_t warm_relax_budget = n;
  auto relax = [&](const Constraint& c) {
    if (c.from < 0) return;  // anchors bound from below only
    const Coord bound =
        upper_bounds[static_cast<std::size_t>(c.to)] - c.weight + pitch_term(system, c);
    const auto from = static_cast<std::size_t>(c.from);
    if (upper_bounds[from] > bound) {
      upper_bounds[from] = bound;
      ++stats.relaxations;
      if (warm_phase && stats.relaxations > warm_relax_budget) {
        abandon_warm = true;
        return;
      }
      if (!in_queue[from]) {
        if (++enqueues[from] > n + 1) {
          if (warm_phase) {
            abandon_warm = true;
            return;
          }
          throw Error("compaction constraints are infeasible (positive cycle)");
        }
        in_queue[from] = 1;
        queue.push_back(from);
      }
    }
  };
  auto drain = [&] {
    while (!queue.empty() && !abandon_warm) {
      const std::size_t v = queue.front();
      queue.pop_front();
      in_queue[v] = 0;
      ++stats.pops;
      for (std::size_t e = in.offsets[v]; e < in.offsets[v + 1]; ++e) {
        relax(cs[in.edges[e]]);
      }
    }
  };

  if (warm_seed != nullptr && warm_seed->size() == n && n > 0) {
    // Warm phase (dual): seed clamped under the width ceiling, lower to a
    // fixpoint, verify greatest-ness by tight chains to the ceiling.
    stats.warm_attempted = true;
    warm_phase = true;
    upper_bounds.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      upper_bounds[v] = std::min(width, (*warm_seed)[v]);
    }
    const std::vector<Coord> seeded = upper_bounds;
    ++stats.passes;
    for (const Constraint& c : cs) {
      relax(c);
      if (abandon_warm) break;
    }
    drain();
    if (!abandon_warm && verify_rightmost_support(system, in, width, upper_bounds)) {
      stats.warm_accepted = true;
      for (std::size_t v = 0; v < n; ++v) {
        if (upper_bounds[v] < width && upper_bounds[v] == seeded[v]) ++stats.warm_pops_saved;
      }
      stats.converged = true;
      return stats;
    }
    warm_phase = false;
    abandon_warm = false;
    queue.clear();
    std::fill(in_queue.begin(), in_queue.end(), 0);
    std::fill(enqueues.begin(), enqueues.end(), 0);
  }

  upper_bounds.assign(n, width);

  // The dual seeding order: rightmost sinks first, so right-to-left chains
  // collapse in the one sweep.
  ++stats.passes;
  std::vector<std::size_t> seed(cs.size());
  std::iota(seed.begin(), seed.end(), 0);
  std::stable_sort(seed.begin(), seed.end(), [&](std::size_t i, std::size_t j) {
    return system.initial(cs[i].to) > system.initial(cs[j].to);
  });
  for (const std::size_t e : seed) relax(cs[e]);
  drain();
  stats.converged = true;
  return stats;
}

}  // namespace rsg::compact
