#include "compact/bellman_ford.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsg::compact {

namespace {

Coord pitch_term(const ConstraintSystem& system, const Constraint& c) {
  if (c.pitch < 0) return 0;
  return c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
}

[[noreturn]] void throw_positive_cycle() {
  throw Error("compaction constraints are infeasible (positive cycle)");
}

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// The constraint graph in the direction of propagation, in CSR form: the
// edges leaving `tail` are heads[e] / gains[e] for e in
// [offsets[tail], offsets[tail + 1]), each bounding value[head] by
// value[tail] + gain. Constraints from the implicit origin are not edges;
// the leftmost solver folds them into the starting values.
struct Graph {
  std::vector<std::size_t> offsets;  // size n + 1
  std::vector<std::size_t> heads;
  std::vector<Coord> gains;
};

// `tail(c)` < 0 drops the constraint from the graph.
template <class TailFn, class HeadFn, class GainFn>
Graph build_graph(const ConstraintSystem& system, TailFn tail, HeadFn head, GainFn gain) {
  Graph g;
  const std::size_t n = system.variable_count();
  g.offsets.assign(n + 1, 0);
  const std::vector<Constraint>& cs = system.constraints();
  for (const Constraint& c : cs) {
    const int t = tail(c);
    if (t >= 0) ++g.offsets[static_cast<std::size_t>(t) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.heads.resize(g.offsets[n]);
  g.gains.resize(g.offsets[n]);
  std::vector<std::size_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const Constraint& c : cs) {
    const int t = tail(c);
    if (t < 0) continue;
    const std::size_t e = cursor[static_cast<std::size_t>(t)]++;
    g.heads[e] = static_cast<std::size_t>(head(c));
    g.gains[e] = gain(c);
  }
  return g;
}

// The SCCs of `g` by an iterative Tarjan: `members` lists the variables
// grouped by component, component k in [begin[k], begin[k + 1]), and
// `component[v]` names v's. Tarjan completes a component only after every
// component it reaches, so the components come out sinks first.
struct Condensation {
  std::vector<std::size_t> component;
  std::vector<std::size_t> members;
  std::vector<std::size_t> begin;
};

Condensation condense(const Graph& g) {
  const std::size_t n = g.offsets.size() - 1;
  Condensation out;
  out.component.assign(n, kNone);
  out.members.reserve(n);
  std::vector<std::size_t> index(n, kNone);
  std::vector<std::size_t> low(n, 0);
  std::vector<std::size_t> stack;  // Tarjan's: visited, component pending
  struct Frame {
    std::size_t v;
    std::size_t edge;  // next out-edge to explore
  };
  std::vector<Frame> calls;
  std::size_t counter = 0;
  const auto discover = [&](std::size_t v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    calls.push_back({v, g.offsets[v]});
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    discover(root);
    while (!calls.empty()) {
      const std::size_t v = calls.back().v;
      if (calls.back().edge < g.offsets[v + 1]) {
        const std::size_t w = g.heads[calls.back().edge++];
        if (index[w] == kNone) {
          discover(w);
        } else if (out.component[w] == kNone) {  // still on Tarjan's stack
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      calls.pop_back();
      if (!calls.empty()) {
        const std::size_t parent = calls.back().v;
        low[parent] = std::min(low[parent], low[v]);
      }
      if (low[v] != index[v]) continue;
      const std::size_t k = out.begin.size();
      out.begin.push_back(out.members.size());
      std::size_t w = kNone;
      do {
        w = stack.back();
        stack.pop_back();
        out.component[w] = k;
        out.members.push_back(w);
      } while (w != v);
    }
  }
  out.begin.push_back(out.members.size());
  return out;
}

// Moves `dist` from its starting values to the nearest fixpoint of the
// bounds value[head] vs value[tail] + gain over `g`, where better(bound, x)
// says the bound tightens x: std::greater raises to the least solution,
// std::less lowers to the greatest. Visits the SCCs once in topological
// order (bellman_ford.hpp) and throws on a cycle that tightens without
// bound, a positive cycle of the constraints. Works in place: every
// tightening moves one value one way, so on a throw `dist` holds the
// values reached.
template <class Better>
void condensed_fixpoint(const Graph& g, std::vector<Coord>& dist, Better better,
                        SolveStats& stats) {
  const std::size_t n = dist.size();
  const Condensation scc = condense(g);
  // Working state of the nontrivial SCCs; each variable belongs to one
  // SCC, so none of it is reset between components.
  std::vector<std::size_t> pred;   // the in-SCC tail that last tightened v
  std::vector<std::size_t> seen;   // predecessor-walk stamps
  std::vector<char> queued;
  std::vector<std::size_t> ring;   // FIFO ring buffer, one SCC's capacity
  std::size_t stamp = 0;

  for (std::size_t k = scc.begin.size() - 1; k-- > 0;) {
    const std::size_t first = scc.begin[k];
    const std::size_t size = scc.begin[k + 1] - first;
    if (size > 1) {
      if (pred.empty()) {
        pred.assign(n, kNone);
        seen.assign(n, 0);
        queued.assign(n, 0);
      }
      // FIFO Bellman–Ford over the component's internal edges, seeded with
      // every member in discovery order (Tarjan pops them in reverse).
      ring.resize(size);
      std::size_t head = 0;
      std::size_t count = size;
      for (std::size_t i = 0; i < size; ++i) {
        const std::size_t v = scc.members[first + size - 1 - i];
        ring[i] = v;
        queued[v] = 1;
      }
      std::size_t since_check = 0;
      while (count > 0) {
        const std::size_t v = ring[head];
        head = head + 1 == size ? 0 : head + 1;
        --count;
        queued[v] = 0;
        ++stats.pops;
        for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
          const std::size_t w = g.heads[e];
          if (scc.component[w] != k) continue;
          const Coord bound = dist[v] + g.gains[e];
          if (!better(bound, dist[w])) continue;
          dist[w] = bound;
          pred[w] = v;
          ++stats.relaxations;
          if (!queued[w]) {
            queued[w] = 1;
            std::size_t tail = head + count;
            if (tail >= size) tail -= size;
            ring[tail] = w;
            ++count;
          }
          if (++since_check < size) continue;
          since_check = 0;
          // Predecessor walk: follow pred pointers from every member; a
          // walk that meets its own stamp has closed a cycle. Stamps from
          // earlier walks of this check end a walk without a cycle.
          const std::size_t check_start = stamp + 1;
          for (std::size_t i = first; i < first + size; ++i) {
            ++stamp;
            std::size_t u = scc.members[i];
            while (u != kNone && seen[u] < check_start) {
              seen[u] = stamp;
              u = pred[u];
            }
            if (u != kNone && seen[u] == stamp) throw_positive_cycle();
          }
        }
      }
    }
    // The component is final: push its values along the edges leaving it.
    if (size == 1) ++stats.pops;
    for (std::size_t i = first; i < first + size; ++i) {
      const std::size_t v = scc.members[i];
      for (std::size_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const std::size_t w = g.heads[e];
        const Coord bound = dist[v] + g.gains[e];
        if (scc.component[w] == k) {
          // Internal edges are at their fixpoint, unless the component is
          // one variable with a positive self-loop.
          if (better(bound, dist[w])) throw_positive_cycle();
          continue;
        }
        if (better(bound, dist[w])) {
          dist[w] = bound;
          ++stats.relaxations;
        }
      }
    }
  }
  ++stats.passes;
  stats.converged = true;
}

// Tight-chain verification of a feasible warm seed. Any vector satisfying
// every constraint bounds the least solution L from above. A variable is
// "supported" when its value is witnessed by a tight chain from the
// anchors: value 0 (the implicit X >= 0 floor), a tight origin constraint,
// or a tight constraint from a supported variable. A supported value is
// <= the longest path from the origin, i.e. <= L — so if every variable is
// supported, the seed is L exactly.
bool verify_leftmost_support(const ConstraintSystem& system, const Graph& out) {
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
  for (const Constraint& c : system.constraints()) {
    if (c.from >= 0) continue;
    if (system.values[static_cast<std::size_t>(c.to)] == c.weight - pitch_term(system, c)) {
      mark(static_cast<std::size_t>(c.to));
    }
  }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t e = out.offsets[u]; e < out.offsets[u + 1]; ++e) {
      const std::size_t to = out.heads[e];
      if (!supported[to] && system.values[to] == system.values[u] + out.gains[e]) mark(to);
    }
  }
  return found == n;
}

}  // namespace

SolveStats solve_leftmost_condensed(ConstraintSystem& system,
                                    const std::vector<Coord>* warm_seed) {
  SolveStats stats;
  const std::size_t n = system.variable_count();
  const Graph out = build_graph(
      system, [](const Constraint& c) { return c.from; },
      [](const Constraint& c) { return c.to; },
      [&](const Constraint& c) { return c.weight - pitch_term(system, c); });

  if (warm_seed != nullptr && warm_seed->size() == n && n > 0) {
    stats.warm_attempted = true;
    system.values = *warm_seed;
    const bool floor_holds = std::all_of(system.values.begin(), system.values.end(),
                                         [](Coord x) { return x >= 0; });
    if (floor_holds && system.satisfied() && verify_leftmost_support(system, out)) {
      stats.warm_accepted = true;
      stats.warm_pops_saved = static_cast<std::size_t>(std::count_if(
          system.values.begin(), system.values.end(), [](Coord x) { return x > 0; }));
      stats.converged = true;
      return stats;
    }
  }

  // Starting values: the X >= 0 floor raised by the origin constraints.
  std::fill(system.values.begin(), system.values.end(), 0);
  for (const Constraint& c : system.constraints()) {
    if (c.from >= 0) continue;
    Coord& to = system.values[static_cast<std::size_t>(c.to)];
    to = std::max(to, c.weight - pitch_term(system, c));
  }
  condensed_fixpoint(out, system.values, std::greater<Coord>(), stats);
  return stats;
}

SolveStats solve_rightmost_condensed(ConstraintSystem& system, Coord width,
                                     std::vector<Coord>& upper_bounds) {
  SolveStats stats;
  // X[to] - X[from] >= w - pitch bounds X[from] from above by
  // X[to] - w + pitch: the leftmost problem on the reversed edges, lowering
  // from the width ceiling. Origin constraints bound from below only.
  const Graph in = build_graph(
      system, [](const Constraint& c) { return c.from < 0 ? -1 : c.to; },
      [](const Constraint& c) { return c.from; },
      [&](const Constraint& c) { return pitch_term(system, c) - c.weight; });
  upper_bounds.assign(system.variable_count(), width);
  condensed_fixpoint(in, upper_bounds, std::less<Coord>(), stats);
  return stats;
}

}  // namespace rsg::compact
