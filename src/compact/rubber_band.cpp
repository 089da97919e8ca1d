#include "compact/rubber_band.hpp"

#include <algorithm>
#include <limits>

#include "compact/bellman_ford.hpp"
#include "compact/rigid_groups.hpp"
#include "support/error.hpp"

namespace rsg::compact {

namespace {

Coord pitch_term(const ConstraintSystem& system, const Constraint& c) {
  if (c.pitch < 0) return 0;
  return c.pitch_coeff * system.pitch_values[static_cast<std::size_t>(c.pitch)];
}

}  // namespace

std::int64_t total_jog(const ConstraintSystem& system) {
  std::int64_t jog = 0;
  for (const Constraint& c : system.constraints()) {
    if (c.kind != ConstraintKind::kConnect || c.from < 0) continue;
    const Coord original = system.initial(c.to) - system.initial(c.from);
    const Coord now = system.values[static_cast<std::size_t>(c.to)] -
                      system.values[static_cast<std::size_t>(c.from)];
    jog += std::abs(now - original);
  }
  return jog;
}

RubberBandStats rubber_band(ConstraintSystem& system, int max_iterations) {
  RubberBandStats stats;
  stats.jog_before = total_jog(system);
  if (system.variable_count() == 0) {
    stats.jog_after = stats.jog_before;
    return stats;
  }

  const Coord width = *std::max_element(system.values.begin(), system.values.end());
  std::vector<Coord> upper;
  solve_rightmost_condensed(system, width, upper);

  RigidGroups groups(system);

  // Group members.
  std::vector<std::vector<std::size_t>> members(system.variable_count());
  for (std::size_t v = 0; v < system.variable_count(); ++v) {
    members[groups.leader(v)].push_back(v);
  }

  // Alignment targets per variable from kConnect constraints: ideal
  // X[var] = X[partner] + offset, skipping pairs inside one rigid group.
  struct Target {
    std::size_t var;      // the group member being aligned
    int partner;
    Coord offset;
  };
  std::vector<std::vector<Target>> targets(system.variable_count());  // by leader
  for (const Constraint& c : system.constraints()) {
    if (c.kind != ConstraintKind::kConnect || c.from < 0) continue;
    const auto to = static_cast<std::size_t>(c.to);
    const auto from = static_cast<std::size_t>(c.from);
    if (groups.leader(to) == groups.leader(from)) continue;
    const Coord original = system.initial(c.to) - system.initial(c.from);
    targets[groups.leader(to)].push_back({to, c.from, original});
    targets[groups.leader(from)].push_back({from, c.to, -original});
  }

  // Constraints incident to each group (crossing group boundaries).
  struct Incident {
    const Constraint* c;
    bool is_to;
  };
  std::vector<std::vector<Incident>> incident(system.variable_count());  // by leader
  for (const Constraint& c : system.constraints()) {
    const std::size_t lt = groups.leader(static_cast<std::size_t>(c.to));
    if (c.from < 0) {
      incident[lt].push_back({&c, true});
      continue;
    }
    const std::size_t lf = groups.leader(static_cast<std::size_t>(c.from));
    if (lt == lf) continue;
    incident[lt].push_back({&c, true});
    incident[lf].push_back({&c, false});
  }

  for (int iter = 0; iter < max_iterations; ++iter) {
    ++stats.iterations;
    bool moved = false;
    for (std::size_t g = 0; g < system.variable_count(); ++g) {
      if (members[g].empty() || targets[g].empty()) continue;

      // Median of the leader positions each alignment target implies.
      std::vector<Coord> wish;
      wish.reserve(targets[g].size());
      for (const Target& t : targets[g]) {
        const Coord member_goal =
            system.values[static_cast<std::size_t>(t.partner)] + t.offset;
        wish.push_back(member_goal - groups.offset(t.var));
      }
      std::nth_element(wish.begin(), wish.begin() + static_cast<std::ptrdiff_t>(wish.size() / 2),
                       wish.end());
      Coord goal = wish[wish.size() / 2];

      // Feasible interval for the leader given current neighbours and the
      // frozen layout width.
      Coord lo = std::numeric_limits<Coord>::min() / 4;
      Coord hi = std::numeric_limits<Coord>::max() / 4;
      for (const std::size_t v : members[g]) {
        const Coord off = groups.offset(v);
        lo = std::max(lo, -off);                       // X_v >= 0
        hi = std::min(hi, upper[v] - off);             // width cap
      }
      for (const Incident& in : incident[g]) {
        const Constraint& c = *in.c;
        if (in.is_to) {
          const Coord from = c.from < 0 ? 0 : system.values[static_cast<std::size_t>(c.from)];
          const Coord member_lo = from + c.weight - pitch_term(system, c);
          lo = std::max(lo, member_lo - groups.offset(static_cast<std::size_t>(c.to)));
        } else {
          const Coord member_hi = system.values[static_cast<std::size_t>(c.to)] - c.weight +
                                  pitch_term(system, c);
          hi = std::min(hi, member_hi - groups.offset(static_cast<std::size_t>(c.from)));
        }
      }
      if (lo > hi) continue;  // wedged by neighbours this round
      goal = std::clamp(goal, lo, hi);
      const Coord current = system.values[g];
      if (goal != current) {
        for (const std::size_t v : members[g]) {
          system.values[v] = goal + groups.offset(v);
        }
        moved = true;
      }
    }
    if (!moved) break;
  }

  if (!system.satisfied()) throw Error("rubber band produced an infeasible layout (bug)");
  stats.jog_after = total_jog(system);
  return stats;
}

}  // namespace rsg::compact
