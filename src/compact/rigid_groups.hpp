// Rigid-group discovery for the rubber-band pass (§6.4.2).
//
// Rigid boxes carry an equality pair (R - L >= w and L - R >= -w), so their
// edges cannot move one at a time. Union such variables into rigid groups
// with fixed offsets from a leader; the rubber-band descent then translates
// whole groups — boxes — rather than edges.
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"

namespace rsg::compact {

class RigidGroups {
 public:
  // Finds every equality pair (u -> v, w) matched by (v -> u, -w) through a
  // hashed (from, to, weight) edge index: O(m) expected.
  explicit RigidGroups(const ConstraintSystem& system);

  std::size_t leader(std::size_t v);

  // X_v = X_leader(v) + offset(v).
  Coord offset(std::size_t v);

 private:
  void unite(std::size_t u, std::size_t v, Coord w);

  std::vector<std::size_t> parent_;
  std::vector<Coord> offset_;
};

}  // namespace rsg::compact
