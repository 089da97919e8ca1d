#include "compact/rigid_groups.hpp"

#include <cstdint>
#include <numeric>
#include <unordered_set>

namespace rsg::compact {

namespace {

// Identity of one eligible (constant-weight, real-source) constraint edge.
struct EdgeKey {
  int from;
  int to;
  Coord weight;

  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
};

struct EdgeKeyHash {
  std::size_t operator()(const EdgeKey& k) const noexcept {
    std::uint64_t h = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.from)) << 32) |
                      static_cast<std::uint32_t>(k.to);
    h *= 0x9E3779B97F4A7C15ull;
    h ^= static_cast<std::uint64_t>(k.weight) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

RigidGroups::RigidGroups(const ConstraintSystem& system)
    : parent_(system.variable_count()), offset_(system.variable_count(), 0) {
  std::iota(parent_.begin(), parent_.end(), 0);
  // Find (u -> v, w) matched by (v -> u, -w): X_v - X_u == w. Index every
  // eligible edge, then probe for each edge's reversed negation; the unite
  // sequence is constraint order, first match wins.
  std::unordered_set<EdgeKey, EdgeKeyHash> index;
  index.reserve(system.constraint_count() * 2);
  for (const Constraint& c : system.constraints()) {
    if (c.from < 0 || c.pitch >= 0) continue;
    index.insert({c.from, c.to, c.weight});
  }
  for (const Constraint& a : system.constraints()) {
    if (a.from < 0 || a.pitch >= 0) continue;
    if (index.count({a.to, a.from, -a.weight}) > 0) {
      unite(static_cast<std::size_t>(a.from), static_cast<std::size_t>(a.to), a.weight);
    }
  }
}

std::size_t RigidGroups::leader(std::size_t v) {
  if (parent_[v] == v) return v;
  const std::size_t root = leader(parent_[v]);
  offset_[v] += offset_[parent_[v]];
  parent_[v] = root;
  return root;
}

Coord RigidGroups::offset(std::size_t v) {
  leader(v);
  return offset_[v];
}

void RigidGroups::unite(std::size_t u, std::size_t v, Coord w) {
  // X_v = X_u + w.
  const std::size_t ru = leader(u);
  const std::size_t rv = leader(v);
  if (ru == rv) return;
  // offset: X_v = X_rv + offset_[v] and X_u = X_ru + offset_[u].
  // Attach rv under ru: X_rv = X_u + w - offset_v = X_ru + offset_u + w - offset_v.
  parent_[rv] = ru;
  offset_[rv] = offset_[u] + w - offset_[v];
}

}  // namespace rsg::compact
