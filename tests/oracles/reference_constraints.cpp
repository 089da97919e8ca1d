#include "oracles/reference_constraints.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

#include "compact/scanline_detail.hpp"

namespace rsg::compact::oracle {

namespace {

// Per-layer visibility profile: disjoint y segments, each remembering the
// box a left-looking viewer sees there (Figure 6.7). Every query and insert
// scans the whole segment list.
class LinearProfile {
 public:
  struct Segment {
    Coord y0;
    Coord y1;
    std::size_t box;
  };

  void query(Coord y0, Coord y1, std::vector<std::size_t>& seen) const {
    for (const Segment& s : segments_) {
      if (s.y1 > y0 && s.y0 < y1) seen.push_back(s.box);
    }
  }

  // Inserts [y0, y1) -> box. Where the range overlaps an existing segment,
  // the box whose right edge reaches further stays visible.
  void insert(Coord y0, Coord y1, std::size_t box, const std::vector<CompactionBox>& boxes) {
    std::vector<Segment> next;
    std::vector<Segment> pieces{{y0, y1, box}};
    for (const Segment& s : segments_) {
      if (s.y1 <= y0 || s.y0 >= y1) {
        next.push_back(s);
        continue;
      }
      // Split the existing segment around the overlap.
      if (s.y0 < y0) next.push_back({s.y0, y0, s.box});
      if (s.y1 > y1) next.push_back({y1, s.y1, s.box});
      const Coord o0 = std::max(s.y0, y0);
      const Coord o1 = std::min(s.y1, y1);
      if (boxes[s.box].geometry.box.hi.x > boxes[box].geometry.box.hi.x) {
        // The old box still sticks out further right: it stays visible in
        // the overlap, and the new box's piece there is dropped.
        next.push_back({o0, o1, s.box});
        std::vector<Segment> remaining;
        for (Segment& piece : pieces) {
          if (piece.y1 <= o0 || piece.y0 >= o1) {
            remaining.push_back(piece);
            continue;
          }
          if (piece.y0 < o0) remaining.push_back({piece.y0, o0, piece.box});
          if (piece.y1 > o1) remaining.push_back({o1, piece.y1, piece.box});
        }
        pieces = std::move(remaining);
      }
    }
    for (const Segment& piece : pieces) {
      if (piece.y0 < piece.y1) next.push_back(piece);
    }
    segments_ = std::move(next);
  }

 private:
  std::vector<Segment> segments_;
};

// Union-find root of every box over the same-layer pairs that touch or
// overlap, found by testing every pair.
std::vector<std::size_t> all_pairs_nets(const std::vector<CompactionBox>& boxes) {
  std::vector<std::size_t> parent(boxes.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v];
    return v;
  };
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      if (boxes[i].geometry.layer != boxes[j].geometry.layer) continue;
      if (boxes[i].geometry.box.abuts_or_intersects(boxes[j].geometry.box)) {
        parent[find(i)] = find(j);
      }
    }
  }
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = find(i);
  return parent;
}

Coord y_gap(const Box& a, const Box& b) {
  return std::max<Coord>({a.lo.y - b.hi.y, b.lo.y - a.hi.y, 0});
}

}  // namespace

void generate_constraints_reference(ConstraintSystem& system,
                                    const std::vector<CompactionBox>& boxes,
                                    const CompactionRules& rules) {
  const std::vector<std::size_t> order = sweep_order(boxes);
  // Each profile layer sees every box in sweep order: a box whose layer
  // equals or interacts with the profile's queries it (its y extent grown
  // by the shadow margin: boxes within spacing distance in y still
  // constrain), and a box of the profile's layer is then inserted.
  std::vector<std::vector<std::size_t>> seen(boxes.size());
  for (int li = 0; li < kNumLayers; ++li) {
    const Layer la = static_cast<Layer>(li);
    LinearProfile profile;
    for (const std::size_t ib : order) {
      const CompactionBox& b = boxes[ib];
      const Layer lb = b.geometry.layer;
      const bool same = (la == lb);
      if (same || rules.interacts(la, lb)) {
        const Coord margin = same ? std::max<Coord>(rules.spacing(la, lb), 1)
                                  : rules.spacing(la, lb);
        profile.query(b.geometry.box.lo.y - margin, b.geometry.box.hi.y + margin, seen[ib]);
      }
      if (same) profile.insert(b.geometry.box.lo.y, b.geometry.box.hi.y, ib, boxes);
    }
  }
  std::vector<std::size_t> offsets(boxes.size() + 1, 0);
  std::vector<std::size_t> partners;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    partners.insert(partners.end(), seen[i].begin(), seen[i].end());
    offsets[i + 1] = partners.size();
  }
  detail::emit_constraints(system, boxes, order, rules, offsets, partners,
                           all_pairs_nets(boxes));
}

void generate_constraints_naive(ConstraintSystem& system,
                                const std::vector<CompactionBox>& boxes,
                                const CompactionRules& rules) {
  // The width/anchor constraints: the shared emission with no partners.
  std::vector<std::size_t> no_partners;
  detail::emit_constraints(system, boxes, {}, rules,
                           std::vector<std::size_t>(boxes.size() + 1, 0), no_partners,
                           std::vector<std::size_t>(boxes.size(), 0));
  // "Indiscriminately generating the constraint between those two edges ...
  // can substantially overconstrain the system" (§6.4.1): every same-layer
  // or interacting pair within spacing distance in y gets a spacing
  // constraint — abutting same-net fragments included (Figure 6.5).
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (std::size_t j = 0; j < boxes.size(); ++j) {
      if (i == j) continue;
      const CompactionBox& a = boxes[i];
      const CompactionBox& b = boxes[j];
      if (a.geometry.box.lo.x > b.geometry.box.lo.x) continue;  // ordered once
      if (a.geometry.box.lo.x == b.geometry.box.lo.x && i > j) continue;
      const Coord s = rules.spacing(a.geometry.layer, b.geometry.layer);
      if (s <= 0) continue;
      if (y_gap(a.geometry.box, b.geometry.box) >= s) continue;
      system.add_constraint(a.right_var, b.left_var, s, ConstraintKind::kSpacing);
    }
  }
}

RigidPartition rigid_groups_quadratic(const ConstraintSystem& system) {
  const std::size_t n = system.variable_count();
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<Coord> offset(n, 0);  // X_v = X_parent(v) + offset[v]
  const auto find = [&](std::size_t v) {
    Coord total = 0;
    while (parent[v] != v) {
      total += offset[v];
      v = parent[v];
    }
    return std::pair(v, total);
  };
  // Find (u -> v, w) matched by (v -> u, -w): X_v - X_u == w.
  for (const Constraint& a : system.constraints()) {
    if (a.from < 0 || a.pitch >= 0) continue;
    for (const Constraint& b : system.constraints()) {
      if (b.from != a.to || b.to != a.from || b.pitch >= 0) continue;
      if (a.weight + b.weight != 0) continue;
      const auto [ru, ou] = find(static_cast<std::size_t>(a.from));
      const auto [rv, ov] = find(static_cast<std::size_t>(a.to));
      if (ru == rv) continue;
      // X_rv = X_v - ov = X_u + w - ov = X_ru + ou + w - ov.
      parent[rv] = ru;
      offset[rv] = ou + a.weight - ov;
    }
  }
  RigidPartition partition{std::vector<std::size_t>(n), std::vector<Coord>(n)};
  for (std::size_t v = 0; v < n; ++v) {
    std::tie(partition.leader[v], partition.offset[v]) = find(v);
  }
  return partition;
}

}  // namespace rsg::compact::oracle
