#include "compact/scanline.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include <unistd.h>

#include "support/error.hpp"

namespace rsg::compact {

namespace {

Coord y_gap(const Box& a, const Box& b) {
  return std::max<Coord>({a.lo.y - b.hi.y, b.lo.y - a.hi.y, 0});
}

// Output-sensitive active set for the abutment sweep: a static segment
// tree over a layer's distinct top edges (hi.y). Each active box sits at
// its top-edge leaf in a lo.y-sorted multiset, and every internal node
// carries the minimum lo.y in its subtree, so enumerating the active boxes
// with hi.y >= y0 and lo.y <= y1 — exactly the closed y-interval overlaps —
// prunes every subtree that cannot contain a match. Insert, erase and each
// reported box cost O(log n); a query that reports nothing costs O(log n).
class ActiveBoxes {
 public:
  // `tops` is the sorted, deduplicated list of hi.y values the layer uses.
  explicit ActiveBoxes(std::vector<Coord> tops) : tops_(std::move(tops)) {
    entries_.assign(tops_.size(), {});
    min_lo_.assign(4 * std::max<std::size_t>(tops_.size(), 1), kNone);
  }

  std::size_t leaf_of(Coord hi_y) const {
    return static_cast<std::size_t>(
        std::lower_bound(tops_.begin(), tops_.end(), hi_y) - tops_.begin());
  }

  void insert(std::size_t leaf, Coord lo_y, std::size_t box) {
    entries_[leaf].emplace(lo_y, box);
    update(1, 0, tops_.size(), leaf);
  }

  void erase(std::size_t leaf, Coord lo_y, std::size_t box) {
    entries_[leaf].erase(entries_[leaf].find({lo_y, box}));
    update(1, 0, tops_.size(), leaf);
  }

  // Calls fn(box) for every active box whose y interval touches [y0, y1].
  template <class Fn>
  void for_each_touching(Coord y0, Coord y1, Fn&& fn) const {
    if (tops_.empty()) return;
    visit(1, 0, tops_.size(), leaf_of(y0), y1, fn);
  }

 private:
  static constexpr Coord kNone = std::numeric_limits<Coord>::max();

  void update(std::size_t node, std::size_t lo, std::size_t hi, std::size_t leaf) {
    if (hi - lo == 1) {
      min_lo_[node] = entries_[lo].empty() ? kNone : entries_[lo].begin()->first;
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    if (leaf < mid) {
      update(2 * node, lo, mid, leaf);
    } else {
      update(2 * node + 1, mid, hi, leaf);
    }
    min_lo_[node] = std::min(min_lo_[2 * node], min_lo_[2 * node + 1]);
  }

  template <class Fn>
  void visit(std::size_t node, std::size_t lo, std::size_t hi, std::size_t first, Coord y1,
             Fn& fn) const {
    if (hi <= first || min_lo_[node] > y1) return;
    if (hi - lo == 1) {
      for (const auto& [lo_y, box] : entries_[lo]) {
        if (lo_y > y1) break;
        fn(box);
      }
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    visit(2 * node, lo, mid, first, y1, fn);
    visit(2 * node + 1, mid, hi, first, y1, fn);
  }

  std::vector<Coord> tops_;
  std::vector<std::set<std::pair<Coord, std::size_t>>> entries_;  // per leaf: (lo.y, box)
  std::vector<Coord> min_lo_;
};

// Union-find over same-layer touching boxes: boxes of one electrical net
// must not receive spacing constraints against each other (they hold
// kConnect constraints instead). This is the net knowledge that plain box
// merging (§6.4.1) would provide but that device/bus tagging forbids.
//
// Two builders populate the same structure: a per-layer sort/sweep over the
// x extents (boxes abut only while their x intervals overlap, so each box
// only meets the still-active boxes of the sweep, enumerated through the
// ActiveBoxes tree), and the all-pairs scan kept as the equivalence
// baseline. Both unite exactly the abutting pairs, so the resulting
// connectivity is identical.
class NetFinder {
 public:
  enum class Strategy { kSweep, kQuadratic };

  explicit NetFinder(const std::vector<CompactionBox>& boxes,
                     Strategy strategy = Strategy::kSweep)
      : parent_(boxes.size()) {
    std::iota(parent_.begin(), parent_.end(), 0);
    if (strategy == Strategy::kQuadratic) {
      build_quadratic(boxes);
    } else {
      build_sweep(boxes);
    }
  }

  bool same_net(std::size_t a, std::size_t b) { return find(a) == find(b); }

 private:
  void build_quadratic(const std::vector<CompactionBox>& boxes) {
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      for (std::size_t j = i + 1; j < boxes.size(); ++j) {
        if (boxes[i].geometry.layer != boxes[j].geometry.layer) continue;
        if (boxes[i].geometry.box.abuts_or_intersects(boxes[j].geometry.box)) {
          unite(i, j);
        }
      }
    }
  }

  void build_sweep(const std::vector<CompactionBox>& boxes) {
    std::vector<std::vector<std::size_t>> by_layer(kNumLayers);
    for (std::size_t i = 0; i < boxes.size(); ++i) {
      by_layer[static_cast<std::size_t>(boxes[i].geometry.layer)].push_back(i);
    }
    for (std::vector<std::size_t>& layer : by_layer) {
      std::sort(layer.begin(), layer.end(), [&](std::size_t i, std::size_t j) {
        const Box& a = boxes[i].geometry.box;
        const Box& b = boxes[j].geometry.box;
        return std::tuple(a.lo.x, a.hi.x, i) < std::tuple(b.lo.x, b.hi.x, j);
      });
      // Active boxes (x interval still reaching the sweep line) live in the
      // segment tree, with a min-heap on the right edge for expiry.
      std::vector<Coord> tops;
      tops.reserve(layer.size());
      for (const std::size_t i : layer) tops.push_back(boxes[i].geometry.box.hi.y);
      std::sort(tops.begin(), tops.end());
      tops.erase(std::unique(tops.begin(), tops.end()), tops.end());
      ActiveBoxes active(std::move(tops));

      struct Expiry {
        Coord hi_x;
        std::size_t leaf;
        Coord lo_y;
        std::size_t box;
      };
      const auto expires_later = [](const Expiry& a, const Expiry& b) {
        return a.hi_x > b.hi_x;
      };
      std::priority_queue<Expiry, std::vector<Expiry>, decltype(expires_later)> expiry(
          expires_later);
      for (const std::size_t ib : layer) {
        const Box& b = boxes[ib].geometry.box;
        // The sweep only moves right: once a box ends left of the current
        // left edge it can never abut a later box.
        while (!expiry.empty() && expiry.top().hi_x < b.lo.x) {
          const Expiry& gone = expiry.top();
          active.erase(gone.leaf, gone.lo_y, gone.box);
          expiry.pop();
        }
        active.for_each_touching(b.lo.y, b.hi.y, [&](std::size_t ia) { unite(ia, ib); });
        const std::size_t leaf = active.leaf_of(b.hi.y);
        active.insert(leaf, b.lo.y, ib);
        expiry.push({b.hi.x, leaf, b.lo.y, ib});
      }
    }
  }

  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

  std::vector<std::size_t> parent_;
};

// Per-layer visibility profile: disjoint y segments, each remembering the
// box a left-looking viewer sees there (Figure 6.7). Linear reference
// implementation: every query and insert scans the whole segment list.
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
  void insert(Coord y0, Coord y1, std::size_t box,
              const std::vector<CompactionBox>& boxes) {
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

// The scaled profile: the same disjoint segments, keyed by their start in a
// std::map so query and insert touch only the O(log n + k) segments that
// overlap the window instead of the whole list. Produces the identical
// visible-box set at every y point (the per-point winner rule is the same),
// so constraint generation is byte-identical to LinearProfile — adjacent
// same-box segments are merely coalesced more eagerly.
class OrderedProfile {
 public:
  void query(Coord y0, Coord y1, std::vector<std::size_t>& seen) const {
    if (y0 >= y1 || segments_.empty()) return;
    auto it = first_overlapping(y0);
    for (; it != segments_.end() && it->first < y1; ++it) {
      seen.push_back(it->second.box);
    }
  }

  void insert(Coord y0, Coord y1, std::size_t box,
              const std::vector<CompactionBox>& boxes) {
    if (y0 >= y1) return;
    const Coord new_reach = boxes[box].geometry.box.hi.x;

    // Detach the segments overlapping [y0, y1).
    overlapped_.clear();
    std::map<Coord, Segment>::const_iterator it = first_overlapping(y0);
    const auto first = it;
    while (it != segments_.end() && it->first < y1) {
      overlapped_.push_back({it->first, it->second.y1, it->second.box});
      ++it;
    }
    segments_.erase(first, it);

    // Rebuild left to right: kept flanks of split segments, the contested
    // overlaps (further right edge wins, new box on ties), and the gaps in
    // between (always the new box).
    rebuilt_.clear();
    auto emit = [&](Coord a, Coord b, std::size_t bx) {
      if (a >= b) return;
      if (!rebuilt_.empty() && rebuilt_.back().box == bx && rebuilt_.back().y1 == a) {
        rebuilt_.back().y1 = b;
        return;
      }
      rebuilt_.push_back({a, b, bx});
    };
    Coord cursor = y0;
    for (const Piece& s : overlapped_) {
      if (s.y0 < y0) emit(s.y0, y0, s.box);
      emit(cursor, std::max(cursor, s.y0), box);
      const Coord o0 = std::max(s.y0, y0);
      const Coord o1 = std::min(s.y1, y1);
      const bool old_wins = boxes[s.box].geometry.box.hi.x > new_reach;
      emit(o0, o1, old_wins ? s.box : box);
      if (s.y1 > y1) emit(y1, s.y1, s.box);
      cursor = o1;
    }
    emit(cursor, y1, box);
    for (const Piece& p : rebuilt_) segments_.emplace(p.y0, Segment{p.y1, p.box});
  }

 private:
  struct Segment {
    Coord y1;
    std::size_t box;
  };
  struct Piece {
    Coord y0;
    Coord y1;
    std::size_t box;
  };

  std::map<Coord, Segment>::const_iterator first_overlapping(Coord y0) const {
    auto it = segments_.upper_bound(y0);
    if (it != segments_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second.y1 > y0) return prev;
    }
    return it;
  }

  std::map<Coord, Segment> segments_;
  std::vector<Piece> overlapped_;  // scratch, reused across inserts
  std::vector<Piece> rebuilt_;
};

void add_width_and_anchor(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules) {
  for (const CompactionBox& cb : boxes) {
    const Coord original = cb.geometry.box.width();
    const Coord minimum =
        cb.stretchable ? std::max<Coord>(rules.min_width(cb.geometry.layer), 1) : original;
    system.add_constraint(cb.left_var, cb.right_var, minimum, ConstraintKind::kWidth);
    if (!cb.stretchable) {
      // Rigid boxes must not grow either.
      system.add_constraint(cb.right_var, cb.left_var, -original, ConstraintKind::kWidth);
    }
    // Left wall: every edge at x >= 0 (leaf compaction shifts cells so this
    // holds for the initial layout).
    system.add_constraint(-1, cb.left_var, 0, ConstraintKind::kAnchor);
  }
}

void emit_pair_constraint(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          std::size_t ia, std::size_t ib, const CompactionRules& rules,
                          NetFinder& nets) {
  const CompactionBox& a = boxes[ia];
  const CompactionBox& b = boxes[ib];
  const Layer la = a.geometry.layer;
  const Layer lb = b.geometry.layer;
  const Coord s = rules.spacing(la, lb);

  auto constrain = [&](int from_var, int from_pitch, int from_coeff, int to_var, int to_pitch,
                       int to_coeff, Coord weight, ConstraintKind kind) {
    // X_to + to_coeff*λ_to - (X_from + from_coeff*λ_from) >= weight. The
    // solvers support a single pitch term per constraint; both endpoints in
    // the same instance cancel, otherwise exactly one side carries λ (the
    // Figure 6.3 folding). Opposing distinct pitches are rejected.
    Constraint c;
    c.from = from_var;
    c.to = to_var;
    c.weight = weight;
    c.kind = kind;
    if (from_pitch == to_pitch) {
      if (from_coeff != to_coeff && from_pitch >= 0) {
        throw Error("scanline: conflicting pitch coefficients on one constraint");
      }
    } else if (from_pitch < 0) {
      c.pitch = to_pitch;
      c.pitch_coeff = to_coeff;
    } else if (to_pitch < 0) {
      c.pitch = from_pitch;
      c.pitch_coeff = -from_coeff;
    } else {
      throw Error("scanline: constraint spans two distinct pitch variables");
    }
    system.add_constraint(c);
  };

  if (la == lb && nets.same_net(ia, ib)) {
    if (a.geometry.box.abuts_or_intersects(b.geometry.box)) {
      // Electrical continuity: b must keep touching a, and the left-edge
      // order is preserved so the net cannot turn itself inside out.
      constrain(b.left_var, b.pitch, b.pitch_coeff, a.right_var, a.pitch, a.pitch_coeff, 0,
                ConstraintKind::kConnect);
      constrain(a.left_var, a.pitch, a.pitch_coeff, b.left_var, b.pitch, b.pitch_coeff, 0,
                ConstraintKind::kConnect);
    }
    return;  // same net: never a spacing constraint (§6.4.1)
  }

  if (a.geometry.box.intersects(b.geometry.box)) {
    // Overlapping interacting layers (e.g. poly over diffusion): preserve
    // the original ordering of every edge pair so the topology survives.
    const Coord ax[2] = {a.geometry.box.lo.x, a.geometry.box.hi.x};
    const int av[2] = {a.left_var, a.right_var};
    const Coord bx[2] = {b.geometry.box.lo.x, b.geometry.box.hi.x};
    const int bv[2] = {b.left_var, b.right_var};
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < 2; ++j) {
        if (ax[i] <= bx[j]) {
          constrain(av[i], a.pitch, a.pitch_coeff, bv[j], b.pitch, b.pitch_coeff, 0,
                    ConstraintKind::kOrder);
        } else {
          constrain(bv[j], b.pitch, b.pitch_coeff, av[i], a.pitch, a.pitch_coeff, 0,
                    ConstraintKind::kOrder);
        }
      }
    }
    return;
  }

  if (y_gap(a.geometry.box, b.geometry.box) >= s) return;  // far apart in y
  // Disjoint interacting boxes: minimum spacing, in original x order.
  if (a.geometry.box.lo.x <= b.geometry.box.lo.x) {
    constrain(a.right_var, a.pitch, a.pitch_coeff, b.left_var, b.pitch, b.pitch_coeff, s,
              ConstraintKind::kSpacing);
  } else {
    constrain(b.right_var, b.pitch, b.pitch_coeff, a.left_var, a.pitch, a.pitch_coeff, s,
              ConstraintKind::kSpacing);
  }
}

// The visible partners one profile layer contributes, recorded per sweep
// position: partners of the box at sweep position p live in
// items[offsets[p] .. offsets[p + 1]).
struct PartnerList {
  std::vector<std::size_t> items;
  std::vector<std::size_t> offsets;
};

// One profile layer's share of the Figure 6.7 sweep: walk the boxes in
// sweep order, query this layer's profile for each box whose layer equals
// or interacts with it, and insert the boxes of this layer. Each box lives
// in exactly one layer's profile, so the per-layer sweeps are independent.
template <class ProfileT>
void discover_layer_partners(int li, const std::vector<CompactionBox>& boxes,
                             const std::vector<std::size_t>& order, const CompactionRules& rules,
                             PartnerList& out) {
  const Layer la = static_cast<Layer>(li);
  ProfileT profile;
  out.items.clear();
  out.offsets.assign(order.size() + 1, 0);
  for (std::size_t p = 0; p < order.size(); ++p) {
    out.offsets[p] = out.items.size();
    const CompactionBox& b = boxes[order[p]];
    const Layer lb = b.geometry.layer;
    const bool same = (la == lb);
    if (same || rules.interacts(la, lb)) {
      // Shadow margin: boxes within spacing distance in y still constrain.
      const Coord margin = same ? std::max<Coord>(rules.spacing(la, lb), 1)
                                : rules.spacing(la, lb);
      profile.query(b.geometry.box.lo.y - margin, b.geometry.box.hi.y + margin, out.items);
    }
    if (same) {
      profile.insert(b.geometry.box.lo.y, b.geometry.box.hi.y, order[p], boxes);
    }
  }
  out.offsets[order.size()] = out.items.size();
}

// The pre-scaling reference driver, parameterized over the profile
// implementation. Each profile layer contributes its visible partners
// independently; per box the contributions are concatenated, deduplicated
// and sorted by box index before emission. The scaled path (shards, below)
// must reproduce this constraint stream byte for byte.
template <class ProfileT>
void generate_constraints_impl(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                               const CompactionRules& rules, NetFinder& nets) {
  add_width_and_anchor(system, boxes, rules);
  const std::vector<std::size_t> order = sweep_order(boxes);

  std::vector<PartnerList> per_layer(kNumLayers);
  for (int li = 0; li < kNumLayers; ++li) {
    discover_layer_partners<ProfileT>(li, boxes, order, rules,
                                      per_layer[static_cast<std::size_t>(li)]);
  }

  // Deterministic merge: per sweep position, gather every layer's partners
  // (layer index order), then sort + dedup exactly as the one-pass sweep
  // did with its shared `seen` buffer.
  std::vector<std::size_t> seen;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const std::size_t ib = order[p];
    seen.clear();
    for (const PartnerList& layer : per_layer) {
      seen.insert(seen.end(), layer.items.begin() + static_cast<std::ptrdiff_t>(layer.offsets[p]),
                  layer.items.begin() + static_cast<std::ptrdiff_t>(layer.offsets[p + 1]));
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (const std::size_t ia : seen) {
      if (ia != ib) emit_pair_constraint(system, boxes, ia, ib, rules, nets);
    }
  }
}

}  // namespace

void add_box_variables(ConstraintSystem& system, std::vector<CompactionBox>& boxes) {
  int index = 0;
  for (CompactionBox& cb : boxes) {
    if (cb.left_var < 0) {
      cb.left_var = system.add_variable("L" + std::to_string(index), cb.geometry.box.lo.x);
    }
    if (cb.right_var < 0) {
      cb.right_var = system.add_variable("R" + std::to_string(index), cb.geometry.box.hi.x);
    }
    ++index;
  }
}

std::vector<Coord> band_cuts(const std::vector<CompactionBox>& boxes, int bands) {
  // Sentinels away from the extremes so window arithmetic cannot overflow
  // the clip comparisons.
  constexpr Coord kLo = std::numeric_limits<Coord>::lowest() / 2;
  constexpr Coord kHi = std::numeric_limits<Coord>::max() / 2;
  std::vector<Coord> cuts{kLo};
  if (bands > 1 && !boxes.empty()) {
    std::vector<Coord> ys;
    ys.reserve(boxes.size());
    for (const CompactionBox& cb : boxes) ys.push_back(cb.geometry.box.lo.y);
    std::sort(ys.begin(), ys.end());
    for (int k = 1; k < bands; ++k) {
      const Coord cut =
          ys[ys.size() * static_cast<std::size_t>(k) / static_cast<std::size_t>(bands)];
      if (cut > cuts.back()) cuts.push_back(cut);
    }
  }
  cuts.push_back(kHi);
  return cuts;
}

int resolve_sweep_threads(int threads) {
  // Online cores: what the C++ runtime reports as hardware concurrency on
  // glibc.
  if (threads <= 0) threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  return std::max(threads, 1);
}

void sweep_shards(const std::vector<CompactionBox>& boxes, const std::vector<std::size_t>& order,
                  const CompactionRules& rules, const std::vector<Coord>& cuts,
                  const std::vector<std::size_t>& shard_indices, std::vector<SweepShard>& shards) {
  const std::size_t nb = cuts.size() - 1;
  for (const std::size_t s : shard_indices) {
    const std::size_t b = s % nb;
    sweep_layer_band(static_cast<int>(s / nb), cuts[b], cuts[b + 1], boxes, order, rules,
                     shards[s]);
  }
}

std::vector<std::size_t> sweep_order(const std::vector<CompactionBox>& boxes) {
  // Sweep order: left edge, then right edge (stable for determinism).
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    const Box& a = boxes[i].geometry.box;
    const Box& b = boxes[j].geometry.box;
    return std::tuple(a.lo.x, a.hi.x) < std::tuple(b.lo.x, b.hi.x);
  });
  return order;
}

bool layer_window(const CompactionBox& box, int layer, const CompactionRules& rules, Coord& y0,
                  Coord& y1) {
  const Layer la = static_cast<Layer>(layer);
  const Layer lb = box.geometry.layer;
  const bool same = (la == lb);
  if (!same && !rules.interacts(la, lb)) return false;
  // Shadow margin: boxes within spacing distance in y still constrain.
  const Coord margin =
      same ? std::max<Coord>(rules.spacing(la, lb), 1) : rules.spacing(la, lb);
  y0 = box.geometry.box.lo.y - margin;
  y1 = box.geometry.box.hi.y + margin;
  return true;
}

void sweep_layer_band(int layer, Coord y0, Coord y1, const std::vector<CompactionBox>& boxes,
                      const std::vector<std::size_t>& order, const CompactionRules& rules,
                      SweepShard& out) {
  out.query_boxes.clear();
  out.run_offsets.assign(1, 0);
  out.partners.clear();
  const Layer la = static_cast<Layer>(layer);
  OrderedProfile profile;
  for (const std::size_t ib : order) {
    const CompactionBox& b = boxes[ib];
    Coord q0 = 0;
    Coord q1 = 0;
    if (layer_window(b, layer, rules, q0, q1)) {
      const Coord c0 = std::max(q0, y0);
      const Coord c1 = std::min(q1, y1);
      if (c0 < c1) {
        const std::size_t before = out.partners.size();
        profile.query(c0, c1, out.partners);
        if (out.partners.size() > before) {
          out.query_boxes.push_back(ib);
          out.run_offsets.push_back(out.partners.size());
        }
      }
    }
    if (b.geometry.layer == la) {
      const Coord m0 = std::max(b.geometry.box.lo.y, y0);
      const Coord m1 = std::min(b.geometry.box.hi.y, y1);
      if (m0 < m1) profile.insert(m0, m1, ib, boxes);
    }
  }
}

void emit_constraints_from_shards(ConstraintSystem& system,
                                  const std::vector<CompactionBox>& boxes,
                                  const std::vector<std::size_t>& order,
                                  const CompactionRules& rules,
                                  const std::vector<const SweepShard*>& shards) {
  NetFinder nets(boxes, NetFinder::Strategy::kSweep);
  add_width_and_anchor(system, boxes, rules);

  // Scatter the shard runs into one partner CSR keyed by box index. The
  // scatter order across shards is irrelevant: the per-box merge sorts and
  // deduplicates, which is what pins the emitted stream.
  const std::size_t n = boxes.size();
  std::vector<std::size_t> counts(n + 1, 0);
  for (const SweepShard* shard : shards) {
    for (std::size_t r = 0; r < shard->query_boxes.size(); ++r) {
      counts[shard->query_boxes[r] + 1] += shard->run_offsets[r + 1] - shard->run_offsets[r];
    }
  }
  for (std::size_t v = 0; v < n; ++v) counts[v + 1] += counts[v];
  std::vector<std::size_t> merged(counts[n]);
  std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
  for (const SweepShard* shard : shards) {
    for (std::size_t r = 0; r < shard->query_boxes.size(); ++r) {
      const std::size_t box = shard->query_boxes[r];
      for (std::size_t k = shard->run_offsets[r]; k < shard->run_offsets[r + 1]; ++k) {
        merged[cursor[box]++] = shard->partners[k];
      }
    }
  }

  std::vector<std::size_t> seen;
  for (const std::size_t ib : order) {
    seen.assign(merged.begin() + static_cast<std::ptrdiff_t>(counts[ib]),
                merged.begin() + static_cast<std::ptrdiff_t>(counts[ib + 1]));
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (const std::size_t ia : seen) {
      if (ia != ib) emit_pair_constraint(system, boxes, ia, ib, rules, nets);
    }
  }
}

void generate_constraints_banded(ConstraintSystem& system,
                                 const std::vector<CompactionBox>& boxes,
                                 const CompactionRules& rules, int bands) {
  const std::vector<std::size_t> order = sweep_order(boxes);
  const std::vector<Coord> cuts = band_cuts(boxes, std::max(bands, 1));
  std::vector<SweepShard> shards(static_cast<std::size_t>(kNumLayers) * (cuts.size() - 1));
  std::vector<std::size_t> all(shards.size());
  std::iota(all.begin(), all.end(), 0);
  sweep_shards(boxes, order, rules, cuts, all, shards);
  std::vector<const SweepShard*> views;
  views.reserve(shards.size());
  for (const SweepShard& s : shards) views.push_back(&s);
  emit_constraints_from_shards(system, boxes, order, rules, views);
}

void generate_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                          const CompactionRules& rules) {
  generate_constraints_banded(system, boxes, rules, /*bands=*/1);
}

void generate_constraints_reference(ConstraintSystem& system,
                                    const std::vector<CompactionBox>& boxes,
                                    const CompactionRules& rules) {
  NetFinder nets(boxes, NetFinder::Strategy::kQuadratic);
  generate_constraints_impl<LinearProfile>(system, boxes, rules, nets);
}

void generate_constraints_naive(ConstraintSystem& system,
                                const std::vector<CompactionBox>& boxes,
                                const CompactionRules& rules) {
  add_width_and_anchor(system, boxes, rules);
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
      Constraint c;
      c.from = a.right_var;
      c.to = b.left_var;
      c.weight = s;
      c.kind = ConstraintKind::kSpacing;
      system.add_constraint(c);
    }
  }
}

}  // namespace rsg::compact
