// Reference constraint generation and analysis: the slow, simple versions
// the product's scaled paths are checked against byte for byte, plus the
// §6.4.1 naive generator the Figure 6.5 experiment measures. Nothing in
// src/ calls them.
#pragma once

#include <cstddef>
#include <vector>

#include "compact/scanline.hpp"

namespace rsg::compact::oracle {

// The pre-scaling scan line: all-pairs net discovery (O(n^2)) and a
// linear-scan visibility profile (O(n) per query and insert) per layer,
// emitted through the product's pair rules (compact/scanline_detail.hpp).
// generate_constraints must produce the identical constraint stream.
void generate_constraints_reference(ConstraintSystem& system,
                                    const std::vector<CompactionBox>& boxes,
                                    const CompactionRules& rules);

// The naive generator: every same-layer / interacting pair with y overlap
// gets a spacing constraint, hidden or not — the §6.4.1 mistake that "can
// substantially overconstrain the system" (Figure 6.4/6.5).
void generate_constraints_naive(ConstraintSystem& system,
                                const std::vector<CompactionBox>& boxes,
                                const CompactionRules& rules);

// The all-pairs rigid-group matcher (O(m^2)) the hashed index of
// compact/rigid_groups.hpp is checked against: per variable, its group
// leader and its offset from it (X_v = X_leader + offset), built by the
// same unite sequence (constraint order, first match wins).
struct RigidPartition {
  std::vector<std::size_t> leader;
  std::vector<Coord> offset;
};

RigidPartition rigid_groups_quadratic(const ConstraintSystem& system);

}  // namespace rsg::compact::oracle
