// The one emission entry point the constraint generators share, exposed
// for the reference generators of the test support library: they discover
// partners and nets their own (slower, simpler) way and must emit through
// the same pair rules so their constraint stream is comparable byte for
// byte. Not part of the product API.
#pragma once

#include <cstddef>
#include <vector>

#include "compact/scanline.hpp"

namespace rsg::compact::detail {

// Emits the width/anchor constraints of every box, then, for each box ib in
// `order`, the pair constraints against its visible partners
// partners[offsets[ib] .. offsets[ib + 1]) — sorted and deduplicated here,
// in place, and ib itself skipped. `net[i]` labels box i's electrical net:
// same-layer boxes with equal labels get kConnect constraints, never
// spacing (§6.4.1).
void emit_constraints(ConstraintSystem& system, const std::vector<CompactionBox>& boxes,
                      const std::vector<std::size_t>& order, const CompactionRules& rules,
                      const std::vector<std::size_t>& offsets, std::vector<std::size_t>& partners,
                      const std::vector<std::size_t>& net);

}  // namespace rsg::compact::detail
