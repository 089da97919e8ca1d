// The shared constraint-assembly layer of the compaction stack:
//
//   boxes  ->  emit_batch()  ->  ConstraintSystem  ->  solver
//
// emit_batch() assigns edge variables to boxes that lack them (leaf
// compaction shares variables between instance copies) and runs the
// selected generator — the visibility scan line or the §6.4.1 naive
// baseline. Batches accumulate into one system: flat compaction emits a
// single batch, leaf compaction emits one per cell plus one per interface
// pair layout (and then rewrites the system into its LP, privately, in
// leaf_compactor.cpp).
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/scanline.hpp"

namespace rsg::compact {

enum class ConstraintGenerator {
  kScanline,  // Figure 6.7 visibility sweep (the default)
  kNaive,     // the §6.4.1 overconstraining pairwise generator
};

struct BuilderOptions {
  ConstraintGenerator generator = ConstraintGenerator::kScanline;
};

class ConstraintSystemBuilder {
 public:
  explicit ConstraintSystemBuilder(const CompactionRules& rules, BuilderOptions options = {});

  // Assigns edge variables to boxes lacking them, then emits width/anchor
  // and pair constraints for the batch into the accumulated system.
  void emit_batch(std::vector<CompactionBox>& boxes);

  ConstraintSystem& system() { return system_; }
  const ConstraintSystem& system() const { return system_; }

 private:
  CompactionRules rules_;
  BuilderOptions options_;
  ConstraintSystem system_;
};

}  // namespace rsg::compact
