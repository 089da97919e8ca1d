// The shared constraint-assembly layer of the compaction stack.
//
// Both compactors used to hand-roll their own assembly: compact_flat called
// a constraint generator directly, and compact_leaf_cells additionally
// rewrote the finished ConstraintSystem into an LpProblem inline. The
// builder owns that pipeline once:
//
//   boxes  ->  emit_batch()  ->  ConstraintSystem  ->  to_lp()  ->  solver
//
// emit_batch() assigns edge variables to boxes that lack them (leaf
// compaction shares variables between instance copies) and runs the
// selected generator — the visibility scan line, the pre-scaling
// reference, or the §6.4.1 naive baseline.
// Batches accumulate into one system: flat compaction emits a single batch,
// leaf compaction emits one per cell plus one per interface pair layout.
//
// to_lp() is the §6.3 rewrite shared by the LP-backed solvers: each
// constraint X_to - X_from + k·λ >= w becomes the row
// X_from - X_to - k·λ <= -w over nonnegative unknowns, with the pitch
// columns placed after the edge columns.
#pragma once

#include <vector>

#include "compact/constraint_graph.hpp"
#include "compact/design_rule_table.hpp"
#include "compact/scanline.hpp"
#include "compact/simplex.hpp"

namespace rsg::compact {

enum class ConstraintGenerator {
  kScanline,   // Figure 6.7 visibility sweep (the default)
  kReference,  // pre-scaling all-pairs / linear-profile equivalence baseline
  kNaive,      // the §6.4.1 overconstraining pairwise generator
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

  // The LP view of the accumulated system (zero objective — callers weight
  // pitches/widths to taste). kAnchor rows against the origin with
  // non-positive weight are dropped: X >= 0 is implicit in the LP.
  LpProblem to_lp() const;

  // LP column of edge variable v / pitch variable p.
  int edge_column(int v) const { return v; }
  int pitch_column(int p) const { return static_cast<int>(system_.variable_count()) + p; }

 private:
  CompactionRules rules_;
  BuilderOptions options_;
  ConstraintSystem system_;
};

}  // namespace rsg::compact
