// Equivalence property tests for the scaled compaction hot path: the sweep
// net finder + ordered-segment profile must emit the byte-identical
// constraint system as the quadratic/linear reference, the worklist solvers
// must reproduce the pass-based solutions exactly (the least/greatest
// fixpoints are unique), and the hashed rigid-group matcher must build the
// same groups as the all-pairs scan — across 500+ seeded random box fields
// plus the structured grid/PLA shapes the benchmarks sweep.
#include <gtest/gtest.h>

#include "compact/flat_compactor.hpp"
#include "compact/rigid_groups.hpp"
#include "compact/synth_design.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

std::vector<CompactionBox> to_compaction_boxes(const SynthField& field,
                                               ConstraintSystem& system) {
  std::vector<CompactionBox> boxes;
  boxes.reserve(field.boxes.size());
  for (std::size_t i = 0; i < field.boxes.size(); ++i) {
    CompactionBox cb;
    cb.geometry = field.boxes[i];
    cb.stretchable = field.stretchable[i];
    boxes.push_back(cb);
  }
  add_box_variables(system, boxes);
  return boxes;
}

void expect_identical_systems(const ConstraintSystem& fast, const ConstraintSystem& ref,
                              std::uint32_t seed) {
  ASSERT_EQ(fast.variable_count(), ref.variable_count()) << "seed " << seed;
  ASSERT_EQ(fast.constraint_count(), ref.constraint_count()) << "seed " << seed;
  for (std::size_t i = 0; i < fast.constraint_count(); ++i) {
    const Constraint& a = fast.constraints()[i];
    const Constraint& b = ref.constraints()[i];
    ASSERT_EQ(a.from, b.from) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.to, b.to) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.weight, b.weight) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.pitch, b.pitch) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.pitch_coeff, b.pitch_coeff) << "seed " << seed << " constraint " << i;
    ASSERT_EQ(a.kind, b.kind) << "seed " << seed << " constraint " << i;
  }
}

std::vector<SynthField> property_fields() {
  std::vector<SynthField> fields;
  for (std::uint32_t seed = 0; seed < 500; ++seed) {
    fields.push_back(make_random_field(seed, 4 + static_cast<int>(seed % 40)));
  }
  // The structured shapes the benchmarks sweep, at test-sized scales.
  fields.push_back(make_grid_field(6, 7));
  fields.push_back(make_grid_field(1, 30));
  fields.push_back(make_pla_field(8, 10));
  fields.push_back(make_pla_field(3, 25));
  // Adversarial active-set shapes for the sweep net finder: a same-x
  // contact column emitted top-to-bottom, and a descending staircase whose
  // x extents all overlap while the y extents never touch.
  SynthField column;
  for (int i = 40; i >= 0; --i) {
    column.boxes.push_back({Layer::kContactCut, Box(0, i * 12, 4, i * 12 + 4)});
    column.stretchable.push_back(false);
  }
  fields.push_back(column);
  SynthField staircase;
  for (int i = 0; i < 40; ++i) {
    staircase.boxes.push_back(
        {Layer::kMetal1, Box(i, 400 - i * 10, i + 200, 404 - i * 10)});
    staircase.stretchable.push_back(false);
  }
  fields.push_back(staircase);
  return fields;
}

TEST(CompactScaling, SweepGeneratorMatchesReferenceByteForByte) {
  std::uint32_t seed = 0;
  for (const SynthField& field : property_fields()) {
    ConstraintSystem fast;
    const std::vector<CompactionBox> fast_boxes = to_compaction_boxes(field, fast);
    generate_constraints(fast, fast_boxes, CompactionRules::mosis());

    ConstraintSystem ref;
    const std::vector<CompactionBox> ref_boxes = to_compaction_boxes(field, ref);
    generate_constraints_reference(ref, ref_boxes, CompactionRules::mosis());

    expect_identical_systems(fast, ref, seed);
    ++seed;
  }
}

TEST(CompactScaling, BandShardedGenerationMatchesSerialByteForByte) {
  // The band-sharded sweep (the incremental engine's reuse unit) must emit
  // the byte-identical constraint stream for ANY band partition: queries
  // and profile extents are clipped to each band, and the per-box merge
  // unions the shards back to the full-layer partner sets — on the property
  // fields and the benchmark grid.
  std::uint32_t seed = 0;
  std::vector<SynthField> fields = property_fields();
  fields.push_back(make_grid_field_of_size(1000));
  for (const SynthField& field : fields) {
    ConstraintSystem serial;
    const std::vector<CompactionBox> serial_boxes = to_compaction_boxes(field, serial);
    generate_constraints(serial, serial_boxes, CompactionRules::mosis());
    for (const int bands : {2, 5, 16}) {
      ConstraintSystem banded;
      const std::vector<CompactionBox> banded_boxes = to_compaction_boxes(field, banded);
      generate_constraints_banded(banded, banded_boxes, CompactionRules::mosis(), bands);
      expect_identical_systems(banded, serial, seed);
    }
    ++seed;
  }
}

TEST(CompactScaling, WorklistSolversMatchPassBasedExactly) {
  std::uint32_t seed = 0;
  for (const SynthField& field : property_fields()) {
    ConstraintSystem system;
    const std::vector<CompactionBox> boxes = to_compaction_boxes(field, system);
    generate_constraints(system, boxes, CompactionRules::mosis());

    ConstraintSystem pass = system;
    const SolveStats pass_stats = solve_leftmost(pass, EdgeOrder::kSorted);
    ConstraintSystem work = system;
    const SolveStats work_stats = solve_leftmost_worklist(work);
    ASSERT_TRUE(pass_stats.converged);
    ASSERT_TRUE(work_stats.converged);
    ASSERT_EQ(pass.values, work.values) << "seed " << seed;

    if (!pass.values.empty()) {
      const Coord width = *std::max_element(pass.values.begin(), pass.values.end());
      std::vector<Coord> pass_upper;
      solve_rightmost(pass, width, pass_upper);
      std::vector<Coord> work_upper;
      solve_rightmost_worklist(work, width, work_upper);
      ASSERT_EQ(pass_upper, work_upper) << "seed " << seed;
    }
    ++seed;
  }
}

TEST(CompactScaling, HashedRigidGroupsMatchQuadratic) {
  std::uint32_t seed = 0;
  for (const SynthField& field : property_fields()) {
    ConstraintSystem system;
    const std::vector<CompactionBox> boxes = to_compaction_boxes(field, system);
    generate_constraints(system, boxes, CompactionRules::mosis());

    RigidGroups hashed(system, RigidMatch::kHashed);
    RigidGroups quadratic(system, RigidMatch::kQuadratic);
    for (std::size_t v = 0; v < system.variable_count(); ++v) {
      ASSERT_EQ(hashed.leader(v), quadratic.leader(v)) << "seed " << seed << " var " << v;
      ASSERT_EQ(hashed.offset(v), quadratic.offset(v)) << "seed " << seed << " var " << v;
    }
    ++seed;
  }
}

TEST(CompactScaling, WorklistDetectsPositiveCycle) {
  ConstraintSystem system;
  const int a = system.add_variable("a", 0);
  const int b = system.add_variable("b", 10);
  system.add_constraint(a, b, 5, ConstraintKind::kSpacing);
  system.add_constraint(b, a, 5, ConstraintKind::kSpacing);
  EXPECT_THROW(solve_leftmost_worklist(system), Error);
  std::vector<Coord> upper;
  EXPECT_THROW(solve_rightmost_worklist(system, 100, upper), Error);
}

TEST(CompactScaling, EndToEndWorklistMatchesPassBasedOnBenchmarkGrid) {
  const SynthField field = make_grid_field_of_size(1000);
  FlatOptions pass_options;
  pass_options.solver = SolverKind::kPassBased;
  pass_options.apply_rubber_band = true;
  const FlatResult pass =
      compact_flat(field.boxes, CompactionRules::mosis(), pass_options, field.stretchable);
  FlatOptions work_options;
  work_options.solver = SolverKind::kWorklist;
  work_options.apply_rubber_band = true;
  const FlatResult work =
      compact_flat(field.boxes, CompactionRules::mosis(), work_options, field.stretchable);
  EXPECT_EQ(pass.width_after, work.width_after);
  EXPECT_EQ(pass.boxes, work.boxes);
  EXPECT_LT(work.width_after, work.width_before);  // the compactor did work
}

}  // namespace
}  // namespace rsg::compact
