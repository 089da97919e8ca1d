// Tests for constraint generation (§6.4.1): visibility scan line versus the
// naive overconstraining generator, hidden edges, net awareness, and the
// shadow margin.
#include "compact/scanline.hpp"

#include <gtest/gtest.h>

#include "compact/bellman_ford.hpp"
#include "oracles/reference_constraints.hpp"
#include "support/error.hpp"

namespace rsg::compact {
namespace {

std::vector<CompactionBox> make_boxes(std::initializer_list<LayerBox> list,
                                      bool stretchable = false) {
  std::vector<CompactionBox> out;
  for (const LayerBox& lb : list) {
    CompactionBox cb;
    cb.geometry = lb;
    cb.stretchable = stretchable;
    out.push_back(cb);
  }
  return out;
}

int count_kind(const ConstraintSystem& system, ConstraintKind kind) {
  int n = 0;
  for (const Constraint& c : system.constraints()) n += (c.kind == kind);
  return n;
}

TEST(Scanline, TwoBoxesGetOneSpacingConstraint) {
  auto boxes = make_boxes({{Layer::kMetal1, Box(0, 0, 10, 4)},
                           {Layer::kMetal1, Box(20, 0, 30, 4)}});
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_EQ(count_kind(system, ConstraintKind::kSpacing), 1);

  solve_leftmost_condensed(system);
  // Packed: first box at [0,10], second at [16,26] (spacing 6).
  EXPECT_EQ(system.values[static_cast<std::size_t>(boxes[1].left_var)], 16);
}

TEST(Scanline, HiddenEdgeGetsNoConstraint) {
  // Figure 6.4: the middle box masks the outer pair; the outer boxes must
  // not constrain each other directly.
  auto boxes = make_boxes({{Layer::kMetal1, Box(0, 0, 10, 4)},
                           {Layer::kMetal1, Box(10, 0, 30, 4)},   // middle, same net
                           {Layer::kMetal1, Box(40, 0, 50, 4)}});
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  // The only spacing constraint is middle -> right; left -> right is hidden.
  int spacing = 0;
  for (const Constraint& c : system.constraints()) {
    if (c.kind != ConstraintKind::kSpacing) continue;
    ++spacing;
    EXPECT_EQ(c.from, boxes[1].right_var);
    EXPECT_EQ(c.to, boxes[2].left_var);
  }
  EXPECT_EQ(spacing, 1);
}

TEST(Scanline, SameNetFragmentsGetConnectNotSpacing) {
  // Figure 6.5: abutting fragments are one electrical net.
  std::vector<CompactionBox> boxes;
  for (int i = 0; i < 5; ++i) {
    CompactionBox cb;
    cb.geometry = {Layer::kDiffusion, Box(i * 10, 0, (i + 1) * 10, 4)};
    cb.stretchable = true;
    boxes.push_back(cb);
  }
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_EQ(count_kind(system, ConstraintKind::kSpacing), 0);
  EXPECT_GT(count_kind(system, ConstraintKind::kConnect), 0);
}

TEST(Scanline, NaiveGeneratorOverconstrainsFragments) {
  std::vector<CompactionBox> boxes;
  for (int i = 0; i < 5; ++i) {
    CompactionBox cb;
    cb.geometry = {Layer::kDiffusion, Box(i * 10, 0, (i + 1) * 10, 4)};
    cb.stretchable = true;
    boxes.push_back(cb);
  }
  ConstraintSystem system;
  add_box_variables(system, boxes);
  oracle::generate_constraints_naive(system, boxes, CompactionRules::mosis());
  EXPECT_GT(count_kind(system, ConstraintKind::kSpacing), 4);
}

TEST(Scanline, DiagonalBoxesWithinShadowMarginConstrain) {
  // y-gap 2 < spacing 6: the diagonal pair still needs x spacing.
  auto boxes = make_boxes({{Layer::kMetal1, Box(0, 0, 10, 4)},
                           {Layer::kMetal1, Box(20, 6, 30, 10)}});
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_EQ(count_kind(system, ConstraintKind::kSpacing), 1);
}

TEST(Scanline, FarApartInYDoNotConstrain) {
  auto boxes = make_boxes({{Layer::kMetal1, Box(0, 0, 10, 4)},
                           {Layer::kMetal1, Box(20, 10, 30, 14)}});  // y-gap 6 >= 6
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_EQ(count_kind(system, ConstraintKind::kSpacing), 0);
}

TEST(Scanline, NonInteractingLayersIgnoreEachOther) {
  // Metal2 and diffusion have no spacing rule in the mosis table.
  auto boxes = make_boxes({{Layer::kMetal2, Box(0, 0, 10, 4)},
                           {Layer::kDiffusion, Box(20, 0, 30, 4)}});
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_EQ(count_kind(system, ConstraintKind::kSpacing), 0);
}

TEST(Scanline, OverlappingInteractingLayersPreserveOrdering) {
  // Poly crossing diffusion (a transistor): topology must survive.
  auto boxes = make_boxes({{Layer::kDiffusion, Box(0, 0, 20, 8)},
                           {Layer::kPoly, Box(8, -4, 12, 12)}});
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  EXPECT_GT(count_kind(system, ConstraintKind::kOrder), 0);

  solve_leftmost_condensed(system);
  // The poly must still cross the diffusion: its left edge stays right of
  // the diffusion's left edge, its right edge left of the diffusion's right.
  EXPECT_LE(system.values[static_cast<std::size_t>(boxes[0].left_var)],
            system.values[static_cast<std::size_t>(boxes[1].left_var)]);
  EXPECT_LE(system.values[static_cast<std::size_t>(boxes[1].right_var)],
            system.values[static_cast<std::size_t>(boxes[0].right_var)]);
}

TEST(Scanline, RigidBoxesKeepTheirWidth) {
  auto boxes = make_boxes({{Layer::kMetal1, Box(5, 0, 25, 4)}});
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  solve_leftmost_condensed(system);
  EXPECT_EQ(system.values[static_cast<std::size_t>(boxes[0].right_var)] -
                system.values[static_cast<std::size_t>(boxes[0].left_var)],
            20);
}

TEST(Scanline, StretchableBoxesMayShrinkToMinimumWidth) {
  auto boxes = make_boxes({{Layer::kMetal1, Box(5, 0, 25, 4)}}, /*stretchable=*/true);
  ConstraintSystem system;
  add_box_variables(system, boxes);
  generate_constraints(system, boxes, CompactionRules::mosis());
  solve_leftmost_condensed(system);
  EXPECT_EQ(system.values[static_cast<std::size_t>(boxes[0].right_var)] -
                system.values[static_cast<std::size_t>(boxes[0].left_var)],
            4);  // metal1 minimum width
}

}  // namespace
}  // namespace rsg::compact
