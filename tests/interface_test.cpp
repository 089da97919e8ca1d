// Tests for interface algebra (§2.2): definition from placements, inversion,
// and the eq 3.1/3.2 placement derivation, including the worked example of
// Figure 2.2.
#include "iface/interface.hpp"

#include <gtest/gtest.h>

#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

TEST(Interface, IdentityWhenCoincident) {
  const Placement a{{5, 5}, Orientation::kNorth};
  const Interface i = Interface::from_placements(a, a);
  EXPECT_EQ(i.vector, (Vec{0, 0}));
  EXPECT_EQ(i.orientation, Orientation::kNorth);
}

TEST(Interface, Figure22WorkedExample) {
  // Figure 2.2: A is called at orientation South; B sits to A's side. The
  // interface is obtained by reorienting the calling cell by South^-1 =
  // South so that A ends up North; B's resulting orientation is the
  // interface orientation.
  //
  // Make B oriented East at (10, 4) and A South at (0, 0). Then:
  //   O_ab = South^-1 ∘ East = South ∘ East = West
  //   V_ab = South(10, 4) = (-10, -4)
  const Placement a{{0, 0}, Orientation::kSouth};
  const Placement b{{10, 4}, Orientation::kEast};
  const Interface i = Interface::from_placements(a, b);
  EXPECT_EQ(i.orientation, Orientation::kWest);
  EXPECT_EQ(i.vector, (Vec{-10, -4}));
}

TEST(Interface, InverseFormulaMatchesSwappedDefinition) {
  // I_ba = (-O_ab^-1 V_ab, O_ab^-1)  (eq 2.3/2.4): computing the interface
  // with the roles of A and B swapped must equal the algebraic inverse.
  const Placement a{{3, -8}, Orientation::kMirrorWest};
  const Placement b{{-14, 2}, Orientation::kEast};
  EXPECT_EQ(Interface::from_placements(a, b).inverse(), Interface::from_placements(b, a));
}

TEST(Interface, PlacementDerivationRecoversExamplePlacement) {
  // Define by example, then re-derive: placing B from A with the extracted
  // interface must land exactly on the example placement of B (and vice
  // versa through place_reference).
  const Placement a{{40, 0}, Orientation::kEast};
  const Placement b{{12, -6}, Orientation::kMirrorSouth};
  const Interface i = Interface::from_placements(a, b);
  EXPECT_EQ(i.place_other(a), b);
  EXPECT_EQ(i.place_reference(b), a);
}

// --- Property sweep: all 64 orientation pairs -------------------------------

class InterfacePropertyTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  Placement a() const { return {{21, -13}, Orientation::from_index(std::get<0>(GetParam()))}; }
  Placement b() const { return {{-7, 52}, Orientation::from_index(std::get<1>(GetParam()))}; }
};

TEST_P(InterfacePropertyTest, RoundTripThroughPlaceOther) {
  const Interface i = Interface::from_placements(a(), b());
  EXPECT_EQ(i.place_other(a()), b());
}

TEST_P(InterfacePropertyTest, RoundTripThroughPlaceReference) {
  const Interface i = Interface::from_placements(a(), b());
  EXPECT_EQ(i.place_reference(b()), a());
}

TEST_P(InterfacePropertyTest, DoubleInverseIsIdentity) {
  const Interface i = Interface::from_placements(a(), b());
  EXPECT_EQ(i.inverse().inverse(), i);
}

TEST_P(InterfacePropertyTest, InterfaceIsInvariantUnderCommonIsometry) {
  // The interface deskews by A's orientation, so transforming BOTH
  // placements by any common placement leaves the interface unchanged —
  // this is why one sample-layout example defines all occurrences of the
  // interface in the final layout (§2.3).
  const Interface i = Interface::from_placements(a(), b());
  for (const Orientation o : Orientation::all()) {
    const Placement common{{123, -77}, o};
    const Interface moved =
        Interface::from_placements(common.compose(a()), common.compose(b()));
    EXPECT_EQ(moved, i) << "common isometry " << o.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, InterfacePropertyTest,
                         ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 8)));

// --- §3.4: the same-celltype ambiguity ---------------------------------------

TEST(Interface, SelfInterfaceGenerallyDiffersFromItsInverse) {
  // I_aa = (0, East) has V = V' but I != I^-1 — the §3.4 example showing no
  // selection criterion can use the vector alone.
  const Interface i{{0, 0}, Orientation::kEast};
  const Interface inv = i.inverse();
  EXPECT_EQ(inv.vector, (Vec{0, 0}));
  EXPECT_EQ(inv.orientation, Orientation::kWest);
  EXPECT_NE(i, inv);

  // I_aa = (V, North) has O = O' but I != I^-1 — the orientation alone is
  // insufficient too.
  const Interface j{{5, 0}, Orientation::kNorth};
  EXPECT_EQ(j.inverse().orientation, Orientation::kNorth);
  EXPECT_EQ(j.inverse().vector, (Vec{-5, 0}));
  EXPECT_NE(j, j.inverse());
}

// --- Interface table ---------------------------------------------------------

TEST(InterfaceTable, StoresBothDirections) {
  InterfaceTable table;
  const Interface i{{44, 0}, Orientation::kNorth};
  table.declare("a", "b", 1, i);
  EXPECT_EQ(table.get("a", "b", 1), i);
  EXPECT_EQ(table.get("b", "a", 1), i.inverse());
  EXPECT_EQ(table.size(), 2u);
}

TEST(InterfaceTable, SameCellStoredOnceInReferenceDirection) {
  InterfaceTable table;
  const Interface i{{44, 0}, Orientation::kEast};
  table.declare("a", "a", 1, i);
  EXPECT_EQ(table.get("a", "a", 1), i);
  EXPECT_EQ(table.size(), 1u);
}

TEST(InterfaceTable, RedundantIdenticalDeclarationIsIgnored) {
  // HPLA's sample layout contained two identical instances of the
  // and-sq/connect-ao interface when only one was required (§1.2.2); the
  // RSG tolerates the duplicate.
  InterfaceTable table;
  const Interface i{{44, 0}, Orientation::kNorth};
  table.declare("a", "b", 1, i);
  table.declare("a", "b", 1, i);
  EXPECT_EQ(table.size(), 2u);
}

TEST(InterfaceTable, ConflictingDeclarationThrows) {
  InterfaceTable table;
  table.declare("a", "b", 1, Interface{{44, 0}, Orientation::kNorth});
  EXPECT_THROW(table.declare("a", "b", 1, Interface{{45, 0}, Orientation::kNorth}), LayoutError);
}

TEST(InterfaceTable, FamiliesOfInterfacesBetweenSameCells) {
  // Figure 2.3: several different legal interfaces between one pair of
  // cells, distinguished by index.
  InterfaceTable table;
  table.declare("a", "b", 1, Interface{{44, 0}, Orientation::kWest});
  table.declare("a", "b", 2, Interface{{0, 30}, Orientation::kSouth});
  table.declare("a", "c", 7, Interface{{1, 1}, Orientation::kNorth});
  EXPECT_EQ(table.indices("a", "b"), (std::vector<int>{1, 2}));
  EXPECT_EQ(table.indices("a", "c"), (std::vector<int>{7}));
  EXPECT_TRUE(table.indices("b", "c").empty());
}

TEST(InterfaceTable, MissingInterfaceThrowsWithDiagnostic) {
  InterfaceTable table;
  try {
    table.get("x", "y", 3);
    FAIL() << "expected LayoutError";
  } catch (const LayoutError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("x"), std::string::npos);
    EXPECT_NE(message.find("y"), std::string::npos);
    EXPECT_NE(message.find("3"), std::string::npos);
  }
}

TEST(InterfaceTable, CountsLookups) {
  InterfaceTable table;
  table.declare("a", "b", 1, Interface{{44, 0}, Orientation::kNorth});
  table.reset_lookup_count();
  (void)table.find("a", "b", 1);
  (void)table.find("a", "b", 2);
  EXPECT_EQ(table.lookups(), 2u);
}

TEST(InterfaceCache, LooksUpByCellIdentityAndCountsOnTheTable) {
  CellTable cells;
  const Cell& a = cells.create("a");
  const Cell& b = cells.create("b");
  InterfaceTable table;
  const Interface i_ab{{44, 0}, Orientation::kEast};
  table.declare("a", "b", 1, i_ab);
  table.reset_lookup_count();

  InterfaceCache cache(table);
  EXPECT_EQ(cache.get(a, b, 1), i_ab);
  EXPECT_EQ(cache.get(b, a, 1), i_ab.inverse());
  EXPECT_EQ(cache.get(a, b, 1), i_ab);  // remembered hit
  EXPECT_EQ(table.lookups(), 3u);       // every ask counts, cached or not

  // A miss is not remembered: a later declaration is seen.
  EXPECT_THROW((void)cache.get(a, b, 2), LayoutError);
  const Interface i_ab2{{0, 30}, Orientation::kNorth};
  table.declare("a", "b", 2, i_ab2);
  EXPECT_EQ(cache.get(a, b, 2), i_ab2);
}

}  // namespace
}  // namespace rsg
