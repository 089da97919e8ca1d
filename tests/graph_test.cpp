// Tests for connectivity graphs and expansion (Ch. 3): spanning trees,
// redundant cycle edges, the Figure 3.3 missing-interface property, error
// paths, and determinism of the generated layout.
#include "graph/connectivity_graph.hpp"

#include <gtest/gtest.h>

#include "graph/expand.hpp"
#include "io/def_writer.hpp"
#include "support/error.hpp"

namespace rsg {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() {
    // Four 10x10 primitive cells with distinguishable content.
    for (const char* name : {"a", "b", "c", "d"}) {
      Cell& cell = cells_.create(name);
      cell.add_box(Layer::kMetal1, Box(0, 0, 10, 10));
    }
    cells_.get("a").add_box(Layer::kPoly, Box(2, 2, 4, 4));
    cells_.get("b").add_box(Layer::kPoly, Box(6, 6, 8, 8));
  }

  const Cell* cell(const char* name) { return &cells_.get(name); }

  CellTable cells_;
  InterfaceTable interfaces_;
  ConnectivityGraph graph_;
};

TEST_F(GraphTest, SingleEdgeExpansion) {
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kNorth});
  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  graph_.connect(na, nb, 1);

  Cell& out = expand_to_cell(graph_, na, "row", interfaces_, cells_);
  ASSERT_EQ(out.instances().size(), 2u);
  EXPECT_EQ(*na->placement, kIdentityPlacement);
  EXPECT_EQ(nb->placement->location, (Point{12, 0}));
  EXPECT_EQ(na->owner, &out);
  EXPECT_EQ(nb->owner, &out);
}

TEST_F(GraphTest, TraversalWorksAgainstEdgeDirection) {
  // Root on the edge's HEAD: the expander must use the inverse interface.
  // This is the bilaterality requirement of §3.4 — a macro cannot know
  // which end of its subgraph will be reached first.
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kWest});
  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  graph_.connect(na, nb, 1);

  expand_to_cell(graph_, nb, "row", interfaces_, cells_);
  // nb is at identity; na must be placed so that I_ab(na) = nb.
  const Interface i = interfaces_.get("a", "b", 1);
  EXPECT_EQ(i.place_other(*na->placement), *nb->placement);
}

TEST_F(GraphTest, Figure33SpanningTreeNeedsOnlyThreeInterfaces) {
  // Figure 3.3: a 4-cell cluster (a,b,c,d) whose connectivity graph is the
  // spanning tree a-b, b-c, c-d. The interfaces I_ad, I_ac, I_bd are never
  // accessed and need not exist in the sample layout.
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kNorth});
  interfaces_.declare("b", "c", 1, Interface{{0, 12}, Orientation::kNorth});
  interfaces_.declare("c", "d", 1, Interface{{-12, 0}, Orientation::kNorth});

  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  GraphNode* nc = graph_.make_instance(cell("c"));
  GraphNode* nd = graph_.make_instance(cell("d"));
  graph_.connect(na, nb, 1);
  graph_.connect(nb, nc, 1);
  graph_.connect(nc, nd, 1);

  interfaces_.reset_lookup_count();
  ExpandStats stats;
  Cell& out = expand_to_cell(graph_, na, "cluster", interfaces_, cells_, &stats);

  EXPECT_EQ(out.instances().size(), 4u);
  EXPECT_EQ(stats.nodes_placed, 4u);
  EXPECT_EQ(nd->placement->location, (Point{0, 12}));  // walked around the U
  // No lookup ever touched (a,d), (a,c) or (b,d).
  EXPECT_FALSE(interfaces_.contains("a", "d", 1));
  EXPECT_FALSE(interfaces_.contains("a", "c", 1));
  EXPECT_FALSE(interfaces_.contains("b", "d", 1));
}

TEST_F(GraphTest, ConsistentRedundantCycleEdgeIsAccepted) {
  // A square cycle whose fourth edge agrees with the tree-derived
  // placements: "cycles in the graph contain redundant information" (§3.1).
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kNorth});
  interfaces_.declare("b", "c", 1, Interface{{0, 12}, Orientation::kNorth});
  interfaces_.declare("c", "d", 1, Interface{{-12, 0}, Orientation::kNorth});
  interfaces_.declare("a", "d", 1, Interface{{0, 12}, Orientation::kNorth});

  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  GraphNode* nc = graph_.make_instance(cell("c"));
  GraphNode* nd = graph_.make_instance(cell("d"));
  graph_.connect(na, nb, 1);
  graph_.connect(nb, nc, 1);
  graph_.connect(nc, nd, 1);
  graph_.connect(na, nd, 1);  // redundant but consistent

  ExpandStats stats;
  expand_to_cell(graph_, na, "square", interfaces_, cells_, &stats);
  EXPECT_GT(stats.redundant_edges_checked, 0u);
}

TEST_F(GraphTest, InconsistentCycleThrows) {
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kNorth});
  interfaces_.declare("b", "c", 1, Interface{{0, 12}, Orientation::kNorth});
  interfaces_.declare("a", "c", 1, Interface{{99, 99}, Orientation::kNorth});  // contradicts

  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  GraphNode* nc = graph_.make_instance(cell("c"));
  graph_.connect(na, nb, 1);
  graph_.connect(nb, nc, 1);
  graph_.connect(na, nc, 1);

  EXPECT_THROW(expand_to_cell(graph_, na, "bad", interfaces_, cells_), LayoutError);
}

TEST_F(GraphTest, MissingInterfaceNamesTheCellsInTheError) {
  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  graph_.connect(na, nb, 5);
  try {
    expand_to_cell(graph_, na, "oops", interfaces_, cells_);
    FAIL() << "expected LayoutError";
  } catch (const LayoutError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("#5"), std::string::npos);
    EXPECT_NE(message.find("sample layout"), std::string::npos);
  }
}

TEST_F(GraphTest, LayoutIsIndependentOfTraversalRoot) {
  // §3.4: each connectivity graph maps to an equivalence class of layouts
  // identical modulo an isometry. Expanding the same graph from different
  // roots must produce identical geometry once both are rebased.

  auto build = [&](CellTable& cells, InterfaceTable& table, int root_index) {
    ConnectivityGraph g;
    GraphNode* na = g.make_instance(&cells.get("a"));
    GraphNode* nb = g.make_instance(&cells.get("b"));
    GraphNode* nc = g.make_instance(&cells.get("c"));
    g.connect(na, nb, 1);
    g.connect(nb, nc, 2);
    GraphNode* roots[3] = {na, nb, nc};
    expand_to_cell(g, roots[root_index], "out", table, cells);
    // Rebase on the instance of a: the interface between the a-instance and
    // the c-instance is isometry-invariant, so it must match across roots.
    return Interface::from_placements(*na->placement, *nc->placement);
  };

  std::optional<Interface> reference;
  for (int root = 0; root < 3; ++root) {
    // Each pass gets its own cells and tables, which die together.
    CellTable cells;
    for (const char* name : {"a", "b", "c", "d"}) {
      cells.create(name).add_box(Layer::kMetal1, Box(0, 0, 10, 10));
    }
    InterfaceTable table;
    table.declare("a", "b", 1, Interface{{12, 0}, Orientation::kEast});
    table.declare("b", "c", 2, Interface{{0, -12}, Orientation::kMirrorNorth});
    const Interface rel = build(cells, table, root);
    if (!reference) {
      reference = rel;
    } else {
      EXPECT_EQ(rel, *reference) << "root index " << root;
    }
  }
}

TEST_F(GraphTest, ExpandedNodesCannotBeReconnectedOrReexpanded) {
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kNorth});
  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  graph_.connect(na, nb, 1);
  expand_to_cell(graph_, na, "row", interfaces_, cells_);

  GraphNode* nc = graph_.make_instance(cell("c"));
  EXPECT_THROW(graph_.connect(na, nc, 1), LayoutError);
  EXPECT_THROW(expand_to_cell(graph_, nb, "again", interfaces_, cells_), LayoutError);
}

TEST_F(GraphTest, SelfEdgeAndNullArgumentsRejected) {
  GraphNode* na = graph_.make_instance(cell("a"));
  EXPECT_THROW(graph_.connect(na, na, 1), LayoutError);
  EXPECT_THROW(graph_.connect(na, nullptr, 1), LayoutError);
  EXPECT_THROW(graph_.make_instance(nullptr), LayoutError);
  EXPECT_THROW(expand_to_cell(graph_, nullptr, "x", interfaces_, cells_), LayoutError);
}

TEST_F(GraphTest, MacrocellsNestHierarchically) {
  // Build a row, then instantiate the row twice in a super-cell via a fresh
  // graph — checking that generated cells behave exactly like primitives
  // (the "true macro abstraction" claim).
  interfaces_.declare("a", "b", 1, Interface{{12, 0}, Orientation::kNorth});
  GraphNode* na = graph_.make_instance(cell("a"));
  GraphNode* nb = graph_.make_instance(cell("b"));
  graph_.connect(na, nb, 1);
  Cell& row = expand_to_cell(graph_, na, "row", interfaces_, cells_);

  interfaces_.declare("row", "row", 1, Interface{{0, 14}, Orientation::kNorth});
  GraphNode* r1 = graph_.make_instance(&row);
  GraphNode* r2 = graph_.make_instance(&row);
  graph_.connect(r1, r2, 1);
  Cell& grid = expand_to_cell(graph_, r1, "grid", interfaces_, cells_);

  EXPECT_EQ(grid.flattened_instance_count(), 2u + 4u);  // 2 rows + 4 leaves
  EXPECT_EQ(grid.bounding_box(), Box(0, 0, 22, 24));
}

}  // namespace
}  // namespace rsg
