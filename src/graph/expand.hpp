// Graph-to-layout expansion — the second step of the RSG algorithm (§3.1).
//
// A root node is chosen, arbitrarily placed at ((0,0), North), and the graph
// is traversed; each partial instance acquires a location and orientation
// from an already-placed neighbour via eq 3.1/3.2. One interface-table
// access per node (§4.5). The connectivity graph need only be a spanning
// tree; redundant cycle edges are tolerated but must agree with the
// placements already derived — a disagreement means the design file and
// sample layout are inconsistent, and raises LayoutError rather than
// silently depending on traversal order (the bug §3.4 describes in early
// RSG versions).
#pragma once

#include <string>

#include "graph/connectivity_graph.hpp"
#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"

namespace rsg {

struct ExpandStats {
  std::size_t nodes_placed = 0;
  std::size_t redundant_edges_checked = 0;
  std::size_t interface_lookups = 0;
};

// mk_cell (§4.4.3): expands the connected component of `root` into a new
// cell named `cell_name` in `cells`. Every node in the component must be
// unexpanded; after the call each node carries its placement and owner.
// Instances are added in node-creation order, so output is deterministic and
// independent of edge insertion order. Interfaces are looked up by cell
// identity through `interfaces`, whose owner keeps the cells alive.
Cell& expand_to_cell(ConnectivityGraph& graph, GraphNode* root, const std::string& cell_name,
                     InterfaceCache& interfaces, CellTable& cells, ExpandStats* stats = nullptr);

// The same expansion with a cache that lives for this one call.
Cell& expand_to_cell(ConnectivityGraph& graph, GraphNode* root, const std::string& cell_name,
                     const InterfaceTable& interfaces, CellTable& cells,
                     ExpandStats* stats = nullptr);

}  // namespace rsg
