#include "graph/expand.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rsg {

namespace {

// Placement of `edge.other` derived from the placed node `from` across
// `edge`. Direction decides which of I° / I°^-1 applies (§3.4): the edge's
// tail is the reference instance — the one deskewed to North, at whose point
// of call the interface vector begins.
Placement derive_placement(const GraphNode& from, const GraphNode::Edge& edge,
                           InterfaceCache& interfaces) {
  const GraphNode& to = *edge.other;
  if (edge.outgoing) {
    // Edge from -> to: `from` is the reference instance of I.
    return interfaces.get(*from.cell, *to.cell, edge.interface_index)
        .place_other(*from.placement);
  }
  // Edge to -> from: `to` is the reference instance; invert the derivation.
  return interfaces.get(*to.cell, *from.cell, edge.interface_index)
      .place_reference(*from.placement);
}

}  // namespace

Cell& expand_to_cell(ConnectivityGraph& graph, GraphNode* root, const std::string& cell_name,
                     InterfaceCache& interfaces, CellTable& cells, ExpandStats* stats) {
  (void)graph;
  if (root == nullptr) throw LayoutError("mk_cell: null root node");
  if (root->expanded()) {
    throw LayoutError("mk_cell('" + cell_name + "'): root node already expanded into cell '" +
                      root->owner->name() + "'");
  }

  const std::size_t lookups_before = interfaces.table().lookups();

  // The root is arbitrarily placed and oriented; every layout in the graph's
  // equivalence class is identical modulo an isometry (§3.4), and this picks
  // the representative with the root at ((0,0), North).
  root->placement = kIdentityPlacement;

  // Breadth-first: `component` doubles as the queue, nodes [head, end)
  // being the frontier.
  std::vector<GraphNode*> component{root};
  std::size_t redundant = 0;

  for (std::size_t head = 0; head < component.size(); ++head) {
    GraphNode* node = component[head];
    for (const GraphNode::Edge& edge : node->edges) {
      GraphNode* other = edge.other;
      if (other->expanded()) {
        throw LayoutError("mk_cell('" + cell_name + "'): node of cell '" + other->cell->name() +
                          "' is already part of cell '" + other->owner->name() + "'");
      }
      const Placement derived = derive_placement(*node, edge, interfaces);
      if (!other->placement) {
        other->placement = derived;
        component.push_back(other);
      } else if (*other->placement != derived) {
        // A redundant (cycle) edge that contradicts the spanning-tree-derived
        // placement: the sample layout and design file disagree.
        throw LayoutError(
            "mk_cell('" + cell_name + "'): inconsistent cycle — interface #" +
            std::to_string(edge.interface_index) + " between '" + node->cell->name() + "' and '" +
            other->cell->name() + "' contradicts the placement already derived");
      } else {
        ++redundant;
      }
    }
  }

  Cell& cell = cells.create(cell_name);
  cell.reserve_instances(component.size());
  // Deterministic order: node creation order, not traversal order.
  std::sort(component.begin(), component.end(),
            [](const GraphNode* a, const GraphNode* b) { return a->id < b->id; });
  for (GraphNode* node : component) {
    cell.add_instance(node->cell, *node->placement, "n" + std::to_string(node->id));
    node->owner = &cell;
  }

  if (stats != nullptr) {
    stats->nodes_placed = component.size();
    // Every bilateral edge inside the component is examined from both ends;
    // tree edges place a node once and verify once, so half of the non-tree
    // checks are redundancy verifications.
    stats->redundant_edges_checked = redundant;
    stats->interface_lookups = interfaces.table().lookups() - lookups_before;
  }
  return cell;
}

Cell& expand_to_cell(ConnectivityGraph& graph, GraphNode* root, const std::string& cell_name,
                     const InterfaceTable& interfaces, CellTable& cells, ExpandStats* stats) {
  InterfaceCache cache(interfaces);
  return expand_to_cell(graph, root, cell_name, cache, cells, stats);
}

}  // namespace rsg
