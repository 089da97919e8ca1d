// Cells and instances — the layout database core (§2.1, §4.3).
//
// A cell consists of objects whose locations are defined in a local
// coordinate system: boxes of various layers, labelled points, and instances
// of other cells (Figure 4.2). An instance is the triplet
// (point of call, orientation, pointer to cell definition) (Figure 4.3).
//
// Cells are owned by a CellTable and referenced by stable pointer, so a
// macrocell never copies or mutates its subcells — the property that lets the
// RSG share one cell definition among many calling cells where HPLA's
// relocation scheme had to copy (§1.2.2).
#pragma once

#include <string>
#include <vector>

#include "geom/box.hpp"
#include "geom/transform.hpp"

namespace rsg {

class Cell;

// A named point. Sample layouts use numeric label text placed in the overlap
// region of two instances to declare interfaces by example (Fig 5.5); design
// files may also attach terminal names for documentation.
struct Label {
  std::string text;
  Point at;

  friend bool operator==(const Label&, const Label&) = default;
};

struct Instance {
  const Cell* cell = nullptr;
  Placement placement;

  // Optional name, used by sample layouts to identify the reference instance
  // of a same-celltype interface (§3.4) and by diagnostics.
  std::string name;

  Box bounding_box() const;
  friend bool operator==(const Instance& a, const Instance& b) {
    return a.cell == b.cell && a.placement == b.placement;
  }
};

class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  const std::string& name() const { return name_; }

  const std::vector<LayerBox>& boxes() const { return boxes_; }
  const std::vector<Label>& labels() const { return labels_; }
  const std::vector<Instance>& instances() const { return instances_; }

  void add_box(Layer layer, const Box& box) { boxes_.push_back({layer, box}); }
  void add_label(std::string text, Point at) { labels_.push_back({std::move(text), at}); }
  void add_instance(const Cell* cell, Placement placement, std::string name = {});
  void reserve_instances(std::size_t count) { instances_.reserve(count); }

  // Local bounding box over own boxes and (recursively) instance extents.
  // Label points do not contribute. Empty cells return a degenerate box at
  // the origin.
  Box bounding_box() const;

  // Direct (non-recursive) counts, used by the sample-vs-layout complexity
  // experiment (E7).
  std::size_t box_count() const { return boxes_.size(); }
  std::size_t instance_count() const { return instances_.size(); }

  // Recursive totals over the expanded hierarchy.
  std::size_t flattened_box_count() const;
  std::size_t flattened_instance_count() const;

 private:
  std::string name_;
  std::vector<LayerBox> boxes_;
  std::vector<Label> labels_;
  std::vector<Instance> instances_;
};

}  // namespace rsg
