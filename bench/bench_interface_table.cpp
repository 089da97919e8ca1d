// E9a (§4.5): "the interface table, the cell definition table and even the
// interpreter environment frames are all implemented with hash tables which
// makes lookup extremely fast. While walking through a connectivity graph
// the system accesses the interface table once for each node hence it is
// imperative that interface lookup be fast."
//
// Measures interface-table lookup against table size three ways: by cell
// identity through an InterfaceCache (the `const Interface&` lookup the
// expander and declare_interface run, one per placed node), by cell name (the string
// API declarations and tests use), and the linear-scan alternative a naive
// implementation would use.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "iface/interface_table.hpp"
#include "layout/cell_table.hpp"

namespace {

using rsg::Cell;
using rsg::CellTable;
using rsg::Interface;
using rsg::InterfaceCache;
using rsg::InterfaceTable;
using rsg::Orientation;

InterfaceTable build_table(int cells) {
  InterfaceTable table;
  for (int a = 0; a < cells; ++a) {
    for (int i = 1; i <= 4; ++i) {
      table.declare("cell" + std::to_string(a), "cell" + std::to_string((a + 1) % cells), i,
                    Interface{{static_cast<rsg::Coord>(10 * i), 0}, Orientation::kNorth});
    }
  }
  return table;
}

void BM_HashTableLookup(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const InterfaceTable table = build_table(cells);
  std::vector<std::pair<std::string, std::string>> queries;
  for (int a = 0; a < cells; ++a) {
    queries.emplace_back("cell" + std::to_string(a), "cell" + std::to_string((a + 1) % cells));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [ca, cb] = queries[i % queries.size()];
    benchmark::DoNotOptimize(table.find(ca, cb, static_cast<int>(i % 4) + 1));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashTableLookup)->Arg(4)->Arg(64)->Arg(1024);

// The expander's path: the same queries asked with the cells themselves.
// Each (cell, cell, index) triple pays one name-keyed lookup on first use;
// every later ask hashes two addresses and returns a reference.
void BM_CellIdentityLookup(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const InterfaceTable table = build_table(cells);
  CellTable library;
  std::vector<const Cell*> by_index;
  for (int a = 0; a < cells; ++a) by_index.push_back(&library.create("cell" + std::to_string(a)));
  InterfaceCache cache(table);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto a = static_cast<std::size_t>(i % static_cast<std::size_t>(cells));
    const Cell& ca = *by_index[a];
    const Cell& cb = *by_index[(a + 1) % by_index.size()];
    benchmark::DoNotOptimize(&cache.get(ca, cb, static_cast<int>(i % 4) + 1));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CellIdentityLookup)->Arg(4)->Arg(64)->Arg(1024);

// The strawman: a flat list searched linearly (what a description-file-like
// sequential structure would cost).
struct LinearTable {
  struct Entry {
    std::string a, b;
    int index;
    Interface iface;
  };
  std::vector<Entry> entries;
  const Interface* find(const std::string& a, const std::string& b, int index) const {
    for (const Entry& e : entries) {
      if (e.index == index && e.a == a && e.b == b) return &e.iface;
    }
    return nullptr;
  }
};

void BM_LinearScanLookup(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  LinearTable table;
  for (int a = 0; a < cells; ++a) {
    for (int i = 1; i <= 4; ++i) {
      table.entries.push_back({"cell" + std::to_string(a),
                               "cell" + std::to_string((a + 1) % cells), i,
                               Interface{{10, 0}, Orientation::kNorth}});
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string a = "cell" + std::to_string(i % cells);
    const std::string b = "cell" + std::to_string((i + 1) % cells);
    benchmark::DoNotOptimize(table.find(a, b, static_cast<int>(i % 4) + 1));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinearScanLookup)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
