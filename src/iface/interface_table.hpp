// The interface table (§2.4).
//
// A mapping from (cellname1, cellname2, interface index) to interfaces,
// initialized from the sample layout and augmented as new macrocells declare
// inherited interfaces (§2.5). Loading I_ab also loads I_ba = I_ab^-1, so
// either endpoint of a connectivity edge can be derived from the other —
// "this bilaterality of the interface table is very important" (§2.4).
//
// Same-celltype interfaces (A == B) are stored once, in the user-chosen
// reference direction I°_aa (§3.4); the connectivity graph's directed edges
// decide whether I°_aa or its inverse applies during expansion.
//
// Hash-table backed: the expander does one table access per graph node, so
// "it is imperative that interface lookup be fast" (§4.5) — see
// bench_interface_table. The expander and declare_interface ask by cell
// identity through an InterfaceCache (below), which its owner keeps beside
// the cells it names; the table itself stays a name table.
//
// Like CellTable, a table may be an OVERLAY on an immutable base (the
// compile-once/run-many split): lookups check the overlay then fall through
// to the base, new declarations land in the overlay, and base queries go
// through an uncounted path that never writes the base — even its lookup
// counter — so concurrent overlays can share one base without a data race.
// The per-table counter is atomic anyway, because read-only compaction
// paths take `const InterfaceTable&` and may run on several threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "iface/interface.hpp"

namespace rsg {

class Cell;

class InterfaceTable {
 public:
  InterfaceTable() = default;
  // Overlay over `base` (may be nullptr). The base must outlive this table
  // and must not change while overlays exist.
  explicit InterfaceTable(const InterfaceTable* base) : base_(base) {}

  InterfaceTable(const InterfaceTable& other)
      : base_(other.base_),
        table_(other.table_),
        lookups_(other.lookups_.load(std::memory_order_relaxed)) {}
  InterfaceTable& operator=(const InterfaceTable& other) {
    if (this != &other) {
      base_ = other.base_;
      table_ = other.table_;
      lookups_.store(other.lookups_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
    return *this;
  }
  InterfaceTable(InterfaceTable&& other) noexcept
      : base_(other.base_),
        table_(std::move(other.table_)),
        lookups_(other.lookups_.load(std::memory_order_relaxed)) {}
  InterfaceTable& operator=(InterfaceTable&& other) noexcept {
    if (this != &other) {
      base_ = other.base_;
      table_ = std::move(other.table_);
      lookups_.store(other.lookups_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    }
    return *this;
  }

  // Loads I_ab under (cell_a, cell_b, index) and, when the cells differ, the
  // inverse under (cell_b, cell_a, index). Re-declaring an identical
  // interface is ignored (HPLA's sample layout contained exactly such
  // redundant duplicates, §1.2.2); a conflicting redeclaration — against
  // this table or its base — throws.
  void declare(const std::string& cell_a, const std::string& cell_b, int index,
               const Interface& iface);

  std::optional<Interface> find(const std::string& cell_a, const std::string& cell_b,
                                int index) const;

  // Throws LayoutError with a diagnostic naming the missing triple.
  const Interface& get(const std::string& cell_a, const std::string& cell_b, int index) const;

  bool contains(const std::string& cell_a, const std::string& cell_b, int index) const {
    return find(cell_a, cell_b, index).has_value();
  }

  // The family of interface indices declared between two cells (Fig 2.3),
  // base and overlay merged, sorted ascending.
  std::vector<int> indices(const std::string& cell_a, const std::string& cell_b) const;

  // Number of stored directed entries including the base's (a distinct-cell
  // declaration counts 2, a same-cell declaration counts 1).
  std::size_t size() const {
    return table_.size() + (base_ != nullptr ? base_->size() : 0);
  }

  // Total accesses through THIS table's find/get — instrumentation for E9.
  // Overlay lookups that fall through to the base count here, not there.
  std::size_t lookups() const { return lookups_.load(std::memory_order_relaxed); }
  void reset_lookup_count() { lookups_.store(0, std::memory_order_relaxed); }

  const InterfaceTable* base() const { return base_; }

 private:
  struct Key {
    std::string a;
    std::string b;
    int index;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      const std::size_t ha = std::hash<std::string>{}(k.a);
      const std::size_t hb = std::hash<std::string>{}(k.b);
      return ha ^ (hb * 0x9E3779B97F4A7C15ull) ^ (static_cast<std::size_t>(k.index) << 1);
    }
  };

  // Overlay-then-base resolution with no counter update anywhere — the
  // path through which a shared base is always queried.
  const Interface* lookup_nocount(const Key& key) const;
  friend class InterfaceCache;

  [[noreturn]] static void missing(const std::string& cell_a, const std::string& cell_b,
                                   int index);

  const InterfaceTable* base_ = nullptr;
  std::unordered_map<Key, Interface, KeyHash> table_;
  mutable std::atomic<std::size_t> lookups_{0};
};

// Lookups into one InterfaceTable keyed by cell identity: the expander's and
// declare_interface's path. Each hit is remembered under the two cells'
// addresses, so a repeated triple hashes two pointers instead of two names
// and copies nothing. The cache holds addresses, so whoever owns it must
// also keep the cells alive for as long as it is used (an interpreter over
// its cell table, or one expansion). It is not thread-safe; the table it
// reads stays safe to share. Every call counts one lookup on the table,
// cached or not.
class InterfaceCache {
 public:
  // `table` must outlive the cache. Declarations added to it later are
  // seen; existing entries never change, so remembered hits stay valid.
  explicit InterfaceCache(const InterfaceTable& table) : table_(&table) {}

  // Throws LayoutError, like InterfaceTable::get, when the triple is missing.
  const Interface& get(const Cell& a, const Cell& b, int index);

  const InterfaceTable& table() const { return *table_; }

 private:
  struct Key {
    const Cell* a;
    const Cell* b;
    int index;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      const auto pa = reinterpret_cast<std::uintptr_t>(k.a);
      const auto pb = reinterpret_cast<std::uintptr_t>(k.b);
      std::uint64_t h = (pa ^ (pb * 0x9E3779B97F4A7C15ull)) + static_cast<std::uint64_t>(k.index);
      h ^= h >> 31;
      h *= 0xBF58476D1CE4E5B9ull;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  const InterfaceTable* table_;
  // Hits so far, pointing into the table or its base (map nodes never move,
  // and entries are never erased or changed).
  std::unordered_map<Key, const Interface*, KeyHash> hits_;
};

}  // namespace rsg
