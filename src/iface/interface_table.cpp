#include "iface/interface_table.hpp"

#include <algorithm>

#include "layout/cell.hpp"
#include "support/error.hpp"

namespace rsg {

void InterfaceTable::declare(const std::string& cell_a, const std::string& cell_b, int index,
                             const Interface& iface) {
  auto insert_one = [&](const std::string& a, const std::string& b, const Interface& value) {
    const Key key{a, b, index};
    if (base_ != nullptr) {
      if (const Interface* existing = base_->lookup_nocount(key)) {
        if (*existing == value) return;  // redundant redeclaration of a base entry
        throw LayoutError("conflicting redeclaration of interface #" + std::to_string(index) +
                          " between '" + a + "' and '" + b + "' (declared in the compiled base)");
      }
    }
    auto [it, inserted] = table_.try_emplace(key, value);
    if (!inserted && !(it->second == value)) {
      throw LayoutError("conflicting redeclaration of interface #" + std::to_string(index) +
                        " between '" + a + "' and '" + b + "'");
    }
  };
  insert_one(cell_a, cell_b, iface);
  if (cell_a != cell_b) insert_one(cell_b, cell_a, iface.inverse());
}

const Interface* InterfaceTable::lookup_nocount(const Key& key) const {
  auto it = table_.find(key);
  if (it != table_.end()) return &it->second;
  return base_ != nullptr ? base_->lookup_nocount(key) : nullptr;
}

std::optional<Interface> InterfaceTable::find(const std::string& cell_a,
                                              const std::string& cell_b, int index) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const Interface* found = lookup_nocount(Key{cell_a, cell_b, index});
  if (found == nullptr) return std::nullopt;
  return *found;
}

void InterfaceTable::missing(const std::string& cell_a, const std::string& cell_b, int index) {
  throw LayoutError("no interface #" + std::to_string(index) + " between '" + cell_a + "' and '" +
                    cell_b + "' — is it present in the sample layout?");
}

const Interface& InterfaceTable::get(const std::string& cell_a, const std::string& cell_b,
                                     int index) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const Interface* found = lookup_nocount(Key{cell_a, cell_b, index});
  if (found == nullptr) missing(cell_a, cell_b, index);
  return *found;
}

const Interface& InterfaceCache::get(const Cell& a, const Cell& b, int index) {
  table_->lookups_.fetch_add(1, std::memory_order_relaxed);
  const Key key{&a, &b, index};
  auto it = hits_.find(key);
  if (it != hits_.end()) return *it->second;
  const Interface* found = table_->lookup_nocount(InterfaceTable::Key{a.name(), b.name(), index});
  if (found == nullptr) InterfaceTable::missing(a.name(), b.name(), index);
  hits_.emplace(key, found);
  return *found;
}

std::vector<int> InterfaceTable::indices(const std::string& cell_a,
                                         const std::string& cell_b) const {
  std::vector<int> result;
  for (const InterfaceTable* table = this; table != nullptr; table = table->base_) {
    for (const auto& [key, value] : table->table_) {
      if (key.a == cell_a && key.b == cell_b) result.push_back(key.index);
    }
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

}  // namespace rsg
