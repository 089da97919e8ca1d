#include "lang/env.hpp"

#include <algorithm>

namespace rsg::lang {

EnvPtr Environment::global(std::shared_ptr<const SymbolTable> symbols) {
  EnvPtr env(new Environment());
  env->symbols_ = std::move(symbols);
  env->dense_ = true;
  return env;
}

Environment::Environment(std::shared_ptr<const SymbolTable> symbols, const ProcedureScope* scope)
    : symbols_(std::move(symbols)), scope_(scope) {
  if (scope_ != nullptr) slots_.resize(scope_->slots.size());
}

Environment::~Environment() = default;

std::int32_t Environment::slot_index(SymbolId symbol, std::int32_t hint) const {
  if (dense_) return symbol < slots_.size() ? static_cast<std::int32_t>(symbol) : -1;
  if (scope_ == nullptr) return -1;
  const std::vector<SymbolId>& names = scope_->slots;
  if (hint >= 0 && static_cast<std::size_t>(hint) < names.size() &&
      names[static_cast<std::size_t>(hint)] == symbol) {
    return hint;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == symbol) return static_cast<std::int32_t>(i);
  }
  return -1;
}

Environment::Found Environment::find_binding(const BindingKey& key, std::int32_t slot) {
  if (key.is_simple()) {
    const std::int32_t at = slot_index(key.symbol, slot);
    if (at >= 0) {
      Slot& s = slots_[static_cast<std::size_t>(at)];
      return s.bound ? Found{&s.value, &s} : Found{};
    }
    // The dense global frame only grows slots; a simple name is never an entry there.
    if (dense_) return {};
  }
  Entry* entry = find_entry(key);
  return entry != nullptr ? Found{&entry->value, nullptr} : Found{};
}

const Value* Environment::find(const std::string& name) const {
  const std::optional<BindingKey> key = find_key(name, *symbols_);
  return key ? find(*key) : nullptr;
}

void Environment::set(const BindingKey& key, Value value, std::int32_t slot) {
  if (key.is_simple()) {
    if (dense_ && key.symbol >= slots_.size()) {
      slots_.resize(std::max<std::size_t>(key.symbol + 1, slots_.size() * 2));
    }
    const std::int32_t at = slot_index(key.symbol, slot);
    if (at >= 0) {
      set_slot(static_cast<std::uint32_t>(at), std::move(value));
      return;
    }
  }
  if (Entry* entry = find_entry(key)) {
    entry->value = std::move(value);
    return;
  }
  if ((entries_.size() + 1) * 2 > index_.size()) grow();
  const auto position = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({key, std::move(value)});
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = BindingKeyHash{}(key) & mask;; i = (i + 1) & mask) {
    if (index_[i] == kEmpty) {
      index_[i] = position;
      return;
    }
  }
}

Environment::Entry* Environment::find_entry(const BindingKey& key) {
  if (entries_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = BindingKeyHash{}(key) & mask;; i = (i + 1) & mask) {
    const std::uint32_t position = index_[i];
    if (position == kEmpty) return nullptr;
    if (entries_[position].key == key) return &entries_[position];
  }
}

void Environment::reserve(std::size_t bindings) {
  entries_.reserve(bindings);
  while (bindings * 2 > index_.size()) grow();
}

void Environment::grow() {
  const std::size_t capacity = index_.empty() ? 8 : index_.size() * 2;
  index_.assign(capacity, kEmpty);
  const std::size_t mask = capacity - 1;
  for (std::size_t position = 0; position < entries_.size(); ++position) {
    std::size_t i = BindingKeyHash{}(entries_[position].key) & mask;
    while (index_[i] != kEmpty) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(position);
  }
}

std::size_t Environment::size() const {
  const auto bound = std::count_if(slots_.begin(), slots_.end(),
                                   [](const Slot& s) { return s.bound; });
  return static_cast<std::size_t>(bound) + entries_.size();
}

}  // namespace rsg::lang
