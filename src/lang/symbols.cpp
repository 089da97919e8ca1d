#include "lang/symbols.hpp"

#include <charconv>

namespace rsg::lang {

void SymbolTable::rebase(const SymbolTable* base) {
  names_.clear();
  index_.clear();
  base_ = base;
  first_ = base != nullptr ? static_cast<SymbolId>(base->size()) : 0;
}

std::uint32_t SymbolTable::hash_of(std::string_view name) {
  std::uint32_t h = 2166136261u;  // FNV-1a: identifiers are short
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  return h;
}

SymbolId SymbolTable::find_hashed(std::string_view name, std::uint32_t hash) const {
  if (base_ != nullptr) {
    const SymbolId id = base_->find_hashed(name, hash);
    if (id != kNoSymbol) return id;
  }
  if (index_.empty()) return kNoSymbol;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Entry& e = index_[i];
    if (e.id == kNoSymbol) return kNoSymbol;
    if (e.hash == hash && names_[e.id - first_] == name) return e.id;
  }
}

SymbolId SymbolTable::find(std::string_view name) const {
  return find_hashed(name, hash_of(name));
}

SymbolId SymbolTable::intern(std::string_view name) {
  const std::uint32_t hash = hash_of(name);
  const SymbolId found = find_hashed(name, hash);
  if (found != kNoSymbol) return found;
  if ((names_.size() + 1) * 2 > index_.size()) grow();
  const auto id = static_cast<SymbolId>(size());
  names_.emplace_back(name);
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].id != kNoSymbol) i = (i + 1) & mask;
  index_[i] = Entry{hash, id};
  return id;
}

void SymbolTable::grow() {
  std::vector<Entry> old = std::move(index_);
  index_.assign(old.empty() ? 256 : old.size() * 2, Entry{0, kNoSymbol});
  const std::size_t mask = index_.size() - 1;
  for (const Entry& e : old) {
    if (e.id == kNoSymbol) continue;
    std::size_t i = e.hash & mask;
    while (index_[i].id != kNoSymbol) i = (i + 1) & mask;
    index_[i] = e;
  }
}

namespace {

// The split of `text` into a base name and indices, when it is the mangled
// form of an indexed variable: one or two dot-separated parts after the
// base, each exactly std::to_string of some integer (so "03", "+3" and
// "-0" are not indices). Anything else is one plain name.
struct SplitName {
  std::string_view base;
  std::uint32_t arity = 0;
  std::int64_t index[2] = {0, 0};
};

bool canonical_integer(std::string_view part, std::int64_t& value) {
  if (part.empty()) return false;
  const char* first = part.data();
  const char* last = part.data() + part.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || end != last) return false;
  const std::size_t digits = part.size() - (part.front() == '-' ? 1 : 0);
  if (digits == 0 || (digits > 1 && part[part.size() - digits] == '0')) return false;
  return !(value == 0 && part.front() == '-');
}

SplitName split_name(std::string_view text) {
  SplitName split{text};
  const std::size_t dot = text.find('.');
  if (dot == std::string_view::npos || dot == 0) return split;
  std::string_view rest = text.substr(dot + 1);
  SplitName indexed{text.substr(0, dot)};
  for (;;) {
    if (indexed.arity == 2) return split;
    const std::size_t next = rest.find('.');
    if (!canonical_integer(rest.substr(0, next), indexed.index[indexed.arity])) return split;
    ++indexed.arity;
    if (next == std::string_view::npos) return indexed;
    rest = rest.substr(next + 1);
  }
}

}  // namespace

std::string key_text(const BindingKey& key, const SymbolTable& symbols) {
  std::string text = symbols.name(key.symbol);
  for (std::uint32_t i = 0; i < key.arity; ++i) {
    text += '.';
    text += std::to_string(key.index[i]);
  }
  return text;
}

BindingKey intern_key(std::string_view text, SymbolTable& symbols) {
  const SplitName split = split_name(text);
  return BindingKey{symbols.intern(split.base), split.arity, {split.index[0], split.index[1]}};
}

std::optional<BindingKey> find_key(std::string_view text, const SymbolTable& symbols) {
  const SplitName split = split_name(text);
  const SymbolId id = symbols.find(split.base);
  if (id == kNoSymbol) return std::nullopt;
  return BindingKey{id, split.arity, {split.index[0], split.index[1]}};
}

}  // namespace rsg::lang
