// Interned names and binding keys (§4.5: "it is imperative that variable
// lookup also be extremely fast").
//
// Every identifier of a design program is interned once, when the program
// compiles (parser.hpp), into a SymbolTable owned by the program. An
// interpreter runs the program over an OVERLAY of that table: names first
// seen at run time — parameter-file names, symbol values, mk_cell strings —
// land in the overlay, never in the shared base, so concurrent sessions over
// one compiled design do not contend and nothing grows process-wide.
//
// A binding is addressed by a BindingKey: the interned base name plus the
// values of its (at most two) indices, so the indexed variable `b.r.c` is
// looked up by (b, 2, r, c) without ever being formatted as text. Text that
// enters at a boundary maps to the key its mangled form would have named:
// "x.3" is (x, 1, 3) and "q.-1.2" is (q, 2, -1, 2), while "l.03" — which no
// indexed variable mangles to — is the plain name "l.03".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rsg::lang {

using SymbolId = std::uint32_t;
inline constexpr SymbolId kNoSymbol = UINT32_MAX;

class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Drops every name of this table and makes it an overlay over `base`
  // (may be nullptr): the base's names keep their ids, new ones follow
  // them. The base must outlive this table and must not change while
  // overlays exist.
  void rebase(const SymbolTable* base);

  // The id of `name`, adding it to this table (never to the base) when new.
  SymbolId intern(std::string_view name);
  // kNoSymbol when neither this table nor its base knows `name`.
  SymbolId find(std::string_view name) const;

  const std::string& name(SymbolId id) const {
    return id < first_ ? base_->name(id) : names_[id - first_];
  }
  // Ids are dense: every id is below size().
  std::size_t size() const { return first_ + names_.size(); }
  const SymbolTable* base() const { return base_; }

 private:
  // Open addressing over this table's own names: a power-of-two array of
  // (hash, id) pairs, id == kNoSymbol marking a free entry. Compiling a
  // program interns every identifier occurrence, so this stays cheap: a
  // std::unordered_map here made the e2e_bench compile step (setup_s) 8%
  // slower. It starts at 256 entries, so the seed designs (25-74 names)
  // never rehash.
  struct Entry {
    std::uint32_t hash;
    SymbolId id;
  };
  static std::uint32_t hash_of(std::string_view name);
  SymbolId find_hashed(std::string_view name, std::uint32_t hash) const;
  void grow();

  const SymbolTable* base_ = nullptr;
  SymbolId first_ = 0;             // base_->size() when this overlay was made
  std::deque<std::string> names_;  // this table's names, by id - first_
  std::vector<Entry> index_;
};

struct BindingKey {
  SymbolId symbol = kNoSymbol;
  std::uint32_t arity = 0;  // number of indices, 0..2
  std::int64_t index[2] = {0, 0};

  static BindingKey simple(SymbolId symbol) { return BindingKey{symbol, 0, {0, 0}}; }
  bool is_simple() const { return arity == 0; }
  friend bool operator==(const BindingKey&, const BindingKey&) = default;
};

struct BindingKeyHash {
  std::size_t operator()(const BindingKey& key) const {
    std::uint64_t h = (static_cast<std::uint64_t>(key.symbol) << 2 | key.arity) *
                      0x9E3779B97F4A7C15ull;
    h ^= static_cast<std::uint64_t>(key.index[0]) * 0xC2B2AE3D27D4EB4Full;
    h ^= static_cast<std::uint64_t>(key.index[1]) * 0x165667B19E3779F9ull;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

// The text a key's binding is named by: "l", "l.3", "cl.3.-7".
std::string key_text(const BindingKey& key, const SymbolTable& symbols);

// The key `text` names, interning its base name when new.
BindingKey intern_key(std::string_view text, SymbolTable& symbols);

// The key `text` names, or nullopt when its base name is not in `symbols`
// (then nothing can be bound under it).
std::optional<BindingKey> find_key(std::string_view text, const SymbolTable& symbols);

}  // namespace rsg::lang
