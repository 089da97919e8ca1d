// Environments and the §4.1 scoping discipline.
//
// Scoping is deliberately two-level, not a lexical chain: a lookup tries the
// environment of the procedure being executed, then the GLOBAL environment
// (set up by the parameter file), then the cell table (Figure 4.1). The
// thesis rejected dynamic scoping because walking the caller chain would be
// needless work when most free variables name cells or parameters.
//
// Environments are heap-shared (EnvPtr) because macros return their frame
// and callers may retain it indefinitely (§4.2/§4.5); C++ shared_ptr plays
// the role of the CLU garbage collector here.
//
// Bindings are keyed by BindingKey (symbols.hpp), never by text. A frame
// keeps simple names in flat slots: a procedure frame has the slots its
// definition's compiled layout names (ast.hpp's ProcedureScope), the global
// frame has one slot per symbol id. Indexed names, and simple names the
// layout does not foresee, live in a small open-addressing table beside the
// slots.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "lang/symbols.hpp"
#include "lang/value.hpp"

namespace rsg::lang {

// A slot: a simple name's binding, or unbound. A symbol value remembers the
// key its name resolves to once the interpreter has followed it.
struct Slot {
  Value value;
  BindingKey target;  // valid when target.symbol != kNoSymbol
  bool bound = false;
};

class Environment {
 public:
  // The global frame: one slot per symbol id of `symbols`.
  static EnvPtr global(std::shared_ptr<const SymbolTable> symbols);
  // A frame laid out by `scope` (may be nullptr: no slots at all). The
  // scope must outlive the frame; `symbols` keeps the names readable for
  // find(std::string).
  Environment(std::shared_ptr<const SymbolTable> symbols, const ProcedureScope* scope);
  ~Environment();

  // nullptr when unbound. `slot` is the compile-time slot hint of a simple
  // name (Expr::slot), checked against this frame's layout before use.
  const Value* find(const BindingKey& key, std::int32_t slot = -1) const {
    return const_cast<Environment*>(this)->find_binding(key, slot).value;
  }
  // The binding `name` names (symbols.hpp's text boundary: "l.3" is the
  // indexed variable l.3).
  const Value* find(const std::string& name) const;
  bool contains(const BindingKey& key, std::int32_t slot = -1) const {
    return find(key, slot) != nullptr;
  }

  void set(const BindingKey& key, Value value, std::int32_t slot = -1);
  // Binds slot `slot` of this frame's layout directly (formals and locals).
  void set_slot(std::uint32_t slot, Value value) {
    Slot& s = slots_[slot];
    s.value = std::move(value);
    s.target = {};
    s.bound = true;
  }

  // Number of bound names.
  std::size_t size() const;

  // Visits every binding as (key, value).
  template <class Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].bound) visit(BindingKey::simple(slot_name(i)), slots_[i].value);
    }
    for (const Entry& e : entries_) visit(e.key, e.value);
  }

  // Presizes the table of non-slot bindings.
  void reserve(std::size_t bindings);

  // The lookup the interpreter's resolution uses: the value, plus the slot
  // holding it when it lives in one (to cache a symbol's target there).
  struct Found {
    const Value* value = nullptr;
    Slot* slot = nullptr;
  };
  Found find_binding(const BindingKey& key, std::int32_t slot = -1);

 private:
  struct Entry {
    BindingKey key;
    Value value;
  };

  Environment() = default;

  // Slot index of a simple name, or -1.
  std::int32_t slot_index(SymbolId symbol, std::int32_t hint) const;
  SymbolId slot_name(std::size_t slot) const {
    return dense_ ? static_cast<SymbolId>(slot) : scope_->slots[slot];
  }
  Entry* find_entry(const BindingKey& key);
  void grow();

  std::shared_ptr<const SymbolTable> symbols_;
  const ProcedureScope* scope_ = nullptr;
  bool dense_ = false;  // global frame: slot index == symbol id
  std::vector<Slot> slots_;
  // Non-slot bindings in insertion order, indexed by an open-addressing
  // table of entry positions (kEmpty = free); its size is a power of two.
  // No node per binding: against std::unordered_map it measured 7% more
  // generate_large throughput and 1.8 MB less peak RSS (e2e_bench, 4 vCPUs).
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
};

}  // namespace rsg::lang
