// AST for the design-file language (Ch. 4, grammar in Appendix A).
//
// The language is a Lisp subset with one syntactic extension: *indexed
// variables*. `l.3`, `c.i` and `c.(- i 1)` denote variables whose name is
// composed with the value of an index expression at evaluation time; two
// index positions are allowed (`cl.i.j`, the BNF's "2indexed variable").
// Index expressions evaluate in the environment of the *use site*, and the
// variable is then looked up by its base name and index values like any
// simple variable — which is how design files address the rows/columns of
// array structures without list types (§4).
//
// A parsed program is compiled once (parser.hpp): every name is interned in
// the program's SymbolTable, list heads that name a built-in are resolved to
// it, and each defun/macro form gets the slot layout of its frames. The
// annotations only speed evaluation up; the interpreter still performs every
// check of the §4 semantics at run time.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "lang/symbols.hpp"

namespace rsg::lang {

struct ProcedureScope;

struct Expr {
  enum class Kind {
    kNumber,  // integer literal
    kString,  // "double-quoted" literal
    kVar,     // simple or indexed variable reference
    kList,    // parenthesized form: call, special form, or bare list
  };

  Kind kind = Kind::kNumber;
  // Set when the program compiles, like the fields at the end; kept here,
  // where it fills the padding after `kind`.
  SymbolId symbol = kNoSymbol;  // kVar: the interned base name
  std::int64_t number = 0;
  std::string text;            // kString: contents; kVar: base name
  std::vector<Expr> indices;   // kVar: 0..2 index expressions
  std::vector<Expr> elements;  // kList: including the head position

  int line = 0;
  int column = 0;

  // Set when the program compiles.
  std::int32_t slot = -1;       // simple kVar inside a definition: its frame slot
  std::uint8_t builtin = 0;     // kList: built-in named by the head, 0 = none
  const ProcedureScope* scope = nullptr;  // well-formed defun/macro form

  bool is_var(const std::string& name) const { return kind == Kind::kVar && text == name; }
  bool is_simple_var() const { return kind == Kind::kVar && indices.empty(); }
};

// The frame layout of one definition. Simple names its frames may bind get
// slots: the formals, then the declared locals, then every name its body
// assigns with setq/assign/mk_instance or steps with do. Other bindings
// (indexed names, names reached only through symbols) live beside the slots.
struct ProcedureScope {
  std::vector<SymbolId> slots;          // slot -> name
  std::vector<std::uint32_t> formals;   // slot of each formal, in order
  std::vector<std::uint32_t> locals;    // slot of each declared local, in order
  std::size_t body_start = 3;           // first body element of the form
};

// A compiled program: its top-level forms and the table their names are
// interned in. Copies share the same immutable forms, so an interpreter can
// keep the program (and every definition body in it) alive cheaply.
class Program {
 public:
  Program() = default;

  std::size_t size() const { return data_ ? data_->forms.size() : 0; }
  bool empty() const { return size() == 0; }
  const Expr& operator[](std::size_t i) const { return data_->forms[i]; }
  const Expr* begin() const { return data_ ? data_->forms.data() : nullptr; }
  const Expr* end() const { return begin() + size(); }

  // nullptr for the empty program.
  const SymbolTable* symbols() const { return data_ ? data_->symbols.get() : nullptr; }

 private:
  struct Data {
    std::vector<Expr> forms;
    std::shared_ptr<const SymbolTable> symbols;
    std::deque<ProcedureScope> scopes;  // pointed to by Expr::scope
  };
  std::shared_ptr<const Data> data_;

  friend Program compile_program(std::vector<Expr> forms, std::shared_ptr<SymbolTable> symbols);
};

// Compiles parsed forms against `symbols` (a fresh table when null): interns
// every name, resolves built-in heads and lays out definition frames. Never
// throws for malformed forms — those fail when evaluated, as they always did.
Program compile_program(std::vector<Expr> forms, std::shared_ptr<SymbolTable> symbols = nullptr);

}  // namespace rsg::lang
