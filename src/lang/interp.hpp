// The design-file interpreter (Ch. 4).
//
// Embeds the RSG graph primitives (mk_instance, connect, mk_cell, subcell,
// declare_interface, array) in a Lisp-subset evaluator with:
//   * two procedure classes — functions (return last value) and macros
//     (return their whole evaluation environment, §4.2); macro names must
//     begin with 'm' so calls are classifiable ahead of time;
//   * the §4.1 scoping rule — procedure frame, then global environment,
//     then cell table — with symbol re-resolution so parameter files can
//     rename design-file variables onto sample-layout cells (Figure 4.1);
//   * indexed variables, cond / do / prog control flow, and integer
//     arithmetic (+ - * // mod, comparisons, and/or/not).
//
// The interpreter mutates three externally owned stores: the cell table, the
// interface table, and the connectivity-graph arena. That split mirrors
// Figure 1.1 — the procedural domain (this interpreter) never touches
// geometry; it only builds graphs and asks for their expansion.
//
// Names are compiled away (§4.5: lookup "must be extremely fast"). The
// program's compile pass (ast.hpp) interned every name and resolved every
// list head that names a built-in, so evaluation dispatches by table index
// and finds bindings by BindingKey (symbols.hpp), never by text. Names first
// seen at run time — parameter-file names, symbol values, mk_cell strings —
// are interned in the interpreter's own overlay of the program's table, so
// a compiled design shared by concurrent sessions never changes. Cell-table
// hits are remembered per key; misses are not, since a later mk_cell can
// make the name.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/connectivity_graph.hpp"
#include "iface/interface_table.hpp"
#include "lang/ast.hpp"
#include "lang/env.hpp"
#include "lang/symbols.hpp"
#include "lang/value.hpp"
#include "layout/cell_table.hpp"

namespace rsg::lang {

class Interpreter {
 public:
  Interpreter(CellTable& cells, InterfaceTable& interfaces, ConnectivityGraph& graph,
              std::ostream* output = nullptr, std::istream* input = nullptr);

  // Evaluates each top-level form against the global frame; returns the last
  // value. A program that defines a procedure is kept alive with the
  // interpreter (definitions point into it), and so is the first one, whose
  // table the interpreter's overlays; any other is not retained. The first
  // program run lends the interpreter its symbol
  // table as the base of the interpreter's own; a program compiled against
  // another table is recompiled (deep-copied) against the interpreter's, so
  // a caller running many programs should parse them against one table.
  Value run(const Program& program);

  const EnvPtr& global() const { return global_; }
  // Binds `name` in the global frame; "x.3" binds the indexed variable x.3.
  void set_global(const std::string& name, Value value);

  CellTable& cells() { return cells_; }
  InterfaceTable& interfaces() { return interfaces_; }
  ConnectivityGraph& graph() { return graph_; }

  struct Stats {
    std::size_t frames_created = 0;
    std::size_t procedure_calls = 0;
    std::size_t variable_lookups = 0;
    std::size_t cells_made = 0;
    int max_call_depth = 0;
  };
  const Stats& stats() const { return stats_; }

  // The built-in special form or primitive a list head names (its index in
  // the dispatch table), 0 when none. Program compilation resolves heads
  // with it, so evaluation never looks a built-in up by name.
  static std::uint8_t find_builtin(std::string_view name);

  // --- helpers shared with builtins.cpp ---------------------------------

  // Full §4.1 resolution of `key`: frame -> global -> cell table, following
  // symbol values (Figure 4.1's corecell -> basiccell -> cell definition).
  // Every hop counts one variable lookup. `slot` is the compile-time slot
  // hint for the first hop.
  Value resolve(BindingKey key, std::int32_t slot, const EnvPtr& frame, const Expr& site);

  // Evaluates a kVar's indices in `frame` and returns its binding key.
  BindingKey binding_key(const Expr& var, const EnvPtr& frame);

  // Assignment discipline for assign/setq/mk_instance: update the local
  // binding if one exists, else an existing global, else create locally.
  void assign(const BindingKey& key, std::int32_t slot, Value value, const EnvPtr& frame);

  // Coercions used by graph builtins. `coerce_cell` accepts cell values
  // directly, or strings/symbols naming a cell in the table.
  const Cell* coerce_cell(const Value& value, const Expr& site);
  std::string coerce_name(const Value& value, const Expr& site);  // string or symbol

  // Encoding tables (§4: "primitives for manipulating encoding tables such
  // as PLA truth tables have also been added"). When a table is attached,
  // design files read it through the tt_inputs / tt_outputs / tt_terms /
  // tt_in / tt_out builtins (term and column indices are 1-based, matching
  // the language's do-loop conventions).
  struct EncodingTable {
    int inputs = 0;
    int outputs = 0;
    std::vector<std::vector<int>> in;   // per term: 0, 1, or 2 (don't-care)
    std::vector<std::vector<int>> out;  // per term: 0 or 1
  };
  void set_encoding_table(const EncodingTable* table) { encoding_ = table; }

 private:
  // A defun/macro form as evaluated: the form itself (in a program the
  // interpreter keeps) and its compiled frame layout. Nothing is copied.
  struct Definition {
    const Expr* form = nullptr;
    bool is_macro = false;
  };

  // Names the interpreter resolves against, and the programs they need: the
  // one whose table `symbols` overlays and every one a definition was made
  // from. Frames share it, so a retained macro frame
  // keeps its layout and names alive after the interpreter is gone.
  struct Names {
    SymbolTable symbols;  // overlay over the first program's table
    std::vector<Program> programs;
  };

  using Handler = Value (Interpreter::*)(const Expr&, const EnvPtr&);
  struct BuiltinEntry {
    std::string_view name;
    Handler handler;
  };
  static const BuiltinEntry kBuiltins[];  // index 0 is "no built-in"

  // Evaluates a form of a program this interpreter runs.
  Value eval(const Expr& expr, const EnvPtr& frame);
  Value eval_list(const Expr& expr, const EnvPtr& frame);
  Value call_definition(const Definition& def, const Expr& expr, const EnvPtr& frame);

  void define_procedure(const Expr& expr, bool is_macro);
  Program adopt(const Program& program);
  void keep(const Program& program);
  void intern_array_names();
  std::shared_ptr<const SymbolTable> symbols_ref() const {
    return std::shared_ptr<const SymbolTable>(names_, &names_->symbols);
  }
  BindingKey symbol_target(const Value& symbol, Slot* slot);
  const Cell* find_cell(const BindingKey& key);

  // Special forms and control flow (interp.cpp).
  Value sf_defun(const Expr&, const EnvPtr&);
  Value sf_macro(const Expr&, const EnvPtr&);
  Value sf_cond(const Expr&, const EnvPtr&);
  Value sf_do(const Expr&, const EnvPtr&);
  Value sf_prog(const Expr&, const EnvPtr&);
  Value sf_assign(const Expr&, const EnvPtr&);
  Value sf_print(const Expr&, const EnvPtr&);
  Value sf_read(const Expr&, const EnvPtr&);

  // Arithmetic / logic (builtins.cpp).
  Value b_add(const Expr&, const EnvPtr&);
  Value b_sub(const Expr&, const EnvPtr&);
  Value b_mul(const Expr&, const EnvPtr&);
  Value b_div(const Expr&, const EnvPtr&);
  Value b_mod(const Expr&, const EnvPtr&);
  Value b_eq(const Expr&, const EnvPtr&);
  Value b_ne(const Expr&, const EnvPtr&);
  Value b_gt(const Expr&, const EnvPtr&);
  Value b_lt(const Expr&, const EnvPtr&);
  Value b_ge(const Expr&, const EnvPtr&);
  Value b_le(const Expr&, const EnvPtr&);
  Value b_and(const Expr&, const EnvPtr&);
  Value b_or(const Expr&, const EnvPtr&);
  Value b_not(const Expr&, const EnvPtr&);

  // Graph primitives (builtins.cpp).
  Value b_mk_instance(const Expr&, const EnvPtr&);
  Value b_connect(const Expr&, const EnvPtr&);
  Value b_mk_cell(const Expr&, const EnvPtr&);
  Value b_subcell(const Expr&, const EnvPtr&);
  Value b_declare_interface(const Expr&, const EnvPtr&);
  Value b_array(const Expr&, const EnvPtr&);

  // Encoding-table access (builtins.cpp).
  Value b_tt_inputs(const Expr&, const EnvPtr&);
  Value b_tt_outputs(const Expr&, const EnvPtr&);
  Value b_tt_terms(const Expr&, const EnvPtr&);
  Value b_tt_in(const Expr&, const EnvPtr&);
  Value b_tt_out(const Expr&, const EnvPtr&);
  const EncodingTable& require_encoding(const Expr& site) const;

  [[noreturn]] void fail(const Expr& site, const std::string& message) const;
  void check_arity(const Expr& expr, std::size_t args, const char* name) const;
  std::int64_t eval_int(const Expr& expr, const EnvPtr& frame);
  GraphNode* eval_node(const Expr& expr, const EnvPtr& frame);

  CellTable& cells_;
  InterfaceTable& interfaces_;
  // Identity lookups for mk_cell and declare_interface: the cells it names
  // live in cells_ (or its base), which outlives the interpreter.
  InterfaceCache interface_cache_;
  ConnectivityGraph& graph_;
  std::shared_ptr<Names> names_;
  EnvPtr global_;
  std::ostream* output_;
  std::istream* input_;
  const EncodingTable* encoding_ = nullptr;
  bool ran_ = false;  // a program has been evaluated: the symbol base is fixed

  std::vector<Definition> definitions_;  // by symbol id of the name
  std::size_t definitions_made_ = 0;     // defun/macro forms evaluated so far
  // Positive cell-table hits only: cells are never removed, but a name
  // that misses now may name a cell a later mk_cell makes.
  std::vector<const Cell*> simple_cells_;  // by symbol id
  std::unordered_map<BindingKey, const Cell*, BindingKeyHash> indexed_cells_;
  SymbolId c_symbol_ = kNoSymbol;  // "c" and "count": the names `array` binds
  SymbolId count_symbol_ = kNoSymbol;

  int depth_ = 0;
  static constexpr int kMaxDepth = 2000;
  Stats stats_;
};

}  // namespace rsg::lang
