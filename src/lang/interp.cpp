#include "lang/interp.hpp"

#include <istream>
#include <ostream>
#include <utility>

#include "support/error.hpp"

namespace rsg::lang {

Interpreter::Interpreter(CellTable& cells, InterfaceTable& interfaces, ConnectivityGraph& graph,
                         std::ostream* output, std::istream* input)
    : cells_(cells),
      interfaces_(interfaces),
      interface_cache_(interfaces),
      graph_(graph),
      names_(std::make_shared<Names>()),
      global_(Environment::global(symbols_ref())),
      output_(output),
      input_(input) {
  set_global("true", Value::boolean(true));
  set_global("false", Value::boolean(false));
  set_global("nil", Value::nil());
  intern_array_names();
}

void Interpreter::intern_array_names() {
  c_symbol_ = names_->symbols.intern("c");
  count_symbol_ = names_->symbols.intern("count");
}

void Interpreter::set_global(const std::string& name, Value value) {
  global_->set(intern_key(name, names_->symbols), std::move(value));
}

void Interpreter::fail(const Expr& site, const std::string& message) const {
  throw LangError(message, site.line, site.column);
}

void Interpreter::check_arity(const Expr& expr, std::size_t args, const char* name) const {
  if (expr.elements.size() - 1 != args) {
    fail(expr, std::string(name) + " expects " + std::to_string(args) + " argument(s), got " +
                   std::to_string(expr.elements.size() - 1));
  }
}

Program Interpreter::adopt(const Program& program) {
  Names& names = *names_;
  const SymbolTable* table = program.symbols();
  if (table == nullptr || table == &names.symbols || table == names.symbols.base()) {
    return program;
  }
  if (!ran_ && names.symbols.base() == nullptr) {
    // Nothing has been evaluated yet, so only the global frame holds
    // bindings (the constants and parameter-file names): carry them over by
    // name onto an overlay of the program's table.
    std::vector<std::pair<std::string, Value>> carried;
    global_->for_each([&](const BindingKey& key, const Value& value) {
      carried.emplace_back(key_text(key, names.symbols), value);
    });
    names.symbols.rebase(table);
    global_ = Environment::global(symbols_ref());
    for (auto& [name, value] : carried) set_global(name, std::move(value));
    intern_array_names();
    keep(program);  // it owns the table ours now overlays
    return program;
  }
  // Compiled against another table: recompile a copy against ours. The
  // copy's table pointer does not own the interpreter's names (they own it).
  std::vector<Expr> forms(program.begin(), program.end());
  return compile_program(
      std::move(forms), std::shared_ptr<SymbolTable>(std::shared_ptr<void>(), &names.symbols));
}

void Interpreter::keep(const Program& program) {
  std::vector<Program>& programs = names_->programs;
  for (const Program& other : programs) {
    if (other.begin() == program.begin()) return;
  }
  programs.push_back(program);
}

Value Interpreter::run(const Program& program) {
  const Program compiled = adopt(program);
  ran_ = true;
  // Definitions point into the forms of the program that made them (and
  // retained macro frames into their layouts), so such a program lives as
  // long as the interpreter's names; one that defined nothing is let go.
  const std::size_t defined_before = definitions_made_;
  Value last;
  try {
    for (const Expr& form : compiled) last = eval(form, global_);
  } catch (...) {
    if (definitions_made_ != defined_before) keep(compiled);
    throw;
  }
  if (definitions_made_ != defined_before) keep(compiled);
  return last;
}

Value Interpreter::eval(const Expr& expr, const EnvPtr& frame) {
  switch (expr.kind) {
    case Expr::Kind::kNumber:
      return Value::integer(expr.number);
    case Expr::Kind::kString:
      return Value::string(expr.text);
    case Expr::Kind::kVar:
      return resolve(binding_key(expr, frame), expr.slot, frame, expr);
    case Expr::Kind::kList:
      return eval_list(expr, frame);
  }
  fail(expr, "unreachable expression kind");
}

BindingKey Interpreter::binding_key(const Expr& var, const EnvPtr& frame) {
  if (var.kind != Expr::Kind::kVar) fail(var, "expected a variable");
  BindingKey key = BindingKey::simple(var.symbol);
  for (const Expr& index : var.indices) {
    const Value v = eval(index, frame);
    if (!v.is_integer()) {
      fail(index, "index of '" + var.text + "' must evaluate to an integer, got " +
                      v.type_name());
    }
    key.index[key.arity++] = v.as_integer();
  }
  return key;
}

Value Interpreter::resolve(BindingKey key, std::int32_t slot, const EnvPtr& frame,
                           const Expr& site) {
  // §4.1 lookup chain with symbol indirection (Figure 4.1). A bounded hop
  // count catches accidental cycles like a=b, b=a in the parameter file.
  for (int hop = 0; hop < 32; ++hop) {
    ++stats_.variable_lookups;
    Environment::Found found = frame->find_binding(key, slot);
    if (found.value == nullptr && frame != global_) found = global_->find_binding(key);
    if (found.value != nullptr) {
      if (found.value->is_symbol()) {
        key = symbol_target(*found.value, found.slot);
        slot = -1;
        continue;
      }
      return *found.value;
    }
    const Cell* cell = find_cell(key);
    if (cell != nullptr) return Value::cell(cell);
    fail(site, "unbound variable '" + key_text(key, names_->symbols) +
                   "' (not a parameter, local, or cell name)");
  }
  fail(site, "symbol indirection cycle while resolving '" + key_text(key, names_->symbols) + "'");
}

BindingKey Interpreter::symbol_target(const Value& symbol, Slot* slot) {
  if (slot != nullptr && slot->target.symbol != kNoSymbol) return slot->target;
  const BindingKey key = intern_key(symbol.as_symbol().name, names_->symbols);
  if (slot != nullptr) slot->target = key;
  return key;
}

const Cell* Interpreter::find_cell(const BindingKey& key) {
  if (key.is_simple()) {
    if (key.symbol < simple_cells_.size() && simple_cells_[key.symbol] != nullptr) {
      return simple_cells_[key.symbol];
    }
    const Cell* cell = std::as_const(cells_).find(names_->symbols.name(key.symbol));
    if (cell != nullptr) {
      if (key.symbol >= simple_cells_.size()) simple_cells_.resize(names_->symbols.size());
      simple_cells_[key.symbol] = cell;
    }
    return cell;
  }
  auto it = indexed_cells_.find(key);
  if (it != indexed_cells_.end()) return it->second;
  const Cell* cell = std::as_const(cells_).find(key_text(key, names_->symbols));
  if (cell != nullptr) indexed_cells_.emplace(key, cell);
  return cell;
}

void Interpreter::assign(const BindingKey& key, std::int32_t slot, Value value,
                         const EnvPtr& frame) {
  if (frame == global_ || frame->contains(key, slot) || !global_->contains(key)) {
    frame->set(key, std::move(value), slot);
  } else {
    global_->set(key, std::move(value));
  }
}

const Cell* Interpreter::coerce_cell(const Value& value, const Expr& site) {
  if (value.is_cell()) return value.as_cell();
  if (value.is_string() || value.is_symbol()) {
    const std::string& name = value.is_string() ? value.as_string() : value.as_symbol().name;
    const Cell* cell = std::as_const(cells_).find(name);
    if (cell != nullptr) return cell;
    fail(site, "no cell named '" + name + "' in the cell table");
  }
  fail(site, std::string("expected a cell, got ") + value.type_name());
}

std::string Interpreter::coerce_name(const Value& value, const Expr& site) {
  if (value.is_string()) return value.as_string();
  if (value.is_symbol()) return value.as_symbol().name;
  if (value.is_cell()) return value.as_cell()->name();
  fail(site, std::string("expected a name (string or symbol), got ") + value.type_name());
}

std::int64_t Interpreter::eval_int(const Expr& expr, const EnvPtr& frame) {
  const Value v = eval(expr, frame);
  if (!v.is_integer()) {
    fail(expr, std::string("expected an integer, got ") + v.type_name());
  }
  return v.as_integer();
}

GraphNode* Interpreter::eval_node(const Expr& expr, const EnvPtr& frame) {
  const Value v = eval(expr, frame);
  if (!v.is_node()) {
    fail(expr, std::string("expected an instance node, got ") + v.type_name());
  }
  return v.as_node();
}

Value Interpreter::eval_list(const Expr& expr, const EnvPtr& frame) {
  if (expr.elements.empty()) fail(expr, "cannot evaluate an empty list");
  const Expr& head = expr.elements.front();
  if (!head.is_simple_var()) fail(head, "operator position must be a plain name");

  try {
    if (expr.builtin != 0) return (this->*kBuiltins[expr.builtin].handler)(expr, frame);
    if (head.symbol < definitions_.size() && definitions_[head.symbol].form != nullptr) {
      // By value: the body may define procedures and grow definitions_.
      const Definition def = definitions_[head.symbol];
      return call_definition(def, expr, frame);
    }
  } catch (const LangError&) {
    throw;
  } catch (const Error& e) {
    // Attach the call site to errors raised by value coercions etc.
    fail(expr, e.what());
  }
  fail(head, "unknown function or macro '" + head.text + "'");
}

Value Interpreter::call_definition(const Definition& def, const Expr& expr, const EnvPtr& frame) {
  const Expr& form = *def.form;
  const ProcedureScope& scope = *form.scope;
  const std::size_t argc = expr.elements.size() - 1;
  if (argc != scope.formals.size()) {
    fail(expr, "'" + form.elements[1].text + "' expects " + std::to_string(scope.formals.size()) +
                   " argument(s), got " + std::to_string(argc));
  }
  if (depth_ >= kMaxDepth) fail(expr, "call depth limit exceeded (runaway recursion?)");

  // A flat frame laid out at compile time: formals, locals, then the names
  // the body binds (§4.5 sizes frames from the formal+local count).
  auto callee = std::make_shared<Environment>(symbols_ref(), &scope);
  for (std::size_t i = 0; i < scope.formals.size(); ++i) {
    callee->set_slot(scope.formals[i], eval(expr.elements[i + 1], frame));
  }
  for (const std::uint32_t local : scope.locals) callee->set_slot(local, Value::nil());

  ++stats_.frames_created;
  ++stats_.procedure_calls;
  ++depth_;
  stats_.max_call_depth = std::max(stats_.max_call_depth, depth_);
  Value last;
  try {
    for (std::size_t i = scope.body_start; i < form.elements.size(); ++i) {
      last = eval(form.elements[i], callee);
    }
  } catch (...) {
    --depth_;
    throw;
  }
  --depth_;

  // Functions return their last value; macros return their evaluation
  // environment so callers can pick results with subcell (§4.2).
  return def.is_macro ? Value::environment(std::move(callee)) : last;
}

// ---------------------------------------------------------------------------
// Special forms

void Interpreter::define_procedure(const Expr& expr, bool is_macro) {
  const char* what = is_macro ? "macro" : "defun";
  if (expr.elements.size() < 3) {
    fail(expr, std::string(what) + " needs a name and a formals list");
  }
  const Expr& name_expr = expr.elements[1];
  if (!name_expr.is_simple_var()) fail(name_expr, "procedure name must be a plain name");
  const std::string& name = name_expr.text;

  // §4.2: the interpreter must classify calls ahead of time, so macro names
  // must begin with 'm' and function names must not.
  if (is_macro && (name.empty() || name.front() != 'm')) {
    fail(name_expr, "macro name '" + name + "' must begin with 'm'");
  }
  if (!is_macro && !name.empty() && name.front() == 'm') {
    fail(name_expr, "function name '" + name + "' must not begin with 'm' (reserved for macros)");
  }
  if (find_builtin(name) != 0) {
    fail(name_expr, "'" + name + "' is a built-in and cannot be redefined");
  }

  const Expr& formals = expr.elements[2];
  if (formals.kind != Expr::Kind::kList) fail(formals, "formals must be a parenthesized list");
  for (const Expr& formal : formals.elements) {
    if (!formal.is_simple_var()) fail(formal, "formal parameter must be a plain name");
  }
  if (expr.elements.size() > 3) {
    const Expr& maybe_locals = expr.elements[3];
    if (maybe_locals.kind == Expr::Kind::kList && !maybe_locals.elements.empty() &&
        maybe_locals.elements.front().is_var("locals")) {
      for (std::size_t i = 1; i < maybe_locals.elements.size(); ++i) {
        if (!maybe_locals.elements[i].is_simple_var()) {
          fail(maybe_locals.elements[i], "local must be a plain name");
        }
      }
    }
  }
  // Compilation lays out exactly the forms that pass the checks above.
  if (expr.scope == nullptr) fail(expr, "internal error: definition was not compiled");

  if (name_expr.symbol >= definitions_.size()) definitions_.resize(names_->symbols.size());
  definitions_[name_expr.symbol] = Definition{&expr, is_macro};
  ++definitions_made_;
}

Value Interpreter::sf_defun(const Expr& expr, const EnvPtr&) {
  define_procedure(expr, /*is_macro=*/false);
  return Value::symbol(expr.elements[1].text);
}

Value Interpreter::sf_macro(const Expr& expr, const EnvPtr&) {
  define_procedure(expr, /*is_macro=*/true);
  return Value::symbol(expr.elements[1].text);
}

Value Interpreter::sf_cond(const Expr& expr, const EnvPtr& frame) {
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    const Expr& clause = expr.elements[i];
    if (clause.kind != Expr::Kind::kList || clause.elements.empty()) {
      fail(clause, "cond clause must be (test statement...)");
    }
    if (eval(clause.elements[0], frame).truthy()) {
      Value last;
      for (std::size_t k = 1; k < clause.elements.size(); ++k) {
        last = eval(clause.elements[k], frame);
      }
      return last;
    }
  }
  return Value::nil();
}

Value Interpreter::sf_do(const Expr& expr, const EnvPtr& frame) {
  // (do (var init next exit) body...) — exit is tested BEFORE each
  // iteration, so (do (i 2 (+ 1 i) (> i 1)) ...) runs zero times.
  if (expr.elements.size() < 2 || expr.elements[1].kind != Expr::Kind::kList ||
      expr.elements[1].elements.size() != 4) {
    fail(expr, "do expects (do (var init next exit-condition) body...)");
  }
  const Expr& spec = expr.elements[1];
  const Expr& var = spec.elements[0];
  if (!var.is_simple_var()) fail(var, "do loop variable must be a plain name");
  const BindingKey key = BindingKey::simple(var.symbol);

  frame->set(key, eval(spec.elements[1], frame), var.slot);
  Value last;
  for (;;) {
    if (eval(spec.elements[3], frame).truthy()) break;
    for (std::size_t i = 2; i < expr.elements.size(); ++i) last = eval(expr.elements[i], frame);
    frame->set(key, eval(spec.elements[2], frame), var.slot);
  }
  return last;
}

Value Interpreter::sf_prog(const Expr& expr, const EnvPtr& frame) {
  Value last;
  for (std::size_t i = 1; i < expr.elements.size(); ++i) last = eval(expr.elements[i], frame);
  return last;
}

Value Interpreter::sf_assign(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "assign");
  const Expr& target = expr.elements[1];
  const BindingKey key = binding_key(target, frame);
  Value value = eval(expr.elements[2], frame);
  assign(key, target.slot, value, frame);
  return value;
}

Value Interpreter::sf_print(const Expr& expr, const EnvPtr& frame) {
  Value last;
  std::string text;
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    last = eval(expr.elements[i], frame);
    if (i > 1) text += ' ';
    text += last.to_display_string();
  }
  if (output_ != nullptr) *output_ << text << '\n';
  return last;
}

Value Interpreter::sf_read(const Expr& expr, const EnvPtr&) {
  check_arity(expr, 0, "read");
  if (input_ == nullptr) fail(expr, "read: no input stream attached to the interpreter");
  std::int64_t v = 0;
  if (!(*input_ >> v)) fail(expr, "read: no integer available on the input stream");
  return Value::integer(v);
}

}  // namespace rsg::lang
