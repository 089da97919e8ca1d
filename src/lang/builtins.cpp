// Built-in functions: arithmetic/logic plus the RSG graph primitives of
// §4.4 (mk_instance, connect, mk_cell, subcell, declare_interface) and the
// `array` convenience macro used by the multiplier design file.
#include "graph/expand.hpp"
#include "iface/inheritance.hpp"
#include "lang/interp.hpp"
#include "support/error.hpp"

namespace rsg::lang {

// The dispatch table program compilation resolves list heads into
// (Expr::builtin indexes it); entry 0 stands for "no built-in".
const Interpreter::BuiltinEntry Interpreter::kBuiltins[] = {
    {"", nullptr},
    {"defun", &Interpreter::sf_defun},
    {"macro", &Interpreter::sf_macro},
    {"cond", &Interpreter::sf_cond},
    {"do", &Interpreter::sf_do},
    {"prog", &Interpreter::sf_prog},
    {"assign", &Interpreter::sf_assign},
    {"setq", &Interpreter::sf_assign},
    {"print", &Interpreter::sf_print},
    {"read", &Interpreter::sf_read},
    {"+", &Interpreter::b_add},
    {"-", &Interpreter::b_sub},
    {"*", &Interpreter::b_mul},
    {"//", &Interpreter::b_div},
    {"mod", &Interpreter::b_mod},
    {"=", &Interpreter::b_eq},
    {"/=", &Interpreter::b_ne},
    {">", &Interpreter::b_gt},
    {"<", &Interpreter::b_lt},
    {">=", &Interpreter::b_ge},
    {"<=", &Interpreter::b_le},
    {"and", &Interpreter::b_and},
    {"or", &Interpreter::b_or},
    {"not", &Interpreter::b_not},
    {"mk_instance", &Interpreter::b_mk_instance},
    {"connect", &Interpreter::b_connect},
    {"mk_cell", &Interpreter::b_mk_cell},
    {"subcell", &Interpreter::b_subcell},
    {"declare_interface", &Interpreter::b_declare_interface},
    {"array", &Interpreter::b_array},
    {"tt_inputs", &Interpreter::b_tt_inputs},
    {"tt_outputs", &Interpreter::b_tt_outputs},
    {"tt_terms", &Interpreter::b_tt_terms},
    {"tt_in", &Interpreter::b_tt_in},
    {"tt_out", &Interpreter::b_tt_out},
};

std::uint8_t Interpreter::find_builtin(std::string_view name) {
  for (std::size_t i = 1; i < std::size(kBuiltins); ++i) {
    if (kBuiltins[i].name == name) return static_cast<std::uint8_t>(i);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Arithmetic and logic

Value Interpreter::b_add(const Expr& expr, const EnvPtr& frame) {
  std::int64_t sum = 0;
  if (expr.elements.size() < 2) fail(expr, "+ needs at least one argument");
  for (std::size_t i = 1; i < expr.elements.size(); ++i) sum += eval_int(expr.elements[i], frame);
  return Value::integer(sum);
}

Value Interpreter::b_sub(const Expr& expr, const EnvPtr& frame) {
  if (expr.elements.size() < 2) fail(expr, "- needs at least one argument");
  std::int64_t result = eval_int(expr.elements[1], frame);
  if (expr.elements.size() == 2) return Value::integer(-result);
  for (std::size_t i = 2; i < expr.elements.size(); ++i) {
    result -= eval_int(expr.elements[i], frame);
  }
  return Value::integer(result);
}

Value Interpreter::b_mul(const Expr& expr, const EnvPtr& frame) {
  std::int64_t product = 1;
  if (expr.elements.size() < 2) fail(expr, "* needs at least one argument");
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    product *= eval_int(expr.elements[i], frame);
  }
  return Value::integer(product);
}

Value Interpreter::b_div(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "//");
  const std::int64_t a = eval_int(expr.elements[1], frame);
  const std::int64_t b = eval_int(expr.elements[2], frame);
  if (b == 0) fail(expr, "division by zero");
  return Value::integer(a / b);
}

Value Interpreter::b_mod(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "mod");
  const std::int64_t a = eval_int(expr.elements[1], frame);
  const std::int64_t b = eval_int(expr.elements[2], frame);
  if (b == 0) fail(expr, "mod by zero");
  // Mathematical (non-negative) modulus: loop indices rely on it.
  const std::int64_t m = a % b;
  return Value::integer(m < 0 ? m + (b < 0 ? -b : b) : m);
}

Value Interpreter::b_eq(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "=");
  return Value::boolean(eval(expr.elements[1], frame) == eval(expr.elements[2], frame));
}

Value Interpreter::b_ne(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "/=");
  return Value::boolean(!(eval(expr.elements[1], frame) == eval(expr.elements[2], frame)));
}

Value Interpreter::b_gt(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, ">");
  return Value::boolean(eval_int(expr.elements[1], frame) > eval_int(expr.elements[2], frame));
}

Value Interpreter::b_lt(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "<");
  return Value::boolean(eval_int(expr.elements[1], frame) < eval_int(expr.elements[2], frame));
}

Value Interpreter::b_ge(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, ">=");
  return Value::boolean(eval_int(expr.elements[1], frame) >= eval_int(expr.elements[2], frame));
}

Value Interpreter::b_le(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 2, "<=");
  return Value::boolean(eval_int(expr.elements[1], frame) <= eval_int(expr.elements[2], frame));
}

Value Interpreter::b_and(const Expr& expr, const EnvPtr& frame) {
  Value last = Value::boolean(true);
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    last = eval(expr.elements[i], frame);
    if (!last.truthy()) return Value::boolean(false);
  }
  return last;
}

Value Interpreter::b_or(const Expr& expr, const EnvPtr& frame) {
  for (std::size_t i = 1; i < expr.elements.size(); ++i) {
    Value v = eval(expr.elements[i], frame);
    if (v.truthy()) return v;
  }
  return Value::boolean(false);
}

Value Interpreter::b_not(const Expr& expr, const EnvPtr& frame) {
  check_arity(expr, 1, "not");
  return Value::boolean(!eval(expr.elements[1], frame).truthy());
}

// ---------------------------------------------------------------------------
// Graph primitives (§4.4)

Value Interpreter::b_mk_instance(const Expr& expr, const EnvPtr& frame) {
  // (mk_instance VAR CELL): creates a partial-instance node of CELL and
  // binds it to VAR (Figure 4.5's calling convention in the design files).
  check_arity(expr, 2, "mk_instance");
  const Expr& target = expr.elements[1];
  const BindingKey key = binding_key(target, frame);
  const Cell* cell = coerce_cell(eval(expr.elements[2], frame), expr.elements[2]);
  GraphNode* node = graph_.make_instance(cell);
  assign(key, target.slot, Value::node(node), frame);
  return Value::node(node);
}

Value Interpreter::b_connect(const Expr& expr, const EnvPtr& frame) {
  // (connect FROM TO INTERFACE#): directed edge FROM -> TO; FROM is the
  // reference instance of the interface (§3.4).
  check_arity(expr, 3, "connect");
  GraphNode* from = eval_node(expr.elements[1], frame);
  GraphNode* to = eval_node(expr.elements[2], frame);
  const std::int64_t index = eval_int(expr.elements[3], frame);
  graph_.connect(from, to, static_cast<int>(index));
  return Value::node(from);
}

Value Interpreter::b_mk_cell(const Expr& expr, const EnvPtr& frame) {
  // (mk_cell NAME NODE): expands the connected component of NODE into a new
  // cell named NAME (Figure 4.7).
  check_arity(expr, 2, "mk_cell");
  const std::string name = coerce_name(eval(expr.elements[1], frame), expr.elements[1]);
  GraphNode* root = eval_node(expr.elements[2], frame);
  Cell& cell = expand_to_cell(graph_, root, name, interface_cache_, cells_);
  ++stats_.cells_made;
  return Value::cell(&cell);
}

Value Interpreter::b_subcell(const Expr& expr, const EnvPtr& frame) {
  // (subcell ENV VAR): the value bound to VAR in the environment returned by
  // a macro. VAR's indices evaluate in the CALLER's frame; the binding is
  // then looked up in ENV only (§4.2).
  check_arity(expr, 2, "subcell");
  const Value env_value = eval(expr.elements[1], frame);
  if (!env_value.is_environment()) {
    fail(expr.elements[1],
         std::string("subcell: first argument must be a macro environment, got ") +
             env_value.type_name());
  }
  const BindingKey key = binding_key(expr.elements[2], frame);
  const Value* found = env_value.as_environment()->find(key);
  if (found == nullptr) {
    fail(expr.elements[2], "subcell: no variable '" + key_text(key, names_->symbols) +
                               "' in the given environment");
  }
  return *found;
}

Value Interpreter::b_declare_interface(const Expr& expr, const EnvPtr& frame) {
  // (declare_interface CELLC CELLD NEW# NODEA NODEB EXISTING#)
  //
  // Declares interface NEW# between macrocells CELLC and CELLD, inherited
  // from interface EXISTING# between the subcells that NODEA (inside CELLC)
  // and NODEB (inside CELLD) instantiate (§2.5).
  check_arity(expr, 6, "declare_interface");
  const Cell* cell_c = coerce_cell(eval(expr.elements[1], frame), expr.elements[1]);
  const Cell* cell_d = coerce_cell(eval(expr.elements[2], frame), expr.elements[2]);
  const std::int64_t new_index = eval_int(expr.elements[3], frame);
  GraphNode* node_a = eval_node(expr.elements[4], frame);
  GraphNode* node_b = eval_node(expr.elements[5], frame);
  const std::int64_t existing_index = eval_int(expr.elements[6], frame);

  if (!node_a->expanded() || node_a->owner != cell_c) {
    fail(expr.elements[4], "declare_interface: first instance is not a subcell of '" +
                               cell_c->name() + "'");
  }
  if (!node_b->expanded() || node_b->owner != cell_d) {
    fail(expr.elements[5], "declare_interface: second instance is not a subcell of '" +
                               cell_d->name() + "'");
  }

  const Interface& i_ab =
      interface_cache_.get(*node_a->cell, *node_b->cell, static_cast<int>(existing_index));
  const Interface i_cd = inherit_interface(*node_a->placement, *node_b->placement, i_ab);
  interfaces_.declare(cell_c->name(), cell_d->name(), static_cast<int>(new_index), i_cd);
  return Value::nil();
}

Value Interpreter::b_array(const Expr& expr, const EnvPtr& frame) {
  // (array CELL COUNT INTERFACE#): builds a chain of COUNT partial instances
  // of CELL, consecutive ones connected c.i -> c.(i+1) with INTERFACE#, and
  // returns an environment binding c.1 .. c.COUNT — a built-in macro, which
  // is how the thesis's multiplier design file builds register columns.
  check_arity(expr, 3, "array");
  const Cell* cell = coerce_cell(eval(expr.elements[1], frame), expr.elements[1]);
  const std::int64_t count = eval_int(expr.elements[2], frame);
  const std::int64_t index = eval_int(expr.elements[3], frame);
  if (count < 1) fail(expr.elements[2], "array: count must be >= 1");

  auto env = std::make_shared<Environment>(symbols_ref(), nullptr);
  env->reserve(static_cast<std::size_t>(count) + 1);
  GraphNode* previous = nullptr;
  for (std::int64_t i = 1; i <= count; ++i) {
    GraphNode* node = graph_.make_instance(cell);
    env->set(BindingKey{c_symbol_, 1, {i, 0}}, Value::node(node));
    if (previous != nullptr) graph_.connect(previous, node, static_cast<int>(index));
    previous = node;
  }
  env->set(BindingKey::simple(count_symbol_), Value::integer(count));
  ++stats_.frames_created;
  return Value::environment(std::move(env));
}

// ---------------------------------------------------------------------------
// Encoding-table access (§4)

const Interpreter::EncodingTable& Interpreter::require_encoding(const Expr& site) const {
  if (encoding_ == nullptr) {
    fail(site, "no encoding table (truth table) attached to this generation run");
  }
  return *encoding_;
}

Value Interpreter::b_tt_inputs(const Expr& expr, const EnvPtr&) {
  check_arity(expr, 0, "tt_inputs");
  return Value::integer(require_encoding(expr).inputs);
}

Value Interpreter::b_tt_outputs(const Expr& expr, const EnvPtr&) {
  check_arity(expr, 0, "tt_outputs");
  return Value::integer(require_encoding(expr).outputs);
}

Value Interpreter::b_tt_terms(const Expr& expr, const EnvPtr&) {
  check_arity(expr, 0, "tt_terms");
  return Value::integer(static_cast<std::int64_t>(require_encoding(expr).in.size()));
}

Value Interpreter::b_tt_in(const Expr& expr, const EnvPtr& frame) {
  // (tt_in TERM COLUMN) -> 0, 1, or 2 for don't-care; both indices 1-based.
  check_arity(expr, 2, "tt_in");
  const EncodingTable& table = require_encoding(expr);
  const std::int64_t term = eval_int(expr.elements[1], frame);
  const std::int64_t column = eval_int(expr.elements[2], frame);
  if (term < 1 || term > static_cast<std::int64_t>(table.in.size())) {
    fail(expr.elements[1], "tt_in: term index out of range");
  }
  if (column < 1 || column > table.inputs) fail(expr.elements[2], "tt_in: column out of range");
  return Value::integer(
      table.in[static_cast<std::size_t>(term - 1)][static_cast<std::size_t>(column - 1)]);
}

Value Interpreter::b_tt_out(const Expr& expr, const EnvPtr& frame) {
  // (tt_out TERM COLUMN) -> 0 or 1; both indices 1-based.
  check_arity(expr, 2, "tt_out");
  const EncodingTable& table = require_encoding(expr);
  const std::int64_t term = eval_int(expr.elements[1], frame);
  const std::int64_t column = eval_int(expr.elements[2], frame);
  if (term < 1 || term > static_cast<std::int64_t>(table.out.size())) {
    fail(expr.elements[1], "tt_out: term index out of range");
  }
  if (column < 1 || column > table.outputs) {
    fail(expr.elements[2], "tt_out: column out of range");
  }
  return Value::integer(
      table.out[static_cast<std::size_t>(term - 1)][static_cast<std::size_t>(column - 1)]);
}

}  // namespace rsg::lang
