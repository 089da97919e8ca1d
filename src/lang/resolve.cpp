// The compile pass of a parsed program (ast.hpp): interns names, resolves
// built-in heads, and lays out the frames of every defun/macro form.
#include <algorithm>

#include "lang/interp.hpp"
#include "lang/parser.hpp"

namespace rsg::lang {

namespace {

// The same shape test define_procedure applies: a name, a formals list of
// plain names and an optional (locals ...) list of plain names. Forms that
// fail it get no scope; evaluating them raises define_procedure's error.
bool well_formed_definition(const Expr& form, std::size_t& body_start) {
  if (form.elements.size() < 3 || !form.elements[1].is_simple_var()) return false;
  const Expr& formals = form.elements[2];
  if (formals.kind != Expr::Kind::kList) return false;
  for (const Expr& formal : formals.elements) {
    if (!formal.is_simple_var()) return false;
  }
  body_start = 3;
  if (body_start < form.elements.size()) {
    const Expr& maybe_locals = form.elements[body_start];
    if (maybe_locals.kind == Expr::Kind::kList && !maybe_locals.elements.empty() &&
        maybe_locals.elements.front().is_var("locals")) {
      for (std::size_t i = 1; i < maybe_locals.elements.size(); ++i) {
        if (!maybe_locals.elements[i].is_simple_var()) return false;
      }
      ++body_start;
    }
  }
  return true;
}

bool is_definition(const Expr& list) {
  const Expr& head = list.elements.front();
  return head.is_simple_var() && (head.text == "defun" || head.text == "macro");
}

class Resolver {
 public:
  Resolver(SymbolTable& symbols, std::deque<ProcedureScope>& scopes)
      : symbols_(symbols), scopes_(scopes) {}

  void form(Expr& expr, const ProcedureScope* scope) {
    switch (expr.kind) {
      case Expr::Kind::kNumber:
      case Expr::Kind::kString:
        return;
      case Expr::Kind::kVar:
        expr.symbol = symbols_.intern(expr.text);
        expr.slot = expr.indices.empty() && scope != nullptr ? slot_of(*scope, expr.symbol) : -1;
        for (Expr& index : expr.indices) form(index, scope);
        return;
      case Expr::Kind::kList:
        list(expr, scope);
        return;
    }
  }

 private:
  void list(Expr& expr, const ProcedureScope* scope) {
    expr.builtin = 0;
    expr.scope = nullptr;
    if (expr.elements.empty()) return;
    Expr& head = expr.elements.front();
    form(head, scope);
    if (head.is_simple_var()) expr.builtin = builtin_of(head);
    std::size_t body_start = 0;
    if (is_definition(expr) && well_formed_definition(expr, body_start)) {
      ProcedureScope& inner = scopes_.emplace_back();
      inner.body_start = body_start;
      for (const Expr& formal : expr.elements[2].elements) {
        inner.formals.push_back(add_slot(inner, symbols_.intern(formal.text)));
      }
      if (body_start == 4) {
        const std::vector<Expr>& locals = expr.elements[3].elements;
        for (std::size_t i = 1; i < locals.size(); ++i) {
          inner.locals.push_back(add_slot(inner, symbols_.intern(locals[i].text)));
        }
      }
      for (std::size_t i = body_start; i < expr.elements.size(); ++i) {
        collect_assigned(expr.elements[i], inner);
      }
      expr.scope = &inner;
      // The name, formals and locals are resolved in the enclosing scope
      // (they are never evaluated); the body in the definition's own.
      for (std::size_t i = 1; i < body_start; ++i) form(expr.elements[i], scope);
      for (std::size_t i = body_start; i < expr.elements.size(); ++i) {
        form(expr.elements[i], &inner);
      }
      return;
    }
    for (std::size_t i = 1; i < expr.elements.size(); ++i) form(expr.elements[i], scope);
  }

  // Interpreter::find_builtin, asked once per distinct head name.
  std::uint8_t builtin_of(const Expr& head) {
    if (head.symbol >= builtins_.size()) {
      builtins_.resize(std::max(symbols_.size(), 2 * builtins_.size()), kUnknown);
    }
    std::uint8_t& builtin = builtins_[head.symbol];
    if (builtin == kUnknown) builtin = Interpreter::find_builtin(head.text);
    return builtin;
  }

  // Slots for the simple names a body binds in its own frame: assignment
  // targets and do variables. Nested definitions have frames of their own.
  void collect_assigned(const Expr& expr, ProcedureScope& scope) {
    if (expr.kind != Expr::Kind::kList || expr.elements.empty()) return;
    if (is_definition(expr)) return;
    const Expr& head = expr.elements.front();
    if (head.is_simple_var() && expr.elements.size() >= 2) {
      const Expr& target = expr.elements[1];
      if ((head.text == "setq" || head.text == "assign" || head.text == "mk_instance") &&
          target.is_simple_var()) {
        add_slot(scope, symbols_.intern(target.text));
      } else if (head.text == "do" && target.kind == Expr::Kind::kList &&
                 !target.elements.empty() && target.elements.front().is_simple_var()) {
        add_slot(scope, symbols_.intern(target.elements.front().text));
      }
    }
    for (const Expr& element : expr.elements) collect_assigned(element, scope);
  }

  static std::uint32_t add_slot(ProcedureScope& scope, SymbolId symbol) {
    const std::int32_t existing = slot_of(scope, symbol);
    if (existing >= 0) return static_cast<std::uint32_t>(existing);
    scope.slots.push_back(symbol);
    return static_cast<std::uint32_t>(scope.slots.size() - 1);
  }

  static std::int32_t slot_of(const ProcedureScope& scope, SymbolId symbol) {
    auto it = std::find(scope.slots.begin(), scope.slots.end(), symbol);
    return it == scope.slots.end() ? -1 : static_cast<std::int32_t>(it - scope.slots.begin());
  }

  static constexpr std::uint8_t kUnknown = 0xFF;

  SymbolTable& symbols_;
  std::deque<ProcedureScope>& scopes_;
  std::vector<std::uint8_t> builtins_;  // by symbol id
};

}  // namespace

Program compile_program(std::vector<Expr> forms, std::shared_ptr<SymbolTable> symbols) {
  if (symbols == nullptr) symbols = std::make_shared<SymbolTable>();
  auto data = std::make_shared<Program::Data>();
  data->forms = std::move(forms);
  Resolver resolver(*symbols, data->scopes);
  for (Expr& form : data->forms) resolver.form(form, nullptr);
  data->symbols = std::move(symbols);
  Program program;
  program.data_ = std::move(data);
  return program;
}

}  // namespace rsg::lang
