#include "lang/parser.hpp"

#include "lang/lexer.hpp"
#include "support/error.hpp"

namespace rsg::lang {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  std::vector<Expr> parse_forms() {
    std::vector<Expr> forms;
    while (peek().kind != Token::Kind::kEnd) forms.push_back(parse_form());
    return forms;
  }

  Expr parse_form() {
    const Token& token = peek();
    switch (token.kind) {
      case Token::Kind::kNumber: {
        Expr e = make(Expr::Kind::kNumber, token);
        e.number = token.number;
        next();
        return e;
      }
      case Token::Kind::kString: {
        Expr e = make(Expr::Kind::kString, token);
        e.text = token.text;
        next();
        return e;
      }
      case Token::Kind::kSymbol:
        return parse_variable();
      case Token::Kind::kLParen:
        return parse_list();
      case Token::Kind::kRParen:
        throw LangError("unexpected ')'", token.line, token.column);
      case Token::Kind::kDot:
        throw LangError("unexpected '.' (an index must follow a variable name)", token.line,
                        token.column);
      case Token::Kind::kEnd:
        throw LangError("unexpected end of input", token.line, token.column);
    }
    throw LangError("unreachable", token.line, token.column);
  }

  bool at_end() const { return pos_ >= tokens_.size() || tokens_[pos_].kind == Token::Kind::kEnd; }

 private:
  Expr make(Expr::Kind kind, const Token& token) {
    Expr e;
    e.kind = kind;
    e.line = token.line;
    e.column = token.column;
    return e;
  }

  Expr parse_variable() {
    const Token& name = expect(Token::Kind::kSymbol, "variable name");
    Expr e = make(Expr::Kind::kVar, name);
    e.text = name.text;
    // Up to two index positions (the BNF's indexed / 2indexed variables).
    while (peek().kind == Token::Kind::kDot && e.indices.size() < 2) {
      next();  // consume '.'
      e.indices.push_back(parse_index());
    }
    if (peek().kind == Token::Kind::kDot) {
      throw LangError("more than two indices on variable '" + e.text + "'", peek().line,
                      peek().column);
    }
    return e;
  }

  Expr parse_index() {
    const Token& token = peek();
    switch (token.kind) {
      case Token::Kind::kNumber: {
        Expr e = make(Expr::Kind::kNumber, token);
        e.number = token.number;
        next();
        return e;
      }
      case Token::Kind::kSymbol: {
        // A plain variable index; dots after it would be ambiguous and are
        // rejected (write c.(x.i) if needed).
        Expr e = make(Expr::Kind::kVar, token);
        e.text = token.text;
        next();
        return e;
      }
      case Token::Kind::kLParen:
        return parse_list();
      default:
        throw LangError("expected number, variable or '(' after '.'", token.line, token.column);
    }
  }

  Expr parse_list() {
    const Token& open = expect(Token::Kind::kLParen, "'('");
    Expr e = make(Expr::Kind::kList, open);
    while (peek().kind != Token::Kind::kRParen) {
      if (peek().kind == Token::Kind::kEnd) {
        throw LangError("missing ')' for list opened here", open.line, open.column);
      }
      e.elements.push_back(parse_form());
    }
    next();  // consume ')'
    return e;
  }

  const Token& peek() const { return tokens_[pos_]; }
  void next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  const Token& expect(Token::Kind kind, const std::string& what) {
    const Token& token = peek();
    if (token.kind != kind) {
      throw LangError("expected " + what, token.line, token.column);
    }
    next();
    return token;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse_program(const std::string& source) {
  Parser parser(tokenize(source));
  return compile_program(parser.parse_forms());
}

Expr parse_form(const std::string& source) {
  Parser parser(tokenize(source));
  Expr form = parser.parse_form();
  if (!parser.at_end()) throw Error("parse_form: trailing input after form");
  return form;
}

}  // namespace rsg::lang
