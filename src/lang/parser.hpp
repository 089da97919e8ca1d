// Recursive-descent parser for the Appendix A grammar.
//
// Produces the generic Expr tree of ast.hpp. Special forms (defun, macro,
// cond, do, ...) are recognized by the interpreter, not the parser, so the
// grammar here is just: program := form*; form := NUMBER | STRING | variable
// | '(' form* ')'; variable := SYMBOL ('.' index){0,2}; index := NUMBER |
// SYMBOL | '(' form* ')'.
//
// parse_program also compiles the forms (ast.hpp's compile_program), so the
// returned program is ready to run: CompiledDesign pays this once per
// design, not once per generation.
#pragma once

#include <string>

#include "lang/ast.hpp"

namespace rsg::lang {

Program parse_program(const std::string& source);

// Parses exactly one form, uncompiled (testing convenience).
Expr parse_form(const std::string& source);

}  // namespace rsg::lang
