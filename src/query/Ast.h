//===- query/Ast.h - EVQL abstract syntax tree -----------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for EVQL. A program is a statement list; expressions form a small
/// arithmetic/boolean language with calls into the profile-inspection
/// builtins.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_AST_H
#define EASYVIEW_QUERY_AST_H

#include "query/Lexer.h"

#include <memory>
#include <string>
#include <vector>

namespace ev {
namespace evql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression node. One struct with a kind discriminator keeps the
/// compiler (and the test oracle) a single switch (there is no need for
/// visitors at this scale).
struct Expr {
  enum class Kind : uint8_t {
    NumberLit,
    StringLit,
    BoolLit,
    Ident,
    Unary,   ///< Op applied to Operands[0].
    Binary,  ///< Op applied to Operands[0], Operands[1].
    Ternary, ///< Operands[0] ? Operands[1] : Operands[2].
    Call,    ///< Name(Operands...).
  };

  Kind TheKind = Kind::NumberLit;
  double Number = 0.0;
  bool BoolValue = false;
  std::string Text; ///< Identifier, call target, or string payload.
  TokenKind Op = TokenKind::Plus;
  std::vector<ExprPtr> Operands;
  size_t Line = 1;
  size_t Column = 1; ///< 1-based column of the expression's first token.
};

/// Statement node.
struct Stmt {
  enum class Kind : uint8_t {
    Let,    ///< let Name = Value;
    Derive, ///< derive Name = Value;   (new metric column)
    Prune,  ///< prune when Cond;       (elide matching nodes)
    Keep,   ///< keep when Cond;        (elide non-matching nodes)
    Print,  ///< print Value;
    Return, ///< return Value;          (report and stop the program)
  };

  Kind TheKind = Kind::Print;
  std::string Name;
  ExprPtr Value;
  size_t Line = 1;
  size_t Column = 1; ///< 1-based column of the statement keyword.
};

/// A parsed program.
struct Program {
  std::vector<Stmt> Statements;
};

} // namespace evql
} // namespace ev

#endif // EASYVIEW_QUERY_AST_H
