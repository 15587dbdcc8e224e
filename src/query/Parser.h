//===- query/Parser.h - EVQL parser ----------------------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent / precedence-climbing parser for EVQL.
///
/// Grammar:
/// \code
///   program   := statement*
///   statement := 'let' IDENT '=' expr ';'
///              | 'derive' IDENT '=' expr ';'
///              | 'prune' 'when' expr ';'
///              | 'keep' 'when' expr ';'
///              | 'print' expr ';'
///   expr      := ternary
///   ternary   := or ('?' expr ':' expr)?
///   or        := and ('||' and)*
///   and       := equality ('&&' equality)*
///   equality  := relational (('=='|'!=') relational)*
///   relational:= additive (('<'|'<='|'>'|'>=') additive)*
///   additive  := multiplicative (('+'|'-') multiplicative)*
///   multiplicative := unary (('*'|'/'|'%') unary)*
///   unary     := ('-'|'!') unary | primary
///   primary   := NUMBER | STRING | 'true' | 'false'
///              | IDENT ('(' (expr (',' expr)*)? ')')?
///              | '(' expr ')'
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_PARSER_H
#define EASYVIEW_QUERY_PARSER_H

#include "query/Ast.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <optional>
#include <string>
#include <string_view>

namespace ev {
namespace evql {

/// Parses EVQL source into a Program. Errors carry line:column positions
/// and the parse stops at the first failure (see parseProgramRecover for
/// the multi-error entry point the static analyzer uses).
Result<Program> parseProgram(std::string_view Source);

/// The EVQL013 size budget, checked before any lexing: \returns the
/// refusal message when \p Source is longer than
/// \p Limits.MaxProgramBytes, or std::nullopt when it fits. The static
/// checker, evql::runProgram and pvp/query all refuse with this message.
std::optional<std::string> programSizeError(std::string_view Source,
                                            const AnalysisLimits &Limits);

/// One recoverable syntax error with its source position.
struct SyntaxError {
  std::string Message;
  size_t Line = 1;
  size_t Column = 1;
};

/// A best-effort parse: every statement that parsed cleanly plus every
/// syntax error encountered along the way.
struct RecoveredProgram {
  Program Prog;
  std::vector<SyntaxError> Errors;
};

/// Parses with statement-level error recovery: on a parse failure the
/// parser records the error, synchronizes to the next ';' (or the next
/// statement keyword), and keeps going, so one bad statement costs one
/// diagnostic instead of hiding everything after it.
RecoveredProgram parseProgramRecover(std::string_view Source);

} // namespace evql
} // namespace ev

#endif // EASYVIEW_QUERY_PARSER_H
