//===- tests/EvqlOracle.h - Tree-walking EVQL oracle ----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-walking EVQL interpreter, kept in the test suite as the
/// differential oracle for the production engine (query/Vm.h). It walks
/// the AST once per node with boxed runtime values, so its semantics read
/// directly off the code: its outputs, error messages and line numbers
/// define the language. The compiler (query/Compiler.cpp) mirrors it
/// clause by clause.
///
/// Two programs run here but trap in production, by design: a ternary
/// whose branches have different types under a data-dependent condition
/// (the oracle evaluates only the taken branch, so it has no static type
/// to respect), and a statement that outgrows the compiler's register
/// file.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_TESTS_EVQLORACLE_H
#define EASYVIEW_TESTS_EVQLORACLE_H

#include "profile/Profile.h"
#include "query/Ast.h"
#include "query/Vm.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <string_view>

namespace ev {
namespace evql {

namespace oracle {

/// Parses and interprets \p Source against \p P. The input profile is
/// not modified; the output holds a transformed copy. Parse and runtime
/// errors carry line numbers. Expression recursion is bounded by
/// \p Limits.MaxExprDepth: nesting past the budget is a clean diagnostic,
/// never a stack overflow. Unlike evql::runProgram, the source size is not
/// checked.
Result<QueryOutput> runProgram(const Profile &P, std::string_view Source,
                               const AnalysisLimits &Limits);
Result<QueryOutput> runProgram(const Profile &P, std::string_view Source);

/// Interprets an already-parsed program.
Result<QueryOutput> runProgram(const Profile &P, const Program &Prog,
                               const AnalysisLimits &Limits);
Result<QueryOutput> runProgram(const Profile &P, const Program &Prog);

} // namespace oracle
} // namespace evql
} // namespace ev

#endif // EASYVIEW_TESTS_EVQLORACLE_H
