//===- query/Vm.h - Batched EVQL bytecode execution -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one EVQL engine. A program transforms a profile: 'derive' adds
/// metric columns computed per node (the paper's "callbacks at metric
/// computation", e.g. cycles per instruction or division-based
/// differential metrics), while 'prune'/'keep' elide nodes (the paper's
/// "callbacks at node visit"). 'let' binds reusable values and 'print'
/// collects report lines.
///
/// The builtins, with their signatures and where each may run, are the
/// rows of evql::Builtins (query/Compiler.h).
///
/// Every program runs parse -> compileProgram (query/Compiler.h) ->
/// runCompiled. Instead of walking the AST once per node, the VM sweeps
/// each statement's straight-line bytecode over chunks of node lanes
/// against columnar state: typed register banks laid out register-major
/// per chunk, precomputed depth/fan-out/frame-attribute columns (computed
/// once per profile topology, invalidated only by prune/keep), and
/// memoized metric views shared across lanes.
///
/// Contract: a tree-walking interpreter kept in the test suite
/// (tests/EvqlOracle.h) defines the language. runCompiled() produces
/// QueryOutput byte-identical to it, error messages and line numbers
/// included, for every program except the two the compiler turns into
/// traps (a mixed-type ternary with a data-dependent condition, and a
/// statement past the register file; see compileProgram()). Chunks run
/// in ascending node order, so an error is the lowest failing node's, the
/// one the oracle reports.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_VM_H
#define EASYVIEW_QUERY_VM_H

#include "profile/Profile.h"
#include "query/Compiler.h"
#include "support/Limits.h"
#include "support/Result.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {
namespace evql {

/// Result of running a program against a profile.
struct QueryOutput {
  Profile Result;                        ///< The transformed profile.
  std::vector<std::string> Printed;      ///< Lines from 'print'.
  std::vector<std::string> DerivedMetrics; ///< Names of added columns.
};

/// Renders a number the way 'print' and str() do: values that are exactly
/// representable as int64 print without a fractional part, everything else
/// (including values beyond int64 range, infinities, and NaN — where an
/// int64 cast would be undefined behavior) through formatDouble(V, 6).
std::string renderNumber(double Value);

/// Renders fmt(Value, Digits): formatDouble with the digit count clamped
/// into a range where the double->int conversion is defined.
std::string renderFormatted(double Value, double Digits);

/// The `derive` install step: \returns a copy of \p P with metric \p Name
/// (unit "derived") carrying \p Column's non-zero values.
Profile withDerivedColumn(const Profile &P, std::string_view Name,
                          const std::vector<double> &Column);

/// Runs a compiled program against \p P. The input profile is not
/// modified; the output holds a transformed copy. Runtime errors (unknown
/// metric, type mismatch, ...) carry line numbers.
Result<QueryOutput> runCompiled(const Profile &P,
                                const CompiledProgram &Prog);

/// Parses, compiles and runs \p Source against \p P. A source longer than
/// \p Limits.MaxProgramBytes is refused before lexing with the EVQL013
/// message (programSizeError()). Expression nesting past
/// \p Limits.MaxExprDepth is a clean diagnostic, never a stack overflow.
Result<QueryOutput> runProgram(const Profile &P, std::string_view Source,
                               const AnalysisLimits &Limits);
Result<QueryOutput> runProgram(const Profile &P, std::string_view Source);

/// Compiles and runs an already-parsed program.
Result<QueryOutput> runProgram(const Profile &P, const Program &Prog,
                               const AnalysisLimits &Limits);
Result<QueryOutput> runProgram(const Profile &P, const Program &Prog);

} // namespace evql
} // namespace ev

#endif // EASYVIEW_QUERY_VM_H
