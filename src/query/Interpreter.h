//===- query/Interpreter.h - EVQL evaluation over profiles ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree-walking interpreter for EVQL programs. A program transforms a
/// profile: 'derive' adds metric columns computed per node (the paper's
/// "callbacks at metric computation", e.g. cycles per instruction or
/// division-based differential metrics), while 'prune'/'keep' elide nodes
/// (the paper's "callbacks at node visit"). 'let' binds reusable values and
/// 'print' collects report lines.
///
/// Node-context builtins: metric(name), inclusive(name), name(), file(),
/// module(), line(), depth(), kind(), nchildren(), parentname(),
/// isleaf(), hasancestor(name), share(name).
/// Profile-level builtins: total(name), nodecount().
/// Pure builtins: min, max, abs, log, sqrt, floor, ceil, ratio(a, b),
/// contains(s, sub), startswith(s, p), endswith(s, p), str(x), fmt(x, d).
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_QUERY_INTERPRETER_H
#define EASYVIEW_QUERY_INTERPRETER_H

#include "profile/Profile.h"
#include "query/Ast.h"
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
/// (including values beyond int64 range, infinities, and NaN — where the
/// old int64 cast was undefined behavior) through formatDouble(V, 6).
/// The bytecode VM (query/Vm.h) shares this helper so both engines print
/// byte-identical output.
std::string renderNumber(double Value);

/// Renders fmt(Value, Digits): formatDouble with the digit count clamped
/// into a range where the double->int conversion is defined. Shared by the
/// interpreter and the VM.
std::string renderFormatted(double Value, double Digits);

/// Parses and runs \p Source against \p P. The input profile is not
/// modified; the output holds a transformed copy. Parse and runtime errors
/// (unknown identifier, type mismatch, unknown metric) carry line numbers.
/// Expression recursion is bounded by \p Limits.MaxExprDepth: nesting past
/// the budget is a clean diagnostic, never a stack overflow.
Result<QueryOutput> runProgram(const Profile &P, std::string_view Source,
                               const AnalysisLimits &Limits);
Result<QueryOutput> runProgram(const Profile &P, std::string_view Source);

/// Runs an already-parsed program.
Result<QueryOutput> runProgram(const Profile &P, const Program &Prog,
                               const AnalysisLimits &Limits);
Result<QueryOutput> runProgram(const Profile &P, const Program &Prog);

/// The `derive` install step shared by both engines: \returns a copy of
/// \p P with metric \p Name (unit "derived") carrying \p Column's
/// non-zero values.
Profile withDerivedColumn(const Profile &P, std::string_view Name,
                          const std::vector<double> &Column);

/// One-shot helper: adds metric \p Name computed by \p Formula to a copy
/// of \p P. Equivalent to running "derive Name = Formula;".
Result<Profile> deriveMetric(const Profile &P, std::string_view Name,
                             std::string_view Formula);

} // namespace evql
} // namespace ev

#endif // EASYVIEW_QUERY_INTERPRETER_H
