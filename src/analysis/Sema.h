//===- analysis/Sema.h - EVQL semantic analyzer ---------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static semantic analysis for EVQL programs, powering the editor-side
/// diagnostics of the paper's "profile query" view: the checker walks a
/// parsed (or error-recovered) program and reports IDE-style findings with
/// line:column spans and stable ids — without ever executing the program.
///
/// Its checks are the EVQL0xx rows of the rule table
/// (analysis/RuleRegistry.h); docs/ANALYSIS.md catalogues them with
/// examples.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_SEMA_H
#define EASYVIEW_ANALYSIS_SEMA_H

#include "analysis/RuleRegistry.h"
#include "query/Ast.h"
#include "support/Limits.h"

#include <string_view>

namespace ev {

/// The flow-insensitive type lattice the checker infers over. Unknown is
/// both top (no information) and the recovery type after an error, so one
/// mistake produces one diagnostic instead of a cascade.
enum class SemaType : uint8_t { Number, String, Bool, Unknown };

/// \returns a stable lowercase name ("number", "string", ...).
std::string_view semaTypeName(SemaType Type);

/// Configuration for a semantic check.
struct SemaOptions {
  /// When set, metric-name arguments (evql::Builtin::MetricArg) that are
  /// string constants are validated against this profile's metric table
  /// (plus metrics derived earlier in the program). When null the EVQL006
  /// check is skipped.
  const Profile *MetricSource = nullptr;
  AnalysisLimits Limits = AnalysisLimits::defaults();
  /// Findings this filter drops are never emitted, so they take no room
  /// under Limits.MaxDiagnostics.
  RuleFilter Filter;
};

/// The EVQL semantic analyzer. Stateless across runs; one instance can
/// check many programs.
class SemaChecker {
public:
  explicit SemaChecker(SemaOptions Opts = {}) : Opts(Opts) {}

  /// Checks a parsed program, appending findings to \p Out.
  void check(const evql::Program &Prog, DiagnosticSet &Out) const;

  /// Parses \p Source with statement-level error recovery (syntax errors
  /// become EVQL001 findings) and checks whatever parsed. The combined
  /// entry point 'evtool check' and pvp/diagnostics use.
  void checkSource(std::string_view Source, DiagnosticSet &Out) const;

  const SemaOptions &options() const { return Opts; }

private:
  SemaOptions Opts;
};

} // namespace ev

#endif // EASYVIEW_ANALYSIS_SEMA_H
