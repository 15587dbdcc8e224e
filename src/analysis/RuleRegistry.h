//===- analysis/RuleRegistry.h - Unified analysis rule registry -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table over every analysis rule family — EVQL semantic checks
/// (analysis/Sema.h), profile lints (analysis/ProfileLint.h), and the
/// EVL3xx regression rules (analysis/Regression.h) — so `evtool check`,
/// `evtool lint`, and `evtool regress` render the same `--list-rules`
/// catalogue and validate `--disable` arguments identically, and
/// pvp/diagnostics and pvp/regressions reject unknown rule names with one
/// code path. The per-family registries stay authoritative; this module
/// is a thin deterministic concatenation.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_RULEREGISTRY_H
#define EASYVIEW_ANALYSIS_RULEREGISTRY_H

#include "analysis/Diagnostic.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Which analysis pass owns a rule.
enum class RuleCategory : uint8_t {
  Query,      ///< EVQL semantic checks (EVQLxxx).
  Lint,       ///< Profile lints (EVL1xx wire, EVL2xx decoded).
  Regression, ///< Differential cohort rules (EVL3xx).
};

/// \returns a stable lowercase name ("query", "lint", "regression").
std::string_view ruleCategoryName(RuleCategory Category);

/// One rule, any family.
struct RuleInfo {
  std::string_view Id;   ///< Stable id, e.g. "EVQL002" or "EVL304".
  std::string_view Name; ///< Stable kebab-case name.
  Severity DefaultSev;
  std::string_view Description;
  RuleCategory Category;
};

/// Which findings a run keeps: those at or above MinSeverity whose rule
/// is not disabled by id or by name. The EVQL checker, the linter and the
/// regression analyzer apply it while emitting, so a dropped finding never
/// takes room under the diagnostics cap.
struct RuleFilter {
  Severity MinSeverity = Severity::Note;
  /// Rules to skip, by id or name.
  std::vector<std::string> Disabled;

  bool keeps(Severity Sev, std::string_view Id, std::string_view Name) const;
  bool keeps(const Diagnostic &D) const { return keeps(D.Sev, D.Id, D.Rule); }
};

/// Every rule of every family, in (category, id) order.
const std::vector<RuleInfo> &allRules();

/// Looks a rule up by id or kebab-case name across every family.
/// \returns nullptr when unknown.
const RuleInfo *findRule(std::string_view IdOrName);

/// Renders the `--list-rules` catalogue shared by check/lint/regress —
/// every family, so EVL3xx shows up no matter which subcommand asked. The
/// per-rule shape matches the original lint listing:
///   EVL300  warning  exclusive-time-regression
///       <description>
std::string renderRuleList();

} // namespace ev

#endif // EASYVIEW_ANALYSIS_RULEREGISTRY_H
