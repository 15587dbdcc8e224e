//===- analysis/RuleRegistry.h - The analysis rule table ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of every analysis rule: the EVQL semantic checks
/// (analysis/Sema.h), the profile lints (analysis/ProfileLint.h) and the
/// EVL3xx regression rules (analysis/Regression.h) are rows of
/// AnalysisRules, each with its id, name, default severity and
/// description. The passes emit through RuleFilter::diagnose, which takes
/// everything but the message, hint and location from the row; a RuleRef
/// is looked up at compile time, so an emission site names only a rule id
/// and an id with no row does not compile. `evtool check`, `lint` and
/// `regress` render the same `--list-rules` catalogue from the table and
/// validate `--disable` against it, as pvp/diagnostics and
/// pvp/regressions do. docs/ANALYSIS.md lists the same rows, and a test
/// checks it.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_RULEREGISTRY_H
#define EASYVIEW_ANALYSIS_RULEREGISTRY_H

#include "analysis/Diagnostic.h"

#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// One analysis rule.
struct RuleInfo {
  std::string_view Id;   ///< Stable id, e.g. "EVQL002" or "EVL304".
  std::string_view Name; ///< Stable kebab-case name.
  Severity DefaultSev;
  std::string_view Description;
};

/// Every rule: EVQL checks, then lints (wire EVL1xx, decoded EVL2xx), then
/// regression rules (EVL3xx), each in id order.
inline constexpr RuleInfo AnalysisRules[] = {
    {"EVQL001", "syntax-error", Severity::Error,
     "the statement does not parse; recovery resumes at the next ';'"},
    {"EVQL002", "undefined-identifier", Severity::Error,
     "use of a name no 'let' statement binds"},
    {"EVQL003", "unknown-builtin", Severity::Error,
     "call target is not an EVQL builtin"},
    {"EVQL004", "wrong-arity", Severity::Error,
     "builtin called with the wrong number of arguments"},
    {"EVQL005", "type-mismatch", Severity::Error,
     "value of one type used where another is required"},
    {"EVQL006", "unknown-metric", Severity::Error,
     "metric name not present in the profile or derived earlier"},
    {"EVQL007", "division-by-zero", Severity::Warning,
     "'/' or '%' by a constant zero (EVQL defines the result as 0)"},
    {"EVQL008", "constant-condition", Severity::Warning,
     "condition folds to a compile-time constant"},
    {"EVQL009", "unused-binding", Severity::Warning,
     "'let' binding never referenced"},
    {"EVQL010", "unreachable-code", Severity::Warning,
     "statements after 'return' never execute"},
    {"EVQL011", "node-context", Severity::Error,
     "node builtin used outside derive/prune/keep"},
    {"EVQL012", "expr-too-deep", Severity::Error,
     "expression nesting exceeds AnalysisLimits::MaxExprDepth"},
    {"EVQL013", "program-too-large", Severity::Error,
     "source exceeds AnalysisLimits::MaxProgramBytes"},

    {"EVL100", "malformed-wire", Severity::Error,
     "the byte stream is not valid .evprof wire data"},
    {"EVL101", "dangling-string-ref", Severity::Error,
     "a frame or group references a string-table entry that does not "
     "exist"},
    {"EVL102", "dangling-frame-ref", Severity::Error,
     "a node references a frame-table entry that does not exist"},
    {"EVL103", "dangling-node-ref", Severity::Error,
     "a context group references a CCT node that does not exist"},
    {"EVL104", "dangling-metric-ref", Severity::Error,
     "a metric value references a metric descriptor that does not exist"},
    {"EVL105", "invalid-parent-order", Severity::Error,
     "a node's parent reference breaks the parents-first ordering"},
    {"EVL201", "exclusive-exceeds-inclusive", Severity::Warning,
     "a node's exclusive metric value exceeds its inclusive sum"},
    {"EVL202", "tree-depth-pathology", Severity::Warning,
     "the CCT is implausibly deep"},
    {"EVL203", "fan-out-pathology", Severity::Warning,
     "one node has implausibly many children"},
    {"EVL204", "duplicate-context-id", Severity::Warning,
     "a context group lists the same node more than once"},
    {"EVL205", "zero-metric-subtree", Severity::Info,
     "a multi-node subtree carries no metric values at all"},
    {"EVL206", "non-monotonic-source-offsets", Severity::Info,
     "siblings in the same source file appear out of line order"},
    {"EVL207", "duplicate-metric-value", Severity::Warning,
     "a node carries two values for the same metric"},
    {"EVL208", "unreferenced-frame", Severity::Info,
     "the frame table has entries no node references"},

    {"EVL300", "exclusive-time-regression", Severity::Warning,
     "a context's mean exclusive metric value grew past the absolute, "
     "relative, and sigma thresholds"},
    {"EVL301", "exclusive-time-improvement", Severity::Info,
     "a context's mean exclusive metric value shrank past the thresholds"},
    {"EVL302", "new-hot-path", Severity::Warning,
     "a context absent from the base cohort holds a significant share of "
     "the test cohort's total"},
    {"EVL303", "disappeared-frame", Severity::Info,
     "a context holding a significant share of the base cohort's total is "
     "absent from the test cohort"},
    {"EVL304", "inclusive-share-shift", Severity::Warning,
     "a subtree's share of the cohort total grew by more than the share "
     "threshold"},
    {"EVL305", "fan-out-explosion", Severity::Warning,
     "a context's child count multiplied between cohorts"},
    {"EVL306", "allocation-drift", Severity::Warning,
     "a bytes-unit metric drifted past the allocation thresholds"},
    {"EVL307", "cohort-schema-mismatch", Severity::Error,
     "the two cohorts disagree on the metric schema"},
    {"EVL308", "total-regression", Severity::Warning,
     "the whole-cohort mean total of a metric grew past the relative "
     "threshold"},
};

/// A row of AnalysisRules named by its id. The constructor runs at
/// compile time, so `report("EVQL005", ...)` with a parameter of this type
/// fails to compile when no row has that id.
class RuleRef {
public:
  consteval RuleRef(const char *Id) : Row(&AnalysisRules[indexOf(Id)]) {}
  const RuleInfo *operator->() const { return Row; }

private:
  static consteval size_t indexOf(std::string_view Id) {
    for (size_t I = 0; I < std::size(AnalysisRules); ++I)
      if (AnalysisRules[I].Id == Id)
        return I;
    throw "no analysis rule has this id";
  }

  const RuleInfo *Row;
};

/// Which findings a run keeps: those at or above MinSeverity whose rule
/// is not disabled by id or by name. The EVQL checker, the linter and the
/// regression analyzer apply it while emitting, so a dropped finding never
/// takes room under the diagnostics cap.
struct RuleFilter {
  Severity MinSeverity = Severity::Note;
  /// Rules to skip, by id or name.
  std::vector<std::string> Disabled;

  /// \p Rule's finding at \p At, with the row's id, name and default
  /// severity, or nullopt when this filter drops the rule.
  std::optional<Diagnostic> diagnose(RuleRef Rule, std::string Message,
                                     std::string Hint = "",
                                     DiagnosticLocation At = {}) const;
};

/// Looks a rule up by id or kebab-case name. \returns nullptr when
/// unknown.
const RuleInfo *findRule(std::string_view IdOrName);

/// Renders the `--list-rules` catalogue shared by check/lint/regress —
/// every row, so EVL3xx shows up no matter which subcommand asked:
///   EVL300  warning  exclusive-time-regression
///       <description>
std::string renderRuleList();

} // namespace ev

#endif // EASYVIEW_ANALYSIS_RULEREGISTRY_H
