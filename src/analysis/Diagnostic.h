//===- analysis/Diagnostic.h - IDE-style diagnostics ----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diagnostics shared by the analysis passes: the EVQL semantic checker
/// (analysis/Sema.h), the profile lint engine (analysis/ProfileLint.h)
/// and the regression analyzer (analysis/Regression.h). A Diagnostic is
/// one finding with a stable id ("EVQL005", "EVL201"), a severity, an
/// optional source span or CCT node, and an optional fix hint — the same
/// shape an IDE squiggle carries, so the pvp/diagnostics reply and the
/// evtool text renderer are both thin projections of it. The passes fill
/// the id, rule name and severity from the rule's row
/// (analysis/RuleRegistry.h).
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_DIAGNOSTIC_H
#define EASYVIEW_ANALYSIS_DIAGNOSTIC_H

#include "profile/Profile.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Severity ladder, ordered so that comparisons express "at least as
/// severe as" (Error > Warning > Info > Note).
enum class Severity : uint8_t {
  Note,    ///< Attached explanation; never actionable alone.
  Info,    ///< Worth knowing, not suspicious.
  Warning, ///< Probably a mistake; '-Werror' escalates these.
  Error,   ///< Definitely broken.
};

/// \returns a stable lowercase name ("note", "info", "warning", "error").
std::string_view severityName(Severity Sev);

/// Parses a severity name. \returns false (leaving \p Out untouched) when
/// \p Name matches no severity.
bool parseSeverity(std::string_view Name, Severity &Out);

/// Where a finding points: a source position (EVQL checks) or a CCT node
/// (lint and regression rules).
struct DiagnosticLocation {
  size_t Line = 0;
  size_t Column = 0;
  NodeId Node = InvalidNode;
};

/// One finding.
struct Diagnostic {
  /// Stable id, e.g. "EVQL002" or "EVL101". Id and Rule view the rule's
  /// row of AnalysisRules, which lives as long as the program.
  std::string_view Id;
  Severity Sev = Severity::Warning;
  std::string Message;   ///< lowercase-first, no trailing period.
  std::string_view Rule; ///< Stable kebab-case rule name.
  std::string Hint;    ///< Optional fix hint; "" when none applies.
  size_t Line = 0;     ///< 1-based source line; 0 when positionless.
  size_t Column = 0;   ///< 1-based source column; 0 when positionless.
  NodeId Node = InvalidNode; ///< Offending CCT node for profile lints.
};

/// An append-only collection of diagnostics with a hard cap. The cap comes
/// from AnalysisLimits::MaxDiagnostics: hostile input that would produce
/// millions of findings degrades to a truncated list plus drop counters
/// per severity, never unbounded memory. The counts include the dropped
/// findings, so a capped run still fails on an error it could not list.
class DiagnosticSet {
public:
  explicit DiagnosticSet(size_t MaxDiagnostics = 1000)
      : Max(MaxDiagnostics) {}

  /// Appends \p D unless the cap is reached, in which case the drop is
  /// counted at its severity instead. \returns false once at the cap.
  bool add(Diagnostic D);

  const std::vector<Diagnostic> &all() const { return Diags; }
  bool empty() const { return Diags.empty(); }
  size_t size() const { return Diags.size(); }

  /// Number of diagnostics discarded because of the cap.
  size_t dropped() const;
  /// True when findings were discarded (cap) or a pass stopped early
  /// (deadline, lint-node budget).
  bool truncated() const { return dropped() > 0 || TruncatedFlag; }
  /// Records that a pass stopped before seeing all input.
  void markTruncated() { TruncatedFlag = true; }

  /// Number of findings at \p Sev, dropped ones included.
  size_t count(Severity Sev) const;

  /// Stable order for presentation: by line, column, then id.
  void sortBySource();

private:
  std::vector<Diagnostic> Diags;
  size_t Max;
  /// Findings discarded because of the cap, indexed by Severity.
  size_t DroppedBy[static_cast<size_t>(Severity::Error) + 1] = {};
  bool TruncatedFlag = false;
};

/// Renders one finding in the classic compiler shape the IDE problem pane
/// and 'evtool check/lint' both use:
/// \code
///   query.evql:3:9: error: undefined identifier 'totl' [EVQL002]
///     hint: did you mean 'total'?
/// \endcode
/// The hint line is present only when the diagnostic carries one. For
/// positionless findings (profile lints) the line:column pair is omitted.
std::string renderDiagnostic(const Diagnostic &D, std::string_view Subject);

} // namespace ev

#endif // EASYVIEW_ANALYSIS_DIAGNOSTIC_H
