//===- analysis/ProfileLint.h - Profile lint engine -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lint rules over .evprof profiles, reporting data-quality problems the
/// way a compiler reports code problems:
///
///  - a refused stream gets one EVL1xx finding: the fault the .evprof
///    decoder (proto/EvProfStream.h) refused it for, in the decoder's own
///    words, under the rule of its kind (dangling string/frame/node/metric
///    reference, broken parent order, malformed wire). The explanation of
///    a refusal is the refusal itself, so lint() refuses exactly the
///    streams readEvProf refuses, with readEvProf's message;
///  - decoded-profile rules (lintProfile, EVL2xx) run over a loaded CCT:
///    metric sums where exclusive exceeds inclusive, pathological depth or
///    fan-out, duplicate context ids in groups, zero-metric subtrees,
///    non-monotonic source offsets, unreferenced frames.
///
/// The rules are the EVL1xx (wire) and EVL2xx (decoded) rows of the rule
/// table (analysis/RuleRegistry.h), individually disableable by id or
/// name and filtered by a severity threshold. Every walk is bounded by
/// AnalysisLimits. docs/ANALYSIS.md catalogues the rules.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_PROFILELINT_H
#define EASYVIEW_ANALYSIS_PROFILELINT_H

#include "analysis/RuleRegistry.h"
#include "support/Limits.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Configuration for a lint run.
struct LintOptions {
  AnalysisLimits Limits = AnalysisLimits::defaults();
  /// Which rules emit findings.
  RuleFilter Filter;
  /// EVL202 fires when the CCT is deeper than this.
  size_t MaxReasonableDepth = 512;
  /// EVL203 fires when one node has more children than this.
  size_t MaxReasonableFanOut = 4096;
};

/// The lint engine. Stateless across runs; one instance can lint many
/// profiles.
class ProfileLinter {
public:
  explicit ProfileLinter(LintOptions Opts = {}) : Opts(std::move(Opts)) {}

  /// Runs the decoded-profile rules (EVL2xx) over \p P. pvp/diagnostics
  /// and 'evtool lint' on a foreign format call it directly.
  void lintProfile(const Profile &P, DiagnosticSet &Out) const;

  /// The entry point 'evtool lint' uses on .evprof bytes: decodes them once
  /// under \p Decode, then runs the decoded rules, or reports the fault
  /// that refused the bytes as one EVL1xx finding (and marks \p Out
  /// truncated, since the decoded rules never ran). \returns true when the
  /// profile decoded.
  bool lint(std::string_view Bytes, const DecodeLimits &Decode,
            DiagnosticSet &Out) const;

  const LintOptions &options() const { return Opts; }

private:
  void emit(DiagnosticSet &Out, RuleRef Rule, std::string Message,
            std::string Hint = "", NodeId Node = InvalidNode) const;

  LintOptions Opts;
};

} // namespace ev

#endif // EASYVIEW_ANALYSIS_PROFILELINT_H
