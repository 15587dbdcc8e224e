//===- analysis/ProfileLint.h - Profile lint engine -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lint rules over .evprof profiles, reporting
/// data-quality problems the way a compiler reports code problems. Two
/// complementary passes:
///
///  - a wire-level scan (lintWire) over the raw protobuf bytes that flags
///    structural corruption — dangling string/frame/node/metric references,
///    broken parent ordering, malformed messages. These are exactly the
///    inputs readEvProf rejects, so the scan is how a corrupt profile gets
///    *explained* rather than merely refused;
///  - decoded-profile rules (lintProfile) over a loaded CCT — metric sums
///    where exclusive exceeds inclusive, pathological depth or fan-out,
///    duplicate context ids in groups, zero-metric subtrees, non-monotonic
///    source offsets, unreferenced frames.
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

  /// Scans raw .evprof bytes without decoding, appending structural
  /// corruption findings (EVL1xx) to \p Out. One pass in arrival order:
  /// a reference must name an entry that came before it, as readEvProf
  /// requires. A stream whose top-level framing is corrupt yields only
  /// EVL100.
  void lintWire(std::string_view Bytes, DiagnosticSet &Out) const;

  /// Runs the decoded-profile rules (EVL2xx) over \p P.
  void lintProfile(const Profile &P, DiagnosticSet &Out) const;

  /// The combined entry point 'evtool lint' and pvp/diagnostics use: wire
  /// scan, then decode under \p Decode, then decoded rules when the decode
  /// succeeded. \returns true when the profile decoded.
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
