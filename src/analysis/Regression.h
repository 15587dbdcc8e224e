//===- analysis/Regression.h - Differential regression analysis -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EVL3xx rule family: differential analysis over two aggregated
/// profile cohorts ("did release B get slower than release A, and
/// where?"). Where the profile linter (EVL1xx/2xx) judges one profile in
/// isolation, the RegressionAnalyzer walks the base and test cohort
/// accumulators (analysis/FleetAggregate.h) in lockstep — contexts paired
/// by textual frame identity — and turns drift into the same Diagnostic
/// currency the IDE problem pane and `evtool -Werror` already speak. The
/// rules are the EVL3xx rows of the rule table (analysis/RuleRegistry.h).
///
/// A regression must clear three gates to fire: an absolute floor, a
/// relative floor, and a statistical one (the delta must exceed
/// SigmaGate standard errors under Welch's approximation) — so run-to-run
/// noise in either cohort does not produce findings. Every finding
/// carries the CCT path, both cohort means, and the delta; findings are
/// sorted by (rule, path, metric) before emission so output is
/// byte-identical across ingest orders and runs.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_ANALYSIS_REGRESSION_H
#define EASYVIEW_ANALYSIS_REGRESSION_H

#include "analysis/FleetAggregate.h"
#include "analysis/RuleRegistry.h"
#include "support/Limits.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// Configuration for a regression run. The numeric thresholds are the
/// "configurable threshold" of the rule family: a delta only fires when it
/// clears the absolute floor AND the relative floor AND the sigma gate.
struct RegressionOptions {
  AnalysisLimits Limits = AnalysisLimits::defaults();
  /// Which rules emit findings.
  RuleFilter Filter;

  /// EVL300/301: minimum |delta| / max(|baseMean|, eps).
  double RelativeMin = 0.10;
  /// EVL300/301: minimum |delta| in metric units.
  double AbsoluteMin = 0.0;
  /// EVL300/301/306: |delta| must exceed this many standard errors
  /// (Welch: sqrt(varBase/nBase + varTest/nTest)). 0 disables the gate.
  double SigmaGate = 3.0;
  /// EVL302: minimum inclusive share of the test total for a new context.
  double NewPathShareMin = 0.01;
  /// EVL303: minimum inclusive share of the base total for a lost context.
  double DisappearedShareMin = 0.01;
  /// EVL304: minimum growth of inclusive share (absolute, e.g. 0.05 = 5
  /// points of share).
  double ShareShiftMin = 0.05;
  /// EVL305: test fan-out must be at least this multiple of base fan-out...
  double FanOutFactor = 4.0;
  /// ...and at least this many children in absolute terms.
  size_t FanOutMinChildren = 16;
  /// EVL306 (bytes-unit metrics): relative and absolute floors.
  double AllocRelativeMin = 0.25;
  double AllocAbsoluteMin = 0.0;
  /// Call paths in messages are truncated to this many leaf-most frames.
  size_t MaxPathSegments = 12;
};

/// The analyzer. Stateless across runs.
class RegressionAnalyzer {
public:
  explicit RegressionAnalyzer(RegressionOptions Opts = {})
      : Opts(std::move(Opts)) {}

  /// Walks \p Base and \p Test in lockstep and appends EVL3xx findings to
  /// \p Out, sorted by (rule, path, metric). Diagnostic::Node refers to
  /// the TEST cohort's shape() for every rule except EVL303, where the
  /// context no longer exists in test and the id refers to base.
  void analyze(const CohortAccumulator &Base, const CohortAccumulator &Test,
               DiagnosticSet &Out, const CancelToken &Cancel = {}) const;

  const RegressionOptions &options() const { return Opts; }

private:
  RegressionOptions Opts;
};

} // namespace ev

#endif // EASYVIEW_ANALYSIS_REGRESSION_H
