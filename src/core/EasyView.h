//===- core/EasyView.h - The EasyView engine facade ------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level public API: one engine that wires the data abstraction
/// (convert/), analysis (analysis/, query/), visualization (render/), and
/// IDE integration (ide/) together — the three components of paper Fig. 1.
///
/// openProfileBytes() performs exactly what the response-time experiment
/// (Fig. 5) measures as "opening a profile": format detection and parsing,
/// CCT construction, metric computation, and the first top-down
/// flame-graph layout. Per-phase timings are recorded.
///
/// Typical use:
/// \code
///   EasyViewEngine Engine;
///   auto Id = Engine.openProfileBytes(Bytes, "service.pprof");
///   std::string Svg = *Engine.flameSvg(*Id, {});
///   auto Hover = Engine.ide().hoverNode(*Id, SomeNode);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_CORE_EASYVIEW_H
#define EASYVIEW_CORE_EASYVIEW_H

#include "analysis/Aggregate.h"
#include "analysis/Diff.h"
#include "ide/MockIde.h"
#include "profile/Profile.h"
#include "query/Vm.h"
#include "render/FlameLayout.h"

#include <string>
#include <string_view>

namespace ev {

/// Wall-clock milliseconds per phase of the last openProfileBytes() call.
struct OpenStats {
  double ParseMs = 0.0;   ///< Detection + parsing + CCT construction.
  double AnalyzeMs = 0.0; ///< Metric columns (inclusive/exclusive).
  double LayoutMs = 0.0;  ///< First top-down flame-graph layout.

  double totalMs() const { return ParseMs + AnalyzeMs + LayoutMs; }
};

struct FlameRenderOptions {
  std::string Shape = "top-down"; ///< "top-down" | "bottom-up" | "flat".
  MetricId Metric = 0;
  unsigned WidthPx = 1200;
};

class EasyViewEngine {
public:
  /// Opens profile bytes in any supported format; \returns the profile id.
  Result<int64_t> openProfileBytes(std::string_view Bytes,
                                   std::string_view Name = "");

  /// Registers an already-built profile (no parse phase timed).
  int64_t addProfile(Profile P) { return Ide.server().addProfile(std::move(P)); }

  const OpenStats &lastOpenStats() const { return LastOpen; }

  const Profile *profile(int64_t Id) const {
    return Ide.server().profile(Id);
  }

  /// Renders a flame graph of the given shape to SVG.
  Result<std::string> flameSvg(int64_t Id, const FlameRenderOptions &Options);

  /// Renders the fold/unfold tree table with the hot path expanded.
  Result<std::string> treeTableText(int64_t Id);

  /// The floating-window summary.
  Result<std::string> summaryText(int64_t Id);

  /// Runs an EVQL program against a stored profile; the result profile is
  /// registered and its id returned alongside the printed lines.
  Result<evql::QueryOutput> query(int64_t Id, std::string_view Program);

  /// Aggregates stored profiles into a unified tree (with min/max/mean
  /// stats); \returns the aggregate, which stays owned by the caller.
  Result<AggregatedProfile> aggregateProfiles(std::span<const int64_t> Ids);

  /// Diffs two stored profiles on \p Metric.
  Result<DiffResult> diff(int64_t BaseId, int64_t TestId, MetricId Metric);

  /// The embedded mock editor (and through it, the PVP server). Real
  /// editors would instead speak PVP over a pipe via PvpServer::handleWire.
  MockIde &ide() { return Ide; }

private:
  MockIde Ide;
  OpenStats LastOpen;
};

} // namespace ev

#endif // EASYVIEW_CORE_EASYVIEW_H
