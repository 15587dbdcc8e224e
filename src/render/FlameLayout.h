//===- render/FlameLayout.h - Flame graph geometry engine -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flame-graph layout engine (paper §VI-A): computes the rectangle
/// geometry for a profile + metric in normalized [0,1] coordinates. The
/// same geometry feeds the SVG, ANSI, and HTML back ends, the hit-testing
/// used for the code-link action, and the response-time benchmark (layout
/// is part of "opening" a profile).
///
/// One layout loop serves two tree sources: a profile laid out as it is
/// (top-down, or a flat tree), and a CallersTree, the bottom-up tree of a
/// profile read off its caller groups without building it. Either way the
/// graph holds the profile whose frames name and colour the rects.
///
/// EasyView's efficiency claims map onto two layout policies ablated in
/// bench_ablation: min-width culling (subtrees narrower than a pixel are
/// skipped, the dominant saving on ~1M-node profiles) and value-sorted
/// children.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_RENDER_FLAMELAYOUT_H
#define EASYVIEW_RENDER_FLAMELAYOUT_H

#include "analysis/Transform.h"
#include "profile/Profile.h"
#include "render/Color.h"

#include <string>
#include <string_view>
#include <vector>

namespace ev {

/// One flame-graph rectangle in normalized coordinates.
struct FlameRect {
  /// The node laid out: an id of the tree the graph was laid out from,
  /// which for a bottom-up graph is the tree bottomUpTree builds.
  NodeId Node = InvalidNode;
  /// Its frame, a frame of the graph's profile(): the rect's name and
  /// colour come from it.
  FrameId Frame = 0;
  unsigned Depth = 0;
  double X = 0.0;     ///< Left edge in [0, 1].
  double Width = 0.0; ///< Fraction of the total metric.
  double Value = 0.0; ///< Inclusive metric value.
  Rgb Color;
  bool Highlighted = false; ///< Search match.
};

/// Layout policies.
struct FlameLayoutOptions {
  /// Rectangles narrower than this fraction are culled together with their
  /// subtree (they would be subpixel at any realistic viewport width).
  double MinWidth = 1.0 / 4096.0;
  /// Order children widest-first (true) or in insertion order (false).
  bool SortByValue = true;
  /// 0 = unlimited.
  unsigned MaxDepth = 0;
};

/// Computed flame graph for one (profile, metric) pair.
class FlameGraph {
public:
  /// Lays out the tree \p P is: a profile top-down, or a flat tree.
  FlameGraph(const Profile &P, MetricId Metric,
             FlameLayoutOptions Options = {});
  /// Lays out the bottom-up graph of Tree.profile().
  explicit FlameGraph(const CallersTree &Tree,
                      FlameLayoutOptions Options = {});

  const Profile &profile() const { return *P; }
  MetricId metric() const { return Metric; }
  const std::vector<FlameRect> &rects() const { return Rects; }
  /// The frame and name of \p R, from profile().
  const Frame &frameOf(const FlameRect &R) const { return P->frame(R.Frame); }
  std::string_view nameOf(const FlameRect &R) const {
    return P->text(frameOf(R).Name);
  }

  /// Root inclusive value (the layout denominator).
  double totalValue() const { return Total; }
  /// Number of nodes culled by the min-width policy.
  size_t culledCount() const { return Culled; }
  /// Deepest laid-out row + 1.
  unsigned depth() const { return Depth; }

  /// Marks rectangles whose frame name contains \p Pattern
  /// (case-sensitive); \returns the match count. An empty pattern clears
  /// the highlight.
  size_t search(std::string_view Pattern);

  /// Hit test: the rectangle containing normalized \p X at \p Depth, or
  /// nullptr. This backs the click -> code-link action.
  const FlameRect *rectAt(double X, unsigned Depth) const;

  /// \returns the index of the rect for \p Node, or npos.
  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t rectIndexFor(NodeId Node) const;

private:
  template <typename Tree> void layout(const Tree &T);

  const Profile *P;
  MetricId Metric;
  FlameLayoutOptions Options;
  std::vector<FlameRect> Rects;
  double Total = 0.0;
  size_t Culled = 0;
  unsigned Depth = 0;
};

} // namespace ev

#endif // EASYVIEW_RENDER_FLAMELAYOUT_H
