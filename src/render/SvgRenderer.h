//===- render/SvgRenderer.h - SVG flame graph back end --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a FlameGraph to standalone SVG. Labels are fitted to rectangle
/// widths; every rectangle carries a <title> tooltip with the context name,
/// source location, and metric value — the information the paper's hover
/// action surfaces.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_RENDER_SVGRENDERER_H
#define EASYVIEW_RENDER_SVGRENDERER_H

#include "render/FlameLayout.h"

#include <string>

namespace ev {

struct SvgOptions {
  unsigned WidthPx = 1200;
  unsigned RowHeightPx = 16;
  /// The shape the graph was laid out in (top-down, bottom-up, flat). A
  /// bottom-up graph is drawn as an icicle, root at the top; the others
  /// grow up from it.
  std::string Shape = "top-down";
  std::string Title;
};

/// Renders \p Graph to an SVG document.
std::string renderSvg(const FlameGraph &Graph, const SvgOptions &Options = {});

} // namespace ev

#endif // EASYVIEW_RENDER_SVGRENDERER_H
