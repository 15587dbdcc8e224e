//===- render/AnsiRenderer.cpp - Terminal flame graph back end ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "render/AnsiRenderer.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace ev {

std::string renderAnsi(const FlameGraph &Graph, const AnsiOptions &Options) {
  unsigned Cols = std::max(10u, Options.Columns);

  // Paint rows as character cells; each cell remembers its rect index.
  std::vector<std::vector<size_t>> Owner(
      Graph.depth(), std::vector<size_t>(Cols, FlameGraph::npos));
  const std::vector<FlameRect> &Rects = Graph.rects();
  for (size_t I = 0; I < Rects.size(); ++I) {
    const FlameRect &R = Rects[I];
    unsigned Begin = static_cast<unsigned>(R.X * Cols);
    unsigned End = static_cast<unsigned>((R.X + R.Width) * Cols);
    End = std::min(End + (End == Begin ? 1 : 0), Cols);
    for (unsigned C = Begin; C < End && C < Cols; ++C)
      Owner[R.Depth][C] = I;
  }

  std::string Out;
  for (unsigned RowIdx = 0; RowIdx < Graph.depth(); ++RowIdx) {
    unsigned DepthRow = Options.RootAtTop ? RowIdx
                                          : (Graph.depth() - 1 - RowIdx);
    const std::vector<size_t> &Row = Owner[DepthRow];
    size_t Current = FlameGraph::npos;
    std::string Label;
    size_t LabelPos = 0;
    for (unsigned C = 0; C < Cols; ++C) {
      size_t Idx = Row[C];
      if (Idx != Current) {
        Current = Idx;
        if (Idx == FlameGraph::npos) {
          Label.clear();
        } else {
          Label = std::string(Graph.nameOf(Rects[Idx]));
        }
        LabelPos = 0;
        if (Options.Color) {
          if (Idx == FlameGraph::npos) {
            Out += "\x1b[0m";
          } else {
            Rgb Color = Rects[Idx].Highlighted ? searchHighlightColor()
                                               : Rects[Idx].Color;
            char Esc[48];
            std::snprintf(Esc, sizeof(Esc),
                          "\x1b[48;2;%u;%u;%um\x1b[38;2;20;20;20m", Color.R,
                          Color.G, Color.B);
            Out += Esc;
          }
        }
      }
      if (Idx == FlameGraph::npos) {
        Out.push_back(' ');
        continue;
      }
      // First cell of a rect prints '|' as a separator, then the label.
      if (LabelPos == 0) {
        Out.push_back('|');
      } else if (LabelPos - 1 < Label.size()) {
        Out.push_back(Label[LabelPos - 1]);
      } else {
        Out.push_back(Options.Color ? ' ' : '-');
      }
      ++LabelPos;
    }
    if (Options.Color)
      Out += "\x1b[0m";
    Out.push_back('\n');
  }
  return Out;
}

} // namespace ev
