//===- render/SvgRenderer.cpp - SVG flame graph back end ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "render/SvgRenderer.h"

#include "support/Strings.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace ev {

namespace {

void appendf(std::string &Out, const char *Format, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Format, ...) {
  char Buffer[512];
  va_list Args;
  va_start(Args, Format);
  int N = std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buffer, std::min<size_t>(static_cast<size_t>(N),
                                        sizeof(Buffer) - 1));
}

} // namespace

std::string renderSvg(const FlameGraph &Graph, const SvgOptions &Options) {
  const Profile &P = Graph.profile();
  unsigned HeaderPx = Options.Title.empty() ? 0 : 24;
  unsigned HeightPx = HeaderPx + Graph.depth() * Options.RowHeightPx + 4;
  bool Icicle = Options.Shape == "bottom-up";

  std::string Out;
  Out.reserve(Graph.rects().size() * 160 + 512);
  appendf(Out,
          "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%u\" "
          "height=\"%u\" font-family=\"monospace\" font-size=\"11\">\n",
          Options.WidthPx, HeightPx);
  Out += "<rect width=\"100%\" height=\"100%\" fill=\"#f8f8f8\"/>\n";
  if (!Options.Title.empty()) {
    appendf(Out, "<text x=\"4\" y=\"15\" font-size=\"13\">%s</text>\n",
            escapeXml(Options.Title).c_str());
  }

  const std::string &Unit =
      Graph.metric() < P.metrics().size() ? P.metrics()[Graph.metric()].Unit
                                          : std::string("count");

  for (const FlameRect &R : Graph.rects()) {
    double X = R.X * Options.WidthPx;
    double W = R.Width * Options.WidthPx;
    unsigned Row = Icicle ? R.Depth : (Graph.depth() - 1 - R.Depth);
    double Y = HeaderPx + static_cast<double>(Row) * Options.RowHeightPx;

    Rgb Color = R.Highlighted ? searchHighlightColor() : R.Color;
    std::string Name(Graph.nameOf(R));
    const Frame &F = Graph.frameOf(R);
    std::string Tooltip = Name;
    if (F.Loc.hasSourceMapping()) {
      Tooltip += " (";
      Tooltip += P.text(F.Loc.File);
      Tooltip += ":" + std::to_string(F.Loc.Line) + ")";
    }
    Tooltip += " — " + formatMetric(R.Value, Unit) + " (" +
               formatDouble(100.0 * R.Width, 2) + "%)";

    appendf(Out,
            "<g><rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%u\" "
            "fill=\"%s\" stroke=\"#f8f8f8\" stroke-width=\"0.5\">",
            X, Y, W, Options.RowHeightPx - 1, toHexColor(Color).c_str());
    appendf(Out, "<title>%s</title></rect>", escapeXml(Tooltip).c_str());

    // Fit the label: ~6.6 px per character at font-size 11.
    size_t FitChars = static_cast<size_t>(W / 6.6);
    if (FitChars >= 3) {
      std::string Label = Name.size() > FitChars
                              ? Name.substr(0, FitChars - 2) + ".."
                              : Name;
      appendf(Out,
              "<text x=\"%.2f\" y=\"%.2f\" fill=\"#1a1a1a\">%s</text>",
              X + 2.0, Y + Options.RowHeightPx - 4.0,
              escapeXml(Label).c_str());
    }
    Out += "</g>\n";
  }
  Out += "</svg>\n";
  return Out;
}

} // namespace ev
