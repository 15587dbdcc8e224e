//===- render/HtmlRenderer.cpp - Self-contained HTML report ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "render/HtmlRenderer.h"

#include "analysis/MetricEngine.h"
#include "analysis/Transform.h"
#include "render/SvgRenderer.h"
#include "render/TreeTable.h"
#include "support/Strings.h"

namespace ev {

std::string renderSummaryText(const Profile &P) {
  std::string Out;
  Out += "profile: " + P.name() + "\n";
  Out += "contexts: " + std::to_string(P.nodeCount()) + "\n";
  Out += "frames: " + std::to_string(P.frames().size()) + "\n";
  Out += "context groups: " + std::to_string(P.groups().size()) + "\n";
  Out += "approx memory: " + formatBytes(
                                 static_cast<double>(P.approxMemoryBytes())) +
         "\n";
  for (MetricId M = 0; M < P.metrics().size(); ++M) {
    const MetricDescriptor &D = P.metrics()[M];
    Out += "metric " + D.Name + ": total " +
           formatMetric(metricTotal(P, M), D.Unit) + "\n";
    std::vector<HotNode> Hot = hottestExclusive(P, M, 3);
    for (const HotNode &H : Hot) {
      Out += "  hot: " + std::string(P.nameOf(H.Node)) + " (" +
             formatMetric(H.Value, D.Unit) + ")\n";
    }
  }
  return Out;
}

std::string renderHtmlReport(const Profile &P, const HtmlOptions &Options) {
  MetricId Metric =
      Options.Metric < P.metrics().size() ? Options.Metric : 0;
  std::string Out;
  Out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  Out += "<title>" + escapeXml(P.name()) + " — EasyView report</title>\n";
  Out += "<style>body{font-family:monospace;margin:16px;}"
         "h2{border-bottom:1px solid #ccc;}pre{background:#f4f4f4;"
         "padding:8px;}</style></head><body>\n";
  Out += "<h1>" + escapeXml(P.name()) + "</h1>\n";

  Out += "<h2>Summary</h2>\n<pre>" + escapeXml(renderSummaryText(P)) +
         "</pre>\n";

  SvgOptions Svg;
  Svg.WidthPx = Options.WidthPx;

  Out += "<h2>Top-down flame graph</h2>\n";
  {
    FlameGraph Graph(P, Metric);
    Svg.Title = "top-down";
    Out += renderSvg(Graph, Svg);
  }
  if (Options.IncludeBottomUp) {
    Out += "<h2>Bottom-up flame graph</h2>\n";
    FlameGraph Graph(CallersTree(P, Metric));
    Svg.Title = Svg.Shape = "bottom-up";
    Out += renderSvg(Graph, Svg);
  }
  if (Options.IncludeFlat) {
    Out += "<h2>Flat flame graph</h2>\n";
    Profile Flat = flatTree(P);
    MetricId M2 = Metric < Flat.metrics().size() ? Metric : 0;
    FlameGraph Graph(Flat, M2);
    Svg.Shape = "flat";
    Svg.Title = "flat (module / file / function)";
    Out += renderSvg(Graph, Svg);
  }
  if (Options.IncludeTreeTable) {
    Out += "<h2>Tree table (hot path expanded)</h2>\n";
    TreeTable Table(P);
    Table.expandHotPath(Metric);
    Out += "<pre>" + escapeXml(Table.renderText()) + "</pre>\n";
  }
  Out += "</body></html>\n";
  return Out;
}

} // namespace ev
