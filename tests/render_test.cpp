//===- tests/render_test.cpp - Visualization layer tests ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "render/AnsiRenderer.h"
#include "render/Color.h"
#include "render/CorrelatedView.h"
#include "render/DiffRenderer.h"
#include "render/FlameLayout.h"
#include "render/Histogram.h"
#include "render/HtmlRenderer.h"
#include "render/SvgRenderer.h"
#include "render/TreeTable.h"

#include "TestHelpers.h"
#include "analysis/Diff.h"
#include "analysis/Prune.h"
#include "workload/ReuseWorkload.h"

#include <gtest/gtest.h>

using namespace ev;

namespace {

NodeId findByName(const Profile &P, std::string_view Name) {
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    if (P.nameOf(Id) == Name)
      return Id;
  return InvalidNode;
}

} // namespace

//===----------------------------------------------------------------------===
// FlameLayout
//===----------------------------------------------------------------------===

TEST(FlameLayout, RootSpansFullWidth) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  ASSERT_FALSE(G.rects().empty());
  const FlameRect &Root = G.rects().front();
  EXPECT_EQ(Root.Node, P.root());
  EXPECT_DOUBLE_EQ(Root.X, 0.0);
  EXPECT_DOUBLE_EQ(Root.Width, 1.0);
  EXPECT_DOUBLE_EQ(G.totalValue(), 100.0);
}

TEST(FlameLayout, ChildrenNestWithinParents) {
  Profile P = test::makeRandomProfile(31);
  FlameGraph G(P, 0);
  // Index rects by node for parent lookup.
  std::vector<const FlameRect *> ByNode(P.nodeCount(), nullptr);
  for (const FlameRect &R : G.rects())
    ByNode[R.Node] = &R;
  for (const FlameRect &R : G.rects()) {
    if (R.Node == P.root())
      continue;
    const FlameRect *Parent = ByNode[P.node(R.Node).Parent];
    ASSERT_NE(Parent, nullptr);
    EXPECT_GE(R.X, Parent->X - 1e-12);
    EXPECT_LE(R.X + R.Width, Parent->X + Parent->Width + 1e-9);
    EXPECT_EQ(R.Depth, Parent->Depth + 1);
  }
}

TEST(FlameLayout, TopDownRectsCarryTheirNodesFrame) {
  Profile P = test::makeRandomProfile(31);
  FlameGraph G(P, 0);
  ASSERT_FALSE(G.rects().empty());
  for (const FlameRect &R : G.rects()) {
    EXPECT_EQ(R.Frame, P.frameRefs()[R.Node]);
    EXPECT_EQ(G.nameOf(R), P.nameOf(R.Node));
  }
}

TEST(FlameLayout, SiblingsDoNotOverlap) {
  Profile P = test::makeRandomProfile(32);
  FlameGraph G(P, 0);
  std::vector<const FlameRect *> ByNode(P.nodeCount(), nullptr);
  for (const FlameRect &R : G.rects())
    ByNode[R.Node] = &R;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
    double LastEnd = -1.0;
    // Sorted-by-value children still lay out left to right.
    std::vector<const FlameRect *> Kids;
    for (NodeId Child : P.node(Id).Children)
      if (ByNode[Child])
        Kids.push_back(ByNode[Child]);
    std::sort(Kids.begin(), Kids.end(),
              [](const FlameRect *A, const FlameRect *B) {
                return A->X < B->X;
              });
    for (const FlameRect *Kid : Kids) {
      EXPECT_GE(Kid->X, LastEnd - 1e-9);
      LastEnd = Kid->X + Kid->Width;
    }
  }
}

TEST(FlameLayout, SortByValuePutsWidestFirst) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  // compute (75) should lay out left of parse (20) under main.
  size_t ComputeIdx = G.rectIndexFor(findByName(P, "compute"));
  size_t ParseIdx = G.rectIndexFor(findByName(P, "parse"));
  ASSERT_NE(ComputeIdx, FlameGraph::npos);
  ASSERT_NE(ParseIdx, FlameGraph::npos);
  EXPECT_LT(G.rects()[ComputeIdx].X, G.rects()[ParseIdx].X);
}

TEST(FlameLayout, InsertionOrderWhenSortDisabled) {
  Profile P = test::makeFixedProfile();
  FlameLayoutOptions Opt;
  Opt.SortByValue = false;
  FlameGraph G(P, 0, Opt);
  size_t ComputeIdx = G.rectIndexFor(findByName(P, "compute"));
  size_t ParseIdx = G.rectIndexFor(findByName(P, "parse"));
  // parse was inserted first.
  EXPECT_LT(G.rects()[ParseIdx].X, G.rects()[ComputeIdx].X);
}

TEST(FlameLayout, MinWidthCullsSubtrees) {
  Profile P = test::makeFixedProfile();
  FlameLayoutOptions Opt;
  Opt.MinWidth = 0.3; // parse (0.2) and memcpy (0.25) fall under this.
  FlameGraph G(P, 0, Opt);
  EXPECT_GT(G.culledCount(), 0u);
  EXPECT_EQ(G.rectIndexFor(findByName(P, "parse")), FlameGraph::npos);
  EXPECT_NE(G.rectIndexFor(findByName(P, "kernel")), FlameGraph::npos);
}

TEST(FlameLayout, MaxDepthLimitsRows) {
  Profile P = test::makeFixedProfile();
  FlameLayoutOptions Opt;
  Opt.MaxDepth = 2;
  FlameGraph G(P, 0, Opt);
  EXPECT_EQ(G.depth(), 2u);
  for (const FlameRect &R : G.rects())
    EXPECT_LT(R.Depth, 2u);
}

TEST(FlameLayout, SearchHighlights) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  EXPECT_EQ(G.search("kernel"), 1u);
  size_t Idx = G.rectIndexFor(findByName(P, "kernel"));
  EXPECT_TRUE(G.rects()[Idx].Highlighted);
  EXPECT_EQ(G.search(""), 0u);
  EXPECT_FALSE(G.rects()[Idx].Highlighted);
}

TEST(FlameLayout, HitTestFindsRect) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  const FlameRect *Hit = G.rectAt(0.0, 0);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Node, P.root());
  EXPECT_EQ(G.rectAt(0.5, 99), nullptr);
}

TEST(FlameLayout, EmptyMetricYieldsNoRects) {
  ProfileBuilder B;
  B.addMetric("m", "count");
  Profile P = B.take();
  FlameGraph G(P, 0);
  EXPECT_TRUE(G.rects().empty());
  EXPECT_DOUBLE_EQ(G.totalValue(), 0.0);
}

//===----------------------------------------------------------------------===
// Color
//===----------------------------------------------------------------------===

TEST(Color, DeterministicPerModule) {
  Profile P = test::makeFixedProfile();
  const Frame &Kernel = P.frameOf(findByName(P, "kernel"));
  EXPECT_EQ(colorForFrame(P, Kernel), colorForFrame(P, Kernel));
}

TEST(Color, MissingSourceMappingDims) {
  Profile P = test::makeFixedProfile();
  // memcpy has no file/line mapping; kernel does.
  Rgb Dimmed = colorForFrame(P, P.frameOf(findByName(P, "memcpy")));
  Rgb Bright = colorForFrame(P, P.frameOf(findByName(P, "kernel")));
  EXPECT_LT(static_cast<int>(Dimmed.R) + Dimmed.G + Dimmed.B,
            static_cast<int>(Bright.R) + Bright.G + Bright.B);
}

TEST(Color, HexFormat) {
  EXPECT_EQ(toHexColor({0xAB, 0x00, 0x10}), "#ab0010");
}

TEST(Color, DiffColorsFamilies) {
  Rgb Hot = diffColor(DiffTag::Increased, 1.0);
  Rgb Cold = diffColor(DiffTag::Decreased, 1.0);
  EXPECT_GT(Hot.R, Hot.B);
  EXPECT_GT(Cold.B, Cold.R);
  Rgb Neutral = diffColor(DiffTag::Common, 0.0);
  EXPECT_EQ(Neutral.R, Neutral.G);
}

//===----------------------------------------------------------------------===
// SVG / ANSI
//===----------------------------------------------------------------------===

TEST(SvgRenderer, ContainsNamesAndTooltips) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  SvgOptions Opt;
  Opt.Title = "unit <test>";
  std::string Svg = renderSvg(G, Opt);
  EXPECT_NE(Svg.find("<svg"), std::string::npos);
  EXPECT_NE(Svg.find("kernel"), std::string::npos);
  EXPECT_NE(Svg.find("comp.cc:30"), std::string::npos); // Tooltip.
  EXPECT_NE(Svg.find("unit &lt;test&gt;"), std::string::npos); // Escaped.
  EXPECT_EQ(Svg.find("<script"), std::string::npos); // Static document.
}

TEST(SvgRenderer, HighlightUsesSearchColor) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  G.search("kernel");
  std::string Svg = renderSvg(G);
  EXPECT_NE(Svg.find(toHexColor(searchHighlightColor())),
            std::string::npos);
}

TEST(AnsiRenderer, PlainAsciiWhenColorOff) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  AnsiOptions Opt;
  Opt.Color = false;
  Opt.Columns = 60;
  std::string Text = renderAnsi(G, Opt);
  EXPECT_EQ(Text.find('\x1b'), std::string::npos);
  EXPECT_NE(Text.find("main"), std::string::npos);
  // One line per depth level.
  EXPECT_EQ(static_cast<unsigned>(std::count(Text.begin(), Text.end(),
                                             '\n')),
            G.depth());
}

TEST(AnsiRenderer, ColorEmitsEscapes) {
  Profile P = test::makeFixedProfile();
  FlameGraph G(P, 0);
  AnsiOptions Opt;
  Opt.Columns = 40;
  std::string Text = renderAnsi(G, Opt);
  EXPECT_NE(Text.find("\x1b[48;2;"), std::string::npos);
}

//===----------------------------------------------------------------------===
// TreeTable
//===----------------------------------------------------------------------===

TEST(TreeTable, CollapsedByDefault) {
  Profile P = test::makeFixedProfile();
  TreeTable Table(P);
  std::vector<TreeTableRow> Rows = Table.rows();
  ASSERT_EQ(Rows.size(), 1u); // Only ROOT visible.
  EXPECT_TRUE(Rows[0].Expandable);
  EXPECT_FALSE(Rows[0].Expanded);
}

TEST(TreeTable, ExpandRevealsChildren) {
  Profile P = test::makeFixedProfile();
  TreeTable Table(P);
  Table.expand(P.root());
  std::vector<TreeTableRow> Rows = Table.rows();
  EXPECT_EQ(Rows.size(), 2u); // ROOT + main.
  Table.expand(findByName(P, "main"));
  EXPECT_EQ(Table.rows().size(), 4u); // + compute, parse.
  Table.collapse(P.root());
  EXPECT_EQ(Table.rows().size(), 1u);
}

TEST(TreeTable, ExpandAllShowsEverything) {
  Profile P = test::makeFixedProfile();
  TreeTable Table(P);
  Table.expandAll();
  EXPECT_EQ(Table.rows().size(), P.nodeCount());
}

TEST(TreeTable, ChildrenSortedByFirstMetric) {
  Profile P = test::makeFixedProfile();
  TreeTable Table(P);
  Table.expandAll();
  std::vector<TreeTableRow> Rows = Table.rows();
  // Under main, compute (75) must precede parse (20).
  size_t ComputeAt = 0, ParseAt = 0;
  for (size_t I = 0; I < Rows.size(); ++I) {
    if (P.nameOf(Rows[I].Node) == "compute")
      ComputeAt = I;
    if (P.nameOf(Rows[I].Node) == "parse")
      ParseAt = I;
  }
  EXPECT_LT(ComputeAt, ParseAt);
}

TEST(TreeTable, ExpandHotPathReachesHottestLeaf) {
  Profile P = test::makeFixedProfile();
  TreeTable Table(P);
  NodeId Leaf = Table.expandHotPath(0);
  EXPECT_EQ(P.nameOf(Leaf), "kernel");
  // The hot path rows are now visible.
  bool KernelVisible = false;
  for (const TreeTableRow &Row : Table.rows())
    if (Row.Node == Leaf)
      KernelVisible = true;
  EXPECT_TRUE(KernelVisible);
}

TEST(TreeTable, RenderTextHasColumnsAndGlyphs) {
  Profile P = test::makeFixedProfile();
  TreeTable Table(P);
  Table.expandHotPath(0);
  std::string Text = Table.renderText();
  EXPECT_NE(Text.find("time (incl/excl)"), std::string::npos);
  EXPECT_NE(Text.find("[-]"), std::string::npos); // Expanded glyph.
  EXPECT_NE(Text.find("@comp.cc:30"), std::string::npos);
}

TEST(TreeTable, MaxRowsCaps) {
  Profile P = test::makeRandomProfile(41, 500);
  TreeTableOptions Opt;
  Opt.MaxRows = 10;
  TreeTable Table(P, Opt);
  Table.expandAll();
  EXPECT_LE(Table.rows().size(), 10u);
}

//===----------------------------------------------------------------------===
// Histogram
//===----------------------------------------------------------------------===

TEST(Histogram, RebinAverages) {
  std::vector<double> Series = {1, 1, 3, 3};
  std::vector<double> Binned = rebinSeries(Series, 2);
  ASSERT_EQ(Binned.size(), 2u);
  EXPECT_DOUBLE_EQ(Binned[0], 1.0);
  EXPECT_DOUBLE_EQ(Binned[1], 3.0);
  EXPECT_EQ(rebinSeries(Series, 8).size(), 4u); // No upsampling.
}

TEST(Histogram, AsciiShowsTrend) {
  std::vector<double> Rising;
  for (int I = 0; I < 50; ++I)
    Rising.push_back(I);
  HistogramOptions Opt;
  Opt.Unit = "bytes";
  std::string Text = renderHistogramAscii(Rising, Opt);
  EXPECT_NE(Text.find("rising (possible leak)"), std::string::npos);

  std::vector<double> Falling(Rising.rbegin(), Rising.rend());
  Text = renderHistogramAscii(Falling, Opt);
  EXPECT_NE(Text.find("falling (reclaimed)"), std::string::npos);

  std::vector<double> Flat(50, 10.0);
  Text = renderHistogramAscii(Flat, Opt);
  EXPECT_NE(Text.find("trend=flat"), std::string::npos);
}

TEST(Histogram, AsciiHandlesEmpty) {
  EXPECT_NE(renderHistogramAscii({}).find("empty"), std::string::npos);
}

TEST(Histogram, SvgHasBars) {
  std::string Svg = renderHistogramSvg({1, 2, 3});
  EXPECT_NE(Svg.find("<svg"), std::string::npos);
  EXPECT_GE(static_cast<int>(std::count(Svg.begin(), Svg.end(), '<')), 4);
}

//===----------------------------------------------------------------------===
// Diff rendering
//===----------------------------------------------------------------------===

TEST(DiffRenderer, TextCarriesTagsAndDeltas) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  NodeId KernelB = findByName(B, "kernel");
  B = test::withValue(B, KernelB, 0, 80.0);
  DiffResult D = diffProfiles(A, B, 0);
  std::string Text = renderDiffText(D);
  EXPECT_NE(Text.find("[+] kernel"), std::string::npos);
  EXPECT_NE(Text.find("delta=+"), std::string::npos);
  EXPECT_NE(Text.find("base="), std::string::npos);
}

TEST(DiffRenderer, SvgShowsDeletedSubtrees) {
  Profile A = test::makeFixedProfile();
  Profile B = filterNodes(test::makeFixedProfile(),
                          [](const Profile &P, NodeId Id) {
                            return P.nameOf(Id) != "parse";
                          });
  DiffResult D = diffProfiles(A, B, 0);
  std::string Svg = renderDiffSvg(D);
  EXPECT_NE(Svg.find("[D]"), std::string::npos);
  EXPECT_NE(Svg.find("parse"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Correlated view
//===----------------------------------------------------------------------===

TEST(CorrelatedView, PanesPopulateLeftToRight) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  EXPECT_EQ(View.roleCount(), 3u);
  EXPECT_EQ(View.activeGroupCount(), W.P.groups().size());

  auto Pane0 = View.paneContexts(0);
  EXPECT_FALSE(Pane0.empty());
  // Pane 1 is gated on a selection in pane 0... it is reachable because
  // selection prefix length 0 allows pane 0 only.
  EXPECT_TRUE(View.paneContexts(1).empty());
}

TEST(CorrelatedView, SelectionFiltersGroups) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  auto Pane0 = View.paneContexts(0);
  ASSERT_FALSE(Pane0.empty());
  ASSERT_TRUE(View.select(0, Pane0.front().first));
  EXPECT_LT(View.activeGroupCount(), W.P.groups().size() + 1);
  auto Pane1 = View.paneContexts(1);
  ASSERT_FALSE(Pane1.empty());
  ASSERT_TRUE(View.select(1, Pane1.front().first));
  auto Pane2 = View.paneContexts(2);
  EXPECT_FALSE(Pane2.empty());
}

TEST(CorrelatedView, InvalidSelectionRejected) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  EXPECT_FALSE(View.select(2, 0)); // Pane 2 before pane 0.
  EXPECT_FALSE(View.select(0, 0)); // ROOT is not an allocation context.
}

TEST(CorrelatedView, ClearResetsSelection) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  auto Pane0 = View.paneContexts(0);
  ASSERT_TRUE(View.select(0, Pane0.front().first));
  View.clearFrom(0);
  EXPECT_TRUE(View.selection().empty());
  EXPECT_EQ(View.activeGroupCount(), W.P.groups().size());
}

TEST(CorrelatedView, PaneProfileCarriesCallPaths) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  Profile Pane = View.paneProfile(0);
  EXPECT_GT(Pane.nodeCount(), 1u);
  EXPECT_TRUE(Pane.verify().ok());
  // Allocation contexts keep their full call paths (main at the top).
  bool HasMain = false;
  for (NodeId Child : Pane.node(Pane.root()).Children)
    if (Pane.nameOf(Child) == "main")
      HasMain = true;
  EXPECT_TRUE(HasMain);
}

TEST(CorrelatedView, RenderTextListsPanes) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  std::string Text = View.renderText();
  EXPECT_NE(Text.find("pane 0"), std::string::npos);
  EXPECT_NE(Text.find("pane 2"), std::string::npos);
}

//===----------------------------------------------------------------------===
// HTML report & summary
//===----------------------------------------------------------------------===

TEST(HtmlReport, ContainsAllSections) {
  Profile P = test::makeFixedProfile();
  std::string Html = renderHtmlReport(P);
  EXPECT_NE(Html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(Html.find("Top-down flame graph"), std::string::npos);
  EXPECT_NE(Html.find("Bottom-up flame graph"), std::string::npos);
  EXPECT_NE(Html.find("Flat flame graph"), std::string::npos);
  EXPECT_NE(Html.find("Tree table"), std::string::npos);
  EXPECT_NE(Html.find("http"), std::string::npos); // Only the xmlns.
}

TEST(SummaryText, ListsMetricsAndHotspots) {
  Profile P = test::makeFixedProfile();
  std::string Text = renderSummaryText(P);
  EXPECT_NE(Text.find("contexts: 6"), std::string::npos);
  EXPECT_NE(Text.find("metric time"), std::string::npos);
  EXPECT_NE(Text.find("kernel"), std::string::npos);
}
