//===- render/FlameLayout.cpp - Flame graph geometry engine ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "render/FlameLayout.h"

#include "analysis/MetricEngine.h"
#include "support/Trace.h"

#include <algorithm>
#include <optional>

namespace ev {

namespace {

/// A profile as the tree it lays out: its own node ids and frames.
class ProfileTree {
public:
  struct Node {
    NodeId Id;
    FrameId Frame;
    double Value; ///< Inclusive.
  };

  ProfileTree(const Profile &P, MetricId Metric)
      : P(P), Inclusive(inclusiveColumn(P, Metric)) {}

  Node root() const { return node(P.root()); }
  void children(const Node &N, std::vector<Node> &Out) const {
    Out.clear();
    for (NodeId Child : P.node(N.Id).Children)
      Out.push_back(node(Child));
  }

private:
  Node node(NodeId Id) const { return {Id, P.frameRefs()[Id], Inclusive[Id]}; }

  const Profile &P;
  std::vector<double> Inclusive;
};

} // namespace

FlameGraph::FlameGraph(const Profile &P, MetricId Metric,
                       FlameLayoutOptions Options)
    : P(&P), Metric(Metric), Options(Options) {
  trace::Span Span("render/flameLayout", "render");
  layout(ProfileTree(P, Metric));
}

FlameGraph::FlameGraph(const CallersTree &Tree, FlameLayoutOptions Options)
    : P(&Tree.profile()), Metric(Tree.metric()), Options(Options) {
  trace::Span Span("render/flameLayout", "render");
  layout(Tree);
}

template <typename Tree> void FlameGraph::layout(const Tree &T) {
  using Node = typename Tree::Node;
  Node Root = T.root();
  Total = Root.Value;
  if (Total <= 0.0)
    return;

  struct WorkItem {
    Node N;
    unsigned Depth;
    double X;
  };
  std::vector<WorkItem> Stack{{Root, 0, 0.0}};
  std::vector<Node> Ordered;
  // A colour depends only on the frame, and frames repeat across rects.
  std::vector<std::optional<Rgb>> FrameColor(P->frames().size());
  while (!Stack.empty()) {
    WorkItem W = Stack.back();
    Stack.pop_back();
    double Width = W.N.Value / Total;
    if (Width < Options.MinWidth) {
      ++Culled;
      continue;
    }
    FlameRect R;
    R.Node = W.N.Id;
    R.Frame = W.N.Frame;
    R.Depth = W.Depth;
    R.X = W.X;
    R.Width = Width;
    R.Value = W.N.Value;
    std::optional<Rgb> &Color = FrameColor[W.N.Frame];
    if (!Color)
      Color = colorForFrame(*P, P->frame(W.N.Frame));
    R.Color = *Color;
    Rects.push_back(R);
    Depth = std::max(Depth, W.Depth + 1);

    if (Options.MaxDepth && W.Depth + 1 >= Options.MaxDepth)
      continue;
    T.children(W.N, Ordered);
    if (Options.SortByValue)
      std::sort(Ordered.begin(), Ordered.end(),
                [](const Node &A, const Node &B) {
                  if (A.Value != B.Value)
                    return A.Value > B.Value;
                  return A.Id < B.Id;
                });
    // X advances left to right; the children's items are then reversed on
    // the stack so the widest lays out leftmost.
    size_t First = Stack.size();
    double ChildX = W.X;
    for (const Node &Child : Ordered) {
      Stack.push_back({Child, W.Depth + 1, ChildX});
      ChildX += Child.Value / Total;
    }
    std::reverse(Stack.begin() + static_cast<ptrdiff_t>(First), Stack.end());
  }
}

size_t FlameGraph::search(std::string_view Pattern) {
  size_t Matches = 0;
  for (FlameRect &R : Rects) {
    R.Highlighted = !Pattern.empty() &&
                    nameOf(R).find(Pattern) != std::string_view::npos;
    if (R.Highlighted)
      ++Matches;
  }
  return Matches;
}

const FlameRect *FlameGraph::rectAt(double X, unsigned AtDepth) const {
  for (const FlameRect &R : Rects)
    if (R.Depth == AtDepth && X >= R.X && X < R.X + R.Width)
      return &R;
  return nullptr;
}

size_t FlameGraph::rectIndexFor(NodeId Node) const {
  for (size_t I = 0; I < Rects.size(); ++I)
    if (Rects[I].Node == Node)
      return I;
  return npos;
}

} // namespace ev
