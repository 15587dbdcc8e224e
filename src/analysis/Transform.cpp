//===- analysis/Transform.cpp - Top-down/bottom-up/flat tree shapes -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Transform.h"

#include "analysis/MetricEngine.h"
#include "analysis/Traversal.h"
#include "profile/ProfileBuilder.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace ev {

Profile topDownTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/topDownTree", "analysis");
  ProfileBuilder Out(P.name());
  std::vector<MetricId> MetricMap = Out.addMetrics(P);

  // Frame table first, then nodes in id order (parents precede children).
  std::vector<FrameId> FrameMap(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I)
    FrameMap[I] = Out.importFrame(P, I);

  std::vector<NodeId> NodeMap(P.nodeCount(), InvalidNode);
  NodeMap[P.root()] = Out.root();
  Out.setFrame(Out.root(), FrameMap[P.node(P.root()).FrameRef]);
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    const CCTNode &Node = P.node(Id);
    NodeMap[Id] = Out.createNode(NodeMap[Node.Parent], FrameMap[Node.FrameRef]);
  }
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    for (const MetricValue &MV : P.node(Id).Metrics)
      Out.addValue(NodeMap[Id], MetricMap[MV.Metric], MV.Value);
  return Out.take();
}

Profile bottomUpTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/bottomUpTree", "analysis");
  ProfileBuilder Out(P.name() + " (bottom-up)");
  std::vector<MetricId> MetricMap = Out.addMetrics(P);
  std::vector<FrameId> FrameMap(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I)
    FrameMap[I] = Out.importFrame(P, I);

  // Contexts that carry a non-zero metric, in id order.
  std::vector<NodeId> Contributors;
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    bool AllZero = true;
    for (const MetricValue &MV : Node.Metrics)
      if (MV.Value != 0.0)
        AllZero = false;
    if (!Node.Metrics.empty() && !AllZero)
      Contributors.push_back(Id);
  }

  // Merge each contributor's reversed path (leaf frame first, callers
  // outward, stopping before the root) in id order.
  std::vector<FrameId> Path;
  for (size_t I = 0; I < Contributors.size(); ++I) {
    if ((I & 1023) == 0)
      Cancel.checkpoint();
    Path.clear();
    for (NodeId Walk = Contributors[I]; Walk != P.root();
         Walk = P.node(Walk).Parent)
      Path.push_back(FrameMap[P.node(Walk).FrameRef]);
    NodeId Cur = Out.root();
    for (FrameId F : Path)
      Cur = Out.child(Cur, F);
    for (const MetricValue &MV : P.node(Contributors[I]).Metrics)
      Out.addValue(Cur, MetricMap[MV.Metric], MV.Value);
  }
  return Out.take();
}

std::optional<Profile> flameShape(const Profile &P, std::string_view Shape,
                                  const CancelToken &Cancel) {
  if (Shape == "top-down")
    return P;
  if (Shape == "bottom-up")
    return bottomUpTree(P, Cancel);
  if (Shape == "flat")
    return flatTree(P, Cancel);
  return std::nullopt;
}

Profile flatTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/flatTree", "analysis");
  ProfileBuilder Out(P.name() + " (flat)");
  std::vector<MetricId> ExclMap = Out.addMetrics(P);
  // One extra column per metric holding the call-path-aware inclusive sum.
  std::vector<MetricId> InclMap(P.metrics().size());
  for (MetricId I = 0; I < P.metrics().size(); ++I) {
    const MetricDescriptor &M = P.metrics()[I];
    InclMap[I] = Out.addMetric(M.Name + " (inclusive)", M.Unit, M.Aggregation);
  }

  // All inclusive columns in one fused sweep instead of one pass per metric.
  std::vector<std::vector<double>> Inclusive = inclusiveColumns(P);

  // The module/file/function frames a context expands to depend only on its
  // frame, so materialize them once per distinct frame instead of once per
  // CCT node.
  struct FlatRefs {
    FrameId Module;
    FrameId File;
    FrameId Func;
  };
  std::vector<FlatRefs> Refs(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I) {
    const Frame &F = P.frame(I);
    StringId ModuleText = Out.intern(P.text(F.Loc.Module));
    StringId FileText = Out.intern(P.text(F.Loc.File));
    Refs[I].Module = Out.internFrame(
        {FrameKind::Function,
         P.text(F.Loc.Module).empty() ? Out.intern("<unknown module>")
                                      : ModuleText,
         SourceLocation{0, 0, ModuleText, 0}});
    Refs[I].File = Out.internFrame(
        {FrameKind::Function,
         P.text(F.Loc.File).empty() ? Out.intern("<unknown file>") : FileText,
         SourceLocation{FileText, 0, ModuleText, 0}});
    Refs[I].Func = Out.importFrame(P, F);
  }

  // Count of occurrences of each function frame along the current DFS path,
  // so that recursive functions contribute their inclusive value only once
  // (outermost occurrence).
  std::unordered_map<FrameId, unsigned> ActiveFrames;

  // Iterative DFS with explicit enter/leave events.
  struct Event {
    NodeId Id;
    bool Enter;
  };
  std::vector<Event> Stack{{P.root(), true}};
  size_t Visited = 0;
  while (!Stack.empty()) {
    if ((Visited++ & 8191) == 0)
      Cancel.checkpoint();
    Event E = Stack.back();
    Stack.pop_back();
    const CCTNode &Node = P.node(E.Id);
    if (!E.Enter) {
      if (E.Id != P.root())
        --ActiveFrames[Node.FrameRef];
      continue;
    }
    if (E.Id != P.root()) {
      // Materialize root -> module -> file -> function from the per-frame
      // precomputed refs.
      const FlatRefs &R = Refs[Node.FrameRef];
      NodeId ModuleNode = Out.child(Out.root(), R.Module);
      NodeId FileNode = Out.child(ModuleNode, R.File);
      NodeId FuncNode = Out.child(FileNode, R.Func);

      unsigned &Depth = ActiveFrames[Node.FrameRef];
      for (const MetricValue &MV : Node.Metrics)
        Out.addValue(FuncNode, ExclMap[MV.Metric], MV.Value);
      if (Depth == 0)
        for (MetricId M = 0; M < P.metrics().size(); ++M)
          if (Inclusive[M][E.Id] != 0.0)
            Out.addValue(FuncNode, InclMap[M], Inclusive[M][E.Id]);
      ++Depth;
      Stack.push_back({E.Id, false});
    }
    for (size_t I = Node.Children.size(); I > 0; --I)
      Stack.push_back({Node.Children[I - 1], true});
  }
  return Out.take();
}

Profile collapseRecursion(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/collapseRecursion", "analysis");
  ProfileBuilder Out(P.name());
  std::vector<MetricId> MetricMap = Out.addMetrics(P);
  std::vector<FrameId> FrameMap(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I)
    FrameMap[I] = Out.importFrame(P, I);

  // Map each source node to its (possibly merged) output node. A child with
  // the same frame as its parent collapses into the parent's output node.
  std::vector<NodeId> OutNode(P.nodeCount(), InvalidNode);
  OutNode[P.root()] = Out.root();
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    const CCTNode &Node = P.node(Id);
    NodeId ParentOut = OutNode[Node.Parent];
    if (Node.Parent != P.root() &&
        P.node(Node.Parent).FrameRef == Node.FrameRef) {
      OutNode[Id] = ParentOut; // Self-recursive frame: merge.
    } else {
      OutNode[Id] = Out.child(ParentOut, FrameMap[Node.FrameRef]);
    }
    for (const MetricValue &MV : Node.Metrics)
      Out.addValue(OutNode[Id], MetricMap[MV.Metric], MV.Value);
  }
  for (const MetricValue &MV : P.node(P.root()).Metrics)
    Out.addValue(Out.root(), MetricMap[MV.Metric], MV.Value);
  return Out.take();
}

Profile limitDepth(const Profile &P, unsigned MaxDepth) {
  ProfileBuilder Out(P.name());
  std::vector<MetricId> MetricMap = Out.addMetrics(P);
  std::vector<FrameId> FrameMap(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I)
    FrameMap[I] = Out.importFrame(P, I);

  std::vector<NodeId> OutNode(P.nodeCount(), InvalidNode);
  std::vector<unsigned> Depth(P.nodeCount(), 0);
  OutNode[P.root()] = Out.root();
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    Depth[Id] = Depth[Node.Parent] + 1;
    if (Depth[Id] > MaxDepth) {
      OutNode[Id] = OutNode[Node.Parent]; // Fold into the deepest ancestor.
    } else {
      OutNode[Id] =
          Out.createNode(OutNode[Node.Parent], FrameMap[Node.FrameRef]);
    }
    for (const MetricValue &MV : Node.Metrics)
      Out.addValue(OutNode[Id], MetricMap[MV.Metric], MV.Value);
  }
  for (const MetricValue &MV : P.node(P.root()).Metrics)
    Out.addValue(Out.root(), MetricMap[MV.Metric], MV.Value);
  return Out.take();
}

} // namespace ev
