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
#include <span>
#include <string>
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

namespace {

/// A contributor: a context with a non-zero exclusive value.
bool contributes(const CCTNode &Node) {
  for (const MetricValue &MV : Node.Metrics)
    if (MV.Value != 0.0)
      return true;
  return false;
}

/// The callers tree of the contributors before any node exists. A node
/// two or more contributors pass through is *shared*; below the last
/// shared node on its path, each contributor has an unshared *tail* that
/// is the rest of its source path, read straight off the parents column.
struct CallerGroups {
  /// Stands for the output root where a shared node index is expected.
  static constexpr uint32_t Root = UINT32_MAX;

  /// Contexts that carry a non-zero metric, in id order.
  std::vector<NodeId> Contributors;
  /// Shared nodes in level order: the first contributor passing through,
  /// the parent shared node and the frame.
  std::vector<uint32_t> SharedFirst, SharedParent;
  std::vector<FrameId> SharedFrame;
  /// Per contributor: the shared node its tail hangs off (its leaf when
  /// the tail is empty), the source node the tail starts at (the source
  /// root when it is empty) and the tail's node count.
  std::vector<uint32_t> Anchor;
  std::vector<NodeId> TailStart;
  std::vector<uint32_t> TailLength;
  /// The shared nodes contributor I reaches first are
  /// ByFirst[FirstEnd[I]..FirstEnd[I + 1]), in level order.
  std::vector<uint32_t> FirstEnd, ByFirst;
};

/// Groups the contributors of \p P level by level. Level k refines every
/// group that still has two or more contributors climbing by the frame of
/// each one's k-th ancestor; a group with one contributor left climbing
/// becomes a shared node plus that contributor's tail. A profile's frames
/// are distinct, and so are its strings, so equal frame ids are exactly
/// equal frame texts.
CallerGroups groupCallers(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/callerGroups", "analysis");
  CallerGroups G;
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id)
    if (contributes(P.node(Id)))
      G.Contributors.push_back(Id);

  std::span<const NodeId> Parents = P.parents();
  std::span<const FrameId> FrameRefs = P.frameRefs();
  size_t Count = G.Contributors.size();
  G.Anchor.assign(Count, CallerGroups::Root);
  G.TailStart.assign(Count, P.root());

  // A group's members sit contiguously in contributor order, each with
  // its source node at the current level.
  struct Member {
    uint32_t Contributor;
    NodeId At;
  };
  struct Group {
    uint32_t Begin, End;
    uint32_t Shared; ///< The group's node: a shared index or Root.
  };
  // One subgroup per distinct frame of a group's members at this level.
  struct Subgroup {
    FrameId Frame;
    uint32_t First;        ///< Its first contributor.
    uint32_t Count = 0;    ///< Members whose path reaches this level.
    uint32_t Climbing = 0; ///< Members whose path goes on past it.
    uint32_t Shared = CallerGroups::Root;
    uint32_t Fill = 0; ///< Next free slot of its members one level up.
  };
  // Frame ids are dense: a slot per frame, valid while its stamp is the
  // current group's, so the array is never cleared.
  struct Slot {
    uint32_t Stamp = 0;
    uint32_t Subgroup = 0;
  };
  std::vector<Slot> Slots(P.frames().size());
  uint32_t Stamp = 0;

  // Both member arrays hold every contributor: a level never has more
  // members than the one before.
  std::vector<Member> Active(Count), Next(Count);
  for (uint32_t I = 0; I < Count; ++I)
    Active[I] = {I, G.Contributors[I]};
  std::vector<Group> Groups{
      {0, static_cast<uint32_t>(Count), CallerGroups::Root}},
      NextGroups;
  std::vector<uint32_t> SubgroupOf(Count);
  std::vector<Subgroup> Subs;
  while (!Groups.empty()) {
    Cancel.checkpoint();
    uint32_t NextSize = 0;
    for (const Group &Parent : Groups) {
      ++Stamp;
      Subs.clear();
      for (uint32_t I = Parent.Begin; I < Parent.End; ++I) {
        const Member &M = Active[I];
        FrameId F = FrameRefs[M.At];
        Slot &S = Slots[F];
        if (S.Stamp != Stamp) {
          S = {Stamp, static_cast<uint32_t>(Subs.size())};
          Subs.push_back({F, M.Contributor});
        }
        Subgroup &Sub = Subs[S.Subgroup];
        ++Sub.Count;
        Sub.Climbing += Parents[M.At] != P.root();
        SubgroupOf[I] = S.Subgroup;
      }
      for (Subgroup &Sub : Subs) {
        if (Sub.Count < 2)
          continue;
        Sub.Shared = static_cast<uint32_t>(G.SharedFrame.size());
        G.SharedFirst.push_back(Sub.First);
        G.SharedParent.push_back(Parent.Shared);
        G.SharedFrame.push_back(Sub.Frame);
        if (Sub.Climbing < 2)
          continue;
        Sub.Fill = NextSize;
        NextGroups.push_back({NextSize, NextSize + Sub.Climbing, Sub.Shared});
        NextSize += Sub.Climbing;
      }
      // A stable counting sort of the climbing members by subgroup; the
      // rest leave the loop here.
      for (uint32_t I = Parent.Begin; I < Parent.End; ++I) {
        const Member &M = Active[I];
        Subgroup &Sub = Subs[SubgroupOf[I]];
        NodeId Up = Parents[M.At];
        if (Sub.Count == 1) {
          G.Anchor[M.Contributor] = Parent.Shared;
          G.TailStart[M.Contributor] = M.At;
        } else if (Up == P.root() || Sub.Climbing == 1) {
          G.Anchor[M.Contributor] = Sub.Shared;
          G.TailStart[M.Contributor] = Up;
        } else {
          Next[Sub.Fill++] = {M.Contributor, Up};
        }
      }
    }
    std::swap(Active, Next);
    std::swap(Groups, NextGroups);
    NextGroups.clear();
  }

  // Bucket the shared nodes by first contributor; indices grow level by
  // level, so each bucket is in level order.
  G.FirstEnd.assign(Count + 1, 0);
  for (uint32_t First : G.SharedFirst)
    ++G.FirstEnd[First + 1];
  for (size_t I = 1; I <= Count; ++I)
    G.FirstEnd[I] += G.FirstEnd[I - 1];
  G.ByFirst.resize(G.SharedFirst.size());
  std::vector<uint32_t> Fill(G.FirstEnd.begin(), G.FirstEnd.end() - 1);
  for (uint32_t S = 0; S < G.SharedFirst.size(); ++S)
    G.ByFirst[Fill[G.SharedFirst[S]]++] = S;
  std::vector<uint32_t> Depths = depthsFromParents(Parents);
  G.TailLength.resize(Count);
  for (uint32_t I = 0; I < Count; ++I)
    G.TailLength[I] = Depths[G.TailStart[I]];
  return G;
}

} // namespace

Profile bottomUpTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/bottomUpTree", "analysis");
  ProfileBuilder Out(P.name() + " (bottom-up)");
  std::vector<MetricId> MetricMap = Out.addMetrics(P);
  Out.reserve(0, P.frames().size());
  Out.reserveStrings(P.strings().size(), P.strings().payloadBytes());
  std::vector<FrameId> FrameMap(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I)
    FrameMap[I] = Out.importFrame(P, I);
  CallerGroups G = groupCallers(P, Cancel);

  {
    trace::Span Emit("analysis/bottomUpTree.emit", "analysis");
    // Merging reversed paths one contributor at a time creates nodes in
    // (first contributor, depth) order: a contributor's new shared nodes
    // in level order, then its tail. Emitting in that order keeps the node
    // ids and bytes of that merge (tests/BottomUpOracle.cpp).
    size_t TailNodes = 0;
    for (uint32_t Length : G.TailLength)
      TailNodes += Length;
    Out.reserve(G.SharedFrame.size() + TailNodes, 0);

    std::span<const NodeId> Parents = P.parents();
    std::span<const FrameId> FrameRefs = P.frameRefs();
    std::vector<NodeId> SharedNode(G.SharedFrame.size());
    auto OutNode = [&](uint32_t Shared) {
      return Shared == CallerGroups::Root ? Out.root() : SharedNode[Shared];
    };
    for (uint32_t I = 0; I < G.Contributors.size(); ++I) {
      if ((I & 1023) == 0)
        Cancel.checkpoint();
      for (uint32_t B = G.FirstEnd[I]; B < G.FirstEnd[I + 1]; ++B) {
        uint32_t S = G.ByFirst[B];
        SharedNode[S] = Out.createNode(OutNode(G.SharedParent[S]),
                                       FrameMap[G.SharedFrame[S]]);
      }
      NodeId Leaf = OutNode(G.Anchor[I]);
      for (NodeId At = G.TailStart[I]; At != P.root(); At = Parents[At])
        Leaf = Out.createNode(Leaf, FrameMap[FrameRefs[At]]);
      for (const MetricValue &MV : P.node(G.Contributors[I]).Metrics)
        Out.addValue(Leaf, MetricMap[MV.Metric], MV.Value);
    }
  }
  trace::Span Freeze("analysis/bottomUpTree.freeze", "analysis");
  return Out.take();
}

CallersTree::CallersTree(const Profile &P, MetricId Metric,
                         const CancelToken &Cancel)
    : P(&P), Metric(Metric) {
  trace::Span Span("analysis/callersTree", "analysis");
  CallerGroups G = groupCallers(P, Cancel);
  trace::Span Values("analysis/callersTree.values", "analysis");
  uint32_t Count = static_cast<uint32_t>(G.Contributors.size());
  size_t SharedCount = G.SharedFrame.size();

  // Node ids as bottomUpTree's emit loop hands them out: contributor I's
  // new shared nodes in level order, then its tail.
  std::vector<NodeId> SharedId(SharedCount), TailId(Count);
  NodeId NextId = 1;
  for (uint32_t I = 0; I < Count; ++I) {
    for (uint32_t B = G.FirstEnd[I]; B < G.FirstEnd[I + 1]; ++B)
      SharedId[G.ByFirst[B]] = NextId++;
    TailId[I] = NextId;
    NextId += G.TailLength[I];
  }

  // Exclusive values, added in contributor order as addValue adds them:
  // the first value is kept as is, later ones are added to it. A tail's
  // last node holds its contributor's values; a shared node holds those of
  // the contributors whose path ends there.
  std::vector<double> SharedValue(SharedCount, 0.0);
  std::vector<uint8_t> SharedHas(SharedCount, 0);
  TailValue.assign(Count, 0.0);
  for (uint32_t I = 0; I < Count; ++I) {
    if ((I & 1023) == 0)
      Cancel.checkpoint();
    uint8_t TailHas = 0;
    bool InTail = G.TailLength[I] != 0;
    double &Sum = InTail ? TailValue[I] : SharedValue[G.Anchor[I]];
    uint8_t &Has = InTail ? TailHas : SharedHas[G.Anchor[I]];
    for (const MetricValue &MV : P.node(G.Contributors[I]).Metrics)
      if (MV.Metric == Metric) {
        Sum = Has ? Sum + MV.Value : MV.Value;
        Has = 1;
      }
  }

  // Inclusive values as inclusiveColumn sums them: the exclusive value,
  // then the children in descending id order. Contributors in reverse,
  // each one's tail before its new shared nodes and those deepest first,
  // visit the nodes in that order.
  auto InclusiveOf = [&](uint32_t Shared) -> double & {
    return Shared == Root ? Total : SharedValue[Shared];
  };
  for (uint32_t I = Count; I-- > 0;) {
    if ((I & 1023) == 0)
      Cancel.checkpoint();
    if (G.TailLength[I] != 0)
      InclusiveOf(G.Anchor[I]) +=
          tailNode(I, G.TailStart[I], TailId[I]).Value;
    for (uint32_t B = G.FirstEnd[I + 1]; B-- > G.FirstEnd[I];) {
      uint32_t S = G.ByFirst[B];
      InclusiveOf(G.SharedParent[S]) += SharedValue[S];
    }
  }

  // Child lists in id order: a shared node's children are the shared nodes
  // whose parent it is and the first tail node of each contributor
  // anchored at it.
  KidsEnd.assign(SharedCount + 2, 0);
  for (uint32_t Parent : G.SharedParent)
    ++KidsEnd[slotOf(Parent) + 1];
  for (uint32_t I = 0; I < Count; ++I)
    if (G.TailLength[I] != 0)
      ++KidsEnd[slotOf(G.Anchor[I]) + 1];
  for (size_t S = 1; S < KidsEnd.size(); ++S)
    KidsEnd[S] += KidsEnd[S - 1];
  Kids.resize(KidsEnd.back());
  std::vector<uint32_t> Fill(KidsEnd.begin(), KidsEnd.end() - 1);
  for (uint32_t I = 0; I < Count; ++I) {
    for (uint32_t B = G.FirstEnd[I]; B < G.FirstEnd[I + 1]; ++B) {
      uint32_t S = G.ByFirst[B];
      Kids[Fill[slotOf(G.SharedParent[S])]++] = {
          SharedId[S], G.SharedFrame[S], SharedValue[S], S, InvalidNode};
    }
    if (G.TailLength[I] != 0)
      Kids[Fill[slotOf(G.Anchor[I])]++] =
          tailNode(I, G.TailStart[I], TailId[I]);
  }
}

CallersTree::Node CallersTree::root() const {
  return {P->root(), 0, Total, Root, InvalidNode};
}

CallersTree::Node CallersTree::tailNode(uint32_t Contributor, NodeId At,
                                        NodeId Id) const {
  // Only a tail's last node holds a value; the nodes above it add it to
  // their own exclusive 0.
  double Value = TailValue[Contributor];
  if (P->parents()[At] != P->root())
    Value = 0.0 + Value;
  return {Id, P->frameRefs()[At], Value, Contributor, At};
}

void CallersTree::children(const Node &N, std::vector<Node> &Out) const {
  Out.clear();
  if (N.At == InvalidNode) {
    uint32_t Slot = slotOf(N.Index);
    Out.assign(Kids.begin() + KidsEnd[Slot], Kids.begin() + KidsEnd[Slot + 1]);
  } else if (NodeId Up = P->parents()[N.At]; Up != P->root()) {
    Out.push_back(tailNode(N.Index, Up, N.Id + 1));
  }
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
  std::vector<unsigned> ActiveFrames(P.frames().size(), 0);

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
