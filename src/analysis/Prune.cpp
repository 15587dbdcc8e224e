//===- analysis/Prune.cpp - Node pruning and filtering --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Prune.h"

#include "analysis/MetricEngine.h"
#include "profile/ProfileBuilder.h"

#include <cmath>
#include <vector>

namespace ev {

Profile pruneByFraction(const Profile &P, MetricId Metric,
                        double MinFraction) {
  std::vector<double> Inclusive = inclusiveColumn(P, Metric);
  double Threshold = std::abs(Inclusive.empty() ? 0.0 : Inclusive[0]) *
                     MinFraction;

  ProfileBuilder Out(P.name());
  std::vector<MetricId> MetricMap = Out.addMetrics(P);

  // Kept[i]: the node survives. A node survives when its inclusive value
  // meets the threshold; descendants of a pruned node are implicitly
  // pruned because we only visit children of surviving nodes.
  std::vector<NodeId> OutNode(P.nodeCount(), InvalidNode);
  OutNode[P.root()] = Out.root();
  for (const MetricValue &MV : P.node(P.root()).Metrics)
    Out.addValue(Out.root(), MetricMap[MV.Metric], MV.Value);

  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    if (OutNode[Node.Parent] == InvalidNode)
      continue; // Ancestor already pruned.
    if (std::abs(Inclusive[Id]) < Threshold) {
      // Fold the whole subtree's inclusive value into the parent exclusive.
      if (Inclusive[Id] != 0.0)
        Out.addValue(OutNode[Node.Parent], MetricMap[Metric], Inclusive[Id]);
      continue;
    }
    OutNode[Id] = Out.createNode(OutNode[Node.Parent],
                                 Out.importFrame(P, Node.FrameRef));
    for (const MetricValue &MV : Node.Metrics)
      Out.addValue(OutNode[Id], MetricMap[MV.Metric], MV.Value);
  }
  return Out.take();
}

Profile filterNodes(
    const Profile &P,
    const std::function<bool(const Profile &, NodeId)> &Keep) {
  ProfileBuilder Out(P.name());
  std::vector<MetricId> MetricMap = Out.addMetrics(P);

  // Ancestor[i]: output node that node i (or its nearest surviving
  // ancestor) maps to.
  std::vector<NodeId> Ancestor(P.nodeCount(), InvalidNode);
  Ancestor[P.root()] = Out.root();
  for (const MetricValue &MV : P.node(P.root()).Metrics)
    Out.addValue(Out.root(), MetricMap[MV.Metric], MV.Value);

  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    NodeId ParentOut = Ancestor[Node.Parent];
    if (Keep(P, Id)) {
      // Note: siblings elided earlier may have re-attached children here;
      // merging by frame keeps the output a proper CCT.
      NodeId Created = Out.child(ParentOut, Out.importFrame(P, Node.FrameRef));
      Ancestor[Id] = Created;
      for (const MetricValue &MV : Node.Metrics)
        Out.addValue(Created, MetricMap[MV.Metric], MV.Value);
    } else {
      Ancestor[Id] = ParentOut;
      for (const MetricValue &MV : Node.Metrics)
        Out.addValue(ParentOut, MetricMap[MV.Metric], MV.Value);
    }
  }
  return Out.take();
}

} // namespace ev
