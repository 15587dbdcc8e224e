//===- tests/BottomUpOracle.cpp - Path-merging bottom-up tree -------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "BottomUpOracle.h"

#include "profile/ProfileBuilder.h"

#include <vector>

namespace ev {
namespace oracle {

Profile bottomUpTree(const Profile &P) {
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
  for (NodeId Contributor : Contributors) {
    Path.clear();
    for (NodeId Walk = Contributor; Walk != P.root();
         Walk = P.node(Walk).Parent)
      Path.push_back(FrameMap[P.node(Walk).FrameRef]);
    NodeId Cur = Out.root();
    for (FrameId F : Path)
      Cur = Out.child(Cur, F);
    for (const MetricValue &MV : P.node(Contributor).Metrics)
      Out.addValue(Cur, MetricMap[MV.Metric], MV.Value);
  }
  return Out.take();
}

} // namespace oracle
} // namespace ev
