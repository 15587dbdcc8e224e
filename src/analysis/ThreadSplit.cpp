//===- analysis/ThreadSplit.cpp - Per-thread profile separation -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ThreadSplit.h"

#include "analysis/Transform.h"
#include "profile/ProfileBuilder.h"

#include <vector>

namespace ev {

bool hasThreadLanes(const Profile &P) {
  for (NodeId Child : P.node(P.root()).Children)
    if (P.frameOf(Child).Kind == FrameKind::Thread)
      return true;
  return false;
}

namespace {

/// Copies the subtrees under \p From's children into \p Out below
/// \p Target, depth first (last child first), keeping every node.
void copySubtrees(const Profile &P, NodeId From, ProfileBuilder &Out,
                  NodeId Target) {
  std::vector<std::pair<NodeId, NodeId>> Work; // (source, targetParent)
  for (NodeId Child : P.node(From).Children)
    Work.emplace_back(Child, Target);
  while (!Work.empty()) {
    auto [Src, TargetParent] = Work.back();
    Work.pop_back();
    NodeId New = Out.createNode(TargetParent, Out.importFrame(P, P.frameOf(Src)));
    for (const MetricValue &MV : P.node(Src).Metrics)
      Out.addValue(New, MV.Metric, MV.Value);
    for (NodeId Child : P.node(Src).Children)
      Work.emplace_back(Child, New);
  }
}

/// Copies the subtree rooted at \p From (its children; \p From's own
/// frame is dropped — the lane node becomes the new root) into a fresh
/// profile.
Profile extractLane(const Profile &P, NodeId From, std::string Name) {
  ProfileBuilder Out(std::move(Name));
  Out.addMetrics(P);
  for (const MetricValue &MV : P.node(From).Metrics)
    Out.addValue(Out.root(), MV.Metric, MV.Value);
  copySubtrees(P, From, Out, Out.root());
  return Out.take();
}

} // namespace

std::vector<Profile> splitByThread(const Profile &P) {
  std::vector<Profile> Out;
  if (!hasThreadLanes(P)) {
    Out.push_back(topDownTree(P));
    return Out;
  }

  bool HasStray = !P.node(P.root()).Metrics.empty();
  std::vector<NodeId> StrayRoots;
  for (NodeId Child : P.node(P.root()).Children) {
    if (P.frameOf(Child).Kind == FrameKind::Thread) {
      Out.push_back(
          extractLane(P, Child, std::string(P.nameOf(Child))));
      continue;
    }
    StrayRoots.push_back(Child);
    HasStray = true;
  }
  if (HasStray) {
    // Collect everything outside thread lanes under one profile.
    ProfileBuilder Stray("(no thread)");
    Stray.addMetrics(P);
    for (const MetricValue &MV : P.node(P.root()).Metrics)
      Stray.addValue(Stray.root(), MV.Metric, MV.Value);
    for (NodeId Root : StrayRoots) {
      Profile Lane = extractLane(P, Root, "(no thread)");
      // Graft the lane's content under Stray's root, keeping the stray
      // node itself (extractLane drops the lane node, so re-add it).
      NodeId Grafted =
          Stray.createNode(Stray.root(), Stray.importFrame(P, P.frameOf(Root)));
      for (const MetricValue &MV : P.node(Root).Metrics)
        Stray.addValue(Grafted, MV.Metric, MV.Value);
      // Re-walk the lane copy (skip its synthetic root).
      copySubtrees(Lane, Lane.root(), Stray, Grafted);
    }
    if (Stray.nodeCount() > 1 || Stray.hasValues(Stray.root()))
      Out.push_back(Stray.take());
  }
  return Out;
}

} // namespace ev
