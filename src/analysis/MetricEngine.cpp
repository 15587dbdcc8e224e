//===- analysis/MetricEngine.cpp - Inclusive/exclusive metric math --------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/MetricEngine.h"

#include <algorithm>

namespace ev {

std::vector<double> exclusiveColumn(const Profile &P, MetricId Metric) {
  std::vector<double> Column(P.nodeCount(), 0.0);
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    Column[Id] = P.node(Id).metricOr(Metric);
  return Column;
}

std::vector<double> inclusiveColumn(const Profile &P, MetricId Metric) {
  std::vector<double> Column = exclusiveColumn(P, Metric);
  // Nodes are created parents-first (Profile::createNode guarantees
  // Parent < Id), so one reverse sweep accumulates children into parents.
  for (NodeId Id = static_cast<NodeId>(P.nodeCount()); Id > 1;) {
    --Id;
    Column[P.node(Id).Parent] += Column[Id];
  }
  return Column;
}

std::vector<std::vector<double>> inclusiveColumns(const Profile &P) {
  std::vector<std::vector<double>> Columns(
      P.metrics().size(), std::vector<double>(P.nodeCount(), 0.0));
  // Scatter the sparse per-node metric lists into dense columns: one walk
  // over the node table total, not one per metric.
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    for (const MetricValue &MV : P.node(Id).Metrics)
      if (MV.Metric < Columns.size())
        Columns[MV.Metric][Id] += MV.Value;
  // Post-order accumulation, one sweep per column (ids are parents-first).
  for (std::vector<double> &Column : Columns)
    for (NodeId Id = static_cast<NodeId>(P.nodeCount()); Id > 1;) {
      --Id;
      Column[P.node(Id).Parent] += Column[Id];
    }
  return Columns;
}

double metricTotal(const Profile &P, MetricId Metric) {
  double Total = 0.0;
  for (const CCTNode &Node : P.nodes())
    Total += Node.metricOr(Metric);
  return Total;
}

std::vector<HotNode> hottestExclusive(const Profile &P, MetricId Metric,
                                      size_t Limit) {
  std::vector<HotNode> All;
  All.reserve(P.nodeCount());
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
    double Value = P.node(Id).metricOr(Metric);
    if (Value != 0.0)
      All.push_back({Id, Value});
  }
  auto ByValueDesc = [](const HotNode &A, const HotNode &B) {
    if (A.Value != B.Value)
      return A.Value > B.Value;
    return A.Node < B.Node;
  };
  if (All.size() > Limit) {
    std::partial_sort(All.begin(), All.begin() + static_cast<long>(Limit),
                      All.end(), ByValueDesc);
    All.resize(Limit);
  } else {
    std::sort(All.begin(), All.end(), ByValueDesc);
  }
  return All;
}

std::vector<uint32_t> depthColumn(const Profile &P) {
  return depthsFromParents(P.parents());
}

std::vector<uint32_t> childCountColumn(const Profile &P) {
  std::vector<uint32_t> Counts(P.nodeCount(), 0);
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    Counts[Id] = static_cast<uint32_t>(P.node(Id).Children.size());
  return Counts;
}

MetricView::MetricView(const Profile &P, MetricId Metric)
    : Metric(Metric), Exclusive(ev::exclusiveColumn(P, Metric)),
      Inclusive(Exclusive) {
  for (NodeId Id = static_cast<NodeId>(P.nodeCount()); Id > 1;) {
    --Id;
    Inclusive[P.node(Id).Parent] += Inclusive[Id];
  }
}

} // namespace ev
