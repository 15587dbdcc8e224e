//===- analysis/Aggregate.cpp - Multi-profile aggregation -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Aggregate.h"

#include "profile/ProfileBuilder.h"
#include "support/Trace.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <string_view>

namespace ev {

std::vector<double>
AggregatedProfile::perProfileExclusive(NodeId Node, MetricId Metric) const {
  auto It = KeyIndex.find(sampleKey(Node, Metric));
  if (It == KeyIndex.end())
    return {};
  const double *Row = Matrix.data() + size_t(It->second) * ProfileCount;
  return std::vector<double>(Row, Row + ProfileCount);
}

void AggregatedProfile::ensureInclusive() const {
  if (InclusiveReady)
    return;
  InclusiveColumns.assign(InputMetricCount * ProfileCount,
                          std::vector<double>(Merged.nodeCount(), 0.0));
  for (size_t R = 0; R < KeyOrder.size(); ++R) {
    uint64_t Key = KeyOrder[R];
    NodeId Node = static_cast<NodeId>(Key >> 16);
    MetricId Metric = static_cast<MetricId>(Key & 0xFFFF);
    if (Metric >= InputMetricCount)
      continue; // Derived columns do not have per-profile samples.
    for (size_t Prof = 0; Prof < ProfileCount; ++Prof)
      InclusiveColumns[Metric * ProfileCount + Prof][Node] +=
          Matrix[R * ProfileCount + Prof];
  }
  // Bottom-up accumulation; node ids are parents-first.
  for (std::vector<double> &Column : InclusiveColumns)
    for (NodeId Id = static_cast<NodeId>(Merged.nodeCount()); Id > 1;) {
      --Id;
      Column[Merged.node(Id).Parent] += Column[Id];
    }
  InclusiveReady = true;
}

std::vector<double>
AggregatedProfile::perProfileInclusive(NodeId Node, MetricId Metric) const {
  assert(Metric < InputMetricCount && "derived columns have no histogram");
  ensureInclusive();
  std::vector<double> Out(ProfileCount, 0.0);
  for (size_t Prof = 0; Prof < ProfileCount; ++Prof)
    Out[Prof] = InclusiveColumns[Metric * ProfileCount + Prof][Node];
  return Out;
}

std::vector<NodeId> mergeTree(ProfileBuilder &Into, const Profile &P,
                              const CancelToken &Cancel) {
  constexpr FrameId Unmapped = std::numeric_limits<FrameId>::max();
  std::vector<FrameId> FrameMap(P.frames().size(), Unmapped);
  std::vector<NodeId> OutNode(P.nodeCount(), InvalidNode);
  OutNode[P.root()] = Into.root();
  // Parents come first in node order, so each parent is already mapped.
  std::span<const NodeId> Parents = P.parents();
  std::span<const FrameId> FrameRefs = P.frameRefs();
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    FrameId &Frame = FrameMap[FrameRefs[Id]];
    // Addresses are run-specific (ASLR): identity is textual only.
    if (Frame == Unmapped)
      Frame = Into.importFrame(P, FrameRefs[Id], ProfileBuilder::Address::Zero);
    OutNode[Id] = Into.child(OutNode[Parents[Id]], Frame);
  }
  return OutNode;
}

AggregatedProfile aggregate(std::span<const Profile *const> Inputs,
                            const AggregateOptions &Options,
                            const CancelToken &Cancel) {
  trace::Span Span("analysis/aggregate", "analysis");
  assert(!Inputs.empty() && "aggregate requires at least one profile");
  AggregatedProfile Agg;
  Agg.ProfileCount = Inputs.size();
  const Profile &First = *Inputs[0];
  size_t InputMetricCount = First.metrics().size();
  Agg.InputMetricCount = InputMetricCount;
  assert(InputMetricCount < 0xFFFF && "metric id space exhausted");
  std::unordered_map<uint64_t, uint32_t> &KeyIndex = Agg.KeyIndex;
  std::vector<uint64_t> &KeyOrder = Agg.KeyOrder;
  std::vector<double> &Matrix = Agg.Matrix;

  ProfileBuilder Merged("aggregate of " + std::to_string(Inputs.size()) +
                        " profiles");

  // Column layout: first the input metrics (holding the per-node SUM when
  // WithSum, otherwise zeros), then the derived statistics.
  std::vector<MetricId> SumIds(InputMetricCount);
  std::vector<MetricId> MinIds, MaxIds, MeanIds, StddevIds;
  for (MetricId I = 0; I < InputMetricCount; ++I) {
    const MetricDescriptor &M = First.metrics()[I];
    SumIds[I] = Merged.addMetric(M.Name, M.Unit, M.Aggregation);
  }
  for (MetricId I = 0; I < InputMetricCount; ++I) {
    const std::string &Name = First.metrics()[I].Name;
    std::string_view Unit = First.metrics()[I].Unit;
    if (Options.WithMin)
      MinIds.push_back(
          Merged.addMetric(Name + ".min", Unit, MetricAggregation::Min));
    if (Options.WithMax)
      MaxIds.push_back(
          Merged.addMetric(Name + ".max", Unit, MetricAggregation::Max));
    if (Options.WithMean)
      MeanIds.push_back(
          Merged.addMetric(Name + ".mean", Unit, MetricAggregation::Sum));
    if (Options.WithStddev)
      StddevIds.push_back(
          Merged.addMetric(Name + ".stddev", Unit, MetricAggregation::Sum));
  }

  // Map each input's metric schema onto the first profile's columns.
  std::vector<std::vector<MetricId>> MetricMaps(Inputs.size());
  for (size_t ProfIdx = 0; ProfIdx < Inputs.size(); ++ProfIdx) {
    const Profile &P = *Inputs[ProfIdx];
    MetricMaps[ProfIdx].assign(P.metrics().size(), Profile::InvalidMetric);
    for (MetricId I = 0; I < P.metrics().size(); ++I)
      MetricMaps[ProfIdx][I] = First.findMetric(P.metrics()[I].Name);
  }

  // Phase 1: merge every input tree into the unified tree, profile by
  // profile and node by node. Children are matched by textual frame
  // identity under the same merged parent.
  std::vector<std::vector<NodeId>> OutNodes(Inputs.size());
  // One sub-phase span at a time: emplace closes the previous one.
  std::optional<trace::Span> Phase;
  Phase.emplace("analysis/aggregate.merge", "analysis");
  for (size_t ProfIdx = 0; ProfIdx < Inputs.size(); ++ProfIdx)
    OutNodes[ProfIdx] = mergeTree(Merged, *Inputs[ProfIdx], Cancel);

  // Phase 2: discover the (node, metric) key set in profile then node
  // order, assigning each key a stable dense row of the row-major matrix,
  // and accumulate every sample into its profile's column of that row.
  Phase.emplace("analysis/aggregate.matrix", "analysis");
  size_t N = Inputs.size();
  for (size_t ProfIdx = 0; ProfIdx < Inputs.size(); ++ProfIdx) {
    const Profile &P = *Inputs[ProfIdx];
    const std::vector<MetricId> &MetricMap = MetricMaps[ProfIdx];
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
      if ((Id & 8191) == 0)
        Cancel.checkpoint();
      for (const MetricValue &MV : P.node(Id).Metrics) {
        if (MV.Metric >= MetricMap.size() ||
            MetricMap[MV.Metric] == Profile::InvalidMetric)
          continue;
        uint64_t Key = AggregatedProfile::sampleKey(OutNodes[ProfIdx][Id],
                                                    MetricMap[MV.Metric]);
        auto [It, Inserted] =
            KeyIndex.emplace(Key, static_cast<uint32_t>(KeyOrder.size()));
        if (Inserted) {
          KeyOrder.push_back(Key);
          Matrix.resize(Matrix.size() + N, 0.0);
        }
        Matrix[size_t(It->second) * N + ProfIdx] += MV.Value;
      }
    }
  }

  // Phase 3: per-row statistics, attached to the merged nodes in KeyOrder
  // so the metric lists are deterministic across runs.
  Phase.emplace("analysis/aggregate.stats", "analysis");
  for (size_t R = 0; R < KeyOrder.size(); ++R) {
    const double *Row = Matrix.data() + R * N;
    double Sum = 0.0, Min = Row[0], Max = Row[0];
    for (size_t I = 0; I < N; ++I) {
      Sum += Row[I];
      Min = std::min(Min, Row[I]);
      Max = std::max(Max, Row[I]);
    }
    double Mean = Sum / static_cast<double>(N);
    double Var = 0.0;
    for (size_t I = 0; I < N; ++I)
      Var += (Row[I] - Mean) * (Row[I] - Mean);
    double Stddev = std::sqrt(Var / static_cast<double>(N));
    NodeId Node = static_cast<NodeId>(KeyOrder[R] >> 16);
    MetricId Metric = static_cast<MetricId>(KeyOrder[R] & 0xFFFF);
    if (Options.WithSum && Sum != 0.0)
      Merged.addValue(Node, SumIds[Metric], Sum);
    if (Options.WithMin && Min != 0.0)
      Merged.addValue(Node, MinIds[Metric], Min);
    if (Options.WithMax && Max != 0.0)
      Merged.addValue(Node, MaxIds[Metric], Max);
    if (Options.WithMean && Mean != 0.0)
      Merged.addValue(Node, MeanIds[Metric], Mean);
    if (Options.WithStddev && Stddev != 0.0)
      Merged.addValue(Node, StddevIds[Metric], Stddev);
  }
  Phase.emplace("analysis/aggregate.freeze", "analysis");
  Agg.Merged = Merged.take();
  return Agg;
}

} // namespace ev
