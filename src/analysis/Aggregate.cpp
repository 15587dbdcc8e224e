//===- analysis/Aggregate.cpp - Multi-profile aggregation -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Aggregate.h"

#include "profile/ProfileBuilder.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cassert>
#include <cmath>
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
  // Bottom-up accumulation; node ids are parents-first. Each (metric,
  // profile) column sweeps independently, so columns distribute across
  // workers with bit-identical results.
  ThreadPool::shared().parallelFor(InclusiveColumns.size(), [&](size_t C) {
    std::vector<double> &Column = InclusiveColumns[C];
    for (NodeId Id = static_cast<NodeId>(Merged.nodeCount()); Id > 1;) {
      --Id;
      Column[Merged.node(Id).Parent] += Column[Id];
    }
  });
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

  // Phase 1 (sequential, ordered): merge every input tree into the unified
  // tree, profile by profile and node by node, so the merged node ids are
  // identical for every thread count. Children are matched by textual frame
  // identity under the same merged parent.
  std::vector<std::vector<NodeId>> OutNodes(Inputs.size());
  for (size_t ProfIdx = 0; ProfIdx < Inputs.size(); ++ProfIdx) {
    const Profile &P = *Inputs[ProfIdx];
    std::vector<NodeId> &OutNode = OutNodes[ProfIdx];
    OutNode.assign(P.nodeCount(), InvalidNode);
    OutNode[0] = Merged.root();
    constexpr FrameId Unmapped = std::numeric_limits<FrameId>::max();
    std::vector<FrameId> FrameMap(P.frames().size(), Unmapped);
    auto MapFrame = [&](FrameId F) {
      // Addresses are run-specific (ASLR): identity is textual only.
      if (FrameMap[F] == Unmapped)
        FrameMap[F] = Merged.importFrame(P, F, ProfileBuilder::Address::Zero);
      return FrameMap[F];
    };

    std::span<const NodeId> Parents = P.parents();
    std::span<const FrameId> FrameRefs = P.frameRefs();
    for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
      if ((Id & 8191) == 0)
        Cancel.checkpoint();
      OutNode[Id] = Merged.child(OutNode[Parents[Id]], MapFrame(FrameRefs[Id]));
    }
  }

  // Phase 2a (sequential): discover the (node, metric) key set in profile
  // then node order, assigning each key a stable dense row.
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
        if (KeyIndex.emplace(Key, static_cast<uint32_t>(KeyOrder.size()))
                .second)
          KeyOrder.push_back(Key);
      }
    }
  }

  // Phase 2b (parallel): accumulate samples into the dense matrix. Each
  // profile writes only its own column of every row, so profiles proceed
  // concurrently without synchronization, and the per-profile accumulation
  // order (node order) is the same in every mode.
  size_t N = Inputs.size();
  Matrix.assign(KeyOrder.size() * N, 0.0);
  ThreadPool::shared().parallelFor(Inputs.size(), [&](size_t ProfIdx) {
    const Profile &P = *Inputs[ProfIdx];
    const std::vector<MetricId> &MetricMap = MetricMaps[ProfIdx];
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
      for (const MetricValue &MV : P.node(Id).Metrics) {
        if (MV.Metric >= MetricMap.size() ||
            MetricMap[MV.Metric] == Profile::InvalidMetric)
          continue;
        uint64_t Key = AggregatedProfile::sampleKey(OutNodes[ProfIdx][Id],
                                                    MetricMap[MV.Metric]);
        Matrix[size_t(KeyIndex.find(Key)->second) * N + ProfIdx] += MV.Value;
      }
    }
  });

  // Phase 3 (parallel math, sequential attach): the per-row statistics are
  // pure functions of the row, so rows fan out across workers; attaching
  // them to the merged nodes follows KeyOrder so the metric lists come out
  // identical for every thread count (and deterministic across runs, which
  // the old hash-order iteration was not).
  struct RowStats {
    double Sum, Min, Max, Mean, Stddev;
  };
  std::vector<RowStats> Stats(KeyOrder.size());
  ThreadPool::shared().parallelFor(KeyOrder.size(), [&](size_t R) {
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
    Stats[R] = {Sum, Min, Max, Mean, std::sqrt(Var / static_cast<double>(N))};
  });
  for (size_t R = 0; R < KeyOrder.size(); ++R) {
    uint64_t Key = KeyOrder[R];
    NodeId Node = static_cast<NodeId>(Key >> 16);
    MetricId Metric = static_cast<MetricId>(Key & 0xFFFF);
    const RowStats &S = Stats[R];
    if (Options.WithSum && S.Sum != 0.0)
      Merged.addValue(Node, SumIds[Metric], S.Sum);
    if (Options.WithMin && S.Min != 0.0)
      Merged.addValue(Node, MinIds[Metric], S.Min);
    if (Options.WithMax && S.Max != 0.0)
      Merged.addValue(Node, MaxIds[Metric], S.Max);
    if (Options.WithMean && S.Mean != 0.0)
      Merged.addValue(Node, MeanIds[Metric], S.Mean);
    if (Options.WithStddev && S.Stddev != 0.0)
      Merged.addValue(Node, StddevIds[Metric], S.Stddev);
  }
  Agg.Merged = Merged.take();
  return Agg;
}

} // namespace ev
