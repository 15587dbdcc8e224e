//===- analysis/Diff.cpp - Profile differencing ---------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Diff.h"

#include "analysis/Aggregate.h"
#include "profile/ProfileBuilder.h"
#include "support/Trace.h"

#include <cmath>
#include <string_view>

namespace ev {

std::string_view diffTagLabel(DiffTag Tag) {
  switch (Tag) {
  case DiffTag::Common:
    return "[=]";
  case DiffTag::Added:
    return "[A]";
  case DiffTag::Deleted:
    return "[D]";
  case DiffTag::Increased:
    return "[+]";
  case DiffTag::Decreased:
    return "[-]";
  }
  return "[?]";
}

DiffResult diffProfiles(const Profile &Base, const Profile &Test,
                        MetricId Metric, double RelativeEpsilon,
                        const CancelToken &Cancel) {
  trace::Span Span("analysis/diffProfiles", "analysis");
  DiffResult Result;
  ProfileBuilder Merged("diff: " + Test.name() + " vs " + Base.name());

  const MetricDescriptor &M = Base.metrics().at(Metric);
  Result.BaseMetric = Merged.addMetric("base " + M.Name, M.Unit);
  Result.TestMetric = Merged.addMetric("test " + M.Name, M.Unit);
  Result.DeltaMetric = Merged.addMetric("delta " + M.Name, M.Unit);

  // The metric may sit at a different id in the test profile; match by name.
  MetricId TestInput = Test.findMetric(M.Name);
  if (TestInput == Profile::InvalidMetric)
    TestInput = Metric;

  // Presence[node]: bit 0 = in base, bit 1 = in test.
  std::vector<uint8_t> Presence;
  Presence.resize(1, 3); // Root is in both.

  // Base merges first, then test, which fixes the merged node ids.
  auto MergeSide = [&](const Profile &P, MetricId InputMetric,
                       MetricId SideMetric, uint8_t Bit) {
    std::vector<NodeId> OutNode = mergeTree(Merged, P, Cancel);
    Presence.resize(Merged.nodeCount(), 0);
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
      Presence[OutNode[Id]] |= Bit;
      double V = P.node(Id).metricOr(InputMetric);
      if (V != 0.0)
        Merged.addValue(OutNode[Id], SideMetric, V);
    }
  };

  MergeSide(Base, Metric, Result.BaseMetric, /*Bit=*/1);
  MergeSide(Test, TestInput, Result.TestMetric, /*Bit=*/2);

  // Delta column (exclusive) and inclusive columns for tagging.
  Result.BaseInclusive.assign(Merged.nodeCount(), 0.0);
  Result.TestInclusive.assign(Merged.nodeCount(), 0.0);
  for (NodeId Id = 0; Id < Merged.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    double B = Merged.metricOr(Id, Result.BaseMetric);
    double T = Merged.metricOr(Id, Result.TestMetric);
    if (T - B != 0.0)
      Merged.addValue(Id, Result.DeltaMetric, T - B);
    Result.BaseInclusive[Id] = B;
    Result.TestInclusive[Id] = T;
  }
  Result.Merged = Merged.take();
  const Profile &Out = Result.Merged;
  // Both inclusive columns in one reverse sweep (ids are parents-first).
  for (NodeId Id = static_cast<NodeId>(Out.nodeCount()); Id > 1;) {
    --Id;
    NodeId Parent = Out.node(Id).Parent;
    Result.BaseInclusive[Parent] += Result.BaseInclusive[Id];
    Result.TestInclusive[Parent] += Result.TestInclusive[Id];
  }

  // Tagging is a pure per-node function of presence bits and the inclusive
  // columns.
  Result.Tags.assign(Out.nodeCount(), DiffTag::Common);
  for (NodeId Id = 0; Id < Out.nodeCount(); ++Id) {
    bool InBase = Presence[Id] & 1;
    bool InTest = Presence[Id] & 2;
    if (Id == Out.root()) {
      InBase = true;
      InTest = true;
    }
    if (!InBase && InTest) {
      Result.Tags[Id] = DiffTag::Added;
      continue;
    }
    if (InBase && !InTest) {
      Result.Tags[Id] = DiffTag::Deleted;
      continue;
    }
    double B = Result.BaseInclusive[Id];
    double T = Result.TestInclusive[Id];
    double Scale = std::max(std::abs(B), std::abs(T));
    if (Scale == 0.0 || std::abs(T - B) <= RelativeEpsilon * Scale)
      Result.Tags[Id] = DiffTag::Common;
    else
      Result.Tags[Id] = T > B ? DiffTag::Increased : DiffTag::Decreased;
  }
  return Result;
}

} // namespace ev
