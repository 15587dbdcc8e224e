//===- analysis/FleetAggregate.cpp - Streaming fleet-scale aggregation ----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/FleetAggregate.h"

#include "analysis/Aggregate.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>

namespace ev {

namespace {

/// Name of the per-parent catch-all node that absorbs pruned subtrees.
constexpr std::string_view PrunedFrameName = "(pruned)";

/// A prune shrinks the tree to this fraction of the budget, so ingestion
/// does not re-trip the budget on every added profile.
constexpr double PruneTargetFraction = 0.75;

/// Nodes are ranked for pruning by the inclusive sum of this metric of
/// the cohort schema (the first profile's).
constexpr MetricId WeightMetric = 0;

} // namespace

void StreamingMoments::push(double Value) {
  ++Present;
  double Delta = Value - Mean;
  Mean += Delta / static_cast<double>(Present);
  M2 += Delta * (Value - Mean);
  if (Present == 1) {
    Min = Max = Value;
  } else {
    Min = std::min(Min, Value);
    Max = std::max(Max, Value);
  }
}

CohortAccumulator::CohortAccumulator(FleetAggregateOptions O)
    : Opts(O), Shape("fleet cohort") {
  Folded.assign(1, 0); // Root.
}

const Profile &CohortAccumulator::shape() const {
  if (!Frozen)
    Frozen = std::make_shared<const Profile>(Shape.build());
  return *Frozen;
}

std::vector<MetricId> CohortAccumulator::mapMetrics(const Profile &P) {
  if (Shape.metrics().empty() && Profiles == 0) {
    Shape.addMetrics(P); // The first profile's schema is the cohort's.
    assert(Shape.metrics().size() < 0xFFFF && "metric id space exhausted");
  }
  std::vector<MetricId> MetricMap(P.metrics().size());
  for (MetricId I = 0; I < P.metrics().size(); ++I)
    MetricMap[I] = Shape.findMetric(P.metrics()[I].Name);
  return MetricMap;
}

void CohortAccumulator::add(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/fleetAdd", "analysis");
  std::vector<MetricId> MetricMap = mapMetrics(P);
  Frozen.reset();
  std::vector<NodeId> OutNode = mergeTree(Shape, P, Cancel);
  Folded.resize(Shape.nodeCount(), 0);

  // Fold the input's exclusive samples. Two input nodes can land on the
  // same accumulator context (frames differing only by address), so the
  // per-profile contribution is summed per key first — Welford must see
  // exactly one observation per profile per (node, metric).
  std::unordered_map<uint64_t, double> Contrib;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    for (const MetricValue &MV : P.node(Id).Metrics) {
      if (MV.Metric >= MetricMap.size() ||
          MetricMap[MV.Metric] == Profile::InvalidMetric)
        continue;
      Contrib[momentKey(OutNode[Id], MetricMap[MV.Metric])] += MV.Value;
    }
  }
  for (const auto &[Key, Value] : Contrib)
    Moments[Key].push(Value);

  ++Profiles;
  if (Opts.NodeBudget && Shape.nodeCount() > Opts.NodeBudget)
    pruneToBudget();
}

CohortNodeStats CohortAccumulator::stats(NodeId Node, MetricId Metric) const {
  CohortNodeStats S;
  S.Profiles = Profiles;
  auto It = Moments.find(momentKey(Node, Metric));
  if (It == Moments.end() || Profiles == 0)
    return S;
  const StreamingMoments &M = It->second;
  S.Present = M.Present;
  S.Sum = M.sum();
  double N = static_cast<double>(Profiles);
  S.Mean = S.Sum / N;
  // Absent profiles contribute zero, exactly like the batch matrix's dense
  // columns. With k present values of mean m and squared deviations M2,
  // the full-cohort second moment about the cohort mean mu is
  //   M2 + k*(m - mu)^2 + (N - k)*mu^2.
  double K = static_cast<double>(M.Present);
  double Dev = M.Mean - S.Mean;
  double M2Total = M.M2 + K * Dev * Dev + (N - K) * S.Mean * S.Mean;
  S.Stddev = std::sqrt(std::max(0.0, M2Total) / N);
  S.Min = M.Present < Profiles ? std::min(0.0, M.Min) : M.Min;
  S.Max = M.Present < Profiles ? std::max(0.0, M.Max) : M.Max;
  return S;
}

std::vector<double>
CohortAccumulator::inclusiveSumColumn(MetricId Metric) const {
  std::span<const NodeId> Parents = shape().parents();
  std::vector<double> Column(Parents.size(), 0.0);
  for (NodeId Id = 0; Id < Parents.size(); ++Id) {
    auto It = Moments.find(momentKey(Id, Metric));
    if (It != Moments.end())
      Column[Id] = It->second.sum();
  }
  for (NodeId Id = static_cast<NodeId>(Parents.size()); Id > 1;) {
    --Id;
    Column[Parents[Id]] += Column[Id];
  }
  return Column;
}

bool CohortAccumulator::isFolded(NodeId Node) const {
  return Node < Folded.size() && Folded[Node] != 0;
}

size_t CohortAccumulator::approxMemoryBytes() const {
  size_t Bytes = Shape.approxMemoryBytes();
  Bytes += Moments.size() * (sizeof(uint64_t) + sizeof(StreamingMoments) +
                             2 * sizeof(void *));
  Bytes += Folded.capacity();
  return Bytes;
}

void CohortAccumulator::pruneToBudget() {
  // The rebuild adds one "(pruned)" catch-all per kept parent that lost a
  // child, so a single pass can land above the target — or even above the
  // budget. Halve the target and re-prune until the cap actually holds.
  size_t Target = static_cast<size_t>(
      static_cast<double>(Opts.NodeBudget) * PruneTargetFraction);
  Target = std::max<size_t>(Target, 1);
  while (Shape.nodeCount() > Opts.NodeBudget) {
    pruneOnce(Target);
    if (Target == 1)
      break; // Floor: root plus catch-alls; cannot shrink further.
    Target = std::max<size_t>(1, Target / 2);
  }
}

void CohortAccumulator::pruneOnce(size_t Target) {
  trace::Span Span("analysis/fleetPrune", "analysis");
  size_t Count = Shape.nodeCount();
  if (Count <= Target)
    return;
  ++Prunes;

  // Rank non-root nodes by inclusive weight, heaviest first; ties break on
  // node id so the keep set is deterministic.
  std::vector<double> Weight = inclusiveSumColumn(WeightMetric);
  const Profile &Old = shape();
  std::vector<NodeId> Order(Count > 0 ? Count - 1 : 0);
  for (NodeId Id = 1; Id < Count; ++Id)
    Order[Id - 1] = Id;
  std::sort(Order.begin(), Order.end(), [&](NodeId A, NodeId B) {
    if (Weight[A] != Weight[B])
      return Weight[A] > Weight[B];
    return A < B;
  });

  // Greedy top-K with ancestor closure: a kept node needs its whole chain,
  // so the chain is charged against the target together with the node.
  std::vector<char> Keep(Count, 0);
  Keep[0] = 1;
  size_t Kept = 1;
  std::vector<NodeId> Chain;
  for (NodeId Id : Order) {
    if (Kept >= Target)
      break;
    if (Keep[Id])
      continue;
    Chain.clear();
    for (NodeId Up = Id; !Keep[Up]; Up = Old.node(Up).Parent)
      Chain.push_back(Up);
    for (NodeId Up : Chain)
      Keep[Up] = 1;
    Kept += Chain.size();
  }

  // Rebuild the accumulator: kept nodes carry over; each dropped node maps
  // to a "(pruned)" catch-all child of its nearest kept ancestor, which
  // conserves subtree sums but gives up attribution. Catch-all moments are
  // sum-carriers only (Present pinned to 1 so sum() = Mean); isFolded()
  // tells analyses to skip them.
  ProfileBuilder NewShape(Old.name());
  NewShape.addMetrics(Old);
  std::vector<char> NewFolded(1, 0);
  auto NewChildFor = [&](NodeId Parent, FrameId F, bool FoldedNode) {
    NodeId Id = NewShape.child(Parent, F);
    if (Id == NewFolded.size())
      NewFolded.push_back(FoldedNode ? 1 : 0);
    return Id;
  };
  FrameId PrunedFrame;
  {
    Frame F;
    F.Kind = FrameKind::Function;
    F.Name = NewShape.intern(PrunedFrameName);
    PrunedFrame = NewShape.internFrame(F);
  }

  std::vector<NodeId> NewId(Count, InvalidNode);
  NewId[0] = NewShape.root();
  std::unordered_map<uint64_t, StreamingMoments> NewMoments;
  size_t MetricCount = Old.metrics().size();
  for (NodeId Id = 1; Id < Count; ++Id) {
    NodeId Parent = Old.node(Id).Parent;
    NodeId Mapped;
    if (Keep[Id]) {
      FrameId F = NewShape.importFrame(Old, Old.node(Id).FrameRef,
                                       ProfileBuilder::Address::Zero);
      Mapped = NewChildFor(NewId[Parent], F, isFolded(Id));
    } else if (Keep[Parent]) {
      Mapped = NewChildFor(NewId[Parent], PrunedFrame, true);
    } else {
      // Parent already collapsed into a catch-all; ride along with it.
      Mapped = NewId[Parent];
    }
    NewId[Id] = Mapped;
  }

  for (NodeId Id = 0; Id < Count; ++Id) {
    bool IntoCatchAll = !Keep[Id] || NewFolded[NewId[Id]];
    for (MetricId M = 0; M < MetricCount; ++M) {
      auto It = Moments.find(momentKey(Id, M));
      if (It == Moments.end())
        continue;
      StreamingMoments &Dst = NewMoments[momentKey(NewId[Id], M)];
      if (IntoCatchAll) {
        double Sum = Dst.Present ? Dst.sum() : 0.0;
        Sum += It->second.sum();
        Dst.Present = 1;
        Dst.Mean = Sum;
        Dst.M2 = 0.0;
        Dst.Min = Dst.Max = Sum;
      } else {
        Dst = It->second;
      }
    }
  }

  Shape = std::move(NewShape);
  Frozen.reset();
  Moments = std::move(NewMoments);
  Folded = std::move(NewFolded);
}

} // namespace ev
