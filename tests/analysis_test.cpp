//===- tests/analysis_test.cpp - Analysis engine tests --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Aggregate.h"
#include "analysis/Diff.h"
#include "analysis/LeakDetector.h"
#include "analysis/MetricEngine.h"
#include "analysis/Prune.h"
#include "analysis/Transform.h"
#include "analysis/Traversal.h"

#include "TestHelpers.h"
#include "workload/GrpcLeakWorkload.h"

#include <gtest/gtest.h>

using namespace ev;

namespace {

NodeId findByName(const Profile &P, std::string_view Name) {
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    if (P.nameOf(Id) == Name)
      return Id;
  return InvalidNode;
}

} // namespace

//===----------------------------------------------------------------------===
// Traversal
//===----------------------------------------------------------------------===

TEST(Traversal, PreOrderVisitsParentsFirst) {
  Profile P = test::makeFixedProfile();
  std::vector<NodeId> Order;
  preOrder(P, [&](NodeId Id, unsigned) { Order.push_back(Id); });
  EXPECT_EQ(Order.size(), P.nodeCount());
  std::vector<bool> Seen(P.nodeCount(), false);
  for (NodeId Id : Order) {
    if (Id != P.root()) {
      EXPECT_TRUE(Seen[P.node(Id).Parent]);
    }
    Seen[Id] = true;
  }
}

TEST(Traversal, PostOrderVisitsChildrenFirst) {
  Profile P = test::makeFixedProfile();
  std::vector<bool> Seen(P.nodeCount(), false);
  postOrder(P, [&](NodeId Id, unsigned) {
    for (NodeId Child : P.node(Id).Children)
      EXPECT_TRUE(Seen[Child]);
    Seen[Id] = true;
  });
  EXPECT_TRUE(Seen[P.root()]);
}

TEST(Traversal, DepthsAreCorrect) {
  Profile P = test::makeFixedProfile();
  preOrder(P, [&](NodeId Id, unsigned Depth) {
    EXPECT_EQ(Depth, P.depth(Id));
  });
  postOrder(P, [&](NodeId Id, unsigned Depth) {
    EXPECT_EQ(Depth, P.depth(Id));
  });
}

TEST(Traversal, SubtreeTraversal) {
  Profile P = test::makeFixedProfile();
  NodeId Compute = findByName(P, "compute");
  std::vector<NodeId> Ids = preOrderIds(P, Compute);
  EXPECT_EQ(Ids.size(), 3u); // compute, kernel, memcpy.
  EXPECT_EQ(Ids.front(), Compute);
}

//===----------------------------------------------------------------------===
// MetricEngine
//===----------------------------------------------------------------------===

TEST(MetricEngine, InclusiveAccumulatesUpward) {
  Profile P = test::makeFixedProfile();
  std::vector<double> Incl = inclusiveColumn(P, 0);
  EXPECT_DOUBLE_EQ(Incl[P.root()], 100.0);
  EXPECT_DOUBLE_EQ(Incl[findByName(P, "main")], 100.0);
  EXPECT_DOUBLE_EQ(Incl[findByName(P, "compute")], 75.0);
  EXPECT_DOUBLE_EQ(Incl[findByName(P, "kernel")], 40.0);
  EXPECT_DOUBLE_EQ(Incl[findByName(P, "parse")], 20.0);
}

TEST(MetricEngine, ExclusiveMatchesStoredValues) {
  Profile P = test::makeFixedProfile();
  std::vector<double> Excl = exclusiveColumn(P, 0);
  EXPECT_DOUBLE_EQ(Excl[findByName(P, "main")], 5.0);
  EXPECT_DOUBLE_EQ(Excl[findByName(P, "memcpy")], 25.0);
}

TEST(MetricEngine, TotalEqualsRootInclusive) {
  Profile P = test::makeRandomProfile(99);
  MetricView View(P, 0);
  EXPECT_DOUBLE_EQ(metricTotal(P, 0), View.total());
}

TEST(MetricEngine, HottestExclusiveRanksAndLimits) {
  Profile P = test::makeFixedProfile();
  std::vector<HotNode> Hot = hottestExclusive(P, 0, 2);
  ASSERT_EQ(Hot.size(), 2u);
  EXPECT_EQ(P.nameOf(Hot[0].Node), "kernel");
  EXPECT_DOUBLE_EQ(Hot[0].Value, 40.0);
  EXPECT_EQ(P.nameOf(Hot[1].Node), "memcpy");
}

TEST(MetricEngine, MetricViewInclusiveExclusiveAgree) {
  Profile P = test::makeRandomProfile(5);
  MetricView View(P, 0);
  std::vector<double> Incl = inclusiveColumn(P, 0);
  std::vector<double> Excl = exclusiveColumn(P, 0);
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
    EXPECT_DOUBLE_EQ(View.inclusive(Id), Incl[Id]);
    EXPECT_DOUBLE_EQ(View.exclusive(Id), Excl[Id]);
    EXPECT_GE(View.inclusive(Id), View.exclusive(Id)); // Nonneg values.
  }
}

//===----------------------------------------------------------------------===
// Transforms
//===----------------------------------------------------------------------===

TEST(Transform, TopDownCopyPreservesEverything) {
  Profile P = test::makeFixedProfile();
  Profile Copy = topDownTree(P);
  EXPECT_EQ(Copy.nodeCount(), P.nodeCount());
  EXPECT_DOUBLE_EQ(metricTotal(Copy, 0), metricTotal(P, 0));
  EXPECT_TRUE(Copy.verify().ok());
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    EXPECT_EQ(Copy.nameOf(Id), P.nameOf(Id));
}

TEST(Transform, BottomUpFirstLevelAggregatesLeafCosts) {
  Profile P = test::makeFixedProfile();
  Profile Up = bottomUpTree(P);
  EXPECT_TRUE(Up.verify().ok());
  EXPECT_DOUBLE_EQ(metricTotal(Up, 0), metricTotal(P, 0));

  // First level of the bottom-up tree: every context that recorded
  // exclusive cost, keyed by its own frame.
  MetricView View(Up, 0);
  double KernelTotal = 0.0;
  for (NodeId Child : Up.node(Up.root()).Children)
    if (Up.nameOf(Child) == "kernel")
      KernelTotal = View.inclusive(Child);
  EXPECT_DOUBLE_EQ(KernelTotal, 40.0);
}

TEST(Transform, BottomUpReversesCallPaths) {
  Profile P = test::makeFixedProfile();
  Profile Up = bottomUpTree(P);
  // kernel's child in the bottom-up tree must be its caller, compute.
  NodeId Kernel = InvalidNode;
  for (NodeId Child : Up.node(Up.root()).Children)
    if (Up.nameOf(Child) == "kernel")
      Kernel = Child;
  ASSERT_NE(Kernel, InvalidNode);
  ASSERT_EQ(Up.node(Kernel).Children.size(), 1u);
  EXPECT_EQ(Up.nameOf(Up.node(Kernel).Children[0]), "compute");
}

TEST(Transform, FlatTreeGroupsByModuleFileFunction) {
  Profile P = test::makeFixedProfile();
  Profile Flat = flatTree(P);
  EXPECT_TRUE(Flat.verify().ok());
  EXPECT_DOUBLE_EQ(metricTotal(Flat, 0), metricTotal(P, 0));

  // Root children are modules: app and libc.so.
  std::vector<std::string> Modules;
  for (NodeId Child : Flat.node(Flat.root()).Children)
    Modules.emplace_back(Flat.nameOf(Child));
  EXPECT_EQ(Modules.size(), 2u);

  // The flat inclusive column for "compute" counts its subtree once.
  MetricId Incl = Flat.findMetric("time (inclusive)");
  ASSERT_NE(Incl, Profile::InvalidMetric);
  NodeId Compute = findByName(Flat, "compute");
  ASSERT_NE(Compute, InvalidNode);
  EXPECT_DOUBLE_EQ(Flat.node(Compute).metricOr(Incl), 75.0);
}

TEST(Transform, FlatInclusiveCountsRecursionOnce) {
  ProfileBuilder B("rec");
  MetricId M = B.addMetric("m", "count");
  FrameId A = B.functionFrame("rec", "r.cc", 1, "app");
  std::vector<FrameId> Path = {A, A, A};
  B.addSample(Path, M, 10); // Innermost.
  Profile P = B.take();
  Profile Flat = flatTree(P);
  MetricId Incl = Flat.findMetric("m (inclusive)");
  NodeId Rec = findByName(Flat, "rec");
  // Only the outermost occurrence contributes: inclusive = 10, not 30.
  EXPECT_DOUBLE_EQ(Flat.node(Rec).metricOr(Incl), 10.0);
  EXPECT_DOUBLE_EQ(Flat.node(Rec).metricOr(0), 10.0);
}

TEST(Transform, CollapseRecursionMergesSelfChains) {
  ProfileBuilder B("rec");
  MetricId M = B.addMetric("m", "count");
  FrameId A = B.functionFrame("rec");
  FrameId C = B.functionFrame("other");
  std::vector<FrameId> Path = {A, A, A, C};
  B.addSample(Path, M, 7);
  Profile P = B.take();
  ASSERT_EQ(P.nodeCount(), 5u);
  Profile Collapsed = collapseRecursion(P);
  // ROOT + rec + other.
  EXPECT_EQ(Collapsed.nodeCount(), 3u);
  EXPECT_DOUBLE_EQ(metricTotal(Collapsed, 0), 7.0);
  EXPECT_TRUE(Collapsed.verify().ok());
}

TEST(Transform, LimitDepthFoldsDeepCosts) {
  Profile P = test::makeFixedProfile();
  Profile Limited = limitDepth(P, 2);
  EXPECT_DOUBLE_EQ(metricTotal(Limited, 0), metricTotal(P, 0));
  // kernel (depth 3) must be folded into compute (depth 2).
  EXPECT_EQ(findByName(Limited, "kernel"), InvalidNode);
  NodeId Compute = findByName(Limited, "compute");
  EXPECT_DOUBLE_EQ(Limited.node(Compute).metricOr(0), 75.0);
}

//===----------------------------------------------------------------------===
// Prune / filter
//===----------------------------------------------------------------------===

TEST(Prune, ByFractionConservesTotals) {
  Profile P = test::makeFixedProfile();
  Profile Pruned = pruneByFraction(P, 0, 0.25); // Threshold: 25 units.
  EXPECT_DOUBLE_EQ(metricTotal(Pruned, 0), 100.0);
  // parse (inclusive 20) is pruned; kernel (40) stays.
  EXPECT_EQ(findByName(Pruned, "parse"), InvalidNode);
  EXPECT_NE(findByName(Pruned, "kernel"), InvalidNode);
  EXPECT_TRUE(Pruned.verify().ok());
}

TEST(Prune, ZeroFractionKeepsEverything) {
  Profile P = test::makeFixedProfile();
  Profile Pruned = pruneByFraction(P, 0, 0.0);
  EXPECT_EQ(Pruned.nodeCount(), P.nodeCount());
}

TEST(Prune, FoldedValueLandsInParentExclusive) {
  Profile P = test::makeFixedProfile();
  Profile Pruned = pruneByFraction(P, 0, 0.25);
  // main's exclusive absorbs parse's inclusive 20: 5 + 20 = 25.
  NodeId Main = findByName(Pruned, "main");
  EXPECT_DOUBLE_EQ(Pruned.node(Main).metricOr(0), 25.0);
}

TEST(FilterNodes, ElisionReattachesChildren) {
  Profile P = test::makeFixedProfile();
  // Elide "compute": kernel and memcpy re-attach to main.
  Profile Filtered = filterNodes(P, [](const Profile &Prof, NodeId Id) {
    return Prof.nameOf(Id) != "compute";
  });
  EXPECT_EQ(findByName(Filtered, "compute"), InvalidNode);
  NodeId Kernel = findByName(Filtered, "kernel");
  ASSERT_NE(Kernel, InvalidNode);
  EXPECT_EQ(Filtered.nameOf(Filtered.node(Kernel).Parent), "main");
  // compute's exclusive 10 folded into main: 5 + 10 = 15.
  NodeId Main = findByName(Filtered, "main");
  EXPECT_DOUBLE_EQ(Filtered.node(Main).metricOr(0), 15.0);
  EXPECT_DOUBLE_EQ(metricTotal(Filtered, 0), 100.0);
  EXPECT_TRUE(Filtered.verify().ok());
}

TEST(FilterNodes, KeepEverythingIsIdentityShape) {
  Profile P = test::makeRandomProfile(11);
  Profile Filtered = filterNodes(P, [](const Profile &, NodeId) {
    return true;
  });
  EXPECT_EQ(Filtered.nodeCount(), P.nodeCount());
  EXPECT_DOUBLE_EQ(metricTotal(Filtered, 0), metricTotal(P, 0));
}

//===----------------------------------------------------------------------===
// Aggregate
//===----------------------------------------------------------------------===

TEST(Aggregate, SumsAcrossProfiles) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  const Profile *Inputs[] = {&A, &B};
  AggregatedProfile Agg = aggregate(Inputs);
  EXPECT_EQ(Agg.profileCount(), 2u);
  // Identical trees merge 1:1; sums double.
  EXPECT_EQ(Agg.merged().nodeCount(), A.nodeCount());
  EXPECT_DOUBLE_EQ(metricTotal(Agg.merged(), 0), 200.0);
}

TEST(Aggregate, PerProfileSeriesKeepsSlots) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  // Make B's kernel hotter.
  NodeId KernelB = findByName(B, "kernel");
  B = test::withValue(B, KernelB, 0, 60.0);

  const Profile *Inputs[] = {&A, &B};
  AggregatedProfile Agg = aggregate(Inputs);
  NodeId Kernel = findByName(Agg.merged(), "kernel");
  ASSERT_NE(Kernel, InvalidNode);
  std::vector<double> Excl = Agg.perProfileExclusive(Kernel, 0);
  ASSERT_EQ(Excl.size(), 2u);
  EXPECT_DOUBLE_EQ(Excl[0], 40.0);
  EXPECT_DOUBLE_EQ(Excl[1], 60.0);

  std::vector<double> Incl = Agg.perProfileInclusive(Kernel, 0);
  EXPECT_DOUBLE_EQ(Incl[0], 40.0);
  EXPECT_DOUBLE_EQ(Incl[1], 60.0);
}

TEST(Aggregate, DerivedStatColumns) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  NodeId KernelB = findByName(B, "kernel");
  B = test::withValue(B, KernelB, 0, 60.0);

  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = Opt.WithStddev = true;
  const Profile *Inputs[] = {&A, &B};
  AggregatedProfile Agg = aggregate(Inputs, Opt);
  const Profile &M = Agg.merged();
  NodeId Kernel = findByName(M, "kernel");

  EXPECT_DOUBLE_EQ(M.node(Kernel).metricOr(M.findMetric("time")), 100.0);
  EXPECT_DOUBLE_EQ(M.node(Kernel).metricOr(M.findMetric("time.min")), 40.0);
  EXPECT_DOUBLE_EQ(M.node(Kernel).metricOr(M.findMetric("time.max")), 60.0);
  EXPECT_DOUBLE_EQ(M.node(Kernel).metricOr(M.findMetric("time.mean")), 50.0);
  EXPECT_DOUBLE_EQ(M.node(Kernel).metricOr(M.findMetric("time.stddev")),
                   10.0);
}

TEST(Aggregate, DisjointTreesUnionContexts) {
  ProfileBuilder BA("a");
  MetricId MA = BA.addMetric("time", "nanoseconds");
  std::vector<FrameId> PA = {BA.functionFrame("onlyA")};
  BA.addSample(PA, MA, 3);
  Profile A = BA.take();

  ProfileBuilder BB("b");
  MetricId MB = BB.addMetric("time", "nanoseconds");
  std::vector<FrameId> PB = {BB.functionFrame("onlyB")};
  BB.addSample(PB, MB, 4);
  Profile B = BB.take();

  const Profile *Inputs[] = {&A, &B};
  AggregatedProfile Agg = aggregate(Inputs);
  EXPECT_NE(findByName(Agg.merged(), "onlyA"), InvalidNode);
  EXPECT_NE(findByName(Agg.merged(), "onlyB"), InvalidNode);
  EXPECT_DOUBLE_EQ(metricTotal(Agg.merged(), 0), 7.0);
  NodeId OnlyA = findByName(Agg.merged(), "onlyA");
  std::vector<double> Series = Agg.perProfileExclusive(OnlyA, 0);
  ASSERT_EQ(Series.size(), 2u);
  EXPECT_DOUBLE_EQ(Series[1], 0.0); // Absent from profile B.
}

TEST(Aggregate, SingleProfileIsIdentity) {
  Profile A = test::makeRandomProfile(21);
  const Profile *Inputs[] = {&A};
  AggregatedProfile Agg = aggregate(Inputs);
  EXPECT_EQ(Agg.merged().nodeCount(), A.nodeCount());
  EXPECT_DOUBLE_EQ(metricTotal(Agg.merged(), 0), metricTotal(A, 0));
  EXPECT_DOUBLE_EQ(metricTotal(Agg.merged(), 1), metricTotal(A, 1));
}

//===----------------------------------------------------------------------===
// Diff
//===----------------------------------------------------------------------===

TEST(Diff, IdenticalProfilesAllCommon) {
  Profile A = test::makeFixedProfile();
  DiffResult D = diffProfiles(A, A, 0);
  for (NodeId Id = 0; Id < D.Merged.nodeCount(); ++Id) {
    EXPECT_EQ(D.Tags[Id], DiffTag::Common);
    EXPECT_DOUBLE_EQ(D.Merged.node(Id).metricOr(D.DeltaMetric), 0.0);
  }
}

TEST(Diff, AddedAndDeletedContexts) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  // Remove "parse" from B and add "newStage".
  B = filterNodes(B, [](const Profile &P, NodeId Id) {
    return P.nameOf(Id) != "parse";
  });
  {
    // Add a context only B has, under main.
    NodeId Main = findByName(B, "main");
    ProfileBuilder Grown(B);
    NodeId New =
        Grown.createNode(Main, Grown.functionFrame("newStage", "new.cc", 4));
    Grown.addValue(New, 0, 30.0);
    B = Grown.take();
  }
  DiffResult D = diffProfiles(A, B, 0);
  NodeId Parse = findByName(D.Merged, "parse");
  ASSERT_NE(Parse, InvalidNode);
  EXPECT_EQ(D.Tags[Parse], DiffTag::Deleted);
  NodeId NewStage = findByName(D.Merged, "newStage");
  ASSERT_NE(NewStage, InvalidNode);
  EXPECT_EQ(D.Tags[NewStage], DiffTag::Added);
}

TEST(Diff, IncreasedAndDecreasedByInclusiveValue) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  NodeId KernelB = findByName(B, "kernel");
  B = test::withValue(B, KernelB, 0, 80.0); // +40.
  NodeId MemcpyB = findByName(B, "memcpy");
  B = test::withValue(B, MemcpyB, 0, 10.0); // -15.

  DiffResult D = diffProfiles(A, B, 0);
  EXPECT_EQ(D.Tags[findByName(D.Merged, "kernel")], DiffTag::Increased);
  EXPECT_EQ(D.Tags[findByName(D.Merged, "memcpy")], DiffTag::Decreased);
  // compute's inclusive rose 40 - 15 = +25.
  NodeId Compute = findByName(D.Merged, "compute");
  EXPECT_EQ(D.Tags[Compute], DiffTag::Increased);
  EXPECT_DOUBLE_EQ(D.TestInclusive[Compute] - D.BaseInclusive[Compute],
                   25.0);
}

TEST(Diff, DeltaColumnQuantifies) {
  Profile A = test::makeFixedProfile();
  Profile B = test::makeFixedProfile();
  NodeId KernelB = findByName(B, "kernel");
  B = test::withValue(B, KernelB, 0, 55.0);
  DiffResult D = diffProfiles(A, B, 0);
  NodeId Kernel = findByName(D.Merged, "kernel");
  EXPECT_DOUBLE_EQ(D.Merged.node(Kernel).metricOr(D.DeltaMetric), 15.0);
}

TEST(Diff, TagLabels) {
  EXPECT_EQ(diffTagLabel(DiffTag::Added), "[A]");
  EXPECT_EQ(diffTagLabel(DiffTag::Deleted), "[D]");
  EXPECT_EQ(diffTagLabel(DiffTag::Increased), "[+]");
  EXPECT_EQ(diffTagLabel(DiffTag::Decreased), "[-]");
}

//===----------------------------------------------------------------------===
// Leak detector
//===----------------------------------------------------------------------===

TEST(LeakDetector, TrendSlopeLeastSquares) {
  EXPECT_DOUBLE_EQ(trendSlope({1, 2, 3, 4}), 1.0);
  EXPECT_DOUBLE_EQ(trendSlope({4, 3, 2, 1}), -1.0);
  EXPECT_DOUBLE_EQ(trendSlope({5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(trendSlope({7}), 0.0);
  EXPECT_DOUBLE_EQ(trendSlope({}), 0.0);
}

TEST(LeakDetector, FindsGroundTruthLeaks) {
  workload::GrpcLeakOptions Opt;
  Opt.Snapshots = 80;
  workload::GrpcLeakWorkload W = workload::generateGrpcLeakWorkload(Opt);
  std::vector<const Profile *> Inputs;
  for (const Profile &P : W.Snapshots)
    Inputs.push_back(&P);
  AggregatedProfile Agg = aggregate(Inputs);
  std::vector<LeakSuspect> Suspects = findLeakSuspects(Agg, 0);

  auto Flagged = [&](std::string_view Name) {
    for (const LeakSuspect &S : Suspects)
      if (Agg.merged().nameOf(S.Node) == Name)
        return true;
    return false;
  };
  for (const std::string &Leak : W.LeakingFunctions)
    EXPECT_TRUE(Flagged(Leak)) << Leak;
  for (const std::string &Healthy : W.HealthyFunctions)
    EXPECT_FALSE(Flagged(Healthy)) << Healthy;
}

TEST(LeakDetector, LeaksRankAboveNoise) {
  workload::GrpcLeakOptions Opt;
  Opt.Snapshots = 80;
  workload::GrpcLeakWorkload W = workload::generateGrpcLeakWorkload(Opt);
  std::vector<const Profile *> Inputs;
  for (const Profile &P : W.Snapshots)
    Inputs.push_back(&P);
  AggregatedProfile Agg = aggregate(Inputs);
  std::vector<LeakSuspect> Suspects = findLeakSuspects(Agg, 0);
  ASSERT_GE(Suspects.size(), 2u);
  // The top two suspects are the two true leaks.
  std::vector<std::string> Top = {
      std::string(Agg.merged().nameOf(Suspects[0].Node)),
      std::string(Agg.merged().nameOf(Suspects[1].Node))};
  for (const std::string &Leak : W.LeakingFunctions)
    EXPECT_TRUE(Top[0] == Leak || Top[1] == Leak) << Leak;
}

TEST(LeakDetector, RespectsMinPeak) {
  workload::GrpcLeakWorkload W = workload::generateGrpcLeakWorkload(
      {7, 40, 64.0 * 1024});
  std::vector<const Profile *> Inputs;
  for (const Profile &P : W.Snapshots)
    Inputs.push_back(&P);
  AggregatedProfile Agg = aggregate(Inputs);
  LeakOptions Opt;
  Opt.MinPeakBytes = 1e15; // Nothing is that large.
  EXPECT_TRUE(findLeakSuspects(Agg, 0, Opt).empty());
}
