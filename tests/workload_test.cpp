//===- tests/workload_test.cpp - Workload generator tests -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "workload/GrpcLeakWorkload.h"
#include "workload/LuleshWorkload.h"
#include "workload/ReuseWorkload.h"
#include "workload/SparkWorkload.h"
#include "workload/SyntheticProfile.h"

#include "analysis/Diff.h"
#include "analysis/LeakDetector.h"
#include "analysis/MetricEngine.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"

#include <gtest/gtest.h>

using namespace ev;
using namespace ev::workload;

//===----------------------------------------------------------------------===
// Synthetic pprof profiles (Fig. 5 input)
//===----------------------------------------------------------------------===

TEST(Synthetic, SizeLandsNearTarget) {
  for (size_t TargetKb : {64u, 256u, 1024u}) {
    SyntheticOptions Opt;
    Opt.TargetBytes = TargetKb << 10;
    std::string Bytes = generatePprofBytes(Opt);
    EXPECT_GT(Bytes.size(), Opt.TargetBytes / 2) << TargetKb;
    EXPECT_LT(Bytes.size(), Opt.TargetBytes * 2) << TargetKb;
  }
}

TEST(Synthetic, DeterministicBySeed) {
  SyntheticOptions Opt;
  Opt.TargetBytes = 32 << 10;
  EXPECT_EQ(generatePprofBytes(Opt), generatePprofBytes(Opt));
  SyntheticOptions Opt2 = Opt;
  Opt2.Seed = 2;
  EXPECT_NE(generatePprofBytes(Opt), generatePprofBytes(Opt2));
}

TEST(Synthetic, ProfileHasServiceShape) {
  SyntheticOptions Opt;
  Opt.TargetBytes = 128 << 10;
  Profile P = generateSyntheticProfile(Opt);
  EXPECT_TRUE(P.verify().ok());
  EXPECT_GT(P.nodeCount(), 100u);
  // Deep stacks: at least one context deeper than the dispatch chain.
  unsigned MaxDepth = 0;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    MaxDepth = std::max(MaxDepth, P.depth(Id));
  EXPECT_GE(MaxDepth, Opt.MinStackDepth);
}

//===----------------------------------------------------------------------===
// gRPC leak snapshots (Fig. 4 input)
//===----------------------------------------------------------------------===

TEST(GrpcLeak, SnapshotCountAndMetric) {
  GrpcLeakOptions Opt;
  Opt.Snapshots = 50;
  GrpcLeakWorkload W = generateGrpcLeakWorkload(Opt);
  ASSERT_EQ(W.Snapshots.size(), 50u);
  for (const Profile &P : W.Snapshots) {
    EXPECT_NE(P.findMetric("active-bytes"), Profile::InvalidMetric);
    EXPECT_TRUE(P.verify().ok());
  }
}

TEST(GrpcLeak, LeakySeriesRises) {
  GrpcLeakOptions Opt;
  Opt.Snapshots = 60;
  GrpcLeakWorkload W = generateGrpcLeakWorkload(Opt);
  double First = 0.0, Last = 0.0;
  auto SumFor = [&](const Profile &P, std::string_view Name) {
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
      if (P.nameOf(Id) == Name)
        return P.node(Id).metricOr(0);
    return 0.0;
  };
  First = SumFor(W.Snapshots.front(), "transport.newBufWriter");
  Last = SumFor(W.Snapshots.back(), "transport.newBufWriter");
  EXPECT_GT(Last, 10.0 * First);
}

TEST(GrpcLeak, PassthroughReclaimsAtEnd) {
  GrpcLeakOptions Opt;
  Opt.Snapshots = 60;
  GrpcLeakWorkload W = generateGrpcLeakWorkload(Opt);
  auto SumFor = [&](const Profile &P, std::string_view Name) {
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
      if (P.nameOf(Id) == Name)
        return P.node(Id).metricOr(0);
    return 0.0;
  };
  double Mid = SumFor(W.Snapshots[30], "codec.passthrough");
  double End = SumFor(W.Snapshots.back(), "codec.passthrough");
  EXPECT_LT(End, 0.25 * Mid);
}

//===----------------------------------------------------------------------===
// LULESH (Fig. 6 / Table T3 input)
//===----------------------------------------------------------------------===

TEST(Lulesh, BrkIsHotLeafInBottomUp) {
  Profile P = generateLuleshProfile({});
  Profile Up = bottomUpTree(P);
  MetricView View(Up, 0);
  // The hottest first-level bottom-up context is libc's brk.
  NodeId Hottest = InvalidNode;
  double Best = -1.0;
  for (NodeId Child : Up.node(Up.root()).Children)
    if (View.inclusive(Child) > Best) {
      Best = View.inclusive(Child);
      Hottest = Child;
    }
  ASSERT_NE(Hottest, InvalidNode);
  EXPECT_EQ(Up.nameOf(Hottest), "brk");
  EXPECT_EQ(Up.text(Up.frameOf(Hottest).Loc.Module), "libc-2.31.so");
}

TEST(Lulesh, MemoryManagementShareNearPaper) {
  Profile P = generateLuleshProfile({});
  Profile Up = bottomUpTree(P);
  MetricView View(Up, 0);
  double BrkShare = 0.0;
  for (NodeId Child : Up.node(Up.root()).Children)
    if (Up.nameOf(Child) == "brk")
      BrkShare = View.inclusive(Child) / View.total();
  EXPECT_NEAR(BrkShare, 0.231, 0.03);
}

TEST(Lulesh, TcmallocSpeedupNearThirtyPercent) {
  double Original = luleshRuntimeUsec(generateLuleshProfile({}));
  double Tc = luleshRuntimeUsec(generateLuleshProfile(
      {11, LuleshVariant::WithTcmalloc, 500.0}));
  double Speedup = Original / Tc;
  EXPECT_NEAR(Speedup, 1.30, 0.06);
}

TEST(Lulesh, LocalityFixAddsTwentyEightPercent) {
  double Tc = luleshRuntimeUsec(generateLuleshProfile(
      {11, LuleshVariant::WithTcmalloc, 500.0}));
  double Fixed = luleshRuntimeUsec(generateLuleshProfile(
      {11, LuleshVariant::WithLocalityFix, 500.0}));
  EXPECT_NEAR(Tc / Fixed, 1.28, 0.06);
}

TEST(Lulesh, HourglassHotInTopDown) {
  Profile P = generateLuleshProfile({});
  MetricView View(P, 0);
  double HourglassShare = 0.0;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    if (P.nameOf(Id) == "CalcHourglassControlForElems")
      HourglassShare =
          std::max(HourglassShare, View.inclusive(Id) / View.total());
  EXPECT_GT(HourglassShare, 0.40); // Compute + its allocation children.
}

TEST(Lulesh, ExperimentXmlRoundTrips) {
  std::string Xml = generateLuleshExperimentXml({});
  Result<Profile> P = convert::fromHpctoolkit(Xml);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_TRUE(P->verify().ok());
  Profile Up = bottomUpTree(*P);
  MetricView View(Up, 0);
  NodeId Hottest = InvalidNode;
  double Best = -1.0;
  for (NodeId Child : Up.node(Up.root()).Children)
    if (View.inclusive(Child) > Best) {
      Best = View.inclusive(Child);
      Hottest = Child;
    }
  EXPECT_EQ(Up.nameOf(Hottest), "brk");
}

//===----------------------------------------------------------------------===
// Reuse pairs (Fig. 7 input)
//===----------------------------------------------------------------------===

TEST(Reuse, GroupsHaveThreeRoles) {
  ReuseWorkload W = generateReuseWorkload();
  EXPECT_TRUE(W.P.verify().ok());
  ASSERT_GT(W.P.groups().size(), 1u);
  for (const ContextGroup &G : W.P.groups()) {
    EXPECT_EQ(W.P.text(G.Kind), "reuse");
    EXPECT_EQ(G.Contexts.size(), 3u);
    EXPECT_GT(G.Value, 0.0);
  }
}

TEST(Reuse, AllocationContextsAreDataObjects) {
  ReuseWorkload W = generateReuseWorkload();
  for (const ContextGroup &G : W.P.groups())
    EXPECT_EQ(W.P.frameOf(G.Contexts[0]).Kind, FrameKind::DataObject);
}

TEST(Reuse, HotPairInHourglassFunction) {
  ReuseWorkload W = generateReuseWorkload();
  // The highest-value group's reuse context is in the hot function.
  ASSERT_FALSE(W.P.groups().empty());
  ContextGroup Best = W.P.groups()[0];
  for (const ContextGroup &G : W.P.groups())
    if (G.Value > Best.Value)
      Best = G;
  EXPECT_EQ(W.P.nameOf(Best.Contexts[2]), W.HotFunction);
}

//===----------------------------------------------------------------------===
// Spark (Fig. 3 input)
//===----------------------------------------------------------------------===

TEST(Spark, SqlRunIsFaster) {
  SparkWorkload W = generateSparkWorkload();
  double Rdd = metricTotal(W.Rdd, 0);
  double Sql = metricTotal(W.Sql, 0);
  EXPECT_GT(Rdd, 1.5 * Sql); // Clear win, as in the paper.
}

TEST(Spark, DiffShowsExpectedTags) {
  SparkWorkload W = generateSparkWorkload();
  DiffResult D = diffProfiles(W.Rdd, W.Sql, 0);

  bool SqlAdded = false, ShuffleDeleted = false, SharedDecreased = false;
  for (NodeId Id = 0; Id < D.Merged.nodeCount(); ++Id) {
    std::string_view Name = D.Merged.nameOf(Id);
    if (Name.find("WholeStageCodegen") != std::string_view::npos &&
        D.Tags[Id] == DiffTag::Added)
      SqlAdded = true;
    if (Name.find("BypassMergeSortShuffleWriter") !=
            std::string_view::npos &&
        D.Tags[Id] == DiffTag::Deleted)
      ShuffleDeleted = true;
    if (Name.find("Growable") != std::string_view::npos &&
        D.Tags[Id] == DiffTag::Decreased)
      SharedDecreased = true;
  }
  EXPECT_TRUE(SqlAdded);
  EXPECT_TRUE(ShuffleDeleted);
  EXPECT_TRUE(SharedDecreased);
}

TEST(Spark, ExecutorSpineShared) {
  SparkWorkload W = generateSparkWorkload();
  DiffResult D = diffProfiles(W.Rdd, W.Sql, 0);
  // The Fig. 3 spine contexts exist in both profiles.
  for (NodeId Id = 0; Id < D.Merged.nodeCount(); ++Id) {
    std::string_view Name = D.Merged.nameOf(Id);
    if (Name == "java.lang.Thread.run" ||
        Name == "spark.scheduler.Task.run") {
      EXPECT_NE(D.Tags[Id], DiffTag::Added) << Name;
      EXPECT_NE(D.Tags[Id], DiffTag::Deleted) << Name;
    }
  }
}
