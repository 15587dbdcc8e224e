//===- tests/integration_test.cpp - Cross-module end-to-end tests ---------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end pipelines matching the paper's case studies: profiler output
/// bytes -> converter -> analysis -> view -> IDE action, all through
/// public APIs.
///
//===----------------------------------------------------------------------===//

#include "analysis/LeakDetector.h"
#include "analysis/MetricEngine.h"
#include "analysis/Transform.h"
#include "baseline/GolandTreeTable.h"
#include "baseline/PprofFlameView.h"
#include "ide/MockIde.h"
#include "proto/EvProf.h"
#include "query/Vm.h"
#include "render/CorrelatedView.h"
#include "support/Strings.h"
#include "workload/GrpcLeakWorkload.h"
#include "workload/LuleshWorkload.h"
#include "workload/ReuseWorkload.h"
#include "workload/SparkWorkload.h"
#include "workload/SyntheticProfile.h"

#include <gtest/gtest.h>

using namespace ev;

TEST(Integration, HpctoolkitToBottomUpHotspot) {
  // The Fig. 6 pipeline: experiment.xml -> pvp/open -> bottom-up view ->
  // hottest leaf is libc!brk -> code link on a lulesh frame works.
  MockIde Ide;
  std::string Xml = workload::generateLuleshExperimentXml({});
  Result<int64_t> Id = Ide.openProfile("lulesh-db", Xml);
  ASSERT_TRUE(Id.ok()) << Id.error();

  Profile Up = bottomUpTree(*Ide.server().profile(*Id));
  MetricView View(Up, 0);
  NodeId Hottest = InvalidNode;
  double Best = -1.0;
  for (NodeId Child : Up.node(Up.root()).Children)
    if (View.inclusive(Child) > Best) {
      Best = View.inclusive(Child);
      Hottest = Child;
    }
  EXPECT_EQ(Up.nameOf(Hottest), "brk");

  // Click a source-mapped frame in the original profile.
  const Profile *P = Ide.server().profile(*Id);
  NodeId Mapped = InvalidNode;
  for (NodeId N = 0; N < P->nodeCount(); ++N)
    if (P->nameOf(N) == "CalcHourglassControlForElems")
      Mapped = N;
  ASSERT_NE(Mapped, InvalidNode);
  Result<bool> Linked = Ide.clickNode(*Id, Mapped);
  ASSERT_TRUE(Linked.ok());
  EXPECT_TRUE(*Linked);
  EXPECT_EQ(Ide.navigations().back().File, "lulesh.cc");
}

TEST(Integration, LeakHuntOverPvp) {
  // The Fig. 4 pipeline over the wire protocol: open every snapshot,
  // aggregate server-side, fetch the leak context's histogram, and check
  // the rising trend that flags the leak.
  MockIde Ide;
  workload::GrpcLeakOptions Opt;
  Opt.Snapshots = 40;
  workload::GrpcLeakWorkload W = workload::generateGrpcLeakWorkload(Opt);

  json::Array Ids;
  for (const Profile &Snap : W.Snapshots) {
    Result<int64_t> Id = Ide.openProfile(Snap.name(), writeEvProf(Snap));
    ASSERT_TRUE(Id.ok()) << Id.error();
    Ids.push_back(*Id);
  }
  Result<json::Value> Agg = Ide.call("pvp/aggregate", [&] {
    json::Object P;
    P.set("profiles", std::move(Ids));
    return P;
  }());
  ASSERT_TRUE(Agg.ok()) << Agg.error();
  int64_t AggId = Agg->asObject().find("profile")->asInt();

  const Profile *Merged = Ide.server().profile(AggId);
  NodeId Leak = InvalidNode;
  for (NodeId N = 0; N < Merged->nodeCount(); ++N)
    if (Merged->nameOf(N) == "transport.newBufWriter")
      Leak = N;
  ASSERT_NE(Leak, InvalidNode);

  Result<json::Value> Hist = Ide.call("pvp/histogram", [&] {
    json::Object P;
    P.set("aggregate", AggId);
    P.set("node", Leak);
    return P;
  }());
  ASSERT_TRUE(Hist.ok()) << Hist.error();
  std::vector<double> Series;
  for (const json::Value &V : Hist->asObject().find("series")->asArray())
    Series.push_back(V.asNumber());
  ASSERT_EQ(Series.size(), W.Snapshots.size());
  EXPECT_GT(trendSlope(Series), 0.0);
  EXPECT_GT(Series.back(), 0.8 * *std::max_element(Series.begin(),
                                                   Series.end()));
}

TEST(Integration, SparkDiffOverPvp) {
  // The Fig. 3 pipeline: two stored profiles -> pvp/diff -> tag counts
  // and headline contexts.
  MockIde Ide;
  workload::SparkWorkload W = workload::generateSparkWorkload();
  json::Object Params;
  Params.set("base", Ide.server().addProfile(std::move(W.Rdd)));
  Params.set("test", Ide.server().addProfile(std::move(W.Sql)));
  Result<json::Value> D = Ide.call("pvp/diff", std::move(Params));
  ASSERT_TRUE(D.ok()) << D.error();

  EXPECT_GT(D->asObject().find("added")->asInt(), 0);
  EXPECT_GT(D->asObject().find("deleted")->asInt(), 0);
  // The root shows an overall improvement ([-]): its delta is negative.
  const Profile *Merged =
      Ide.server().profile(D->asObject().find("profile")->asInt());
  ASSERT_NE(Merged, nullptr);
  // Its columns are base, test and delta of the chosen metric.
  ASSERT_EQ(Merged->metrics().size(), 3u);
  EXPECT_TRUE(startsWith(Merged->metrics()[2].Name, "delta "));
  EXPECT_LT(metricTotal(*Merged, 2), 0.0);
}

TEST(Integration, AllViewersAgreeOnTotals) {
  // Fig. 5 sanity: EasyView and both baselines open the same pprof bytes
  // and must agree on the data (totals / node counts where comparable).
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 64 << 10;
  std::string Bytes = workload::generatePprofBytes(Opt);

  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("svc", Bytes);
  ASSERT_TRUE(Id.ok()) << Id.error();
  const Profile *P = Ide.server().profile(*Id);

  Result<baseline::GolandViewResult> Goland =
      baseline::openWithGolandView(Bytes);
  ASSERT_TRUE(Goland.ok()) << Goland.error();
  EXPECT_GT(Goland->Rows, P->nodeCount() / 2);
  EXPECT_LE(Goland->Rows, P->nodeCount() + 1);

  Result<baseline::PprofViewResult> Pprof =
      baseline::openWithPprofView(Bytes);
  ASSERT_TRUE(Pprof.ok()) << Pprof.error();
  EXPECT_GT(Pprof->FlameFrames, 0u);
}

TEST(Integration, ReuseCorrelationDrivesOptimization) {
  // The Fig. 7 pipeline: reuse groups -> correlated view -> hot pair ->
  // the modeled locality fix pays off.
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  CorrelatedView View(W.P, "reuse");
  auto Pane0 = View.paneContexts(0);
  ASSERT_FALSE(Pane0.empty());
  EXPECT_EQ(W.P.nameOf(Pane0.front().first), W.HotArray);
  ASSERT_TRUE(View.select(0, Pane0.front().first));
  auto Pane1 = View.paneContexts(1);
  ASSERT_TRUE(View.select(1, Pane1.front().first));
  auto Pane2 = View.paneContexts(2);
  ASSERT_FALSE(Pane2.empty());
  EXPECT_EQ(W.P.nameOf(Pane2.front().first), W.HotFunction);

  double Before = workload::luleshRuntimeUsec(
      workload::generateLuleshProfile(
          {11, workload::LuleshVariant::WithTcmalloc, 500.0}));
  double After = workload::luleshRuntimeUsec(
      workload::generateLuleshProfile(
          {11, workload::LuleshVariant::WithLocalityFix, 500.0}));
  EXPECT_GT(Before / After, 1.2);
}

TEST(Integration, EvqlOverPvpMatchesDirectRun) {
  MockIde Ide;
  Profile P = workload::generateLuleshProfile({});
  int64_t Id = Ide.server().addProfile(topDownTree(P));

  const char *Program =
      "derive share = 100 * inclusive(\"CPUTIME (usec):Sum\") / "
      "total(\"CPUTIME (usec):Sum\");"
      "print fmt(total(\"CPUTIME (usec):Sum\") / 1e9, 1);";
  Result<json::Value> R = Ide.call("pvp/query", [&] {
    json::Object Params;
    Params.set("profile", Id);
    Params.set("program", Program);
    return Params;
  }());
  ASSERT_TRUE(R.ok()) << R.error();

  Result<evql::QueryOutput> Direct = evql::runProgram(P, Program);
  ASSERT_TRUE(Direct.ok()) << Direct.error();
  EXPECT_EQ(R->asObject().find("printed")->asArray()[0].asString(),
            Direct->Printed[0]);
}

TEST(Integration, EveryFlameShapeFromForeignFormat) {
  // collapsed text -> pvp/open -> the flame graph in every shape.
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("service.folded",
                                       "main;net.Serve;handler.Process 60\n"
                                       "main;net.Serve;codec.Encode 25\n"
                                       "main;gc.background 15\n");
  ASSERT_TRUE(Id.ok()) << Id.error();
  for (const char *Shape : {"top-down", "bottom-up", "flat"}) {
    json::Object Params;
    Params.set("profile", *Id);
    Params.set("shape", Shape);
    Result<json::Value> Flame = Ide.call("pvp/flame", std::move(Params));
    ASSERT_TRUE(Flame.ok()) << Shape << ": " << Flame.error();
    EXPECT_NE(Flame->dump().find("handler.Process"), std::string::npos)
        << Shape;
  }
}
