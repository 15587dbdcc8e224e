//===- tests/core_test.cpp - The engine as an editor drives it ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-then-view path an editor runs, through MockIde over the framed
/// PVP wire: pvp/open of raw bytes in each format, the flame shapes, the
/// tree table and summary, EVQL, aggregate, diff and the code link.
///
//===----------------------------------------------------------------------===//

#include "ide/MockIde.h"

#include "TestHelpers.h"
#include "proto/EvProf.h"
#include "workload/SyntheticProfile.h"

#include <gtest/gtest.h>

using namespace ev;

namespace {

json::Object params(int64_t Profile) {
  json::Object P;
  P.set("profile", Profile);
  return P;
}

} // namespace

TEST(Engine, OpensEvprofBytes) {
  MockIde Ide;
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  Result<int64_t> Id = Ide.openProfile("fixed", Bytes);
  ASSERT_TRUE(Id.ok()) << Id.error();
  ASSERT_NE(Ide.server().profile(*Id), nullptr);
  EXPECT_EQ(Ide.server().profile(*Id)->name(), "fixed");
  // The server timed the open in its own latency histogram.
  Result<json::Value> Metrics = Ide.call("pvp/metrics", json::Object());
  ASSERT_TRUE(Metrics.ok()) << Metrics.error();
  const json::Value *Open = Metrics->asObject()
                                .find("histograms")
                                ->asObject()
                                .find("pvp.latencyUs.pvp/open");
  ASSERT_NE(Open, nullptr);
  EXPECT_GE(Open->asObject().find("count")->asInt(), 1);
}

TEST(Engine, OpensPprofBytes) {
  MockIde Ide;
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 32 << 10;
  Result<int64_t> Id =
      Ide.openProfile("svc", workload::generatePprofBytes(Opt));
  ASSERT_TRUE(Id.ok()) << Id.error();
  EXPECT_GT(Ide.server().profile(*Id)->nodeCount(), 10u);
}

TEST(Engine, OpensCollapsedText) {
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("", "main;a;b 5\nmain;c 2\n");
  ASSERT_TRUE(Id.ok()) << Id.error();
  EXPECT_EQ(Ide.server().profile(*Id)->nodeCount(), 5u);
}

TEST(Engine, OpenRejectsGarbage) {
  MockIde Ide;
  EXPECT_FALSE(Ide.openProfile("", "???").ok());
}

TEST(Engine, FlameAllShapes) {
  MockIde Ide;
  int64_t Id = Ide.server().addProfile(test::makeFixedProfile());
  for (const char *Shape : {"top-down", "bottom-up", "flat"}) {
    json::Object P = params(Id);
    P.set("shape", Shape);
    Result<json::Value> Flame = Ide.call("pvp/flame", std::move(P));
    ASSERT_TRUE(Flame.ok()) << Shape << ": " << Flame.error();
    EXPECT_FALSE(Flame->asObject().find("rects")->asArray().empty()) << Shape;
  }
  json::Object Bad = params(Id);
  Bad.set("shape", "spiral");
  EXPECT_FALSE(Ide.call("pvp/flame", std::move(Bad)).ok());
}

TEST(Engine, TreeTableAndSummary) {
  MockIde Ide;
  int64_t Id = Ide.server().addProfile(test::makeFixedProfile());
  Result<json::Value> Table = Ide.call("pvp/treeTable", params(Id));
  ASSERT_TRUE(Table.ok()) << Table.error();
  EXPECT_NE(Table->dump().find("\"kernel\""), std::string::npos);
  Result<json::Value> Summary = Ide.call("pvp/summary", params(Id));
  ASSERT_TRUE(Summary.ok()) << Summary.error();
  EXPECT_NE(Summary->asObject().find("text")->asString().find("contexts: 6"),
            std::string::npos);
}

TEST(Engine, QueryTransformsProfile) {
  MockIde Ide;
  int64_t Id = Ide.server().addProfile(test::makeFixedProfile());
  json::Object P = params(Id);
  P.set("program", "prune when name() == \"parse\"; print 1 + 1;");
  Result<json::Value> Out = Ide.call("pvp/query", std::move(P));
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out->asObject().find("printed")->asArray()[0].asString(), "2");
  const Profile *Result =
      Ide.server().profile(Out->asObject().find("profile")->asInt());
  ASSERT_NE(Result, nullptr);
  for (NodeId N = 0; N < Result->nodeCount(); ++N)
    EXPECT_NE(Result->nameOf(N), "parse");
}

TEST(Engine, AggregateAcrossStoredProfiles) {
  MockIde Ide;
  json::Array Ids;
  Ids.push_back(Ide.server().addProfile(test::makeFixedProfile()));
  Ids.push_back(Ide.server().addProfile(test::makeFixedProfile()));
  json::Object P;
  P.set("profiles", std::move(Ids));
  Result<json::Value> Agg = Ide.call("pvp/aggregate", std::move(P));
  ASSERT_TRUE(Agg.ok()) << Agg.error();
  EXPECT_EQ(Agg->asObject().find("inputs")->asInt(), 2);
}

TEST(Engine, DiffAcrossStoredProfiles) {
  MockIde Ide;
  int64_t A = Ide.server().addProfile(test::makeFixedProfile());
  int64_t B = Ide.server().addProfile(test::makeFixedProfile());
  auto Diff = [&](int64_t Test, int64_t Metric) {
    json::Object P;
    P.set("base", A);
    P.set("test", Test);
    P.set("metric", Metric);
    return Ide.call("pvp/diff", std::move(P));
  };
  Result<json::Value> D = Diff(B, 0);
  ASSERT_TRUE(D.ok()) << D.error();
  // Every context is common: none added, deleted or changed.
  for (const char *Tag : {"added", "deleted", "increased", "decreased"})
    EXPECT_EQ(D->asObject().find(Tag)->asInt(), 0) << Tag;
  EXPECT_FALSE(Diff(999, 0).ok());
  EXPECT_FALSE(Diff(B, 99).ok());
}

TEST(Engine, IdeActionsReachStoredProfiles) {
  MockIde Ide;
  int64_t Id = Ide.server().addProfile(test::makeFixedProfile());
  // Find the kernel node and click it through the mock IDE.
  const Profile *P = Ide.server().profile(Id);
  NodeId Kernel = InvalidNode;
  for (NodeId N = 0; N < P->nodeCount(); ++N)
    if (P->nameOf(N) == "kernel")
      Kernel = N;
  Result<bool> Linked = Ide.clickNode(Id, Kernel);
  ASSERT_TRUE(Linked.ok());
  EXPECT_TRUE(*Linked);
  EXPECT_EQ(Ide.navigations().back().File, "comp.cc");
}
