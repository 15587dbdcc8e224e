//===- tests/regress_test.cpp - Fleet aggregation + EVL3xx regression -----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-regression stack end to end: streaming cohort
/// aggregation (Welford moments, heavy-hitter pruning, memory bound), the
/// EVL3xx analyzer over the planted fleet workload (100% recall on plants,
/// zero findings on the noise-only version pair), deterministic output
/// across ingestion orders, the analysis rule table, `evtool regress`, and
/// `pvp/regressions`.
///
//===----------------------------------------------------------------------===//

#include "analysis/FleetAggregate.h"
#include "analysis/ProfileLint.h"
#include "analysis/Regression.h"
#include "analysis/RuleRegistry.h"
#include "analysis/Sema.h"

#include "TestHelpers.h"
#include "ide/MockIde.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "tool/CliDriver.h"
#include "workload/FleetWorkload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>

using namespace ev;

namespace {

CohortAccumulator cohortOf(const std::vector<Profile> &Profiles,
                           FleetAggregateOptions Opts = {}) {
  CohortAccumulator Acc(Opts);
  for (const Profile &P : Profiles)
    Acc.add(P);
  return Acc;
}

std::string renderAll(const DiagnosticSet &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags.all())
    Out += renderDiagnostic(D, "fleet");
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===
// Streaming cohort aggregation
//===----------------------------------------------------------------------===

TEST(RegressAggregate, StreamingStatsMatchDirectComputation) {
  auto Build = [](double WorkValue, bool WithWork) {
    ProfileBuilder B("svc");
    MetricId Time = B.addMetric("time", "nanoseconds");
    FrameId Main = B.functionFrame("main", "m.cc", 1, "app");
    if (WithWork) {
      std::vector<FrameId> P = {Main,
                                B.functionFrame("work", "w.cc", 5, "app")};
      B.addSample(P, Time, WorkValue);
    }
    std::vector<FrameId> P = {Main, B.functionFrame("idle", "i.cc", 9, "app")};
    B.addSample(P, Time, 5.0);
    return B.take();
  };
  CohortAccumulator Acc;
  Acc.add(Build(10.0, true));
  Acc.add(Build(20.0, true));
  Acc.add(Build(0.0, false)); // "work" absent: contributes zero.
  ASSERT_EQ(Acc.profileCount(), 3u);

  // Find main/work in the canonical shape.
  const Profile &S = Acc.shape();
  NodeId Work = InvalidNode;
  for (NodeId Id = 0; Id < S.nodeCount(); ++Id)
    if (S.nameOf(Id) == "work")
      Work = Id;
  ASSERT_NE(Work, InvalidNode);

  // Cohort of 3 with values {10, 20, absent->0}: the zero-reconstruction
  // must report full-cohort statistics, not present-only ones.
  CohortNodeStats St = Acc.stats(Work, 0);
  EXPECT_EQ(St.Profiles, 3u);
  EXPECT_EQ(St.Present, 2u);
  EXPECT_NEAR(St.Sum, 30.0, 1e-9);
  EXPECT_NEAR(St.Mean, 10.0, 1e-9);
  EXPECT_NEAR(St.Stddev, std::sqrt(200.0 / 3.0), 1e-9);
  EXPECT_NEAR(St.Min, 0.0, 1e-12); // Clamped through zero when absent.
  EXPECT_NEAR(St.Max, 20.0, 1e-9);

  // Inclusive column: root total = 10 + 20 + 3x5.
  std::vector<double> Incl = Acc.inclusiveSumColumn(0);
  EXPECT_NEAR(Incl[S.root()], 45.0, 1e-9);
}

TEST(RegressAggregate, PruneKeepsBudgetAndConservesTotals) {
  FleetAggregateOptions Unbounded;
  Unbounded.NodeBudget = 0;
  FleetAggregateOptions Tight;
  Tight.NodeBudget = 64;

  CohortAccumulator Full(Unbounded), Pruned(Tight);
  for (uint64_t Seed = 7; Seed < 11; ++Seed) {
    Profile P = test::makeRandomProfile(Seed, 300);
    Full.add(P);
    Pruned.add(P);
  }
  EXPECT_GT(Full.shape().nodeCount(), 64u);
  EXPECT_LE(Pruned.shape().nodeCount(), 64u);
  EXPECT_GE(Pruned.pruneCount(), 1u);

  // Attribution is given up, totals are not: every metric's root-inclusive
  // sum survives pruning exactly (the "(pruned)" catch-alls carry it).
  for (MetricId M = 0; M < Full.shape().metrics().size(); ++M) {
    double FullTotal = Full.inclusiveSumColumn(M)[Full.shape().root()];
    double PrunedTotal = Pruned.inclusiveSumColumn(M)[Pruned.shape().root()];
    EXPECT_NEAR(FullTotal, PrunedTotal, 1e-6 * (1.0 + std::fabs(FullTotal)));
  }

  // The catch-alls exist and are flagged.
  size_t FoldedCount = 0;
  for (NodeId Id = 0; Id < Pruned.shape().nodeCount(); ++Id)
    if (Pruned.isFolded(Id))
      ++FoldedCount;
  EXPECT_GE(FoldedCount, 1u);
}

TEST(RegressAggregate, StreamingStaysUnderMemoryBudgetBatchExceeds) {
  // 1000 profiles through one accumulator: the streaming footprint must
  // stay under a budget the batch path (which must hold every decoded
  // input) provably exceeds.
  constexpr size_t BudgetBytes = 4u << 20;
  FleetAggregateOptions Opts;
  Opts.NodeBudget = 4096;
  CohortAccumulator Acc(Opts);
  size_t BatchLowerBound = 0; // Sum of the decoded inputs' footprints.
  for (uint64_t I = 0; I < 1000; ++I) {
    Profile P = test::makeRandomProfile(5000 + I, 80);
    BatchLowerBound += P.approxMemoryBytes();
    Acc.add(P);
    // The input dies here: streaming never holds more than one.
  }
  EXPECT_EQ(Acc.profileCount(), 1000u);
  EXPECT_GE(Acc.pruneCount(), 1u);
  EXPECT_LT(Acc.approxMemoryBytes(), BudgetBytes)
      << "streaming accumulator outgrew the budget";
  EXPECT_GT(BatchLowerBound, BudgetBytes)
      << "workload too small to demonstrate the batch blow-up";
}

//===----------------------------------------------------------------------===
// EVL3xx analyzer over the fleet workload
//===----------------------------------------------------------------------===

namespace {

class RegressAnalyzerTest : public ::testing::Test {
protected:
  void SetUp() override { W = workload::generateFleetWorkload(); }

  DiagnosticSet analyzePair(size_t Base, size_t Test,
                            RegressionOptions Opts = {}) {
    DiagnosticSet Diags(1000);
    RegressionAnalyzer(Opts).analyze(cohortOf(W.Versions[Base]),
                                     cohortOf(W.Versions[Test]), Diags);
    return Diags;
  }

  workload::FleetWorkload W;
};

} // namespace

TEST_F(RegressAnalyzerTest, NoiseOnlyVersionPairYieldsZeroFindings) {
  DiagnosticSet Diags = analyzePair(0, 1);
  EXPECT_EQ(Diags.size(), 0u) << "false positives on noise:\n"
                              << renderAll(Diags);
}

TEST_F(RegressAnalyzerTest, EveryPlantedRegressionIsFound) {
  size_t M = W.Versions.size();
  DiagnosticSet Diags = analyzePair(M - 2, M - 1);
  ASSERT_FALSE(W.Planted.empty());
  for (const workload::PlantedRegression &Plant : W.Planted) {
    bool Found = false;
    for (const Diagnostic &D : Diags.all())
      if (D.Id == Plant.RuleId &&
          D.Message.find(Plant.Frame) != std::string::npos)
        Found = true;
    EXPECT_TRUE(Found) << Plant.RuleId << " on '" << Plant.Frame
                       << "' not found in:\n"
                       << renderAll(Diags);
  }
  // Findings arrive sorted by (rule, path, metric): rule ids must be
  // non-decreasing.
  for (size_t I = 1; I < Diags.all().size(); ++I)
    EXPECT_LE(Diags.all()[I - 1].Id, Diags.all()[I].Id);
}

TEST_F(RegressAnalyzerTest, ByteIdenticalAcrossIngestOrder) {
  size_t M = W.Versions.size();
  DiagnosticSet Forward(1000);
  RegressionAnalyzer().analyze(cohortOf(W.Versions[M - 2]),
                               cohortOf(W.Versions[M - 1]), Forward);
  std::string InOrder = renderAll(Forward);

  // Reversed replica ingestion: the canonical shapes assign different node
  // ids, the rendered findings must not move a byte.
  auto Reversed = [](std::vector<Profile> Ps) {
    CohortAccumulator Acc;
    for (size_t I = Ps.size(); I > 0; --I)
      Acc.add(Ps[I - 1]);
    return Acc;
  };
  DiagnosticSet Backward(1000);
  RegressionAnalyzer().analyze(Reversed(W.Versions[M - 2]),
                               Reversed(W.Versions[M - 1]), Backward);

  EXPECT_FALSE(InOrder.empty());
  EXPECT_EQ(InOrder, renderAll(Backward));
}

TEST_F(RegressAnalyzerTest, SeverityFloorAndDisablesFilter) {
  size_t M = W.Versions.size();

  // EVL301/EVL303 default to Info; a Warning floor suppresses them.
  RegressionOptions Floor;
  Floor.Filter.MinSeverity = Severity::Warning;
  DiagnosticSet Warned = analyzePair(M - 2, M - 1, Floor);
  EXPECT_GT(Warned.size(), 0u);
  for (const Diagnostic &D : Warned.all()) {
    EXPECT_NE(D.Id, "EVL301") << D.Message;
    EXPECT_NE(D.Id, "EVL303") << D.Message;
    EXPECT_GE(D.Sev, Severity::Warning) << D.Message;
  }

  // Disable by id and by name in one list.
  RegressionOptions Disabled;
  Disabled.Filter.Disabled = {"EVL300", "allocation-drift"};
  DiagnosticSet Filtered = analyzePair(M - 2, M - 1, Disabled);
  bool SawOther = false;
  for (const Diagnostic &D : Filtered.all()) {
    EXPECT_NE(D.Id, "EVL300") << D.Message;
    EXPECT_NE(D.Id, "EVL306") << D.Message;
    if (D.Id == "EVL302")
      SawOther = true;
  }
  EXPECT_TRUE(SawOther);
}

TEST(RegressAnalyzer, SchemaMismatchIsAnError) {
  auto Build = [](const char *Metric) {
    ProfileBuilder B("svc");
    MetricId M = B.addMetric(Metric, "nanoseconds");
    std::vector<FrameId> P = {B.functionFrame("main", "m.cc", 1, "app")};
    B.addSample(P, M, 10.0);
    return B.take();
  };
  CohortAccumulator Base, Test;
  Base.add(Build("cpu-time"));
  Test.add(Build("wall-time"));
  DiagnosticSet Diags(100);
  RegressionAnalyzer().analyze(Base, Test, Diags);
  EXPECT_GE(Diags.count(Severity::Error), 2u); // Both directions.
  for (const Diagnostic &D : Diags.all())
    EXPECT_EQ(D.Id, "EVL307") << D.Message;
}

TEST(RegressAnalyzer, GrowthFromAZeroBaseHasNoPercentage) {
  // 'b' holds no exclusive time in the base cohort and 45 ns in the test
  // cohort: the change has no relative size, so the tail reads "from zero".
  auto Build = [](double BSelf) {
    ProfileBuilder B("svc");
    MetricId M = B.addMetric("cpu-time", "nanoseconds");
    std::vector<FrameId> Main = {B.functionFrame("main", "m.cc", 1, "app")};
    std::vector<FrameId> BPath = Main;
    BPath.push_back(B.functionFrame("b", "m.cc", 2, "app"));
    std::vector<FrameId> CPath = BPath;
    CPath.push_back(B.functionFrame("c", "m.cc", 3, "app"));
    B.addSample(CPath, M, 1000.0);
    if (BSelf != 0.0)
      B.addSample(BPath, M, BSelf);
    return B.take();
  };
  CohortAccumulator Base, Test;
  for (int I = 0; I < 4; ++I) {
    Base.add(Build(0.0));
    Test.add(Build(45.0));
  }
  RegressionOptions Opts;
  Opts.AbsoluteMin = 1.0;
  Opts.RelativeMin = 0.01;
  DiagnosticSet Diags(100);
  RegressionAnalyzer(Opts).analyze(Base, Test, Diags);
  std::string Regressed;
  for (const Diagnostic &D : Diags.all())
    if (D.Id == "EVL300")
      Regressed += D.Message + "\n";
  EXPECT_EQ(Regressed, "exclusive cpu-time regressed on main > b: base mean "
                       "0 ns, test mean 45 ns (+45 ns, from zero)\n")
      << renderAll(Diags);
}

//===----------------------------------------------------------------------===
// The analysis rule table
//===----------------------------------------------------------------------===

TEST(RegressRules, RegistryUnifiesAllThreeFamilies) {
  // 13 EVQL checks, 14 lints and 9 regression rules, each id and each
  // name used once.
  ASSERT_EQ(std::size(AnalysisRules), 36u);
  for (size_t I = 0; I < std::size(AnalysisRules); ++I)
    for (size_t J = 0; J < I; ++J) {
      EXPECT_NE(AnalysisRules[I].Id, AnalysisRules[J].Id);
      EXPECT_NE(AnalysisRules[I].Name, AnalysisRules[J].Name);
    }
  const RuleInfo *ById = findRule("EVL300");
  ASSERT_NE(ById, nullptr);
  EXPECT_EQ(ById->DefaultSev, Severity::Warning);
  const RuleInfo *ByName = findRule("exclusive-time-regression");
  ASSERT_NE(ByName, nullptr);
  EXPECT_EQ(ByName->Id, ById->Id);
  EXPECT_EQ(findRule("EVL999"), nullptr);

  // One listing covers every family.
  std::string Listing = renderRuleList();
  for (const RuleInfo &Rule : AnalysisRules)
    EXPECT_NE(Listing.find(std::string(Rule.Id)), std::string::npos)
        << Rule.Id;
}

TEST(RegressRules, DiagnoseTakesIdNameAndSeverityFromTheRow) {
  RuleFilter Keep;
  std::optional<Diagnostic> D =
      Keep.diagnose("EVL307", "schemas differ", "a hint", {.Node = 4});
  ASSERT_TRUE(D);
  EXPECT_EQ(D->Id, "EVL307");
  EXPECT_EQ(D->Rule, "cohort-schema-mismatch");
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Message, "schemas differ");
  EXPECT_EQ(D->Hint, "a hint");
  EXPECT_EQ(D->Node, 4u);
  EXPECT_EQ(D->Line, 0u);
  D = Keep.diagnose("EVQL009", "unused", "", {3, 7});
  ASSERT_TRUE(D);
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Line, 3u);
  EXPECT_EQ(D->Column, 7u);
  EXPECT_EQ(D->Node, InvalidNode);

  // Dropped below the threshold, and when disabled by id or by name.
  RuleFilter ErrorsOnly;
  ErrorsOnly.MinSeverity = Severity::Error;
  EXPECT_FALSE(ErrorsOnly.diagnose("EVL301", "improved"));
  EXPECT_TRUE(ErrorsOnly.diagnose("EVL307", "schemas differ"));
  RuleFilter ById, ByName;
  ById.Disabled = {"EVL205"};
  ByName.Disabled = {"zero-metric-subtree"};
  EXPECT_FALSE(ById.diagnose("EVL205", "empty subtree"));
  EXPECT_FALSE(ByName.diagnose("EVL205", "empty subtree"));
  EXPECT_TRUE(ByName.diagnose("EVL208", "dead frames"));
}

//===----------------------------------------------------------------------===
// pvp/regressions
//===----------------------------------------------------------------------===

namespace {

json::Array idArray(const std::vector<int64_t> &Ids) {
  json::Array Out;
  for (int64_t Id : Ids)
    Out.push_back(Id);
  return Out;
}

} // namespace

TEST(RegressPvp, RegressionsEndToEndWithCacheAndFilters) {
  workload::FleetOptions WOpts;
  WOpts.Replicas = 4;
  workload::FleetWorkload W = workload::generateFleetWorkload(WOpts);
  size_t M = W.Versions.size();

  MockIde Ide;
  std::vector<int64_t> BaseIds, TestIds;
  for (Profile &P : W.Versions[M - 2])
    BaseIds.push_back(Ide.server().addProfile(std::move(P)));
  for (Profile &P : W.Versions[M - 1])
    TestIds.push_back(Ide.server().addProfile(std::move(P)));

  json::Object Params;
  Params.set("base", idArray(BaseIds));
  Params.set("test", idArray(TestIds));
  Result<json::Value> R = Ide.call("pvp/regressions", Params);
  ASSERT_TRUE(R.ok()) << R.error();
  const json::Object &Reply = R->asObject();
  EXPECT_EQ(Reply.find("baseProfiles")->asInt(), 4);
  EXPECT_EQ(Reply.find("testProfiles")->asInt(), 4);
  EXPECT_EQ(Reply.find("errors")->asInt(), 0);
  EXPECT_GT(Reply.find("warnings")->asInt(), 0);
  const json::Array &Findings = Reply.find("findings")->asArray();
  ASSERT_FALSE(Findings.empty());
  bool SawPlant = false;
  for (const json::Value &F : Findings)
    if (F.asObject().find("id")->asString() == "EVL300")
      SawPlant = true;
  EXPECT_TRUE(SawPlant);

  // The second identical request is served from the view cache.
  Result<json::Value> Stats0 = Ide.call("pvp/stats", json::Object());
  ASSERT_TRUE(Stats0.ok());
  int64_t Hits0 = Stats0->asObject().find("cacheHits")->asInt();
  Result<json::Value> Again = Ide.call("pvp/regressions", Params);
  ASSERT_TRUE(Again.ok()) << Again.error();
  EXPECT_EQ(R->dump(), Again->dump());
  Result<json::Value> Stats1 = Ide.call("pvp/stats", json::Object());
  ASSERT_TRUE(Stats1.ok());
  EXPECT_GT(Stats1->asObject().find("cacheHits")->asInt(), Hits0);

  // Severity floor filters everything (no Error-grade findings planted).
  json::Object Filtered;
  Filtered.set("base", idArray(BaseIds));
  Filtered.set("test", idArray(TestIds));
  Filtered.set("minSeverity", "error");
  Result<json::Value> None = Ide.call("pvp/regressions", Filtered);
  ASSERT_TRUE(None.ok()) << None.error();
  EXPECT_TRUE(None->asObject().find("findings")->asArray().empty());

  // Single-id (non-array) cohorts are accepted.
  json::Object Single;
  Single.set("base", BaseIds[0]);
  Single.set("test", TestIds[0]);
  EXPECT_TRUE(Ide.call("pvp/regressions", Single).ok());

  // Unknown rules and unknown profiles are InvalidParams errors.
  json::Object BadRule;
  BadRule.set("base", idArray(BaseIds));
  BadRule.set("test", idArray(TestIds));
  json::Array Disable;
  Disable.push_back(std::string("EVL999"));
  BadRule.set("disable", std::move(Disable));
  EXPECT_FALSE(Ide.call("pvp/regressions", BadRule).ok());
  json::Object BadId;
  BadId.set("base", int64_t{424242});
  BadId.set("test", idArray(TestIds));
  EXPECT_FALSE(Ide.call("pvp/regressions", BadId).ok());
}

//===----------------------------------------------------------------------===
// evtool regress
//===----------------------------------------------------------------------===

namespace {

class RegressCliTest : public ::testing::Test {
protected:
  void SetUp() override {
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = std::string("/tmp/evtool_regress_") + Info->name();
    workload::FleetOptions WOpts;
    WOpts.Replicas = 3;
    W = workload::generateFleetWorkload(WOpts);
    for (size_t V = 0; V < W.Versions.size(); ++V) {
      std::string Sub = Dir + "/v" + std::to_string(V);
      ASSERT_EQ(std::system(("mkdir -p " + Sub).c_str()), 0);
      for (size_t R = 0; R < W.Versions[V].size(); ++R)
        ASSERT_TRUE(writeFile(Sub + "/replica" + std::to_string(R) +
                                  ".evprof",
                              writeEvProf(W.Versions[V][R]))
                        .ok());
    }
    Base = Dir + "/v" + std::to_string(W.Versions.size() - 2);
    Test = Dir + "/v" + std::to_string(W.Versions.size() - 1);
    Noise0 = Dir + "/v0";
    Noise1 = Dir + "/v1";
  }

  int run(std::vector<std::string> Args) {
    Out.clear();
    Err.clear();
    return tool::runEvTool(Args, Out, Err);
  }

  workload::FleetWorkload W;
  std::string Dir, Base, Test, Noise0, Noise1;
  std::string Out, Err;
};

} // namespace

TEST_F(RegressCliTest, TextReportsPlantsAndWerrorEscalates) {
  ASSERT_EQ(run({"regress", Base, Test}), 0) << Err;
  EXPECT_NE(Out.find("base:"), std::string::npos);
  for (const workload::PlantedRegression &Plant : W.Planted)
    EXPECT_NE(Out.find(Plant.Frame), std::string::npos) << Plant.Frame;
  EXPECT_NE(Out.find("EVL300"), std::string::npos);
  // Warnings escalate to a failing exit with --werror.
  EXPECT_EQ(run({"regress", Base, Test, "--werror"}), tool::ExitDataError);
}

TEST_F(RegressCliTest, NoiseOnlyCohortsAreCleanEvenUnderWerror) {
  ASSERT_EQ(run({"regress", Noise0, Noise1, "--werror"}), 0) << Out << Err;
  EXPECT_EQ(Out.find("EVL3"), std::string::npos) << Out;
}

TEST_F(RegressCliTest, JsonOutputIsWellFormed) {
  ASSERT_EQ(run({"regress", Base, Test, "--format", "json"}), 0) << Err;
  Result<json::Value> Doc = json::parse(Out);
  ASSERT_TRUE(Doc.ok()) << Doc.error();
  const json::Object &Root = Doc->asObject();
  EXPECT_EQ(Root.find("base")->asObject().find("profiles")->asInt(), 3);
  EXPECT_EQ(Root.find("test")->asObject().find("profiles")->asInt(), 3);
  EXPECT_EQ(Root.find("errors")->asInt(), 0);
  EXPECT_GT(Root.find("warnings")->asInt(), 0);
  EXPECT_FALSE(Root.find("findings")->asArray().empty());
}

TEST_F(RegressCliTest, SingleFileCohortsAndThresholdOverrides) {
  std::string One = Base + "/replica0.evprof";
  std::string Two = Test + "/replica0.evprof";
  ASSERT_EQ(run({"regress", One, Two}), 0) << Err;
  EXPECT_NE(Out.find("1 profile"), std::string::npos);
  // An absurd relative floor silences the delta rules (EVL306 keeps its
  // own allocation threshold, so it is disabled by name instead).
  ASSERT_EQ(run({"regress", Base, Test, "--rel-min", "1000",
                 "--min-severity", "warning", "--disable",
                 "EVL302,EVL304,EVL305,EVL308,allocation-drift"}),
            0)
      << Err;
  EXPECT_EQ(Out.find("EVL30"), std::string::npos) << Out;
  // A tiny node budget exercises the prune path through the CLI.
  EXPECT_EQ(run({"regress", Base, Test, "--node-budget", "32"}), 0) << Err;
}

TEST_F(RegressCliTest, ListRulesIsUnifiedAcrossSubcommands) {
  ASSERT_EQ(run({"regress", "--list-rules"}), 0) << Err;
  std::string RegressListing = Out;
  EXPECT_NE(RegressListing.find("EVL300"), std::string::npos);
  EXPECT_NE(RegressListing.find("EVQL"), std::string::npos);
  ASSERT_EQ(run({"lint", "--list-rules"}), 0) << Err;
  EXPECT_EQ(Out, RegressListing);
  ASSERT_EQ(run({"check", "--list-rules"}), 0) << Err;
  EXPECT_EQ(Out, RegressListing);
}

TEST_F(RegressCliTest, UsageErrorsAreDistinct) {
  EXPECT_EQ(run({"regress", Base}), tool::ExitUsageError);
  EXPECT_EQ(run({"regress", Base, Test, "--format", "yaml"}),
            tool::ExitUsageError);
  EXPECT_EQ(run({"regress", Base, Test, "--disable", "EVL999"}),
            tool::ExitUsageError);
  EXPECT_NE(Err.find("unknown rule"), std::string::npos);
  EXPECT_EQ(run({"regress", Dir + "/does-not-exist", Test}),
            tool::ExitDataError);
}
