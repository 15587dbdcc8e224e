//===- tests/extensions_test.cpp - TAU, annotations, scaling tests --------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Diff.h"
#include "analysis/MetricEngine.h"
#include "convert/Converters.h"
#include "query/Vm.h"
#include "render/CodeAnnotations.h"
#include "workload/ScalingWorkload.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ev;

//===----------------------------------------------------------------------===
// TAU converter
//===----------------------------------------------------------------------===

namespace {

const char *TauProfile =
    "4 templated_functions_MULTI_TIME\n"
    "# Name Calls Subrs Excl Incl ProfileCalls #\n"
    "\".TAU application\" 1 1 1000 29000 0 GROUP=\"TAU_DEFAULT\"\n"
    "\"main()\" 1 2 2000 28000 0 GROUP=\"TAU_USER\"\n"
    "\"main() => work()\" 4 0 20000 20000 0 GROUP=\"TAU_CALLPATH\"\n"
    "\"main() => io()\" 2 0 6000 6000 0 GROUP=\"TAU_CALLPATH\"\n"
    "0 aggregates\n";

NodeId findByName(const Profile &P, std::string_view Name) {
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    if (P.nameOf(Id) == Name)
      return Id;
  return InvalidNode;
}

} // namespace

TEST(Tau, ParsesCallpathProfile) {
  Result<Profile> P = convert::fromTau(TauProfile);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_TRUE(P->verify().ok());
  MetricId Time = P->findMetric("time");
  ASSERT_NE(Time, Profile::InvalidMetric);
  // 1000 + 2000 + 20000 + 6000 usec in ns.
  EXPECT_DOUBLE_EQ(metricTotal(*P, Time), 29000e3);
  // ".TAU application" maps onto ROOT, so its 1000 usec sits at the root.
  EXPECT_DOUBLE_EQ(P->node(P->root()).metricOr(Time), 1000e3);
}

TEST(Tau, CallPathsBecomeTree) {
  Result<Profile> P = convert::fromTau(TauProfile);
  ASSERT_TRUE(P.ok());
  NodeId Work = findByName(*P, "work()");
  ASSERT_NE(Work, InvalidNode);
  EXPECT_EQ(P->nameOf(P->node(Work).Parent), "main()");
  MetricId Calls = P->findMetric("calls");
  EXPECT_DOUBLE_EQ(P->node(Work).metricOr(Calls), 4.0);
}

TEST(Tau, Detection) {
  EXPECT_EQ(convert::detectFormat(TauProfile), convert::Format::Tau);
  Result<Profile> P = convert::load(TauProfile, "profile.0.0.0");
  ASSERT_TRUE(P.ok()) << P.error();
}

TEST(Tau, RejectsMalformed) {
  EXPECT_FALSE(convert::fromTau("").ok());
  EXPECT_FALSE(convert::fromTau("not a tau profile").ok());
  EXPECT_FALSE(
      convert::fromTau("2 templated_functions_MULTI_TIME\n"
                       "\"main()\" 1 2 2000 28000 0\n")
          .ok()); // Declares 2, provides 1.
  EXPECT_FALSE(convert::fromTau("1 templated_functions_MULTI_TIME\n"
                                "\"main()\" x y\n")
                   .ok());
}

//===----------------------------------------------------------------------===
// Code annotations
//===----------------------------------------------------------------------===

TEST(Annotations, CollectsPerLineTotals) {
  Profile P = test::makeFixedProfile();
  std::vector<LineAnnotation> A = annotateFile(P, "comp.cc");
  ASSERT_EQ(A.size(), 2u); // Lines 20 (compute) and 30 (kernel).
  EXPECT_EQ(A[0].Line, 20u);
  EXPECT_DOUBLE_EQ(A[0].Totals[0], 10.0);
  EXPECT_EQ(A[1].Line, 30u);
  EXPECT_DOUBLE_EQ(A[1].Totals[0], 40.0);
  // Hotness is relative to the hottest line of the file.
  EXPECT_DOUBLE_EQ(A[1].Hotness, 1.0);
  EXPECT_DOUBLE_EQ(A[0].Hotness, 0.25);
  EXPECT_NE(A[0].LensText.find("time"), std::string::npos);
  ASSERT_EQ(A[1].Contexts.size(), 1u);
  EXPECT_EQ(P.nameOf(A[1].Contexts[0]), "kernel");
}

TEST(Annotations, UnknownFileIsEmpty) {
  Profile P = test::makeFixedProfile();
  EXPECT_TRUE(annotateFile(P, "other.cc").empty());
  std::string Text = renderAnnotationsText(P, "other.cc");
  EXPECT_NE(Text.find("no profile data"), std::string::npos);
}

TEST(Annotations, HoverTextListsAllMetrics) {
  Profile P = test::makeRandomProfile(3);
  std::string Text = hoverText(P, 1);
  EXPECT_NE(Text.find("- time:"), std::string::npos);
  EXPECT_NE(Text.find("- bytes:"), std::string::npos);
  EXPECT_NE(Text.find("inclusive"), std::string::npos);
}

TEST(Annotations, RenderTextShowsHeatBars) {
  Profile P = test::makeFixedProfile();
  std::string Text = renderAnnotationsText(P, "comp.cc");
  EXPECT_NE(Text.find("line 30"), std::string::npos);
  EXPECT_NE(Text.find("**********"), std::string::npos); // Hottest line.
}

//===----------------------------------------------------------------------===
// Memory-scaling case study
//===----------------------------------------------------------------------===

TEST(Scaling, NonScalableContextsTrackProcessRatio) {
  workload::ScalingOptions Opt;
  workload::ScalingWorkload W = workload::generateScalingWorkload(Opt);
  DiffResult D = diffProfiles(W.Small, W.Large, 0);

  Result<evql::QueryOutput> Out = evql::runProgram(
      D.Merged, "derive scaling = ratio(inclusive(\"test mem-bytes\"), "
                "inclusive(\"base mem-bytes\"));");
  ASSERT_TRUE(Out.ok()) << Out.error();
  const Profile &R = Out->Result;
  MetricId Scaling = R.findMetric("scaling");
  double ProcRatio =
      static_cast<double>(Opt.LargeProcs) / Opt.SmallProcs;

  for (const std::string &Name : W.NonScalable) {
    NodeId Id = findByName(R, Name);
    ASSERT_NE(Id, InvalidNode) << Name;
    EXPECT_NEAR(R.node(Id).metricOr(Scaling), ProcRatio, ProcRatio * 0.2)
        << Name;
  }
  for (const std::string &Name : W.Scalable) {
    NodeId Id = findByName(R, Name);
    ASSERT_NE(Id, InvalidNode) << Name;
    EXPECT_NEAR(R.node(Id).metricOr(Scaling), 1.0, 0.25) << Name;
  }
}

TEST(Scaling, DeterministicBySeed) {
  workload::ScalingWorkload A = workload::generateScalingWorkload({});
  workload::ScalingWorkload B = workload::generateScalingWorkload({});
  EXPECT_DOUBLE_EQ(metricTotal(A.Small, 0), metricTotal(B.Small, 0));
  EXPECT_DOUBLE_EQ(metricTotal(A.Large, 0), metricTotal(B.Large, 0));
}

//===----------------------------------------------------------------------===
// New EVQL builtins
//===----------------------------------------------------------------------===

TEST(EvqlBuiltins, ShareIsleafParentnameHasancestor) {
  Profile P = test::makeFixedProfile();
  Result<evql::QueryOutput> Out = evql::runProgram(
      P, "derive s = share(\"time\");\n"
         "derive leafy = isleaf() ? 1 : 0;\n"
         "derive under = hasancestor(\"compute\") ? 1 : 0;\n"
         "derive pmain = parentname() == \"main\" ? 1 : 0;\n");
  ASSERT_TRUE(Out.ok()) << Out.error();
  const Profile &R = Out->Result;

  NodeId Kernel = findByName(R, "kernel");
  EXPECT_DOUBLE_EQ(R.node(Kernel).metricOr(R.findMetric("s")), 0.40);
  EXPECT_DOUBLE_EQ(R.node(Kernel).metricOr(R.findMetric("leafy")), 1.0);
  EXPECT_DOUBLE_EQ(R.node(Kernel).metricOr(R.findMetric("under")), 1.0);

  NodeId Compute = findByName(R, "compute");
  EXPECT_DOUBLE_EQ(R.node(Compute).metricOr(R.findMetric("leafy")), 0.0);
  EXPECT_DOUBLE_EQ(R.node(Compute).metricOr(R.findMetric("under")), 0.0);
  EXPECT_DOUBLE_EQ(R.node(Compute).metricOr(R.findMetric("pmain")), 1.0);
}

TEST(EvqlBuiltins, PruneSubtreeWithHasancestor) {
  Profile P = test::makeFixedProfile();
  Result<evql::QueryOutput> Out = evql::runProgram(
      P, "prune when hasancestor(\"compute\") || name() == \"compute\";");
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(findByName(Out->Result, "kernel"), InvalidNode);
  EXPECT_EQ(findByName(Out->Result, "compute"), InvalidNode);
  EXPECT_NE(findByName(Out->Result, "parse"), InvalidNode);
  EXPECT_DOUBLE_EQ(metricTotal(Out->Result, 0), 100.0); // Conserved.
}
