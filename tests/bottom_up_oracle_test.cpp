//===- tests/bottom_up_oracle_test.cpp - Grouped bottom-up vs the oracle --===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of bottomUpTree, which groups shared callers level by
/// level and emits unshared tails as chains, against the path-merging
/// oracle (tests/BottomUpOracle.h). Both must give byte-identical
/// writeEvProf output: the same node ids, frames and value order.
///
/// The same inputs check the bottom-up flame the views lay out from a
/// CallersTree against FlameGraph(bottomUpTree(P)), the layout of the
/// built tree: every rect field bit for bit, its frame by its texts, the
/// total, the culled count and the depth, for every metric under four
/// layout policies.
///
//===----------------------------------------------------------------------===//

#include "BottomUpOracle.h"

#include "analysis/Aggregate.h"
#include "analysis/Transform.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "render/FlameLayout.h"
#include "support/Limits.h"
#include "workload/SyntheticProfile.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

using namespace ev;

namespace {

bool sameBits(double A, double B) {
  return std::bit_cast<uint64_t>(A) == std::bit_cast<uint64_t>(B);
}

/// What a rect's frame says; the two graphs hold different profiles.
std::string frameText(const FlameGraph &G, const FlameRect &R) {
  const Frame &F = G.frameOf(R);
  const Profile &P = G.profile();
  return std::to_string(static_cast<int>(F.Kind)) + " " +
         std::string(P.text(F.Name)) + " " + std::string(P.text(F.Loc.File)) +
         ":" + std::to_string(F.Loc.Line) + " " +
         std::string(P.text(F.Loc.Module)) + " @" +
         std::to_string(F.Loc.Address);
}

void expectSameFlame(const FlameGraph &Got, const FlameGraph &Want,
                     const std::string &What) {
  ASSERT_TRUE(sameBits(Got.totalValue(), Want.totalValue())) << What;
  ASSERT_EQ(Got.culledCount(), Want.culledCount()) << What;
  ASSERT_EQ(Got.depth(), Want.depth()) << What;
  ASSERT_EQ(Got.rects().size(), Want.rects().size()) << What;
  for (size_t I = 0; I < Got.rects().size(); ++I) {
    const FlameRect &G = Got.rects()[I];
    const FlameRect &W = Want.rects()[I];
    std::string At = What + ", rect " + std::to_string(I);
    ASSERT_EQ(G.Node, W.Node) << At;
    ASSERT_EQ(G.Depth, W.Depth) << At;
    ASSERT_TRUE(sameBits(G.X, W.X)) << At;
    ASSERT_TRUE(sameBits(G.Width, W.Width)) << At;
    ASSERT_TRUE(sameBits(G.Value, W.Value)) << At << ": " << G.Value
                                            << " vs " << W.Value;
    ASSERT_EQ(G.Color, W.Color) << At;
    ASSERT_EQ(G.Highlighted, W.Highlighted) << At;
    ASSERT_EQ(frameText(Got, G), frameText(Want, W)) << At;
  }
}

const std::pair<const char *, FlameLayoutOptions> LayoutCases[] = {
    {"default layout", {}},
    {"MinWidth 0", {.MinWidth = 0.0}},
    {"insertion order", {.SortByValue = false}},
    {"MaxDepth 3", {.MaxDepth = 3}},
};

void expectSameAsOracle(const Profile &P, const std::string &What) {
  ASSERT_TRUE(P.verify().ok()) << What;
  Profile Up = bottomUpTree(P);
  EXPECT_TRUE(Up.verify().ok()) << What;
  EXPECT_EQ(writeEvProf(Up), writeEvProf(oracle::bottomUpTree(P))) << What;
  // The flame of the built tree is the oracle of the flame laid out
  // straight from the caller groups.
  size_t Metrics = std::max<size_t>(P.metrics().size(), 1);
  for (MetricId M = 0; M < Metrics; ++M)
    for (const auto &[Name, Opt] : LayoutCases)
      expectSameFlame(FlameGraph(CallersTree(P, M), Opt),
                      FlameGraph(Up, M, Opt),
                      What + ", metric " + std::to_string(M) + ", " + Name);
}

} // namespace

TEST(BottomUpOracle, RandomProfiles) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    Profile P = test::makeRandomProfile(Seed);
    expectSameAsOracle(P, "seed " + std::to_string(Seed));
    expectSameAsOracle(test::withFractionalValues(P),
                       "fractional seed " + std::to_string(Seed));
  }
}

TEST(BottomUpOracle, SyntheticPprofOfOneMegabyte) {
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 1 << 20;
  expectSameAsOracle(workload::generateSyntheticProfile(Opt), "1 MB pprof");
}

TEST(BottomUpOracle, AggregateOfEight) {
  std::vector<Profile> Inputs;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Inputs.push_back(test::makeRandomProfile(Seed, 120, 8, 24));
  std::vector<const Profile *> Ptrs;
  for (const Profile &P : Inputs)
    Ptrs.push_back(&P);
  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = Opt.WithStddev = true;
  expectSameAsOracle(aggregate(Ptrs, Opt).merged(), "aggregate of 8");
}

TEST(BottomUpOracle, RootOnly) {
  ProfileBuilder Bare("bare");
  expectSameAsOracle(Bare.take(), "bare root");
  // A value on the root itself has no call path and is not inverted.
  ProfileBuilder B("root value");
  B.addValue(B.root(), B.addMetric("time", "ns"), 5);
  expectSameAsOracle(B.take(), "root value");
}

TEST(BottomUpOracle, EveryValueZero) {
  Profile Random = test::makeRandomProfile(3);
  ProfileBuilder B(Random);
  for (NodeId Id = 0; Id < Random.nodeCount(); ++Id)
    for (const MetricValue &MV : Random.node(Id).Metrics)
      B.addValue(Id, MV.Metric, -MV.Value);
  Profile Zeroed = B.take();
  expectSameAsOracle(Zeroed, "all zero");
  EXPECT_EQ(bottomUpTree(Zeroed).nodeCount(), 1u);
}

TEST(BottomUpOracle, ValuesOnANodeAndItsDescendants) {
  ProfileBuilder B("nested");
  MetricId Time = B.addMetric("time", "ns");
  MetricId Bytes = B.addMetric("bytes", "B");
  FrameId Main = B.functionFrame("main");
  FrameId Work = B.functionFrame("work");
  FrameId Leaf = B.functionFrame("leaf");
  std::vector<FrameId> Path = {Main};
  B.addSample(Path, Time, 1);
  Path = {Main, Work};
  B.addSample(Path, Bytes, 2);
  B.addSample(Path, Time, 0); // A zero beside a non-zero value is kept.
  Path = {Main, Work, Leaf};
  B.addSample(Path, Time, 3);
  Path = {Main, Leaf};
  B.addSample(Path, Time, 4);
  Path = {Main, Work, Work, Leaf};
  B.addSample(Path, Time, 5);
  Path = {Leaf};
  B.addSample(Path, Bytes, 6);
  expectSameAsOracle(B.take(), "nested values");
}

TEST(BottomUpOracle, SignedZerosRepeatedMetricsAndSharedLeaves) {
  // Sums that tell an order or a sign apart: -0 beside another metric's
  // non-zero value, a metric repeated in one node's list, two contexts
  // with one reversed path, and paths ending where others pass through.
  ProfileBuilder B("edge values");
  MetricId Time = B.addMetric("time", "ns");
  MetricId Bytes = B.addMetric("bytes", "B");
  FrameId Main = B.functionFrame("main");
  FrameId Work = B.functionFrame("work");
  FrameId Leaf = B.functionFrame("leaf");
  NodeId MainA = B.createNode(B.root(), Main);
  NodeId MainB = B.createNode(B.root(), Main);
  NodeId WorkA = B.createNode(MainA, Work);
  NodeId MainAgain = B.createNode(WorkA, Main);
  NodeId WorkB = B.createNode(MainB, Work);
  NodeId LeafB = B.createNode(WorkB, Leaf);
  NodeId LeafTop = B.createNode(B.root(), Leaf);
  B.appendValue(MainA, {Time, -0.0});
  B.appendValue(MainA, {Bytes, 1});
  B.appendValue(MainB, {Time, 0.1});
  B.appendValue(MainB, {Time, 0.2});
  B.appendValue(MainB, {Time, 1e16});
  B.appendValue(WorkA, {Time, 1e16});
  B.appendValue(MainAgain, {Time, 0.3});
  B.appendValue(WorkB, {Time, -1e16});
  B.appendValue(WorkB, {Bytes, 2});
  B.appendValue(LeafB, {Bytes, -0.0});
  B.appendValue(LeafB, {Time, 1});
  B.appendValue(LeafTop, {Time, 0.7});
  B.appendValue(LeafTop, {Bytes, -0.0});
  expectSameAsOracle(B.take(), "edge values");
}

TEST(BottomUpOracle, ChainAtMaxTreeDepth) {
  const size_t Depth = DecodeLimits().MaxTreeDepth;
  ProfileBuilder B("deep");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Recurse = B.functionFrame("recurse");
  FrameId Tip = B.functionFrame("tip");
  std::vector<FrameId> Path(Depth - 1, Recurse);
  Path.push_back(Tip);
  B.addSample(Path, Time, 1);
  expectSameAsOracle(B.build(), "one chain");
  // Recursive contributors along the chain share callers for as many
  // levels as the shallower of two is deep.
  NodeId At = B.root();
  for (size_t D = 1; D < Depth; ++D) {
    At = B.child(At, Recurse);
    if (D % 4096 == 0)
      B.addValue(At, Time, static_cast<double>(D));
  }
  expectSameAsOracle(B.take(), "recursive chain");
}

