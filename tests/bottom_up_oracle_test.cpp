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
//===----------------------------------------------------------------------===//

#include "BottomUpOracle.h"

#include "analysis/Aggregate.h"
#include "analysis/Transform.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "support/Limits.h"
#include "workload/SyntheticProfile.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace ev;

namespace {

void expectSameAsOracle(const Profile &P, const std::string &What) {
  ASSERT_TRUE(P.verify().ok()) << What;
  Profile Up = bottomUpTree(P);
  EXPECT_TRUE(Up.verify().ok()) << What;
  EXPECT_EQ(writeEvProf(Up), writeEvProf(oracle::bottomUpTree(P))) << What;
}

} // namespace

TEST(BottomUpOracle, RandomProfiles) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed)
    expectSameAsOracle(test::makeRandomProfile(Seed),
                       "seed " + std::to_string(Seed));
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

TEST(BottomUpOracle, SourceFramesMergedOnImport) {
  // Two frames with the same texts under different string ids: spill a
  // profile, rewrite one name into the other in the block and map it
  // back. importFrame interns both to one output frame.
  ProfileBuilder B("merged frames");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  FrameId A = B.functionFrame("helper-A", "h.cc", 7);
  FrameId Other = B.functionFrame("helper-B", "h.cc", 7);
  FrameId Leaf = B.functionFrame("leaf");
  std::vector<FrameId> Paths[] = {{Main, A, Leaf}, {Main, Other, Leaf},
                                  {Main, Other},   {Main, A},
                                  {Other, Leaf},   {A, Leaf}};
  double Value = 1;
  for (const std::vector<FrameId> &Path : Paths)
    B.addSample(Path, Time, Value++);
  Profile P = B.take();

  std::string Path = ::testing::TempDir() + "bottom_up_merged_frames.evcol";
  ASSERT_TRUE(P.spillTo(Path).ok());
  Result<std::string> Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  std::string Block = *Bytes;
  size_t At = Block.find("helper-B");
  ASSERT_NE(At, std::string::npos);
  ASSERT_EQ(Block.find("helper-B", At + 1), std::string::npos);
  Block[At + 7] = 'A';
  ASSERT_TRUE(writeFile(Path, Block).ok());
  Result<Profile> Mapped = Profile::mapFrom(Path);
  ASSERT_TRUE(Mapped.ok()) << Mapped.error();
  ASSERT_EQ(Mapped->text(Mapped->frame(Other).Name), "helper-A");
  ASSERT_NE(Mapped->frame(Other), Mapped->frame(A));

  Profile Up = bottomUpTree(*Mapped);
  expectSameAsOracle(*Mapped, "merged frames");
  // Fewer frames out than in: the two helpers became one.
  EXPECT_EQ(Up.frames().size() + 1, Mapped->frames().size());
  std::remove(Path.c_str());
}
