//===- tests/profile_test.cpp - profile/ data model tests -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"
#include "profile/ProfileBuilder.h"

#include "support/FileIo.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstring>

#include <unistd.h>

using namespace ev;

TEST(Profile, FreshProfileHasRoot) {
  Profile P;
  EXPECT_EQ(P.nodeCount(), 1u);
  EXPECT_EQ(P.root(), 0u);
  EXPECT_EQ(P.node(P.root()).Parent, InvalidNode);
  EXPECT_EQ(P.nameOf(P.root()), "ROOT");
  EXPECT_EQ(P.frameOf(P.root()).Kind, FrameKind::Root);
  EXPECT_TRUE(P.verify().ok());
}

TEST(Profile, AddMetricDeduplicatesByName) {
  ProfileBuilder B("t");
  MetricId A = B.addMetric("time", "nanoseconds");
  MetricId Same = B.addMetric("time", "nanoseconds");
  MetricId C = B.addMetric("bytes", "bytes");
  EXPECT_EQ(A, Same);
  EXPECT_NE(A, C);
  Profile P = B.take();
  EXPECT_EQ(P.metrics().size(), 2u);
  EXPECT_EQ(P.findMetric("bytes"), C);
  EXPECT_EQ(P.findMetric("missing"), Profile::InvalidMetric);
}

TEST(Profile, InternFrameDeduplicates) {
  ProfileBuilder B("t");
  Frame F;
  F.Name = B.intern("fn");
  F.Loc.File = B.intern("f.cc");
  F.Loc.Line = 7;
  FrameId A = B.internFrame(F);
  FrameId Again = B.internFrame(F);
  EXPECT_EQ(A, Again);
  F.Loc.Line = 8;
  EXPECT_NE(B.internFrame(F), A);
}

TEST(Profile, CreateNodeLinksBothWays) {
  ProfileBuilder B("t");
  NodeId Child = B.createNode(B.root(), B.functionFrame("child"));
  Profile P = B.take();
  EXPECT_EQ(P.node(Child).Parent, P.root());
  ASSERT_EQ(P.node(P.root()).Children.size(), 1u);
  EXPECT_EQ(P.node(P.root()).Children[0], Child);
  EXPECT_TRUE(P.verify().ok());
}

TEST(Profile, PathToAndDepth) {
  Profile P = test::makeFixedProfile();
  // Find the kernel node.
  NodeId Kernel = InvalidNode;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    if (P.nameOf(Id) == "kernel")
      Kernel = Id;
  ASSERT_NE(Kernel, InvalidNode);
  std::vector<NodeId> Path = P.pathTo(Kernel);
  ASSERT_EQ(Path.size(), 4u); // ROOT, main, compute, kernel.
  EXPECT_EQ(Path.front(), P.root());
  EXPECT_EQ(Path.back(), Kernel);
  EXPECT_EQ(P.nameOf(Path[1]), "main");
  EXPECT_EQ(P.depth(Kernel), 3u);
  EXPECT_EQ(P.depth(P.root()), 0u);
}

TEST(Profile, MetricValueAccumulates) {
  ProfileBuilder B("t");
  B.addValue(B.root(), 0, 5.0);
  B.addValue(B.root(), 0, 2.5);
  B.addValue(B.root(), 1, 1.0);
  Profile P = B.take();
  CCTNode Node = P.node(P.root());
  EXPECT_EQ(Node.Metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(Node.metricOr(0), 7.5);
  EXPECT_DOUBLE_EQ(Node.metricOr(1), 1.0);
  EXPECT_DOUBLE_EQ(Node.metricOr(2), 0.0);
  EXPECT_DOUBLE_EQ(Node.metricOr(2, -1.0), -1.0);
}

TEST(Profile, VerifyCatchesBrokenChildLink) {
  // Child lists are derived from the parents column when a profile is
  // frozen, so a broken link can only arrive through a corrupted spill
  // file: re-point the last node's parent and the mapping is refused.
  Profile P = test::makeFixedProfile();
  std::string Path = "/tmp/evprofile_test_" + std::to_string(::getpid()) +
                     ".evcol";
  ASSERT_TRUE(P.spillTo(Path).ok());
  Result<std::string> Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  NodeId Victim = static_cast<NodeId>(P.nodeCount() - 1);
  NodeId Wrong = P.node(Victim).Parent == 1 ? 2 : 1;
  std::memcpy(Bytes->data() + 4096 + Victim * sizeof(NodeId), &Wrong,
              sizeof(NodeId));
  ASSERT_TRUE(writeFile(Path, *Bytes).ok());
  Result<Profile> Mapped = Profile::mapFrom(Path);
  ::unlink(Path.c_str());
  ASSERT_FALSE(Mapped.ok());
  EXPECT_NE(Mapped.error().find("parents"), std::string::npos);
}

TEST(Profile, VerifyCatchesOutOfRangeMetric) {
  ProfileBuilder B(test::makeFixedProfile());
  B.appendValue(1, {999, 1.0});
  Profile P = B.take();
  Result<bool> R = P.verify();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("metric"), std::string::npos);
}

TEST(Profile, GroupsValidateContexts) {
  ProfileBuilder B(test::makeFixedProfile());
  const NodeId Good[] = {1, 2};
  B.addGroup("reuse", Good, 0, 10);
  EXPECT_TRUE(B.build().verify().ok());
  const NodeId Bad[] = {1, 2, 9999};
  B.addGroup("reuse", Bad, 0, 10);
  EXPECT_FALSE(B.take().verify().ok());
}

TEST(Profile, ApproxMemoryGrowsWithContent) {
  Profile Small = test::makeFixedProfile();
  Profile Large = test::makeRandomProfile(3, 2000);
  EXPECT_GT(Small.approxMemoryBytes(), 0u);
  EXPECT_GT(Large.approxMemoryBytes(), Small.approxMemoryBytes());
}

//===----------------------------------------------------------------------===
// ProfileBuilder
//===----------------------------------------------------------------------===

TEST(ProfileBuilder, MergesCommonPrefixes) {
  ProfileBuilder B("t");
  MetricId M = B.addMetric("m", "count");
  FrameId A = B.functionFrame("a");
  FrameId C = B.functionFrame("c");
  FrameId D = B.functionFrame("d");
  std::vector<FrameId> P1 = {A, C};
  std::vector<FrameId> P2 = {A, D};
  B.addSample(P1, M, 1);
  B.addSample(P2, M, 1);
  Profile P = B.take();
  // ROOT + a + c + d = 4 nodes (the "a" prefix merged).
  EXPECT_EQ(P.nodeCount(), 4u);
}

TEST(ProfileBuilder, RepeatedSamplesAccumulateAtLeaf) {
  ProfileBuilder B("t");
  MetricId M = B.addMetric("m", "count");
  FrameId A = B.functionFrame("a");
  std::vector<FrameId> Path = {A};
  B.addSample(Path, M, 2);
  B.addSample(Path, M, 3);
  Profile P = B.take();
  EXPECT_EQ(P.nodeCount(), 2u);
  EXPECT_DOUBLE_EQ(P.node(1).metricOr(M), 5.0);
}

TEST(ProfileBuilder, SameNameDifferentLocationAreDistinctFrames) {
  ProfileBuilder B("t");
  MetricId M = B.addMetric("m", "count");
  FrameId A1 = B.functionFrame("f", "x.cc", 1);
  FrameId A2 = B.functionFrame("f", "x.cc", 2);
  EXPECT_NE(A1, A2);
  std::vector<FrameId> P1 = {A1};
  std::vector<FrameId> P2 = {A2};
  B.addSample(P1, M, 1);
  B.addSample(P2, M, 1);
  EXPECT_EQ(B.nodeCount(), 3u);
}

TEST(ProfileBuilder, EmptyPathTargetsRoot) {
  ProfileBuilder B("t");
  MetricId M = B.addMetric("m", "count");
  NodeId Leaf = B.addSample({}, M, 4);
  Profile P = B.take();
  EXPECT_EQ(Leaf, P.root());
  EXPECT_DOUBLE_EQ(P.node(P.root()).metricOr(M), 4.0);
}

TEST(ProfileBuilder, RecursivePathsKeepSeparateNodes) {
  ProfileBuilder B("t");
  MetricId M = B.addMetric("m", "count");
  FrameId A = B.functionFrame("rec");
  std::vector<FrameId> Path = {A, A, A};
  B.addSample(Path, M, 1);
  Profile P = B.take();
  EXPECT_EQ(P.nodeCount(), 4u); // ROOT + three recursion levels.
}

TEST(ProfileBuilder, GroupsAreRecorded) {
  ProfileBuilder B("t");
  MetricId M = B.addMetric("m", "count");
  FrameId A = B.functionFrame("a");
  FrameId C = B.functionFrame("b");
  std::vector<FrameId> P1 = {A};
  std::vector<FrameId> P2 = {C};
  NodeId N1 = B.addSample(P1, M, 1);
  NodeId N2 = B.addSample(P2, M, 1);
  const NodeId Contexts[] = {N1, N2};
  B.addGroup("pair", Contexts, M, 42.0);
  Profile P = B.take();
  ASSERT_EQ(P.groups().size(), 1u);
  EXPECT_EQ(P.text(P.groups()[0].Kind), "pair");
  EXPECT_DOUBLE_EQ(P.groups()[0].Value, 42.0);
  EXPECT_TRUE(P.verify().ok());
}

TEST(ProfileBuilder, DataFrameKind) {
  ProfileBuilder B("t");
  FrameId D = B.dataFrame("buf[]", "alloc.cc", 12);
  Profile P = B.take();
  EXPECT_EQ(P.frame(D).Kind, FrameKind::DataObject);
}

TEST(FrameKindName, CoversAllKinds) {
  EXPECT_EQ(frameKindName(FrameKind::Root), "root");
  EXPECT_EQ(frameKindName(FrameKind::Function), "function");
  EXPECT_EQ(frameKindName(FrameKind::Loop), "loop");
  EXPECT_EQ(frameKindName(FrameKind::BasicBlock), "basic-block");
  EXPECT_EQ(frameKindName(FrameKind::Instruction), "instruction");
  EXPECT_EQ(frameKindName(FrameKind::DataObject), "data-object");
  EXPECT_EQ(frameKindName(FrameKind::Thread), "thread");
}

TEST(SourceLocation, SourceMappingRequiresFileAndLine) {
  SourceLocation Loc;
  EXPECT_FALSE(Loc.hasSourceMapping());
  Loc.File = 5;
  EXPECT_FALSE(Loc.hasSourceMapping());
  Loc.Line = 10;
  EXPECT_TRUE(Loc.hasSourceMapping());
}
