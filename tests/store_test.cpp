//===- tests/store_test.cpp - Out-of-core profile store tests -------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The out-of-core profile store (docs/PERF.md "Out-of-core profile
/// store"): mmap helpers and their failure paths, the profile block's
/// spill/map round trip and its rejection of truncated or garbled files,
/// the evprof round trip of every workload generator, the LRU budget
/// policy, spill/fault behavior of a budgeted ProfileStore, generation
/// retirement, and the pvp/stats memory attribution. Every suite name
/// starts with "Store" so the easyview_store ctest entry (also run under
/// both sanitizer presets) selects exactly this file.
///
//===----------------------------------------------------------------------===//

#include "analysis/Aggregate.h"
#include "analysis/FleetAggregate.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "profile/ProfileStore.h"
#include "profile/StoreBudget.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "support/ThreadPool.h"
#include "tool/CliDriver.h"
#include "workload/FleetWorkload.h"
#include "workload/GrpcLeakWorkload.h"
#include "workload/LuleshWorkload.h"
#include "workload/ReuseWorkload.h"
#include "workload/ScalingWorkload.h"
#include "workload/SparkWorkload.h"
#include "workload/SyntheticProfile.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>

using namespace ev;

namespace {

/// Fresh per-test scratch directory under /tmp.
std::string testDir() {
  const ::testing::TestInfo *Info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Dir = std::string("/tmp/evstore_test_") +
                    Info->test_suite_name() + "_" + Info->name();
  std::string Cmd = "rm -rf " + Dir + " && mkdir -p " + Dir;
  EXPECT_EQ(std::system(Cmd.c_str()), 0);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===
// FileIo: mmap and preallocation helpers (and their failure paths).
//===----------------------------------------------------------------------===

TEST(StoreFileIo, MapMissingFileFails) {
  Result<MappedFile> M = MappedFile::map("/nonexistent/dir/nope.evcol");
  EXPECT_FALSE(M.ok());
  EXPECT_FALSE(M.error().empty());
}

TEST(StoreFileIo, MapZeroLengthFileIsValidAndEmpty) {
  std::string Path = testDir() + "/empty";
  ASSERT_TRUE(writeFile(Path, "").ok());
  Result<MappedFile> M = MappedFile::map(Path);
  ASSERT_TRUE(M.ok()) << M.error();
  EXPECT_TRUE(M->valid());
  EXPECT_EQ(M->size(), 0u);
  EXPECT_TRUE(M->bytes().empty());
}

TEST(StoreFileIo, MapRejectsSizeMismatchAsTruncated) {
  std::string Path = testDir() + "/short";
  ASSERT_TRUE(writeFile(Path, "0123456789").ok());
  Result<MappedFile> M = MappedFile::map(Path, /*ExpectedBytes=*/20);
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.error().find("truncated"), std::string::npos) << M.error();
  // The right size maps fine.
  Result<MappedFile> Ok = MappedFile::map(Path, 10);
  ASSERT_TRUE(Ok.ok()) << Ok.error();
  EXPECT_EQ(Ok->bytes(), "0123456789");
}

TEST(StoreFileIo, PreallocateGrowsAndNeverShrinks) {
  std::string Path = testDir() + "/prealloc";
  ASSERT_TRUE(preallocateFile(Path, 4096).ok());
  Result<std::string> Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  EXPECT_EQ(Bytes->size(), 4096u);
  // A smaller reservation must not truncate an existing extent.
  ASSERT_TRUE(preallocateFile(Path, 100).ok());
  Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  EXPECT_EQ(Bytes->size(), 4096u);
  EXPECT_FALSE(preallocateFile("/nonexistent/dir/prealloc", 16).ok());
}

//===----------------------------------------------------------------------===
// StoreBudget: the LRU accounting policy in isolation.
//===----------------------------------------------------------------------===

TEST(StoreBudgetPolicy, TracksChargesAndEvictionOrder) {
  StoreBudget B;
  B.setLimit(100);
  EXPECT_EQ(B.limit(), 100u);
  B.charge(1, 50);
  B.charge(2, 40);
  B.charge(3, 30);
  EXPECT_EQ(B.chargedBytes(), 120u);
  EXPECT_TRUE(B.overLimit());
  EXPECT_EQ(B.coldestFirst(), (std::vector<int64_t>{1, 2, 3}));
  // A touch promotes to most-recently-used.
  B.touch(1);
  EXPECT_EQ(B.coldestFirst(), (std::vector<int64_t>{2, 3, 1}));
  EXPECT_EQ(B.release(2), 40u);
  EXPECT_EQ(B.chargedBytes(), 80u);
  EXPECT_FALSE(B.overLimit());
  EXPECT_EQ(B.trackedCount(), 2u);
}

TEST(StoreBudgetPolicy, RechargeUpdatesCostWithoutPromoting) {
  StoreBudget B;
  B.setLimit(100);
  B.charge(1, 60);
  B.charge(2, 60);
  // Eviction shrinks the coldest entry's cost; that must NOT move it to
  // the warm end, or the evictor would churn through its own victims.
  B.recharge(1, 10);
  EXPECT_EQ(B.chargeOf(1), 10u);
  EXPECT_EQ(B.coldestFirst(), (std::vector<int64_t>{1, 2}));
  // charge() on an existing id, by contrast, is a use and promotes.
  B.charge(1, 20);
  EXPECT_EQ(B.coldestFirst(), (std::vector<int64_t>{2, 1}));
  EXPECT_EQ(B.chargedBytes(), 80u);
}

TEST(StoreBudgetPolicy, ZeroLimitNeverReportsOverLimit) {
  StoreBudget B;
  B.charge(1, 1u << 30);
  EXPECT_FALSE(B.overLimit());
}

//===----------------------------------------------------------------------===
// Profile blocks: spill / map round trips and validation.
//===----------------------------------------------------------------------===

TEST(StoreBlock, SpillMapRoundTripIsByteIdentical) {
  std::string Dir = testDir();
  Profile P = test::makeRandomProfile(11);
  std::string Ref = writeEvProf(P);
  EXPECT_FALSE(P.isMapped());

  std::string Path = Dir + "/seg.evcol";
  Result<uint64_t> Written = P.spillTo(Path);
  ASSERT_TRUE(Written.ok()) << Written.error();
  EXPECT_GT(*Written, P.approxMemoryBytes());

  Result<Profile> Mapped = Profile::mapFrom(Path);
  ASSERT_TRUE(Mapped.ok()) << Mapped.error();
  EXPECT_TRUE(Mapped->isMapped());
  EXPECT_EQ(Mapped->approxMemoryBytes(), P.approxMemoryBytes());
  EXPECT_EQ(writeEvProf(*Mapped), Ref);
  EXPECT_TRUE(Mapped->verify().ok());
}

TEST(StoreBlock, MapRejectsTruncatedAndGarbledBlocks) {
  std::string Dir = testDir();
  Profile P = test::makeFixedProfile();
  std::string Path = Dir + "/seg.evcol";
  ASSERT_TRUE(P.spillTo(Path).ok());

  Result<std::string> Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());

  // Truncated: the header promises more bytes than the file holds.
  std::string Truncated = Dir + "/truncated.evcol";
  ASSERT_TRUE(
      writeFile(Truncated, std::string_view(*Bytes).substr(0, 4100)).ok());
  EXPECT_FALSE(Profile::mapFrom(Truncated).ok());

  // Wrong magic: not a profile block at all.
  std::string Garbage = Dir + "/garbage.evcol";
  std::string Mangled = *Bytes;
  Mangled[0] = 'X';
  ASSERT_TRUE(writeFile(Garbage, Mangled).ok());
  EXPECT_FALSE(Profile::mapFrom(Garbage).ok());

  // Garbled column: a frame reference past the frame table. The frame
  // refs follow the parents column at the block's first 64-byte boundary
  // past the node count.
  std::string Garbled = Dir + "/garbled.evcol";
  Mangled = *Bytes;
  uint32_t Bad = 0xFFFF;
  size_t FrameRefs = 4096 + (P.nodeCount() * sizeof(NodeId) + 63) / 64 * 64;
  std::memcpy(Mangled.data() + FrameRefs + sizeof(uint32_t), &Bad,
              sizeof(Bad));
  ASSERT_TRUE(writeFile(Garbled, Mangled).ok());
  Result<Profile> Rejected = Profile::mapFrom(Garbled);
  ASSERT_FALSE(Rejected.ok());
  EXPECT_NE(Rejected.error().find("frame reference"), std::string::npos)
      << Rejected.error();

  // A valid file still maps after the rejections.
  EXPECT_TRUE(Profile::mapFrom(Path).ok());
}

TEST(StoreBlock, MapRejectsDuplicateMetricNames) {
  // Metric names are unique in every builder; a block rewritten to repeat
  // one would make a transform's copy of the schema renumber metrics.
  std::string Dir = testDir();
  ProfileBuilder B("two metrics");
  std::vector<FrameId> Path = {B.functionFrame("main")};
  B.addSample(Path, B.addMetric("metric-A", "ns"), 1);
  B.addSample(Path, B.addMetric("metric-B", "ns"), 2);
  std::string File = Dir + "/metrics.evcol";
  ASSERT_TRUE(B.take().spillTo(File).ok());
  Result<std::string> Bytes = readFile(File);
  ASSERT_TRUE(Bytes.ok());
  std::string Block = *Bytes;
  size_t At = Block.find("metric-B");
  ASSERT_NE(At, std::string::npos);
  ASSERT_EQ(Block.find("metric-B", At + 1), std::string::npos);
  Block[At + 7] = 'A';
  ASSERT_TRUE(writeFile(File, Block).ok());
  Result<Profile> Rejected = Profile::mapFrom(File);
  ASSERT_FALSE(Rejected.ok());
  EXPECT_NE(Rejected.error().find("duplicate metric name"), std::string::npos)
      << Rejected.error();
}

TEST(StoreBlock, MapRejectsDuplicateStrings) {
  // Interning keeps every builder's strings distinct; a block rewritten to
  // repeat one would give two frames with the same texts, which the
  // callers tree would keep apart and a re-interning copy would renumber.
  std::string Dir = testDir();
  ProfileBuilder B("two names");
  MetricId Time = B.addMetric("time", "ns");
  std::vector<FrameId> Path = {B.functionFrame("helper-A"),
                               B.functionFrame("helper-B")};
  B.addSample(Path, Time, 1);
  std::string File = Dir + "/strings.evcol";
  ASSERT_TRUE(B.take().spillTo(File).ok());
  ASSERT_TRUE(Profile::mapFrom(File).ok());
  Result<std::string> Bytes = readFile(File);
  ASSERT_TRUE(Bytes.ok());
  std::string Block = *Bytes;
  size_t At = Block.find("helper-B");
  ASSERT_NE(At, std::string::npos);
  ASSERT_EQ(Block.find("helper-B", At + 1), std::string::npos);
  Block[At + 7] = 'A';
  ASSERT_TRUE(writeFile(File, Block).ok());
  Result<Profile> Rejected = Profile::mapFrom(File);
  ASSERT_FALSE(Rejected.ok());
  EXPECT_NE(Rejected.error().find("duplicate string"), std::string::npos)
      << Rejected.error();
}

TEST(StoreBlock, MapRejectsDuplicateFrames) {
  // Two frames that differ only in their address, rewritten to the same
  // address: equal frames under two ids.
  std::string Dir = testDir();
  const uint64_t AddrA = 0x1111111111111111, AddrB = 0x2222222222222222;
  ProfileBuilder B("two addresses");
  MetricId Time = B.addMetric("time", "ns");
  std::vector<FrameId> Path = {B.functionFrame("f", "f.cc", 1, "", AddrA),
                               B.functionFrame("f", "f.cc", 1, "", AddrB)};
  B.addSample(Path, Time, 1);
  std::string File = Dir + "/frames.evcol";
  ASSERT_TRUE(B.take().spillTo(File).ok());
  ASSERT_TRUE(Profile::mapFrom(File).ok());
  Result<std::string> Bytes = readFile(File);
  ASSERT_TRUE(Bytes.ok());
  std::string Block = *Bytes;
  std::string_view A(reinterpret_cast<const char *>(&AddrA), sizeof(AddrA));
  std::string_view Other(reinterpret_cast<const char *>(&AddrB),
                         sizeof(AddrB));
  size_t At = Block.find(Other);
  ASSERT_NE(At, std::string::npos);
  ASSERT_EQ(Block.find(Other, At + 1), std::string::npos);
  Block.replace(At, A.size(), A);
  ASSERT_TRUE(writeFile(File, Block).ok());
  Result<Profile> Rejected = Profile::mapFrom(File);
  ASSERT_FALSE(Rejected.ok());
  EXPECT_NE(Rejected.error().find("duplicate frame"), std::string::npos)
      << Rejected.error();
}

TEST(StoreBlock, EveryWorkloadRoundTripsByteIdentically) {
  std::string Dir = testDir();
  workload::SyntheticOptions Synth;
  Synth.TargetBytes = 64 << 10;
  workload::GrpcLeakOptions Leak;
  Leak.Snapshots = 3;
  workload::FleetOptions FleetOpt;
  FleetOpt.Replicas = 2;
  std::vector<Profile> All;
  All.push_back(workload::generateSyntheticProfile(Synth));
  All.push_back(workload::generateLuleshProfile());
  All.push_back(workload::generateReuseWorkload().P);
  workload::SparkWorkload Spark = workload::generateSparkWorkload();
  All.push_back(Spark.Rdd);
  All.push_back(Spark.Sql);
  for (Profile &P : workload::generateGrpcLeakWorkload(Leak).Snapshots)
    All.push_back(std::move(P));
  workload::ScalingWorkload Scaling = workload::generateScalingWorkload();
  All.push_back(Scaling.Small);
  All.push_back(Scaling.Large);
  for (std::vector<Profile> &Version :
       workload::generateFleetWorkload(FleetOpt).Versions)
    for (Profile &P : Version)
      All.push_back(std::move(P));

  for (size_t I = 0; I < All.size(); ++I) {
    std::string Bytes = writeEvProf(All[I]);
    Result<Profile> Back = readEvProf(Bytes);
    ASSERT_TRUE(Back.ok()) << All[I].name() << ": " << Back.error();
    EXPECT_EQ(writeEvProf(*Back), Bytes) << All[I].name();
    std::string Path = Dir + "/w" + std::to_string(I) + ".evcol";
    ASSERT_TRUE(Back->spillTo(Path).ok());
    Result<Profile> Mapped = Profile::mapFrom(Path);
    ASSERT_TRUE(Mapped.ok()) << All[I].name() << ": " << Mapped.error();
    EXPECT_EQ(writeEvProf(*Mapped), Bytes) << All[I].name();
  }
}

//===----------------------------------------------------------------------===
// ProfileStore under a byte budget: spill, fault, and accounting.
//===----------------------------------------------------------------------===

TEST(StoreBudgeted, UnbudgetedStoreKeepsEveryBlockResident) {
  ProfileStore Store;
  Profile P = test::makeFixedProfile();
  uint64_t Block = P.approxMemoryBytes();
  Store.add(std::move(P));
  StoreStats S = Store.stats();
  EXPECT_EQ(S.Profiles, 1u);
  EXPECT_EQ(S.BudgetBytes, 0u);
  EXPECT_EQ(S.ResidentBytes, Block);
  EXPECT_EQ(S.Spills, 0u);
}

TEST(StoreBudgeted, SetBudgetRequiresSpillDir) {
  ProfileStore Store;
  EXPECT_FALSE(Store.setBudget(1024, "").ok());
  // Disabling (0 bytes) needs no directory.
  EXPECT_TRUE(Store.setBudget(0, "").ok());
}

TEST(StoreBudgeted, GetAfterSpillIsByteIdentical) {
  std::string Dir = testDir();
  ProfileStore Store;
  std::vector<std::string> Refs;
  std::vector<int64_t> Ids;
  for (uint64_t Seed : {21u, 22u, 23u}) {
    Profile P = test::makeRandomProfile(Seed);
    Refs.push_back(writeEvProf(P));
    Ids.push_back(Store.add(std::move(P)));
  }
  // A 1-byte budget can keep nothing resident: everything spills.
  ASSERT_TRUE(Store.setBudget(1, Dir).ok());
  StoreStats S = Store.stats();
  EXPECT_GE(S.Spills, 3u);
  EXPECT_GE(S.SpilledBytes, 3 * 4096u);
  EXPECT_FALSE(listDirectory(Dir)->empty());

  // Faulting each profile back (mmap) reproduces the original bytes
  // exactly — spilling is lossless.
  for (size_t I = 0; I < Ids.size(); ++I) {
    std::shared_ptr<const Profile> P = Store.get(Ids[I]);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(writeEvProf(*P), Refs[I]) << "profile " << I;
  }
  EXPECT_GE(Store.stats().Faults, 3u);
}

TEST(StoreBudgeted, SweepStaysUnderBudgetWithFaults) {
  std::string Dir = testDir();
  ProfileStore Store;
  std::vector<int64_t> Ids;
  for (uint64_t Seed = 0; Seed < 12; ++Seed)
    Ids.push_back(Store.add(test::makeRandomProfile(Seed + 100)));
  uint64_t Unbudgeted = Store.stats().ResidentBytes;
  // A third of the working set: the sweep below cannot fit everything, so
  // cold profiles must spill and fault back as the scan revisits them.
  uint64_t Budget = Unbudgeted / 3;
  ASSERT_TRUE(Store.setBudget(Budget, Dir).ok());

  for (int Round = 0; Round < 2; ++Round)
    for (int64_t Id : Ids) {
      ASSERT_NE(Store.get(Id), nullptr);
      EXPECT_LE(Store.stats().ResidentBytes, Budget);
    }
  StoreStats S = Store.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_GT(S.Faults, 0u);
  EXPECT_GT(S.Spills, 0u);
  EXPECT_EQ(S.SpillFailures, 0u);
  // Each block is written once: later evictions reuse the spill file.
  EXPECT_LE(S.Spills, Ids.size());
}

TEST(StoreGeneration, ClosingUnknownIdsLeavesNoTrace) {
  auto Store = std::make_shared<ProfileStore>();
  PvpServer Server(ServerLimits(), Store,
                   std::make_shared<ViewCache>(16));
  int64_t Kept = Server.addProfile(test::makeFixedProfile());
  size_t Before = Store->size();
  for (int64_t Junk = 1000; Junk < 11000; ++Junk) {
    json::Object Params;
    Params.set("profile", Junk);
    Server.handleMessage(rpc::makeRequest(Junk, "pvp/close", std::move(Params)));
  }
  // A never-opened id reports the retired generation, and the closes
  // registered nothing.
  EXPECT_EQ(Store->generationOf(4242), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(Store->size(), Before);
  EXPECT_EQ(Store->generationOf(Kept), 0u);

  // A dropped id's generation is retired, never reset to a value an old
  // view's key holds.
  Store->bumpGeneration(Kept);
  EXPECT_EQ(Store->generationOf(Kept), 1u);
  EXPECT_TRUE(Store->drop(Kept));
  EXPECT_EQ(Store->generationOf(Kept), std::numeric_limits<uint64_t>::max());
  Store->bumpGeneration(Kept);
  EXPECT_EQ(Store->generationOf(Kept), std::numeric_limits<uint64_t>::max());
}

TEST(StoreBudgeted, DropAndDestructionRemoveSpillFiles) {
  std::string Dir = testDir();
  {
    ProfileStore Store;
    int64_t A = Store.add(test::makeRandomProfile(31));
    Store.add(test::makeRandomProfile(32));
    ASSERT_TRUE(Store.setBudget(1, Dir).ok());
    Result<std::vector<std::string>> Files = listDirectory(Dir);
    ASSERT_TRUE(Files.ok());
    EXPECT_EQ(Files->size(), 2u);
    EXPECT_TRUE(Store.drop(A));
    Files = listDirectory(Dir);
    ASSERT_TRUE(Files.ok());
    EXPECT_EQ(Files->size(), 1u);
  }
  // The destructor cleans up whatever was still spilled.
  Result<std::vector<std::string>> Files = listDirectory(Dir);
  ASSERT_TRUE(Files.ok());
  EXPECT_TRUE(Files->empty());
}

//===----------------------------------------------------------------------===
// pvp/stats: cache memory and store memory attributed separately, and a
// budgeted session aggregates a cohort while staying under budget.
//===----------------------------------------------------------------------===

namespace {

json::Object statsOf(PvpServer &Server) {
  json::Value Resp =
      Server.handleMessage(rpc::makeRequest(99, "pvp/stats", json::Object()));
  const json::Value *R = Resp.asObject().find("result");
  EXPECT_NE(R, nullptr);
  return R->asObject();
}

} // namespace

TEST(StorePvp, StatsSeparateCacheBytesFromStoreBytes) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Object S = statsOf(Server);
  ASSERT_NE(S.find("cacheBytes"), nullptr);
  ASSERT_NE(S.find("storeResidentBytes"), nullptr);
  EXPECT_EQ(S.find("cacheBytes")->asInt(), 0);
  EXPECT_GT(S.find("storeResidentBytes")->asInt(), 0);
  EXPECT_EQ(S.find("storeBudgetBytes")->asInt(), 0);

  // A memoized view shows up as cache memory, not store memory.
  json::Object Params;
  Params.set("profile", Id);
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", std::move(Params)));
  json::Object After = statsOf(Server);
  EXPECT_GT(After.find("cacheBytes")->asInt(), 0);
  EXPECT_EQ(After.find("storeResidentBytes")->asInt(),
            S.find("storeResidentBytes")->asInt());
}

TEST(StorePvp, BudgetedSessionAggregatesCohortUnderBudget) {
  // Ten snapshots of the same workload (identical shape, so the merged
  // tree is the size of ONE profile and fits the budget even while pinned
  // as the freshly derived result; the ten inputs together are ~3x the
  // budget and must spill).
  std::vector<Profile> Cohort;
  for (int I = 0; I < 10; ++I)
    Cohort.push_back(test::makeRandomProfile(200, /*Paths=*/60));

  auto RunAggregate = [](PvpServer &Server,
                         const std::vector<Profile> &Cohort) {
    json::Array Ids;
    for (const Profile &P : Cohort)
      Ids.push_back(Server.addProfile(P));
    json::Object Params;
    Params.set("profiles", std::move(Ids));
    json::Value Resp = Server.handleMessage(
        rpc::makeRequest(1, "pvp/aggregate", std::move(Params)));
    const json::Value *R = Resp.asObject().find("result");
    EXPECT_NE(R, nullptr) << Resp.dump();
    return R ? R->asObject().find("nodes")->asInt() : -1;
  };

  PvpServer Plain;
  int64_t PlainNodes = RunAggregate(Plain, Cohort);

  ProfileStore Probe;
  for (const Profile &P : Cohort)
    Probe.add(P);
  uint64_t Budget = Probe.stats().ResidentBytes / 3;

  ServerLimits Limits;
  Limits.StoreBudgetBytes = Budget;
  Limits.SpillDir = testDir();
  PvpServer Budgeted(Limits);
  EXPECT_EQ(RunAggregate(Budgeted, Cohort), PlainNodes);

  json::Object S = statsOf(Budgeted);
  EXPECT_EQ(static_cast<uint64_t>(S.find("storeBudgetBytes")->asInt()),
            Budget);
  EXPECT_LE(S.find("storeResidentBytes")->asInt(),
            S.find("storeBudgetBytes")->asInt());
  EXPECT_GT(S.find("storeSpills")->asInt(), 0);
  EXPECT_EQ(S.find("storeAosBytes"), nullptr);
  EXPECT_EQ(S.find("storeColumnarBytes"), nullptr);
  EXPECT_EQ(S.find("storeSharedStringBytes"), nullptr);
}

TEST(StoreTool, EvtoolStoreStatsReportsBudgetedMemory) {
  std::string Dir = testDir();
  std::string Spill = Dir + "/spill";
  ASSERT_EQ(std::system(("mkdir -p " + Spill).c_str()), 0);
  for (uint64_t Seed : {71u, 72u, 73u})
    ASSERT_TRUE(writeFile(Dir + "/p" + std::to_string(Seed) + ".evprof",
                          writeEvProf(test::makeRandomProfile(Seed)))
                    .ok());

  auto Run = [](std::vector<std::string> Args, std::string &Out,
                std::string &Err) { return tool::runEvTool(Args, Out, Err); };
  std::string Out, Err;
  // --stats is mandatory; a budget without a spill dir is a usage error.
  EXPECT_EQ(Run({"store", Dir}, Out, Err), tool::ExitUsageError);
  EXPECT_EQ(Run({"store", "--stats", Dir, "--budget", "4096"}, Out, Err),
            tool::ExitUsageError);

  Out.clear();
  Err.clear();
  ASSERT_EQ(Run({"store", "--stats", Dir, "--budget", "8192", "--spill-dir",
                 Spill},
                Out, Err),
            0)
      << Err;
  EXPECT_NE(Out.find("profiles:       3"), std::string::npos) << Out;
  EXPECT_NE(Out.find("budget:         8.0 KB"), std::string::npos) << Out;
  EXPECT_NE(Out.find("resident:"), std::string::npos);
  EXPECT_EQ(Out.find("shared strings:"), std::string::npos);
  EXPECT_EQ(Out.find("spilled:        0 B"), std::string::npos)
      << "three profiles under an 8 KB budget must spill:\n"
      << Out;
  // The store's destructor removed its spill files on exit.
  Result<std::vector<std::string>> Left = listDirectory(Spill);
  ASSERT_TRUE(Left.ok());
  EXPECT_TRUE(Left->empty());

  Out.clear();
  Err.clear();
  EXPECT_EQ(Run({"store", "--stats", Dir + "/pnope.evprof"}, Out, Err),
            tool::ExitDataError);
}

TEST(StorePvp, BudgetedRegressionsStreamCohorts) {
  std::vector<Profile> Base, Test;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    Base.push_back(test::makeRandomProfile(Seed + 300, /*Paths=*/60));
    Test.push_back(test::makeRandomProfile(Seed + 300, /*Paths=*/60));
  }

  auto Run = [](PvpServer &Server, const std::vector<Profile> &Base,
                const std::vector<Profile> &Test) {
    json::Array BaseIds, TestIds;
    for (const Profile &P : Base)
      BaseIds.push_back(Server.addProfile(P));
    for (const Profile &P : Test)
      TestIds.push_back(Server.addProfile(P));
    json::Object Params;
    Params.set("base", std::move(BaseIds));
    Params.set("test", std::move(TestIds));
    json::Value Resp = Server.handleMessage(
        rpc::makeRequest(1, "pvp/regressions", std::move(Params)));
    const json::Value *R = Resp.asObject().find("result");
    EXPECT_NE(R, nullptr) << Resp.dump();
    return R ? R->dump() : std::string();
  };

  PvpServer Plain;
  std::string Expected = Run(Plain, Base, Test);

  ProfileStore Probe;
  for (const Profile &P : Base)
    Probe.add(P);
  ServerLimits Limits;
  Limits.StoreBudgetBytes = Probe.stats().ResidentBytes / 2;
  Limits.SpillDir = testDir();
  PvpServer Budgeted(Limits);
  // Streaming the cohorts through spilled, faulted-back blocks must not
  // change a single byte of the findings.
  EXPECT_EQ(Run(Budgeted, Base, Test), Expected);
  json::Object S = statsOf(Budgeted);
  EXPECT_LE(S.find("storeResidentBytes")->asInt(),
            S.find("storeBudgetBytes")->asInt());
}
