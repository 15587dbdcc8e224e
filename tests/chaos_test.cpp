//===- tests/chaos_test.cpp - Seeded fault-injection session tests --------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays full PVP sessions (open -> flame -> diff -> query -> export)
/// through seeded fault schedules: truncated frames, bit flips, corrupt
/// Content-Length headers, inter-frame garbage, split reads, and transient
/// file-I/O failures. The invariants under every schedule:
///
///   - the server never crashes and every byte it emits is well-framed;
///   - wire-reader memory stays bounded no matter what arrives;
///   - after the chaos, the same session still answers valid requests.
///
/// Each seed is an independent, exactly-reproducible schedule.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProfileLint.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "proto/EvProf.h"
#include "support/Chaos.h"
#include "support/FileIo.h"
#include "support/Strings.h"

#include "TestHelpers.h"

#include <cstdio>
#include <gtest/gtest.h>

using namespace ev;

namespace {

/// The scripted session: two opens (diff needs a base and a test profile),
/// then flame, diff, query, and export against the ids the opens would be
/// assigned on a clean stream.
std::vector<std::string> sessionFrames(const std::string &BaseBytes,
                                       const std::string &TestBytes) {
  std::vector<std::string> Frames;
  auto Push = [&Frames](int64_t Id, const char *Method, json::Object P) {
    Frames.push_back(rpc::frame(rpc::makeRequest(Id, Method, std::move(P))));
  };

  json::Object OpenBase;
  OpenBase.set("name", "base.evprof");
  OpenBase.set("dataBase64", base64Encode(BaseBytes));
  Push(1, "pvp/open", std::move(OpenBase));

  json::Object OpenTest;
  OpenTest.set("name", "test.evprof");
  OpenTest.set("dataBase64", base64Encode(TestBytes));
  Push(2, "pvp/open", std::move(OpenTest));

  json::Object Flame;
  Flame.set("profile", 1);
  Flame.set("maxRects", 256);
  Push(3, "pvp/flame", std::move(Flame));

  json::Object Diff;
  Diff.set("base", 1);
  Diff.set("test", 2);
  Push(4, "pvp/diff", std::move(Diff));

  json::Object Query;
  Query.set("profile", 1);
  Query.set("program", "print total(\"time\");");
  Push(5, "pvp/query", std::move(Query));

  json::Object Export;
  Export.set("profile", 1);
  Export.set("format", "collapsed");
  Push(6, "pvp/export", std::move(Export));

  return Frames;
}

/// Deframes server output, asserting every frame parses cleanly.
size_t countWellFormedResponses(std::string_view Wire) {
  rpc::FrameReader Reader;
  Reader.feed(Wire);
  size_t N = 0;
  while (Reader.poll())
    ++N;
  EXPECT_TRUE(Reader.takeErrors().empty())
      << "server emitted a malformed frame";
  EXPECT_EQ(Reader.bufferedBytes(), 0u)
      << "server emitted a partial trailing frame";
  return N;
}

class ChaosSeed : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(ChaosSeed, FullSessionSurvivesFaultSchedule) {
  const uint64_t Seed = GetParam();
  chaos::FaultInjector Injector(Seed);

  ServerLimits Limits;
  Limits.Wire.MaxFrameBytes = 1u << 20;
  PvpServer Server(Limits);

  std::string BaseBytes = writeEvProf(test::makeFixedProfile());
  std::string TestBytes =
      writeEvProf(test::makeRandomProfile(Seed, /*Paths=*/40,
                                          /*MaxDepth=*/8, /*Functions=*/16));

  // Corrupt the scripted session per the seed's schedule and interleave
  // garbage between frames.
  std::string Wire;
  for (std::string &Frame : sessionFrames(BaseBytes, TestBytes)) {
    Wire += Injector.garbage(/*MaxLen=*/48);
    Wire += Injector.mutateFrame(std::move(Frame));
  }

  // Deliver through seeded split reads; boundaries land anywhere.
  std::string Out;
  chaos::ChaosStream Stream(std::move(Wire), Injector);
  while (std::optional<std::string> Fragment = Stream.next())
    Out += Server.handleWire(*Fragment);

  // Whatever happened on the way in, the way out is well-formed.
  countWellFormedResponses(Out);

  // Bounded memory: at most one in-flight frame plus a header block.
  EXPECT_LE(Server.wireReader().bufferedBytes(),
            Limits.Wire.MaxFrameBytes + Limits.Wire.MaxHeaderBytes);

  // The session is still alive: pristine opens round-trip again. A frame
  // truncated at the very end of the chaos stream may leave the reader
  // legitimately waiting for body bytes, which consume (and ruin) the
  // next frame fed — that is correct stream semantics, so allow the
  // client a bounded number of retries before declaring the session dead.
  int64_t NewId = -1;
  for (int Attempt = 0; Attempt < 3 && NewId < 0; ++Attempt) {
    json::Object Open;
    Open.set("name", "post-chaos.evprof");
    Open.set("dataBase64", base64Encode(BaseBytes));
    std::string PostOut = Server.handleWire(
        rpc::frame(rpc::makeRequest(100 + Attempt, "pvp/open", Open)));

    rpc::FrameReader Post;
    Post.feed(PostOut);
    while (std::optional<json::Value> Resp = Post.poll()) {
      const json::Value *ResultV = Resp->asObject().find("result");
      if (ResultV && ResultV->asObject().find("profile")) {
        NewId = ResultV->asObject().find("profile")->asInt();
        break;
      }
    }
  }
  ASSERT_GE(NewId, 0) << "session did not recover after the fault schedule";

  json::Object Summary;
  Summary.set("profile", NewId);
  std::string SumOut = Server.handleWire(
      rpc::frame(rpc::makeRequest(101, "pvp/summary", Summary)));
  EXPECT_NE(SumOut.find("result"), std::string::npos);
}

// The acceptance bar is >= 20 seeded schedules; run 24.
INSTANTIATE_TEST_SUITE_P(ChaosSchedules, ChaosSeed,
                         ::testing::Range<uint64_t>(0, 24));

//===----------------------------------------------------------------------===
// Injector mechanics
//===----------------------------------------------------------------------===

TEST(FaultInjector, SameSeedReplaysIdentically) {
  std::string BaseBytes = writeEvProf(test::makeFixedProfile());
  std::vector<std::string> Frames = sessionFrames(BaseBytes, BaseBytes);

  chaos::FaultInjector A(1234), B(1234);
  for (const std::string &Frame : Frames) {
    EXPECT_EQ(A.garbage(32), B.garbage(32));
    EXPECT_EQ(A.mutateFrame(Frame), B.mutateFrame(Frame));
  }
  EXPECT_EQ(A.faultCount(), B.faultCount());
  for (size_t K = 0; K < static_cast<size_t>(chaos::FaultKind::KindCount);
       ++K)
    EXPECT_EQ(A.faultCount(static_cast<chaos::FaultKind>(K)),
              B.faultCount(static_cast<chaos::FaultKind>(K)));
}

TEST(FaultInjector, ScheduleActuallyInjectsFaults) {
  // Across many seeds the default probabilities must produce every wire
  // fault kind somewhere; a silent no-op injector would pass the session
  // test vacuously.
  std::string BaseBytes = writeEvProf(test::makeFixedProfile());
  std::vector<std::string> Frames = sessionFrames(BaseBytes, BaseBytes);

  size_t Counts[static_cast<size_t>(chaos::FaultKind::KindCount)] = {};
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    chaos::FaultInjector Injector(Seed);
    for (const std::string &Frame : Frames) {
      (void)Injector.garbage(32);
      (void)Injector.mutateFrame(Frame);
    }
    for (size_t K = 0; K < static_cast<size_t>(chaos::FaultKind::KindCount);
         ++K)
      Counts[K] += Injector.faultCount(static_cast<chaos::FaultKind>(K));
  }
  EXPECT_GT(Counts[static_cast<size_t>(chaos::FaultKind::Truncate)], 0u);
  EXPECT_GT(Counts[static_cast<size_t>(chaos::FaultKind::BitFlip)], 0u);
  EXPECT_GT(Counts[static_cast<size_t>(chaos::FaultKind::CorruptHeader)], 0u);
  EXPECT_GT(Counts[static_cast<size_t>(chaos::FaultKind::Garbage)], 0u);
}

TEST(ChaosStreamTest, DeliversEveryByteInOrder) {
  std::string Data;
  for (int I = 0; I < 997; ++I)
    Data.push_back(static_cast<char>(I * 31));

  chaos::FaultInjector Injector(7);
  chaos::ChaosStream Stream(Data, Injector);
  std::string Got;
  while (std::optional<std::string> Fragment = Stream.next())
    Got += *Fragment;
  EXPECT_EQ(Got, Data);
  EXPECT_TRUE(Stream.done());
  EXPECT_GT(Stream.fragmentsDelivered(), 1u);
}

TEST(ChaosTransientIo, BoundedRetryAlwaysRecovers) {
  std::string Path = "/tmp/evtool_test_chaos_io.evprof";
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  ASSERT_TRUE(writeFile(Path, Bytes).ok());

  chaos::FaultInjector Injector(99);
  size_t InjectedFailures = 0;
  setReadFaultHook([&](const std::string &, unsigned Attempt,
                       std::string &Message) {
    if (Injector.shouldFailRead(Attempt)) {
      ++InjectedFailures;
      Message = "chaos: transient read failure";
      return true;
    }
    return false;
  });
  setRetrySleepHook([](uint64_t) {});

  // The injector only fails attempts before the retry horizon, so the
  // default three-attempt policy recovers every single time.
  for (int It = 0; It < 64; ++It) {
    Result<std::string> R = readFileWithRetry(Path);
    ASSERT_TRUE(R.ok()) << R.error();
    EXPECT_EQ(*R, Bytes);
  }

  setReadFaultHook(nullptr);
  setRetrySleepHook(nullptr);
  std::remove(Path.c_str());

  EXPECT_GT(InjectedFailures, 0u)
      << "schedule never exercised the retry path";
  EXPECT_GT(Injector.faultCount(chaos::FaultKind::TransientIo), 0u);
}

//===----------------------------------------------------------------------===
// Lint engine on the chaos harness
//===----------------------------------------------------------------------===

class ChaosLintSeed : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(ChaosSchedules, ChaosLintSeed,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_P(ChaosLintSeed, FaultedProfilesAreExplainedOrClean) {
  const uint64_t Seed = GetParam();
  chaos::FaultInjector Injector(Seed);
  Rng &R = Injector.rng();
  std::string Valid = writeEvProf(test::makeRandomProfile(Seed, /*Paths=*/60,
                                                          /*MaxDepth=*/10,
                                                          /*Functions=*/24));
  ProfileLinter Linter;
  for (int Round = 0; Round < 16; ++Round) {
    // Compose faults the way the injector schedules them on the wire:
    // truncation, byte corruption, and garbage splices.
    std::string Bytes = Valid;
    switch (R.below(3)) {
    case 0:
      Bytes.resize(R.below(Bytes.size()));
      break;
    case 1:
      for (int I = 0; I < 6 && !Bytes.empty(); ++I)
        Bytes[R.below(Bytes.size())] = static_cast<char>(R.below(256));
      break;
    default: {
      std::string Garbage = Injector.garbage(/*MaxLen=*/32);
      Bytes.insert(R.below(Bytes.size()), Garbage);
      break;
    }
    }
    // The contract under faults: lint never crashes, decodes exactly what
    // readEvProf decodes, and explains each refusal with one finding for
    // the decoder's own fault.
    EXPECT_EQ(test::lintVersusDecoder(Linter, Bytes, DecodeLimits()), "")
        << "seed " << Seed << " round " << Round;
  }
}

//===----------------------------------------------------------------------===
// View cache transparency
//===----------------------------------------------------------------------===

namespace {

class ChaosCacheSeed : public ::testing::TestWithParam<uint64_t> {};

} // namespace

INSTANTIATE_TEST_SUITE_P(ChaosSchedules, ChaosCacheSeed,
                         ::testing::Range<uint64_t>(0, 24));

TEST_P(ChaosCacheSeed, CachedRepliesAreByteIdenticalToUncached) {
  // The memoized view cache must be invisible on the wire: the same session
  // replayed against a caching server and a cache-disabled server produces
  // byte-identical responses, including after a generation bump forces the
  // caching server to recompute.
  const uint64_t Seed = GetParam();
  Profile P = test::makeRandomProfile(Seed, /*Paths=*/60, /*MaxDepth=*/10,
                                      /*Functions=*/24);

  ServerLimits NoCache;
  NoCache.MaxCachedViews = 0;
  PvpServer Cached;
  PvpServer Uncached(NoCache);
  int64_t CachedId = Cached.addProfile(P);
  int64_t UncachedId = Uncached.addProfile(P);
  ASSERT_EQ(CachedId, UncachedId);

  auto Request = [&](int64_t Id, const char *Method,
                     json::Object Params) -> void {
    json::Value Req = rpc::makeRequest(Id, Method, std::move(Params));
    std::string A = Cached.handleMessage(Req).dump();
    std::string B = Uncached.handleMessage(Req).dump();
    EXPECT_EQ(A, B) << "seed " << Seed << " method " << Method;
  };

  json::Object Flame;
  Flame.set("profile", CachedId);
  Flame.set("maxRects", 128);
  json::Object Shaped;
  Shaped.set("profile", CachedId);
  Shaped.set("shape", Seed % 2 ? "bottom-up" : "flat");
  json::Object Bare;
  Bare.set("profile", CachedId);
  json::Object Transform;
  Transform.set("profile", CachedId);
  Transform.set("shape", "bottom-up");

  Request(1, "pvp/flame", Flame);
  Request(2, "pvp/flame", Flame); // Cache hit on the caching server.
  Request(3, "pvp/flame", Shaped);
  Request(4, "pvp/treeTable", Bare);
  Request(5, "pvp/summary", Bare);
  Request(6, "pvp/transform", Transform); // Bumps the generation.
  Request(7, "pvp/flame", Flame);         // Recompute, not a stale reply.
  Request(8, "pvp/treeTable", Bare);
  Request(9, "pvp/summary", Bare);
}
