//===- tests/parallel_test.cpp - Memoized PVP view cache ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the memoized PVP view cache with its invalidation matrix. The
/// `easyview_parallel` ctest entry (and the tsan preset) runs exactly these
/// suites.
///
//===----------------------------------------------------------------------===//

#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "proto/EvProf.h"
#include "support/Strings.h"
#include "workload/LuleshWorkload.h"

#include "TestHelpers.h"

#include <chrono>

#include <gtest/gtest.h>

using namespace ev;

//===----------------------------------------------------------------------===
// Memoized view cache
//===----------------------------------------------------------------------===

namespace {

json::Object statsOf(PvpServer &Server) {
  json::Value Resp =
      Server.handleMessage(rpc::makeRequest(99, "pvp/stats", json::Object()));
  const json::Value *R = Resp.asObject().find("result");
  EXPECT_NE(R, nullptr);
  return R->asObject();
}

int64_t statInt(PvpServer &Server, std::string_view Key) {
  json::Object S = statsOf(Server);
  const json::Value *V = S.find(Key);
  EXPECT_NE(V, nullptr) << Key;
  return V ? V->asInt() : -1;
}

json::Object flameParams(int64_t Id) {
  json::Object P;
  P.set("profile", Id);
  P.set("maxRects", 256);
  return P;
}

} // namespace

TEST(ParallelViewCache, HitServesByteIdenticalReply) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Value First =
      Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  json::Value Second =
      Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  EXPECT_EQ(First.dump(), Second.dump());
  EXPECT_EQ(statInt(Server, "cacheHits"), 1);
  EXPECT_EQ(statInt(Server, "cacheMisses"), 1);
}

TEST(ParallelViewCache, AllThreeViewMethodsAreCached) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Object P;
  P.set("profile", Id);
  for (const char *Method : {"pvp/flame", "pvp/treeTable", "pvp/summary"}) {
    Server.handleMessage(rpc::makeRequest(1, Method, P));
    Server.handleMessage(rpc::makeRequest(2, Method, P));
  }
  EXPECT_EQ(statInt(Server, "cacheHits"), 3);
  EXPECT_EQ(statInt(Server, "cacheMisses"), 3);
  EXPECT_EQ(statInt(Server, "cachedViews"), 3);
}

TEST(ParallelViewCache, DifferentParamsMissSeparately) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Object A = flameParams(Id);
  json::Object B = flameParams(Id);
  B.set("shape", "bottom-up");
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", A));
  Server.handleMessage(rpc::makeRequest(2, "pvp/flame", B));
  EXPECT_EQ(statInt(Server, "cacheHits"), 0);
  EXPECT_EQ(statInt(Server, "cacheMisses"), 2);
}

TEST(ParallelViewCache, InvalidationMatrix) {
  // Every state-retiring method must force the next view request to
  // recompute: the cached reply for the old generation can never be served.
  struct Case {
    const char *Method;
    void (*FillParams)(json::Object &, int64_t);
  };
  const Case Cases[] = {
      {"pvp/query",
       [](json::Object &P, int64_t Id) {
         P.set("profile", Id);
         P.set("program", "print total(\"time\");");
       }},
      {"pvp/transform",
       [](json::Object &P, int64_t Id) {
         P.set("profile", Id);
         P.set("shape", "bottom-up");
       }},
      {"pvp/prune",
       [](json::Object &P, int64_t Id) {
         P.set("profile", Id);
         P.set("minFraction", 0.5);
       }},
  };
  for (const Case &C : Cases) {
    PvpServer Server;
    int64_t Id = Server.addProfile(test::makeFixedProfile());
    Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
    json::Object MP;
    C.FillParams(MP, Id);
    json::Value MResp = Server.handleMessage(rpc::makeRequest(2, C.Method, MP));
    ASSERT_NE(MResp.asObject().find("result"), nullptr)
        << C.Method << ": " << MResp.dump();
    Server.handleMessage(rpc::makeRequest(3, "pvp/flame", flameParams(Id)));
    EXPECT_EQ(statInt(Server, "cacheHits"), 0) << C.Method;
    EXPECT_EQ(statInt(Server, "cacheMisses"), 2) << C.Method;
  }
}

TEST(ParallelViewCache, CloseInvalidatesAndNeverServesStaleViews) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  json::Object CP;
  CP.set("profile", Id);
  Server.handleMessage(rpc::makeRequest(2, "pvp/close", CP));
  json::Value After =
      Server.handleMessage(rpc::makeRequest(3, "pvp/flame", flameParams(Id)));
  // The profile is gone: the reply must be an error, not a cached view.
  EXPECT_NE(After.asObject().find("error"), nullptr);
  EXPECT_EQ(statInt(Server, "cacheHits"), 0);
}

TEST(ParallelViewCache, CloseFreesEveryCachedView) {
  PvpServer Server;
  json::Object KeptParams;
  KeptParams.set("profile", Server.addProfile(test::makeRandomProfile(3)));
  Server.handleMessage(rpc::makeRequest(1, "pvp/summary", KeptParams));
  int64_t ViewsBefore = statInt(Server, "cachedViews");
  int64_t BytesBefore = statInt(Server, "cacheBytes");
  ASSERT_EQ(ViewsBefore, 1);

  json::Object OpenParams;
  OpenParams.set("name", "closed.evprof");
  OpenParams.set("dataBase64",
                 base64Encode(writeEvProf(test::makeFixedProfile())));
  json::Value Opened =
      Server.handleMessage(rpc::makeRequest(2, "pvp/open", OpenParams));
  int64_t Id = Opened.asObject()
                   .find("result")
                   ->asObject()
                   .find("profile")
                   ->asInt();
  json::Object BottomUp = flameParams(Id);
  BottomUp.set("shape", "bottom-up");
  Server.handleMessage(rpc::makeRequest(3, "pvp/flame", flameParams(Id)));
  Server.handleMessage(rpc::makeRequest(4, "pvp/flame", BottomUp));
  EXPECT_EQ(statInt(Server, "cachedViews"), ViewsBefore + 2);
  json::Object CP;
  CP.set("profile", Id);
  Server.handleMessage(rpc::makeRequest(5, "pvp/close", CP));
  EXPECT_EQ(statInt(Server, "cachedViews"), ViewsBefore);
  EXPECT_EQ(statInt(Server, "cacheBytes"), BytesBefore);
}

TEST(ParallelViewCache, ClosingAnyCohortMemberRetiresTheCohortView) {
  // A pvp/regressions view depends on every profile of both cohorts, so
  // the end of any member's generation drops it, not only the first's.
  for (int Closed = 0; Closed < 3; ++Closed) {
    PvpServer Server;
    int64_t Ids[3] = {Server.addProfile(test::makeRandomProfile(3)),
                      Server.addProfile(test::makeRandomProfile(4)),
                      Server.addProfile(test::makeRandomProfile(5))};
    json::Object RP;
    RP.set("base", json::Array{Ids[0]});
    RP.set("test", json::Array{Ids[1], Ids[2]});
    json::Value R =
        Server.handleMessage(rpc::makeRequest(1, "pvp/regressions", RP));
    ASSERT_NE(R.asObject().find("result"), nullptr) << R.dump();
    ASSERT_EQ(statInt(Server, "cachedViews"), 1);
    ASSERT_GT(statInt(Server, "cacheBytes"), 0);

    json::Object CP;
    CP.set("profile", Ids[Closed]);
    Server.handleMessage(rpc::makeRequest(2, "pvp/close", CP));
    EXPECT_EQ(statInt(Server, "cachedViews"), 0) << "closed member " << Closed;
    EXPECT_EQ(statInt(Server, "cacheBytes"), 0) << "closed member " << Closed;
  }
}

TEST(ParallelViewCache, QueryRetiresExactlyThatProfilesViews) {
  PvpServer Server;
  int64_t Other = Server.addProfile(test::makeRandomProfile(3));
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Other)));
  int64_t OtherBytes = statInt(Server, "cacheBytes");
  json::Object P;
  P.set("profile", Id);
  Server.handleMessage(rpc::makeRequest(2, "pvp/flame", flameParams(Id)));
  Server.handleMessage(rpc::makeRequest(3, "pvp/treeTable", P));
  EXPECT_EQ(statInt(Server, "cachedViews"), 3);

  P.set("program", "print total(\"time\");");
  json::Value Q = Server.handleMessage(rpc::makeRequest(4, "pvp/query", P));
  ASSERT_NE(Q.asObject().find("result"), nullptr) << Q.dump();
  EXPECT_EQ(statInt(Server, "cachedViews"), 1);
  EXPECT_EQ(statInt(Server, "cacheBytes"), OtherBytes);
  Server.handleMessage(rpc::makeRequest(5, "pvp/flame", flameParams(Other)));
  EXPECT_EQ(statInt(Server, "cacheHits"), 1);
}

TEST(ParallelViewCache, EvictionKeepsCapacityAndCounts) {
  ServerLimits Limits;
  Limits.MaxCachedViews = 2;
  PvpServer Server(Limits);
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  for (int MaxRects = 10; MaxRects < 15; ++MaxRects) {
    json::Object P;
    P.set("profile", Id);
    P.set("maxRects", MaxRects);
    Server.handleMessage(rpc::makeRequest(1, "pvp/flame", P));
  }
  EXPECT_EQ(statInt(Server, "cachedViews"), 2);
  EXPECT_EQ(statInt(Server, "cacheEvictions"), 3);
}

TEST(ParallelViewCache, LruKeepsRecentlyUsedEntries) {
  ServerLimits Limits;
  Limits.MaxCachedViews = 2;
  PvpServer Server(Limits);
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Object A = flameParams(Id);
  json::Object B = flameParams(Id);
  B.set("shape", "bottom-up");
  json::Object C = flameParams(Id);
  C.set("shape", "flat");
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", A)); // miss, cache A
  Server.handleMessage(rpc::makeRequest(2, "pvp/flame", B)); // miss, cache B
  Server.handleMessage(rpc::makeRequest(3, "pvp/flame", A)); // hit, A fresh
  Server.handleMessage(rpc::makeRequest(4, "pvp/flame", C)); // evicts B
  Server.handleMessage(rpc::makeRequest(5, "pvp/flame", A)); // still a hit
  EXPECT_EQ(statInt(Server, "cacheHits"), 2);
  EXPECT_EQ(statInt(Server, "cacheEvictions"), 1);
}

TEST(ParallelViewCache, DisabledCacheNeverCounts) {
  ServerLimits Limits;
  Limits.MaxCachedViews = 0;
  PvpServer Server(Limits);
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Value First =
      Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  json::Value Second =
      Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  EXPECT_EQ(First.dump(), Second.dump());
  EXPECT_EQ(statInt(Server, "cacheHits"), 0);
  EXPECT_EQ(statInt(Server, "cacheMisses"), 0);
  EXPECT_EQ(statInt(Server, "cachedViews"), 0);
}

TEST(ParallelViewCache, WarmRequestBeatsCold) {
  // The acceptance target is >=5x on repeated pvp/flame; asserted loosely
  // (>1x) so a noisy CI host cannot flake the suite. BENCH_pipeline.json
  // records the measured ratio.
  PvpServer Server;
  int64_t Id = Server.addProfile(workload::generateLuleshProfile());
  json::Object P;
  P.set("profile", Id);
  P.set("shape", "bottom-up");
  auto Once = [&] {
    auto T0 = std::chrono::steady_clock::now();
    Server.handleMessage(rpc::makeRequest(1, "pvp/flame", P));
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };
  double Cold = Once();
  double Warm = Once();
  for (int I = 0; I < 4; ++I)
    Warm = std::min(Warm, Once());
  EXPECT_EQ(statInt(Server, "cacheHits"), 5);
  EXPECT_LT(Warm, Cold);
}
