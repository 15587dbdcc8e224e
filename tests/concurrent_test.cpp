//===- tests/concurrent_test.cpp - Multi-session PVP service --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the concurrent service layer: the TaskQueue executor, the
/// SessionManager strand scheduling (per-session FIFO, cross-session
/// parallelism), cooperative cancellation with its cache invariants, the
/// shared ProfileStore, and a multi-threaded soak of >= 4 sessions issuing
/// interleaved open/flame/treeTable/cancel/close traffic. The
/// `easyview_concurrent` ctest entry (and the tsan preset) runs exactly
/// these suites.
///
//===----------------------------------------------------------------------===//

#include "analysis/Transform.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "ide/SessionManager.h"
#include "profile/ProfileStore.h"
#include "proto/EvProf.h"
#include "support/Cancel.h"
#include "support/Strings.h"
#include "support/ThreadPool.h"

#include "TestHelpers.h"

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

using namespace ev;

namespace {

int errorCodeOf(const json::Value &Response) {
  const json::Value *E = Response.asObject().find("error");
  if (!E)
    return 0;
  return static_cast<int>(E->asObject().find("code")->asInt());
}

/// The response's result as a tree (see test::resultTree), or null.
json::Value resultOf(const json::Value &Response) {
  return test::resultTree(Response);
}

json::Value openRequest(int64_t ReqId, const std::string &Bytes) {
  json::Object P;
  P.set("name", "soak.evprof");
  P.set("dataBase64", base64Encode(Bytes));
  return rpc::makeRequest(ReqId, "pvp/open", std::move(P));
}

json::Value flameRequest(int64_t ReqId, int64_t Prof) {
  json::Object P;
  P.set("profile", Prof);
  P.set("maxRects", 128);
  return rpc::makeRequest(ReqId, "pvp/flame", std::move(P));
}

json::Value treeTableRequest(int64_t ReqId, int64_t Prof) {
  json::Object P;
  P.set("profile", Prof);
  return rpc::makeRequest(ReqId, "pvp/treeTable", std::move(P));
}

json::Value closeRequest(int64_t ReqId, int64_t Prof) {
  json::Object P;
  P.set("profile", Prof);
  return rpc::makeRequest(ReqId, "pvp/close", std::move(P));
}

json::Value cancelRequest(int64_t ReqId, int64_t TargetId) {
  json::Object P;
  P.set("id", TargetId);
  return rpc::makeRequest(ReqId, "$/cancelRequest", std::move(P));
}

int64_t openedProfile(const json::Value &Response) {
  json::Value R = resultOf(Response);
  EXPECT_TRUE(R.isObject()) << Response.dump();
  return R.isObject() ? R.asObject().find("profile")->asInt() : -1;
}

} // namespace

//===----------------------------------------------------------------------===
// TaskQueue
//===----------------------------------------------------------------------===

TEST(ConcurrentTaskQueue, SingleWorkerRunsTasksInFifoOrder) {
  std::vector<int> Order;
  {
    TaskQueue Q(1);
    for (int I = 0; I < 100; ++I)
      Q.post([&Order, I] { Order.push_back(I); });
  } // Destructor drains.
  ASSERT_EQ(Order.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ConcurrentTaskQueue, DrainsFollowUpTasksPostedFromTasks) {
  std::atomic<int> Ran{0};
  // Declared before the queue so it outlives the destructor's drain, which
  // still runs tasks that call it.
  std::function<void(int)> Chain;
  {
    TaskQueue Q(2);
    // A chain of reposts (the strand pattern): each task schedules the
    // next; the destructor must run the whole chain, not just the head.
    Chain = [&Ran, &Chain, &Q](int Depth) {
      ++Ran;
      if (Depth < 50)
        Q.post([&Chain, Depth] { Chain(Depth + 1); });
    };
    Q.post([&Chain] { Chain(0); });
  }
  EXPECT_EQ(Ran.load(), 51);
}

TEST(ConcurrentTaskQueue, RunsTasksConcurrentlyAcrossWorkers) {
  TaskQueue Q(4);
  EXPECT_EQ(Q.threadCount(), 4u);
  // Two tasks that can only finish together prove two workers ran them
  // simultaneously (a single worker would deadlock; the timeout guards).
  std::promise<void> AReady, BReady, ADone;
  std::shared_future<void> AF = AReady.get_future().share();
  std::shared_future<void> BF = BReady.get_future().share();
  std::atomic<bool> Met{false};
  Q.post([&AReady, BF, &Met, &ADone] {
    AReady.set_value();
    if (BF.wait_for(std::chrono::seconds(30)) == std::future_status::ready)
      Met = true;
    ADone.set_value();
  });
  Q.post([&BReady, AF] {
    BReady.set_value();
    AF.wait_for(std::chrono::seconds(30));
  });
  // Wait for task A itself, not just its rendezvous future: checking Met
  // right after BF resolves races with A's store on a loaded machine.
  ADone.get_future().wait();
  EXPECT_TRUE(Met.load());
  EXPECT_GE(Q.executedCount(), 0u); // Counter is monotonic telemetry.
}

//===----------------------------------------------------------------------===
// Cooperative cancellation (engine level)
//===----------------------------------------------------------------------===

TEST(ConcurrentCancel, TokenCheckpointThrowsOnceCancelled) {
  CancelToken T = CancelToken::create();
  EXPECT_NO_THROW(T.checkpoint());
  T.requestCancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_THROW(T.checkpoint(), CancelledException);
  // A default-constructed token is inert and never throws.
  CancelToken Inert;
  EXPECT_NO_THROW(Inert.checkpoint());
  EXPECT_FALSE(Inert.cancelled());
}

TEST(ConcurrentCancel, AnalysisKernelsUnwindOnTheCallingThread) {
  Profile P = test::makeRandomProfile(7);
  CancelToken T = CancelToken::create();
  T.requestCancel();
  // Analysis runs on the thread that calls it, the way a session strand
  // dispatches a request: the tripped checkpoint must unwind the kernel to
  // a handler on that same thread. bottomUpTree checkpoints once per
  // caller level while it groups and every 1024 contributors while it
  // emits, so the first level trips it; flatTree checkpoints every 8192
  // contexts, starting with the first. (topDownTree's stride is 8192 from
  // node 1, larger than this input, so the integration soaks cover it.)
  std::thread::id Caller;
  std::vector<std::thread::id> CaughtOn;
  std::thread Strand([&] {
    Caller = std::this_thread::get_id();
    try {
      bottomUpTree(P, T);
    } catch (const CancelledException &) {
      CaughtOn.push_back(std::this_thread::get_id());
    }
    try {
      flatTree(P, T);
    } catch (const CancelledException &) {
      CaughtOn.push_back(std::this_thread::get_id());
    }
  });
  Strand.join();
  EXPECT_EQ(CaughtOn, std::vector<std::thread::id>(2, Caller));
}

TEST(ConcurrentCancel, CancelledRequestAnswersMinus32800) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  CancelToken T = CancelToken::create();
  T.requestCancel();
  json::Value R = Server.handleMessage(flameRequest(1, Id), T);
  EXPECT_EQ(errorCodeOf(R), rpc::RequestCancelled);
}

TEST(ConcurrentCancel, CancelledRequestNeverPopulatesTheCache) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  CancelToken T = CancelToken::create();
  T.requestCancel();
  json::Value R = Server.handleMessage(flameRequest(1, Id), T);
  ASSERT_EQ(errorCodeOf(R), rpc::RequestCancelled);
  // No partial view was memoized: the next identical request is a miss
  // that recomputes and succeeds.
  json::Value Stats = Server.handleMessage(
      rpc::makeRequest(2, "pvp/stats", json::Object()));
  EXPECT_EQ(resultOf(Stats).asObject().find("cachedViews")->asInt(), 0);
  json::Value Fresh = Server.handleMessage(flameRequest(3, Id));
  EXPECT_TRUE(resultOf(Fresh).isObject());
}

TEST(ConcurrentCancel, CancelledRequestNeverInvalidatesAValidEntry) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  // Warm the cache with a valid view.
  json::Value Warm = Server.handleMessage(flameRequest(1, Id));
  ASSERT_TRUE(resultOf(Warm).isObject());
  // A cancelled request with different params (different cache key) fails…
  json::Object P;
  P.set("profile", Id);
  P.set("maxRects", 64);
  CancelToken T = CancelToken::create();
  T.requestCancel();
  json::Value R =
      Server.handleMessage(rpc::makeRequest(2, "pvp/flame", std::move(P)), T);
  ASSERT_EQ(errorCodeOf(R), rpc::RequestCancelled);
  // …and the original entry still serves byte-identical hits.
  json::Value Again = Server.handleMessage(flameRequest(1, Id));
  EXPECT_EQ(Warm.asObject().find("result")->dump(),
            Again.asObject().find("result")->dump());
  json::Value Stats = Server.handleMessage(
      rpc::makeRequest(3, "pvp/stats", json::Object()));
  EXPECT_EQ(resultOf(Stats).asObject().find("cacheHits")->asInt(), 1);
}

//===----------------------------------------------------------------------===
// SessionManager scheduling and cancellation
//===----------------------------------------------------------------------===

TEST(ConcurrentSessions, IndependentSessionsDoNotSeeEachOthersProfiles) {
  SessionManager::Options Opts;
  Opts.Sessions = 2;
  SessionManager M(Opts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  int64_t Prof = openedProfile(M.handle(0, openRequest(1, Bytes)));
  ASSERT_GT(Prof, 0);
  // Session 0 serves it; session 1 must not resolve the id.
  EXPECT_TRUE(resultOf(M.handle(0, flameRequest(2, Prof))).isObject());
  EXPECT_EQ(errorCodeOf(M.handle(1, flameRequest(3, Prof))),
            rpc::InvalidParams);
}

TEST(ConcurrentSessions, ClosingAnotherSessionsProfileRetiresNothing) {
  SessionManager::Options Opts;
  Opts.Sessions = 2;
  SessionManager M(Opts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  int64_t Prof = openedProfile(M.handle(0, openRequest(1, Bytes)));
  ASSERT_GT(Prof, 0);
  json::Value First = M.handle(0, flameRequest(2, Prof));
  ASSERT_TRUE(resultOf(First).isObject());
  uint64_t Gen = M.store().generationOf(Prof);

  // Session 1 never opened the profile: its close is refused and must not
  // retire session 0's cached views.
  json::Value Closed = M.handle(1, closeRequest(3, Prof));
  ASSERT_TRUE(resultOf(Closed).isObject()) << Closed.dump();
  EXPECT_FALSE(resultOf(Closed).asObject().find("closed")->asBool());
  EXPECT_EQ(M.store().generationOf(Prof), Gen);

  uint64_t Hits = M.viewCache().hits();
  json::Value Again = M.handle(0, flameRequest(4, Prof));
  EXPECT_EQ(M.viewCache().hits(), Hits + 1);
  ASSERT_TRUE(resultOf(Again).isObject());
  EXPECT_EQ(resultOf(Again).dump(), resultOf(First).dump());

  // The owner's close still retires the profile.
  json::Value OwnerClose = M.handle(0, closeRequest(5, Prof));
  ASSERT_TRUE(resultOf(OwnerClose).isObject());
  EXPECT_TRUE(resultOf(OwnerClose).asObject().find("closed")->asBool());
  EXPECT_EQ(errorCodeOf(M.handle(0, flameRequest(6, Prof))),
            rpc::InvalidParams);
}

TEST(ConcurrentSessions, SharedStoreAllocatesGloballyUniqueIds) {
  SessionManager::Options Opts;
  Opts.Sessions = 4;
  SessionManager M(Opts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  std::vector<int64_t> Ids;
  for (unsigned S = 0; S < M.sessionCount(); ++S)
    Ids.push_back(openedProfile(M.handle(S, openRequest(1, Bytes))));
  for (size_t I = 0; I < Ids.size(); ++I)
    for (size_t J = I + 1; J < Ids.size(); ++J)
      EXPECT_NE(Ids[I], Ids[J]);
  EXPECT_EQ(M.store().size(), Ids.size());
}

TEST(ConcurrentSessions, PerSessionFifoOrderIsPreserved) {
  SessionManager::Options Opts;
  // Four workers, all of session 0's requests on one strand: order must
  // still hold with more workers than busy strands.
  Opts.Sessions = 4;
  SessionManager M(Opts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  // open must run before the flame that uses its id can be submitted, so
  // instead prove FIFO with close: flame(queued) then close(queued) —
  // were close reordered first, the flame would error.
  int64_t Prof = openedProfile(M.handle(0, openRequest(1, Bytes)));
  std::vector<std::future<json::Value>> Fs;
  for (int64_t R = 2; R < 30; ++R)
    Fs.push_back(M.submit(0, flameRequest(R, Prof)));
  Fs.push_back(M.submit(0, closeRequest(30, Prof)));
  for (size_t I = 0; I + 1 < Fs.size(); ++I)
    EXPECT_TRUE(resultOf(Fs[I].get()).isObject()) << I;
  EXPECT_TRUE(resultOf(Fs.back().get()).isObject());
}

TEST(ConcurrentSessions, QueuedRequestCancelsWithoutRunning) {
  SessionManager::Options Opts;
  Opts.Sessions = 1;
  // A pvp/open of a missing path occupies the strand for >= 49 backoff
  // delays (~500ms): plenty of window to cancel the queued flame behind it.
  Opts.Limits.OpenRetry.MaxAttempts = 50;
  Opts.Limits.OpenRetry.InitialBackoffMs = 10;
  Opts.Limits.OpenRetry.MaxBackoffMs = 10;
  SessionManager M(Opts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  int64_t Prof = openedProfile(M.handle(0, openRequest(1, Bytes)));

  json::Object Slow;
  Slow.set("path", "/nonexistent/easyview-soak-profile.evprof");
  std::future<json::Value> Blocker =
      M.submit(0, rpc::makeRequest(2, "pvp/open", std::move(Slow)));
  std::future<json::Value> Victim = M.submit(0, flameRequest(3, Prof));
  json::Value CancelReply = M.handle(0, cancelRequest(4, 3));
  EXPECT_TRUE(resultOf(CancelReply).asObject().find("cancelled")->asBool());
  EXPECT_EQ(errorCodeOf(Victim.get()), rpc::RequestCancelled);
  EXPECT_EQ(errorCodeOf(Blocker.get()), rpc::InvalidParams); // Path load fails.
  // The cancelled flame never polluted the cache: recomputing succeeds.
  EXPECT_TRUE(resultOf(M.handle(0, flameRequest(5, Prof))).isObject());
}

TEST(ConcurrentSessions, CancelUnknownRequestReportsFalse) {
  SessionManager M(SessionManager::Options{});
  json::Value R = M.handle(0, cancelRequest(1, 999));
  EXPECT_FALSE(resultOf(R).asObject().find("cancelled")->asBool());
  EXPECT_FALSE(M.cancel(99, 1)); // Invalid session: false, not a crash.
}

TEST(ConcurrentSessions, QueueCapRejectsWithSessionBusy) {
  SessionManager::Options Opts;
  Opts.Sessions = 1;
  Opts.MaxQueuedPerSession = 2;
  Opts.Limits.OpenRetry.MaxAttempts = 30;
  Opts.Limits.OpenRetry.InitialBackoffMs = 10;
  Opts.Limits.OpenRetry.MaxBackoffMs = 10;
  SessionManager M(Opts);
  json::Object Slow;
  Slow.set("path", "/nonexistent/easyview-busy.evprof");
  // The blocker occupies the strand while we overfill the queue.
  std::future<json::Value> Blocker =
      M.submit(0, rpc::makeRequest(1, "pvp/open", std::move(Slow)));
  std::vector<std::future<json::Value>> Fs;
  bool SawBusy = false;
  for (int64_t R = 2; R < 12; ++R) {
    Fs.push_back(M.submit(0, flameRequest(R, 12345)));
    json::Value Last = Fs.back().wait_for(std::chrono::seconds(0)) ==
                               std::future_status::ready
                           ? Fs.back().get()
                           : json::Value();
    if (Last.isObject() && errorCodeOf(Last) == rpc::SessionBusy) {
      SawBusy = true;
      Fs.pop_back();
      break;
    }
  }
  EXPECT_TRUE(SawBusy);
  Blocker.get();
  for (auto &F : Fs)
    F.get(); // Every accepted request still resolves.
}

TEST(ConcurrentSessions, InvalidSessionIdResolvesWithError) {
  SessionManager M(SessionManager::Options{});
  json::Value R = M.handle(99, flameRequest(1, 1));
  EXPECT_EQ(errorCodeOf(R), rpc::InvalidRequest);
}

//===----------------------------------------------------------------------===
// Soak: >= 4 sessions, interleaved traffic, byte-identity vs sequential
//===----------------------------------------------------------------------===

namespace {

/// One session's scripted traffic: open, a mix of views and searches, a
/// mid-stream close/reopen, final close. Returns the request payloads with
/// the profile id marker resolved later (requests are built per run since
/// ids differ between runs).
struct SoakScript {
  std::string OpenBytes;
  int Views = 24;
};

/// Replays \p Script against \p Submit (either a SessionManager session or
/// a standalone sequential server) and returns every response EXCEPT the
/// open/close envelopes, whose profile ids legitimately differ between a
/// shared store and a private one. View replies carry no ids, so they must
/// match byte for byte.
std::vector<std::string>
replaySoak(const SoakScript &Script,
           const std::function<json::Value(json::Value)> &Submit) {
  std::vector<std::string> Views;
  json::Value Opened = Submit(openRequest(1, Script.OpenBytes));
  int64_t Prof = openedProfile(Opened);
  for (int I = 0; I < Script.Views; ++I) {
    int64_t ReqId = 100 + I;
    json::Value R = (I % 3 == 0)   ? Submit(treeTableRequest(ReqId, Prof))
                    : (I % 3 == 1) ? Submit(flameRequest(ReqId, Prof))
                                   : Submit([&] {
                                       json::Object P;
                                       P.set("profile", Prof);
                                       P.set("pattern", "f");
                                       return rpc::makeRequest(
                                           ReqId, "pvp/search", std::move(P));
                                     }());
    Views.push_back(R.dump());
  }
  Submit(closeRequest(999, Prof));
  return Views;
}

} // namespace

TEST(ConcurrentSessions, SoakMatchesSequentialServerByteForByte) {
  constexpr unsigned Sessions = 4;
  SessionManager::Options Opts;
  Opts.Sessions = Sessions;
  SessionManager M(Opts);

  std::vector<SoakScript> Scripts(Sessions);
  for (unsigned S = 0; S < Sessions; ++S)
    Scripts[S].OpenBytes =
        writeEvProf(test::makeRandomProfile(1000 + S * 17));

  // Concurrent run: one driver thread per session, all hammering the
  // manager at once.
  std::vector<std::vector<std::string>> Concurrent(Sessions);
  {
    std::vector<std::thread> Drivers;
    for (unsigned S = 0; S < Sessions; ++S)
      Drivers.emplace_back([&, S] {
        Concurrent[S] = replaySoak(Scripts[S], [&](json::Value Req) {
          return M.handle(S, std::move(Req));
        });
      });
    for (std::thread &T : Drivers)
      T.join();
  }

  // Sequential reference: each session's script against a fresh standalone
  // server. Responses must match byte for byte.
  for (unsigned S = 0; S < Sessions; ++S) {
    PvpServer Sequential;
    std::vector<std::string> Expected =
        replaySoak(Scripts[S], [&](json::Value Req) {
          return Sequential.handleMessage(Req);
        });
    ASSERT_EQ(Concurrent[S].size(), Expected.size());
    for (size_t I = 0; I < Expected.size(); ++I)
      EXPECT_EQ(Concurrent[S][I], Expected[I])
          << "session " << S << " response " << I;
  }
}

TEST(ConcurrentSessions, SoakWithInterleavedCancelsAndCloses) {
  // Race-oriented soak for the tsan preset: 4 sessions issue interleaved
  // open/flame/treeTable/$cancel/close traffic, including cancels that race
  // running requests and closes that race other sessions' reads of the
  // shared store and cache. Assertions are invariant-level: every future
  // resolves with either a result or a well-known error code.
  constexpr unsigned Sessions = 4;
  constexpr int Rounds = 12;
  SessionManager::Options Opts;
  Opts.Sessions = Sessions;
  SessionManager M(Opts);

  std::vector<std::thread> Drivers;
  std::atomic<int> Failures{0};
  for (unsigned S = 0; S < Sessions; ++S)
    Drivers.emplace_back([&, S] {
      std::string Bytes = writeEvProf(test::makeRandomProfile(500 + S));
      for (int Round = 0; Round < Rounds; ++Round) {
        int64_t Prof = openedProfile(M.handle(S, openRequest(1, Bytes)));
        std::vector<std::future<json::Value>> Fs;
        for (int64_t R = 2; R < 8; ++R)
          Fs.push_back(M.submit(S, R % 2 == 0 ? flameRequest(R, Prof)
                                              : treeTableRequest(R, Prof)));
        // Cancel one mid-flight request and close while views may still
        // be queued behind the close on OTHER rounds' state.
        M.submit(S, cancelRequest(50, 5));
        Fs.push_back(M.submit(S, closeRequest(51, Prof)));
        for (auto &F : Fs) {
          json::Value R = F.get();
          int Code = errorCodeOf(R);
          bool Ok = resultOf(R).isObject() ||
                    Code == rpc::RequestCancelled ||
                    Code == rpc::InvalidParams;
          if (!Ok)
            ++Failures;
        }
      }
    });
  for (std::thread &T : Drivers)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  // Every round issues 8 strand requests; at most one per round is
  // unlinked while still queued (cancelled before execution), and the
  // executed counter is telemetry incremented after the promise resolves,
  // so the drivers can observe it a few tasks short of the true total.
  EXPECT_GE(M.executedCount(), Sessions * Rounds * 6u);
}

//===----------------------------------------------------------------------===
// Shared store semantics
//===----------------------------------------------------------------------===

TEST(ConcurrentStore, DropKeepsInFlightReferencesAlive) {
  ProfileStore Store;
  int64_t Id = Store.add(test::makeFixedProfile());
  std::shared_ptr<const Profile> Held = Store.get(Id);
  ASSERT_NE(Held, nullptr);
  EXPECT_TRUE(Store.drop(Id));
  EXPECT_EQ(Store.get(Id), nullptr);
  // The dropped profile stays readable through the held reference.
  EXPECT_GT(Held->nodeCount(), 0u);
  EXPECT_FALSE(Store.drop(Id)); // Second drop: id already retired.
}

TEST(ConcurrentStore, GenerationsAdvanceIndependently) {
  ProfileStore Store;
  int64_t A = Store.add(test::makeFixedProfile());
  int64_t B = Store.add(test::makeFixedProfile());
  EXPECT_EQ(Store.generationOf(A), 0u);
  Store.bumpGeneration(A);
  Store.bumpGeneration(A);
  EXPECT_EQ(Store.generationOf(A), 2u);
  EXPECT_EQ(Store.generationOf(B), 0u);
}

TEST(ConcurrentStore, SharedCacheHoldsExactlyMaxCachedViews) {
  SessionManager::Options Opts;
  Opts.Limits.MaxCachedViews = 8;
  SessionManager M(Opts);
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  int64_t Prof = openedProfile(M.handle(0, openRequest(1, Bytes)));
  ASSERT_GT(Prof, 0);
  // Eight distinct views fill the one LRU without evicting any of them.
  auto View = [Prof](int64_t ReqId, int MaxRects) {
    json::Object P;
    P.set("profile", Prof);
    P.set("maxRects", MaxRects);
    return rpc::makeRequest(ReqId, "pvp/flame", std::move(P));
  };
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(resultOf(M.handle(0, View(2 + I, 10 + I))).isObject());
  EXPECT_EQ(M.viewCache().size(), 8u);
  EXPECT_EQ(M.viewCache().evictions(), 0u);
  uint64_t Hits = M.viewCache().hits();
  for (int I = 0; I < 8; ++I)
    M.handle(0, View(10 + I, 10 + I));
  EXPECT_EQ(M.viewCache().hits(), Hits + 8);
}
