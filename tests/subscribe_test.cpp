//===- tests/subscribe_test.cpp - Delta-synced live view subscriptions ----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the live-view subscription stack end to end: the ViewDelta codec
/// (encode/apply byte-identity, refused deltas, generation peeking), the
/// pvp/subscribe / pvp/ack / pvp/unsubscribe server methods with their
/// acked-generation bookkeeping, streaming pvp/append driving pushes over
/// the real wire framing, the SessionManager notify plumbing under a budgeted (spilling) store, and the two
/// transport-level regressions that long-lived subscriber connections
/// exposed (FrameReader capacity pinning, ViewCache re-insert accounting).
/// The `easyview_subscribe` ctest entry (and both sanitizer presets) run
/// exactly these suites, so every name starts with "Subscribe".
///
//===----------------------------------------------------------------------===//

#include "ide/MockIde.h"
#include "ide/PvpServer.h"
#include "ide/SessionManager.h"
#include "ide/ViewCache.h"
#include "ide/ViewDelta.h"
#include "proto/EvProf.h"
#include "support/Strings.h"

#include "TestHelpers.h"

#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

using namespace ev;

namespace {

/// Fresh per-test scratch directory under /tmp.
std::string testDir() {
  const ::testing::TestInfo *Info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Dir = std::string("/tmp/evsub_test_") + Info->test_suite_name() +
                    "_" + Info->name();
  std::string Cmd = "rm -rf " + Dir + " && mkdir -p " + Dir;
  EXPECT_EQ(std::system(Cmd.c_str()), 0);
  return Dir;
}

/// The shared growth-stage construction (see TestHelpers.h), with the
/// prefix property pinned here so a codec or builder change that breaks it
/// fails loudly, not as a cryptic decode error later.
std::vector<std::string> growthStageBytes(size_t Stages) {
  std::vector<std::string> Out = test::growthStageBytes(Stages);
  for (size_t S = 0; S + 1 < Out.size(); ++S)
    EXPECT_EQ(Out[S + 1].compare(0, Out[S].size(), Out[S]), 0)
        << "stage " << S + 1 << " does not extend stage " << S;
  return Out;
}

/// The appended section taking stage \p From to stage \p From + 1.
std::string sectionBytes(const std::vector<std::string> &Stages, size_t From) {
  return test::sectionBytes(Stages, From);
}

int64_t intField(const json::Value &V, const char *Key) {
  const json::Value *F = V.asObject().find(Key);
  EXPECT_NE(F, nullptr) << "missing field " << Key;
  int64_t Out = -1;
  if (F) {
    EXPECT_TRUE(F->getInteger(Out)) << "field " << Key << " not an integer";
  }
  return Out;
}

std::string stringField(const json::Value &V, const char *Key) {
  const json::Value *F = V.asObject().find(Key);
  EXPECT_NE(F, nullptr) << "missing field " << Key;
  return F && F->isString() ? F->asString() : std::string();
}

/// Extracts the pvp/viewDelta notifications from a drained wire batch.
std::vector<json::Value> viewDeltasIn(const std::vector<json::Value> &Notes) {
  std::vector<json::Value> Out;
  for (const json::Value &N : Notes)
    if (N.isObject())
      if (const json::Value *M = N.asObject().find("method");
          M && M->isString() && M->asString() == "pvp/viewDelta")
        Out.push_back(*N.asObject().find("params"));
  return Out;
}

/// Decodes params.deltaBase64 and applies it to \p Held.
Result<ViewTable> applyDeltaParams(const ViewTable &Held,
                                   const json::Value &Params) {
  std::string Delta;
  EXPECT_TRUE(base64Decode(stringField(Params, "deltaBase64"), Delta));
  Result<ViewTable> Applied = applyViewDelta(Held, Delta);
  EXPECT_TRUE(bool(Applied)) << (Applied ? "" : Applied.error());
  return Applied;
}

/// The view a pvp/subscribe result carries, as the table a client holds.
ViewTable heldView(const json::Value &SubResult) {
  Result<ViewTable> T = ViewTable::read(*SubResult.asObject().find("view"));
  EXPECT_TRUE(bool(T)) << (T ? "" : T.error());
  return T ? T.take() : ViewTable(ViewKind::Flame);
}

} // namespace

//===----------------------------------------------------------------------===
// SubscribeDelta: the ViewDelta codec in isolation.
//===----------------------------------------------------------------------===

namespace {

/// A tree table of rows (node, name); each row's 'expanded' is its
/// node's parity.
ViewTable treeTable(std::vector<std::pair<int64_t, std::string>> Rows,
                    int64_t Dropped) {
  ViewTable T(ViewKind::TreeTable);
  T.addScalar("truncated", Dropped > 0);
  T.addScalar("droppedRows", Dropped);
  T.rowsHere();
  for (const auto &[Node, Name] : Rows)
    T.addRow(Node, 1, Name, true, Node % 2 == 1);
  return T;
}

/// A flame of one-level rects (node, x) of width 0.25.
ViewTable flame(std::vector<std::pair<int64_t, double>> Rects, double Total) {
  ViewTable T(ViewKind::Flame);
  T.addScalar("total", Total);
  T.rowsHere();
  for (const auto &[Node, X] : Rects)
    T.addRow(Node, 0, X, 0.25, Total / 4, "f" + std::to_string(Node),
             "#aabbcc");
  return T;
}

/// Encodes Base -> Next, applies it to Base, and checks the applied table
/// writes Next's bytes.
ViewDeltaStats roundTrip(const ViewTable &Base, const ViewTable &Next) {
  ViewDeltaStats Stats;
  std::string Delta = encodeViewDelta(Base, Next, 3, 4, &Stats);
  Result<ViewTable> Applied = applyViewDelta(Base, Delta);
  EXPECT_TRUE(bool(Applied)) << (Applied ? "" : Applied.error());
  if (Applied) {
    EXPECT_EQ(Applied->write(), Next.write());
  }
  return Stats;
}

} // namespace

TEST(SubscribeDelta, ChangedAndNewRowsRoundTripByteIdentical) {
  // Row 1 changes its name, row 2 is new: the name column carries two
  // values, the 'expanded' column only the new row's.
  ViewTable Base = treeTable({{0, "root"}, {1, "a"}}, 0);
  ViewTable Next = treeTable({{0, "root"}, {1, "aa"}, {2, "b"}}, 3);
  ViewDeltaStats Stats = roundTrip(Base, Next);
  EXPECT_EQ(Stats.RowsAdded, 1u);
  EXPECT_EQ(Stats.RowsRemoved, 0u);
  EXPECT_EQ(Stats.ValuesPatched, 5u); // depth, name x2, expandable, expanded.
  EXPECT_EQ(Stats.ScalarsPatched, 2u);

  std::string Delta = encodeViewDelta(Base, Next, 3, 4);
  Result<std::pair<uint64_t, uint64_t>> Gens = peekViewDeltaGenerations(Delta);
  ASSERT_TRUE(bool(Gens)) << Gens.error();
  EXPECT_EQ(Gens->first, 3u);
  EXPECT_EQ(Gens->second, 4u);
}

TEST(SubscribeDelta, DenseDoubleChangeCostsOneColumn) {
  // Every rect moves its x (a flame renormalization): one column carries
  // every row's new value and no other field is sent.
  ViewTable Base = flame({{0, 0.0}, {1, 0.25}, {2, 0.5}}, 8);
  ViewTable Next = flame({{0, 0.1}, {1, 0.35}, {2, 0.6}}, 8);
  ViewDeltaStats Stats = roundTrip(Base, Next);
  EXPECT_EQ(Stats.ColumnsPatched, 1u);
  EXPECT_EQ(Stats.ValuesPatched, 3u);
  EXPECT_EQ(Stats.ScalarsPatched, 0u);
  EXPECT_LT(encodeViewDelta(Base, Next, 7, 8).size(), Next.write().size());
}

TEST(SubscribeDelta, RemovalAndReorderRoundTrip) {
  ViewTable Base = treeTable({{0, "r"}, {1, "a"}, {2, "b"}}, 0);
  ViewTable Next = treeTable({{2, "b"}, {0, "r"}}, 0);
  ViewDeltaStats Stats = roundTrip(Base, Next);
  EXPECT_EQ(Stats.RowsRemoved, 1u);
  EXPECT_EQ(Stats.ValuesPatched, 0u);
}

TEST(SubscribeDelta, IdenticalViewsProduceEmptyPatchSet) {
  ViewTable Base = treeTable({{0, "r"}, {1, "a"}}, 0);
  ViewDeltaStats Stats = roundTrip(Base, Base);
  EXPECT_EQ(Stats.RowsAdded, 0u);
  EXPECT_EQ(Stats.RowsRemoved, 0u);
  EXPECT_EQ(Stats.ColumnsPatched, 0u);
  EXPECT_EQ(Stats.ScalarsPatched, 0u);
}

TEST(SubscribeDelta, MalformedOrMismatchedDeltaFailsCleanly) {
  ViewTable Base = treeTable({{0, "r"}}, 0);
  EXPECT_FALSE(applyViewDelta(Base, "not a delta").ok());
  EXPECT_FALSE(peekViewDeltaGenerations("garbage").ok());
  // A flame delta does not apply to a tree table.
  ViewTable F = flame({{0, 0.0}}, 1);
  EXPECT_FALSE(applyViewDelta(Base, encodeViewDelta(F, F, 0, 1)).ok());
}

//===----------------------------------------------------------------------===
// SubscribeServer: the PVP methods over the real wire framing (MockIde).
//===----------------------------------------------------------------------===

namespace {

/// The view-cache hit and miss counts pvp/stats reports.
std::pair<int64_t, int64_t> cacheCounts(MockIde &Ide) {
  Result<json::Value> Stats = Ide.call("pvp/stats", json::Object());
  EXPECT_TRUE(bool(Stats)) << (Stats ? "" : Stats.error());
  if (!Stats)
    return {-1, -1};
  return {intField(*Stats, "cacheHits"), intField(*Stats, "cacheMisses")};
}

/// Drives one subscription through every growth stage and asserts the
/// applied delta stream is byte-identical to an explicit full re-query at
/// every generation. With \p WarmCache the view is requested before
/// pvp/subscribe, and subscribe and every push must add no view-cache
/// lookup while the reply each inserts serves the next re-query as a hit;
/// without it the session caches nothing (MaxCachedViews = 0).
/// \returns the subscribe reply followed by the concatenated delta
/// payloads, which must not depend on the cache.
std::string runDeltaStream(const std::string &View, json::Object ViewParams,
                           const char *RequeryMethod, bool WarmCache,
                           size_t Stages = 5) {
  std::vector<std::string> Bytes = growthStageBytes(Stages);
  ServerLimits Limits;
  if (!WarmCache)
    Limits.MaxCachedViews = 0;
  MockIde Ide(Limits);
  Result<int64_t> Id = Ide.openProfile("live", Bytes[0]);
  EXPECT_TRUE(bool(Id)) << (Id ? "" : Id.error());
  Ide.takeNotifications(); // No subscription yet; nothing expected.

  json::Object Requery(ViewParams);
  Requery.set("profile", *Id);
  if (WarmCache) {
    EXPECT_TRUE(Ide.call(RequeryMethod, Requery).ok());
  }
  auto [Hits, Misses] = cacheCounts(Ide);
  EXPECT_EQ(Hits + Misses, WarmCache ? 1 : 0);

  json::Object SubParams;
  SubParams.set("profile", *Id);
  SubParams.set("view", View);
  SubParams.set("params", json::Value(ViewParams));
  Result<json::Value> Sub = Ide.call("pvp/subscribe", std::move(SubParams));
  EXPECT_TRUE(bool(Sub)) << (Sub ? "" : Sub.error());
  if (!Sub)
    return std::string();
  int64_t SubId = intField(*Sub, "subscription");
  ViewTable Held = heldView(*Sub);
  EXPECT_EQ(cacheCounts(Ide), std::make_pair(Hits, Misses))
      << "pvp/subscribe looked its view up in the cache";

  // The initial view must itself be byte-identical to an explicit query.
  Result<json::Value> Initial = Ide.call(RequeryMethod, Requery);
  EXPECT_TRUE(bool(Initial)) << (Initial ? "" : Initial.error());
  EXPECT_EQ(Held.write(), Initial->dump());

  std::string Stream = Sub->dump();
  for (size_t S = 0; S + 1 < Stages; ++S) {
    std::tie(Hits, Misses) = cacheCounts(Ide);
    json::Object AppendParams;
    AppendParams.set("profile", *Id);
    AppendParams.set("dataBase64", base64Encode(sectionBytes(Bytes, S)));
    Result<json::Value> Appended =
        Ide.call("pvp/append", std::move(AppendParams));
    EXPECT_TRUE(bool(Appended)) << (Appended ? "" : Appended.error());
    if (!Appended)
      return std::string();
    EXPECT_GT(intField(*Appended, "nodesAdded"), 0);
    int64_t Gen = intField(*Appended, "generation");

    std::vector<json::Value> Deltas = viewDeltasIn(Ide.takeNotifications());
    EXPECT_EQ(Deltas.size(), 1u) << "expected exactly one push per append";
    if (Deltas.size() != 1)
      return std::string();
    EXPECT_EQ(cacheCounts(Ide), std::make_pair(Hits, Misses))
        << "the push looked its view up in the cache";
    EXPECT_EQ(intField(Deltas[0], "subscription"), SubId);
    EXPECT_EQ(intField(Deltas[0], "toGeneration"), Gen);

    std::string Raw;
    EXPECT_TRUE(base64Decode(stringField(Deltas[0], "deltaBase64"), Raw));
    Stream += Raw;

    Result<ViewTable> Applied = applyDeltaParams(Held, Deltas[0]);
    Result<json::Value> Full = Ide.call(RequeryMethod, Requery);
    EXPECT_TRUE(bool(Full)) << (Full ? "" : Full.error());
    if (!Full || !Applied)
      return std::string();
    if (WarmCache) {
      EXPECT_EQ(cacheCounts(Ide), std::make_pair(Hits + 1, Misses))
          << "the re-query missed the view the push inserted";
    }
    EXPECT_EQ(Applied->write(), Full->dump())
        << "applied delta diverged from re-query at stage " << S + 1;
    // The push is compact: strictly smaller than re-serializing the view.
    EXPECT_LT(Raw.size(), Full->dump().size());

    json::Object AckParams;
    AckParams.set("subscription", SubId);
    AckParams.set("generation", Gen);
    Result<json::Value> Ack = Ide.call("pvp/ack", std::move(AckParams));
    EXPECT_TRUE(bool(Ack)) << (Ack ? "" : Ack.error());
    if (!Ack)
      return std::string();
    EXPECT_TRUE(Ack->asObject().find("acked")->asBool());
    Held = Applied.take();
  }

  json::Object Unsub;
  Unsub.set("subscription", SubId);
  Result<json::Value> Removed = Ide.call("pvp/unsubscribe", std::move(Unsub));
  EXPECT_TRUE(bool(Removed)) << (Removed ? "" : Removed.error());
  EXPECT_TRUE(Removed->asObject().find("removed")->asBool());
  EXPECT_EQ(Ide.server().subscriptionCount(), 0u);
  return Stream;
}

} // namespace

TEST(SubscribeServer, FlameDeltaStreamMatchesRequery) {
  json::Object P;
  P.set("maxRects", static_cast<int64_t>(4096));
  std::string Warm = runDeltaStream("flame", P, "pvp/flame", true);
  EXPECT_FALSE(Warm.empty());
  EXPECT_EQ(runDeltaStream("flame", P, "pvp/flame", false), Warm)
      << "the subscribe reply or a delta depends on the view cache";
}

TEST(SubscribeServer, TreeTableDeltaStreamMatchesRequery) {
  json::Object P;
  P.set("includeText", false);
  std::string Warm = runDeltaStream("treeTable", P, "pvp/treeTable", true);
  EXPECT_FALSE(Warm.empty());
  EXPECT_EQ(runDeltaStream("treeTable", P, "pvp/treeTable", false), Warm)
      << "the subscribe reply or a delta depends on the view cache";
}

TEST(SubscribeServer, PublishSweepFaultsNoSpilledProfile) {
  // A budget of one byte keeps only the profile in use resident.
  ServerLimits Limits;
  Limits.StoreBudgetBytes = 1;
  Limits.SpillDir = testDir();
  MockIde Ide(Limits);
  std::vector<std::string> Bytes = growthStageBytes(2);
  Result<int64_t> Live = Ide.openProfile("live", Bytes[0]);
  ASSERT_TRUE(bool(Live)) << Live.error();
  Result<int64_t> Other =
      Ide.openProfile("other", writeEvProf(test::makeFixedProfile()));
  ASSERT_TRUE(bool(Other)) << Other.error();
  json::Object SubParams;
  SubParams.set("profile", *Live);
  SubParams.set("view", "flame");
  ASSERT_TRUE(Ide.call("pvp/subscribe", std::move(SubParams)).ok());

  auto Faults = [&Ide] {
    Result<json::Value> Stats = Ide.call("pvp/stats", json::Object());
    return Stats ? intField(*Stats, "storeFaults") : -1;
  };
  auto Hover = [&] {
    EXPECT_TRUE(Ide.hoverNode(*Other, 1).ok());
  };
  // The first hover faults the other profile in and spills the live one.
  Hover();
  int64_t Before = Faults();
  // The sweep after each request must find the live profile open without
  // faulting it back in; its generation did not move, so nothing is
  // pushed and nothing needs it resident.
  for (int I = 0; I < 3; ++I)
    Hover();
  EXPECT_EQ(Faults(), Before);
  EXPECT_EQ(Ide.server().subscriptionCount(), 1u);
  EXPECT_TRUE(Ide.takeNotifications().empty());

  // An append wakes the subscription, which faults the view's profile in.
  json::Object Append;
  Append.set("profile", *Live);
  Append.set("dataBase64", base64Encode(sectionBytes(Bytes, 0)));
  ASSERT_TRUE(Ide.call("pvp/append", std::move(Append)).ok());
  EXPECT_EQ(viewDeltasIn(Ide.takeNotifications()).size(), 1u);
}

TEST(SubscribeServer, UnackedPushesAlwaysDiffFromAckedBase) {
  std::vector<std::string> Bytes = growthStageBytes(4);
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("live", Bytes[0]);
  ASSERT_TRUE(bool(Id)) << Id.error();

  json::Object SubParams;
  SubParams.set("profile", *Id);
  SubParams.set("view", "treeTable");
  json::Object VP;
  VP.set("includeText", false);
  SubParams.set("params", json::Value(std::move(VP)));
  Result<json::Value> Sub = Ide.call("pvp/subscribe", std::move(SubParams));
  ASSERT_TRUE(bool(Sub)) << Sub.error();
  int64_t SubId = intField(*Sub, "subscription");
  int64_t Gen0 = intField(*Sub, "generation");
  ViewTable Acked = heldView(*Sub);

  // Two appends, no ack in between: each push must diff from the ACKED
  // view (replay-safe), not chain on the unacked predecessor.
  json::Value LastDelta;
  for (size_t S = 0; S < 2; ++S) {
    json::Object AP;
    AP.set("profile", *Id);
    AP.set("dataBase64", base64Encode(sectionBytes(Bytes, S)));
    ASSERT_TRUE(Ide.call("pvp/append", std::move(AP)).ok());
    std::vector<json::Value> Deltas = viewDeltasIn(Ide.takeNotifications());
    ASSERT_EQ(Deltas.size(), 1u);
    EXPECT_EQ(intField(Deltas[0], "fromGeneration"), Gen0)
        << "push must be based on the acked generation";
    LastDelta = Deltas[0];
  }

  // Applying ONLY the last delta to the original acked view yields the
  // current view — the dropped intermediate push costs nothing.
  Result<ViewTable> Applied = applyDeltaParams(Acked, LastDelta);
  json::Object Requery;
  Requery.set("includeText", false);
  Requery.set("profile", *Id);
  Result<json::Value> Full = Ide.call("pvp/treeTable", Requery);
  ASSERT_TRUE(bool(Full)) << Full.error();
  ASSERT_TRUE(bool(Applied));
  EXPECT_EQ(Applied->write(), Full->dump());

  // Ack the latest push; the next delta advances from it.
  int64_t Gen2 = intField(LastDelta, "toGeneration");
  json::Object AckP;
  AckP.set("subscription", SubId);
  AckP.set("generation", Gen2);
  Result<json::Value> Ack = Ide.call("pvp/ack", std::move(AckP));
  ASSERT_TRUE(bool(Ack)) << Ack.error();
  EXPECT_TRUE(Ack->asObject().find("acked")->asBool());

  json::Object AP;
  AP.set("profile", *Id);
  AP.set("dataBase64", base64Encode(sectionBytes(Bytes, 2)));
  ASSERT_TRUE(Ide.call("pvp/append", std::move(AP)).ok());
  std::vector<json::Value> Deltas = viewDeltasIn(Ide.takeNotifications());
  ASSERT_EQ(Deltas.size(), 1u);
  EXPECT_EQ(intField(Deltas[0], "fromGeneration"), Gen2);
}

TEST(SubscribeServer, AckIsIdempotentAndRejectsStaleGenerations) {
  std::vector<std::string> Bytes = growthStageBytes(2);
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("live", Bytes[0]);
  ASSERT_TRUE(bool(Id)) << Id.error();
  json::Object SubParams;
  SubParams.set("profile", *Id);
  SubParams.set("view", "flame");
  Result<json::Value> Sub = Ide.call("pvp/subscribe", std::move(SubParams));
  ASSERT_TRUE(bool(Sub)) << Sub.error();
  int64_t SubId = intField(*Sub, "subscription");
  int64_t Gen0 = intField(*Sub, "generation");

  // Re-acking the current base (a reconnect replay) succeeds and is a
  // no-op; acking a generation never pushed is refused.
  json::Object AckSame;
  AckSame.set("subscription", SubId);
  AckSame.set("generation", Gen0);
  Result<json::Value> A1 = Ide.call("pvp/ack", std::move(AckSame));
  ASSERT_TRUE(bool(A1)) << A1.error();
  EXPECT_TRUE(A1->asObject().find("acked")->asBool());

  json::Object AckBogus;
  AckBogus.set("subscription", SubId);
  AckBogus.set("generation", Gen0 + 1234);
  Result<json::Value> A2 = Ide.call("pvp/ack", std::move(AckBogus));
  ASSERT_TRUE(bool(A2)) << A2.error();
  EXPECT_FALSE(A2->asObject().find("acked")->asBool());
  EXPECT_EQ(intField(*A2, "generation"), Gen0);
}

TEST(SubscribeServer, CloseEndsSubscriptionWithReason) {
  std::vector<std::string> Bytes = growthStageBytes(1);
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("live", Bytes[0]);
  ASSERT_TRUE(bool(Id)) << Id.error();
  json::Object SubParams;
  SubParams.set("profile", *Id);
  SubParams.set("view", "flame");
  ASSERT_TRUE(Ide.call("pvp/subscribe", std::move(SubParams)).ok());
  Ide.takeNotifications();

  json::Object CloseParams;
  CloseParams.set("profile", *Id);
  ASSERT_TRUE(Ide.call("pvp/close", std::move(CloseParams)).ok());

  bool SawEnd = false;
  for (const json::Value &N : Ide.takeNotifications())
    if (const json::Value *M = N.asObject().find("method");
        M && M->asString() == "pvp/subscriptionEnd")
      SawEnd = true;
  EXPECT_TRUE(SawEnd);
  EXPECT_EQ(Ide.server().subscriptionCount(), 0u);
}

TEST(SubscribeServer, SubscriptionCapYieldsTypedError) {
  ServerLimits Limits;
  Limits.MaxSubscriptionsPerSession = 1;
  PvpServer Server(Limits);
  std::vector<std::string> Bytes = growthStageBytes(1);
  Result<Profile> P = readEvProf(Bytes[0]);
  ASSERT_TRUE(bool(P)) << P.error();
  int64_t Id = Server.addProfile(P.take());

  json::Object SubParams;
  SubParams.set("profile", Id);
  SubParams.set("view", "flame");
  json::Value First = Server.handleMessage(
      rpc::makeRequest(1, "pvp/subscribe", json::Value(SubParams)));
  ASSERT_TRUE(First.asObject().contains("result"));

  json::Value Second = Server.handleMessage(
      rpc::makeRequest(2, "pvp/subscribe", json::Value(std::move(SubParams))));
  const json::Value *Err = Second.asObject().find("error");
  ASSERT_NE(Err, nullptr);
  EXPECT_EQ(Err->asObject().find("code")->asInt(),
            static_cast<int64_t>(rpc::SubscriptionLimit));
}

TEST(SubscribeServer, InitialViewSpendsTheSubscribeDeadline) {
  ServerLimits Limits;
  PvpServer Server(Limits);
  std::vector<std::string> Bytes = growthStageBytes(2);
  Result<Profile> P = readEvProf(Bytes[0]);
  ASSERT_TRUE(bool(P)) << P.error();
  int64_t Id = Server.addProfile(P.take());

  // The clock passes the deadline right after pvp/subscribe arms it, so
  // its nested flame dispatch must find the budget spent, not restart it.
  uint64_t Reads = 0;
  const uint64_t Late = 1000 + Limits.RequestDeadlineMs + 1;
  Server.setClock([&] { return ++Reads == 1 ? 1000 : Late; });
  json::Object SubParams;
  SubParams.set("profile", Id);
  SubParams.set("view", "flame");
  json::Value Timed = Server.handleMessage(
      rpc::makeRequest(1, "pvp/subscribe", json::Value(SubParams)));
  const json::Value *Err = Timed.asObject().find("error");
  ASSERT_NE(Err, nullptr) << Timed.dump();
  EXPECT_EQ(Err->asObject().find("code")->asInt(),
            static_cast<int64_t>(rpc::RequestTimeout));
  EXPECT_EQ(Server.subscriptionCount(), 0u);

  // A push runs outside any request and arms its own deadline: the
  // append's budget, spent by the time it publishes, does not leak into it.
  Server.setClock(nullptr);
  json::Value Sub = Server.handleMessage(
      rpc::makeRequest(2, "pvp/subscribe", json::Value(SubParams)));
  ASSERT_TRUE(Sub.asObject().contains("result")) << Sub.dump();
  Reads = 0;
  Server.setClock([&] { return ++Reads == 1 ? 1000 : Late; });
  json::Object AppendParams;
  AppendParams.set("profile", Id);
  AppendParams.set("dataBase64", base64Encode(sectionBytes(Bytes, 0)));
  json::Value Appended = Server.handleMessage(
      rpc::makeRequest(3, "pvp/append", json::Value(AppendParams)));
  ASSERT_TRUE(Appended.asObject().contains("result")) << Appended.dump();
  EXPECT_EQ(viewDeltasIn(Server.takeNotifications()).size(), 1u);
  EXPECT_EQ(Server.subscriptionCount(), 1u);
}

//===----------------------------------------------------------------------===
// SubscribeManager: the strand notify plumbing, cross-session publishes,
// and a budgeted store spilling the subscribed profile mid-stream.
//===----------------------------------------------------------------------===

TEST(SubscribeManager, NotifyPlumbingSurvivesSpillingStore) {
  std::vector<std::string> Bytes = growthStageBytes(5);

  SessionManager::Options MOpts;
  MOpts.Sessions = 2;
  SessionManager Manager(MOpts);
  // A budget far below the profile's resident size forces spill/fault
  // churn on every recompute — the delta stream must not notice.
  ASSERT_TRUE(Manager.store().setBudget(1, testDir()).ok());

  std::mutex NotesMutex;
  std::vector<json::Value> Notes;
  auto Notify = [&NotesMutex, &Notes](json::Value N) {
    std::lock_guard<std::mutex> Lock(NotesMutex);
    Notes.push_back(std::move(N));
  };

  json::Object OpenParams;
  OpenParams.set("name", "live");
  OpenParams.set("dataBase64", base64Encode(Bytes[0]));
  json::Value Opened = Manager.handle(
      0, rpc::makeRequest(1, "pvp/open", json::Value(std::move(OpenParams))));
  const json::Object *OpenResult = Opened.asObject().find("result")
                                       ? &Opened.asObject()
                                              .find("result")
                                              ->asObject()
                                       : nullptr;
  ASSERT_NE(OpenResult, nullptr) << Opened.dump();
  int64_t Prof = 0;
  ASSERT_TRUE(OpenResult->find("profile")->getInteger(Prof));

  // A second, larger profile on the same store: alternating queries
  // against it force the budget to evict the SUBSCRIBED profile between
  // appends, so the publish sweep has to fault it back mid-stream.
  json::Object OtherParams;
  OtherParams.set("name", "churn");
  OtherParams.set("dataBase64",
                  base64Encode(writeEvProf(test::makeRandomProfile(77))));
  json::Value OtherOpened = Manager.handle(
      0, rpc::makeRequest(3, "pvp/open", json::Value(std::move(OtherParams))));
  const json::Value *OtherResult = OtherOpened.asObject().find("result");
  ASSERT_NE(OtherResult, nullptr) << OtherOpened.dump();
  int64_t Other = 0;
  ASSERT_TRUE(OtherResult->asObject().find("profile")->getInteger(Other));

  // Subscribe through submitAsync so the notify channel rides the same
  // plumbing the socket transport uses.
  std::promise<json::Value> SubPromise;
  Manager.submitAsync(
      0,
      [&] {
        json::Object SubParams;
        SubParams.set("profile", Prof);
        SubParams.set("view", "treeTable");
        json::Object VP;
        VP.set("includeText", false);
        SubParams.set("params", json::Value(std::move(VP)));
        return rpc::makeRequest(2, "pvp/subscribe",
                                json::Value(std::move(SubParams)));
      }(),
      [&SubPromise](json::Value R) { SubPromise.set_value(std::move(R)); },
      Notify);
  json::Value SubResponse = SubPromise.get_future().get();
  const json::Value *SubResult = SubResponse.asObject().find("result");
  ASSERT_NE(SubResult, nullptr) << SubResponse.dump();
  int64_t SubId = intField(*SubResult, "subscription");
  ViewTable Held = heldView(*SubResult);

  for (size_t S = 0; S + 1 < Bytes.size(); ++S) {
    json::Object AP;
    AP.set("profile", Prof);
    AP.set("dataBase64", base64Encode(sectionBytes(Bytes, S)));
    json::Value Appended = Manager.handle(
        0, rpc::makeRequest(10 + static_cast<int64_t>(S), "pvp/append",
                            json::Value(std::move(AP))));
    ASSERT_TRUE(Appended.asObject().contains("result")) << Appended.dump();

    std::vector<json::Value> Deltas;
    {
      std::lock_guard<std::mutex> Lock(NotesMutex);
      Deltas = viewDeltasIn(Notes);
      Notes.clear();
    }
    ASSERT_EQ(Deltas.size(), 1u);
    EXPECT_EQ(intField(Deltas[0], "subscription"), SubId);
    Result<ViewTable> Applied = applyDeltaParams(Held, Deltas[0]);
    ASSERT_TRUE(bool(Applied));

    json::Object Requery;
    Requery.set("includeText", false);
    Requery.set("profile", Prof);
    json::Value Full = Manager.handle(
        0, rpc::makeRequest(100 + static_cast<int64_t>(S), "pvp/treeTable",
                            json::Value(std::move(Requery))));
    const json::Value *FullResult = Full.asObject().find("result");
    ASSERT_NE(FullResult, nullptr) << Full.dump();
    EXPECT_EQ(Applied->write(), FullResult->dump());

    json::Object AckP;
    AckP.set("subscription", SubId);
    AckP.set("generation", intField(Deltas[0], "toGeneration"));
    Manager.handle(0, rpc::makeRequest(200 + static_cast<int64_t>(S),
                                       "pvp/ack",
                                       json::Value(std::move(AckP))));
    Held = Applied.take();

    // Touch the churn profile so the subscribed one goes cold and the
    // budget sheds it before the next append.
    json::Object ChurnP;
    ChurnP.set("profile", Other);
    Manager.handle(0, rpc::makeRequest(300 + static_cast<int64_t>(S),
                                       "pvp/summary",
                                       json::Value(std::move(ChurnP))));
  }

  // The budget did its job (the profile spilled at least once) — this is
  // what makes the test exercise the fault path, not just the happy path.
  EXPECT_GT(Manager.store().stats().Evictions, 0u);
}

//===----------------------------------------------------------------------===
// SubscribeWire: FrameReader capacity regression (long-lived connections).
//===----------------------------------------------------------------------===

TEST(SubscribeWire, BufferCapacityReleasedAfterLargeFrame) {
  rpc::FrameReaderOptions Opts;
  Opts.CompactThresholdBytes = 64u << 10;
  rpc::FrameReader Reader(Opts);

  // One large frame: a subscriber's initial full view.
  json::Object Big;
  Big.set("payload", std::string(2u << 20, 'x'));
  Reader.feed(rpc::frame(json::Value(std::move(Big))));
  ASSERT_TRUE(Reader.poll().has_value());

  // Steady state afterwards: small acks. Without compaction the buffer
  // keeps its 2 MiB high-water capacity for the connection's lifetime.
  for (int I = 0; I < 4; ++I) {
    json::Object Small;
    Small.set("ack", static_cast<int64_t>(I));
    Reader.feed(rpc::frame(json::Value(std::move(Small))));
    ASSERT_TRUE(Reader.poll().has_value());
    EXPECT_FALSE(Reader.poll().has_value());
  }
  EXPECT_LE(Reader.bufferCapacityBytes(), Opts.CompactThresholdBytes)
      << "reader pinned its high-water allocation";
}

TEST(SubscribeWire, PartialOversizedBodyDoesNotPinCapacity) {
  rpc::FrameReaderOptions Opts;
  Opts.MaxFrameBytes = 256u << 10;
  Opts.CompactThresholdBytes = 64u << 10;
  rpc::FrameReader Reader(Opts);

  // Announce a body over the cap, stream it in chunks: the reader skips
  // the bytes as they arrive and must not accumulate them either.
  std::string Body(1u << 20, 'y');
  Reader.feed("Content-Length: " + std::to_string(Body.size()) + "\r\n\r\n");
  for (size_t Off = 0; Off < Body.size(); Off += 128u << 10) {
    Reader.feed(std::string_view(Body).substr(Off, 128u << 10));
    EXPECT_FALSE(Reader.poll().has_value());
    EXPECT_LE(Reader.bufferCapacityBytes(), Opts.CompactThresholdBytes);
  }
  EXPECT_FALSE(Reader.takeErrors().empty());
}

//===----------------------------------------------------------------------===
// SubscribeCache: ViewCache byte accounting under generation churn.
//===----------------------------------------------------------------------===

TEST(SubscribeCache, ReinsertChurnKeepsByteAccountingExact) {
  ViewCache Cache(8);
  auto Big = std::make_shared<const std::string>(64u << 10, 'r');
  auto Small = std::make_shared<const std::string>(16, 's');

  // A subscribed profile's view is recomputed and re-inserted under the
  // SAME key shape at every generation. The accounting must track the
  // live text, not accumulate every generation ever inserted.
  Cache.insert("view|1|g", {1}, Big);
  EXPECT_EQ(Cache.bytes(), Big->size());
  for (int Gen = 2; Gen < 50; ++Gen)
    Cache.insert("view|1|g", {1}, Small);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), Small->size());

  // Retiring the profile drops the entry and refunds exactly its bytes;
  // another profile's entry stays.
  Cache.insert("view|2|g", {2}, Big);
  EXPECT_EQ(Cache.bytes(), Small->size() + Big->size());
  Cache.retire(1);
  EXPECT_EQ(Cache.lookup("view|1|g"), nullptr);
  EXPECT_EQ(Cache.lookup("view|2|g"), Big) << "a hit shares the entry's text";
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.bytes(), Big->size());
  Cache.retire(2);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
}
