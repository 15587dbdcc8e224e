//===- tests/subscribe_test.cpp - Delta-synced live view subscriptions ----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the live-view subscription stack end to end: the ViewDelta codec
/// (encode/apply byte-identity, fallback, generation peeking), the
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
json::Value applyDeltaParams(const json::Value &Held,
                             const json::Value &Params) {
  std::string Delta;
  EXPECT_TRUE(base64Decode(stringField(Params, "deltaBase64"), Delta));
  Result<json::Value> Applied = applyViewDelta(Held, Delta);
  EXPECT_TRUE(bool(Applied)) << (Applied ? "" : Applied.error());
  return Applied ? *Applied : json::Value();
}

} // namespace

//===----------------------------------------------------------------------===
// SubscribeDelta: the ViewDelta codec in isolation.
//===----------------------------------------------------------------------===

namespace {

json::Value makeRow(int64_t Node, double Self, const std::string &Name) {
  json::Object Row;
  Row.set("node", Node);
  Row.set("self", Self);
  Row.set("name", Name);
  return json::Value(std::move(Row));
}

json::Value makeView(std::vector<json::Value> Rows, int64_t Total) {
  json::Object Obj;
  json::Array Arr;
  for (json::Value &R : Rows)
    Arr.push_back(std::move(R));
  Obj.set("rows", json::Value(std::move(Arr)));
  Obj.set("total", Total);
  return json::Value(std::move(Obj));
}

} // namespace

TEST(SubscribeDelta, RowPatchRoundTripIsByteIdentical) {
  // Row 1 changes a string (forcing a per-row patch — strings are never
  // columnized) and a double; the double is backed by every next row and
  // changed in 2 of 3, so it ships as a packed column instead.
  json::Value Base =
      makeView({makeRow(0, 1.5, "root"), makeRow(1, 2.0, "a")}, 10);
  json::Value Next = makeView({makeRow(0, 1.5, "root"), makeRow(1, 3.5, "aa"),
                               makeRow(2, 0.25, "b")},
                              14);
  ViewDeltaStats Stats;
  std::string Delta = encodeViewDelta(Base, Next, "rows", 3, 4, &Stats);
  EXPECT_FALSE(Stats.FullFallback);
  EXPECT_EQ(Stats.RowsAdded, 1u);
  EXPECT_EQ(Stats.RowsPatched, 1u);
  EXPECT_EQ(Stats.ColumnsPatched, 1u);
  EXPECT_EQ(Stats.ScalarsPatched, 1u);

  Result<json::Value> Applied = applyViewDelta(Base, Delta);
  ASSERT_TRUE(bool(Applied)) << Applied.error();
  EXPECT_EQ(Applied->dump(), Next.dump());

  Result<std::pair<uint64_t, uint64_t>> Gens = peekViewDeltaGenerations(Delta);
  ASSERT_TRUE(bool(Gens)) << Gens.error();
  EXPECT_EQ(Gens->first, 3u);
  EXPECT_EQ(Gens->second, 4u);
}

TEST(SubscribeDelta, DenseDoubleChangePacksAsColumnNotRowPatches) {
  // Every row moves its double (a flame renormalization): the codec must
  // ship one packed fixed64 column and zero per-row patches, and applying
  // it must still reproduce the next view byte-for-byte.
  json::Value Base =
      makeView({makeRow(0, 0.5, "root"), makeRow(1, 0.25, "a"),
                makeRow(2, 0.125, "b")},
               8);
  json::Value Next =
      makeView({makeRow(0, 0.4, "root"), makeRow(1, 0.2, "a"),
                makeRow(2, 0.1, "b")},
               10);
  ViewDeltaStats Stats;
  std::string Delta = encodeViewDelta(Base, Next, "rows", 7, 8, &Stats);
  EXPECT_FALSE(Stats.FullFallback);
  EXPECT_EQ(Stats.ColumnsPatched, 1u);
  EXPECT_EQ(Stats.RowsPatched, 0u);
  EXPECT_EQ(Stats.RowsAdded, 0u);
  Result<json::Value> Applied = applyViewDelta(Base, Delta);
  ASSERT_TRUE(bool(Applied)) << Applied.error();
  EXPECT_EQ(Applied->dump(), Next.dump());
  // The packed column is the whole point: the delta must undercut the
  // dumped next view by a wide margin even at three rows.
  EXPECT_LT(Delta.size(), Next.dump().size());
}

TEST(SubscribeDelta, RemovalAndReorderRoundTrip) {
  json::Value Base = makeView(
      {makeRow(0, 1, "r"), makeRow(1, 2, "a"), makeRow(2, 3, "b")}, 6);
  json::Value Next = makeView({makeRow(2, 3, "b"), makeRow(0, 1, "r")}, 4);
  ViewDeltaStats Stats;
  std::string Delta = encodeViewDelta(Base, Next, "rows", 0, 1, &Stats);
  EXPECT_FALSE(Stats.FullFallback);
  EXPECT_EQ(Stats.RowsRemoved, 1u);
  Result<json::Value> Applied = applyViewDelta(Base, Delta);
  ASSERT_TRUE(bool(Applied)) << Applied.error();
  EXPECT_EQ(Applied->dump(), Next.dump());
}

TEST(SubscribeDelta, SchemaChangeFallsBackToFullView) {
  json::Value Base = makeView({makeRow(0, 1, "r")}, 1);
  // Next's rows carry an extra key, so the uniform-schema requirement
  // fails and the codec must ship the full view instead of a wrong delta.
  json::Object Row;
  Row.set("node", static_cast<int64_t>(0));
  Row.set("self", 2.0);
  Row.set("name", std::string("r"));
  Row.set("extra", true);
  json::Value Next = makeView({json::Value(std::move(Row))}, 2);

  ViewDeltaStats Stats;
  std::string Delta = encodeViewDelta(Base, Next, "rows", 7, 8, &Stats);
  EXPECT_TRUE(Stats.FullFallback);
  Result<json::Value> Applied = applyViewDelta(Base, Delta);
  ASSERT_TRUE(bool(Applied)) << Applied.error();
  EXPECT_EQ(Applied->dump(), Next.dump());
}

TEST(SubscribeDelta, IdenticalViewsProduceEmptyPatchSet) {
  json::Value Base = makeView({makeRow(0, 1, "r"), makeRow(1, 2, "a")}, 3);
  ViewDeltaStats Stats;
  std::string Delta = encodeViewDelta(Base, Base, "rows", 2, 3, &Stats);
  EXPECT_FALSE(Stats.FullFallback);
  EXPECT_EQ(Stats.RowsPatched, 0u);
  EXPECT_EQ(Stats.RowsAdded, 0u);
  EXPECT_EQ(Stats.RowsRemoved, 0u);
  Result<json::Value> Applied = applyViewDelta(Base, Delta);
  ASSERT_TRUE(bool(Applied)) << Applied.error();
  EXPECT_EQ(Applied->dump(), Base.dump());
}

TEST(SubscribeDelta, MalformedDeltaFailsCleanly) {
  json::Value Base = makeView({makeRow(0, 1, "r")}, 1);
  EXPECT_FALSE(applyViewDelta(Base, "not a delta").ok());
  EXPECT_FALSE(peekViewDeltaGenerations("garbage").ok());
}

//===----------------------------------------------------------------------===
// SubscribeServer: the PVP methods over the real wire framing (MockIde).
//===----------------------------------------------------------------------===

namespace {

/// Drives one subscription through every growth stage and asserts the
/// applied delta stream is byte-identical to an explicit full re-query at
/// every generation. \returns the concatenated delta payloads (for the
/// thread-count identity test).
std::string runDeltaStream(const std::string &View, json::Object ViewParams,
                           const char *RequeryMethod, size_t Stages = 5) {
  std::vector<std::string> Bytes = growthStageBytes(Stages);
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("live", Bytes[0]);
  EXPECT_TRUE(bool(Id)) << (Id ? "" : Id.error());
  Ide.takeNotifications(); // No subscription yet; nothing expected.

  json::Object SubParams;
  SubParams.set("profile", *Id);
  SubParams.set("view", View);
  SubParams.set("params", json::Value(ViewParams));
  Result<json::Value> Sub = Ide.call("pvp/subscribe", std::move(SubParams));
  EXPECT_TRUE(bool(Sub)) << (Sub ? "" : Sub.error());
  if (!Sub)
    return std::string();
  int64_t SubId = intField(*Sub, "subscription");
  json::Value Held = *Sub->asObject().find("view");

  // The initial view must itself be byte-identical to an explicit query.
  json::Object Requery(ViewParams);
  Requery.set("profile", *Id);
  Result<json::Value> Initial = Ide.call(RequeryMethod, Requery);
  EXPECT_TRUE(bool(Initial)) << (Initial ? "" : Initial.error());
  EXPECT_EQ(Held.dump(), Initial->dump());

  std::string DeltaBytes;
  for (size_t S = 0; S + 1 < Stages; ++S) {
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
    EXPECT_EQ(intField(Deltas[0], "subscription"), SubId);
    EXPECT_EQ(intField(Deltas[0], "toGeneration"), Gen);

    std::string Raw;
    EXPECT_TRUE(base64Decode(stringField(Deltas[0], "deltaBase64"), Raw));
    DeltaBytes += Raw;

    json::Value Applied = applyDeltaParams(Held, Deltas[0]);
    Result<json::Value> Full = Ide.call(RequeryMethod, Requery);
    EXPECT_TRUE(bool(Full)) << (Full ? "" : Full.error());
    if (!Full)
      return std::string();
    EXPECT_EQ(Applied.dump(), Full->dump())
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
    Held = std::move(Applied);
  }

  json::Object Unsub;
  Unsub.set("subscription", SubId);
  Result<json::Value> Removed = Ide.call("pvp/unsubscribe", std::move(Unsub));
  EXPECT_TRUE(bool(Removed)) << (Removed ? "" : Removed.error());
  EXPECT_TRUE(Removed->asObject().find("removed")->asBool());
  EXPECT_EQ(Ide.server().subscriptionCount(), 0u);
  return DeltaBytes;
}

} // namespace

TEST(SubscribeServer, FlameDeltaStreamMatchesRequery) {
  json::Object P;
  P.set("maxRects", static_cast<int64_t>(4096));
  runDeltaStream("flame", std::move(P), "pvp/flame");
}

TEST(SubscribeServer, TreeTableDeltaStreamMatchesRequery) {
  json::Object P;
  P.set("includeText", false);
  runDeltaStream("treeTable", std::move(P), "pvp/treeTable");
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
  json::Value Acked = *Sub->asObject().find("view");

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
  json::Value Applied = applyDeltaParams(Acked, LastDelta);
  json::Object Requery;
  Requery.set("includeText", false);
  Requery.set("profile", *Id);
  Result<json::Value> Full = Ide.call("pvp/treeTable", Requery);
  ASSERT_TRUE(bool(Full)) << Full.error();
  EXPECT_EQ(Applied.dump(), Full->dump());

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
  json::Value Held = *SubResult->asObject().find("view");

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
    json::Value Applied = applyDeltaParams(Held, Deltas[0]);

    json::Object Requery;
    Requery.set("includeText", false);
    Requery.set("profile", Prof);
    json::Value Full = Manager.handle(
        0, rpc::makeRequest(100 + static_cast<int64_t>(S), "pvp/treeTable",
                            json::Value(std::move(Requery))));
    const json::Value *FullResult = Full.asObject().find("result");
    ASSERT_NE(FullResult, nullptr) << Full.dump();
    EXPECT_EQ(Applied.dump(), FullResult->dump());

    json::Object AckP;
    AckP.set("subscription", SubId);
    AckP.set("generation", intField(Deltas[0], "toGeneration"));
    Manager.handle(0, rpc::makeRequest(200 + static_cast<int64_t>(S),
                                       "pvp/ack",
                                       json::Value(std::move(AckP))));
    Held = std::move(Applied);

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
  json::Object BigObj;
  BigObj.set("rows", std::string(64u << 10, 'r'));
  json::Value Big(std::move(BigObj));
  json::Object SmallObj;
  SmallObj.set("rows", std::string(16, 's'));
  json::Value Small(std::move(SmallObj));

  // A subscribed profile's view is recomputed and re-inserted under the
  // SAME key shape at every generation. The accounting must track the
  // live payload, not accumulate every generation ever inserted.
  Cache.insert("view|1|g", {1}, Big);
  uint64_t AfterBig = Cache.approxBytes();
  for (int Gen = 2; Gen < 50; ++Gen)
    Cache.insert("view|1|g", {1}, Small);
  EXPECT_EQ(Cache.size(), 1u);
  uint64_t AfterSmall = Cache.approxBytes();
  EXPECT_LT(AfterSmall, AfterBig)
      << "re-insert accounting leaked the displaced payload";

  // Retiring the profile drops the entry and refunds its bytes; another
  // profile's entry stays.
  Cache.insert("view|2|g", {2}, Small);
  uint64_t Other = Cache.approxBytes() - AfterSmall;
  Cache.retire(1);
  EXPECT_FALSE(Cache.lookup("view|1|g").has_value());
  EXPECT_TRUE(Cache.lookup("view|2|g").has_value());
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.approxBytes(), Other);
  Cache.retire(2);
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.approxBytes(), 0u);
}
