//===- tests/ide_test.cpp - JSON-RPC transport and PVP server tests -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/JsonRpc.h"
#include "ide/MockIde.h"
#include "ide/PvpServer.h"

#include "TestHelpers.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "support/Strings.h"

#include <cmath>

#include <cstdio>

#include <gtest/gtest.h>

using namespace ev;

//===----------------------------------------------------------------------===
// JSON-RPC framing
//===----------------------------------------------------------------------===

TEST(JsonRpc, FrameAndPoll) {
  json::Value Msg = rpc::makeRequest(1, "test/echo", json::Object());
  std::string Wire = rpc::frame(Msg);
  EXPECT_NE(Wire.find("Content-Length: "), std::string::npos);

  rpc::FrameReader Reader;
  Reader.feed(Wire);
  auto Out = Reader.poll();
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->asObject().find("method")->asString(), "test/echo");
  EXPECT_FALSE(Reader.poll().has_value());
}

TEST(JsonRpc, PartialFeedsBuffer) {
  std::string Wire = rpc::frame(rpc::makeNotification("n", json::Object()));
  rpc::FrameReader Reader;
  // Feed byte by byte; only the final byte completes the message.
  for (size_t I = 0; I < Wire.size(); ++I) {
    Reader.feed(Wire.substr(I, 1));
    if (I + 1 < Wire.size()) {
      EXPECT_FALSE(Reader.poll().has_value());
    }
  }
  EXPECT_TRUE(Reader.poll().has_value());
}

TEST(JsonRpc, MultipleMessagesInOneFeed) {
  std::string Wire = rpc::frame(rpc::makeRequest(1, "a", json::Object())) +
                     rpc::frame(rpc::makeRequest(2, "b", json::Object()));
  rpc::FrameReader Reader;
  Reader.feed(Wire);
  auto First = Reader.poll();
  auto Second = Reader.poll();
  ASSERT_TRUE(First && Second);
  EXPECT_EQ(First->asObject().find("method")->asString(), "a");
  EXPECT_EQ(Second->asObject().find("method")->asString(), "b");
}

TEST(JsonRpc, MissingContentLengthFails) {
  rpc::FrameReader Reader;
  Reader.feed("Content-Type: application/json\r\n\r\n{}");
  EXPECT_FALSE(Reader.poll().has_value());
  EXPECT_TRUE(Reader.failed());
}

TEST(JsonRpc, BadJsonBodyFails) {
  rpc::FrameReader Reader;
  Reader.feed("Content-Length: 3\r\n\r\n{{{");
  EXPECT_FALSE(Reader.poll().has_value());
  EXPECT_TRUE(Reader.failed());
}

TEST(JsonRpc, ErrorResponseShape) {
  json::Value E = rpc::makeErrorResponse(7, rpc::MethodNotFound, "nope");
  const json::Object &Obj = E.asObject();
  EXPECT_EQ(Obj.find("id")->asInt(), 7);
  EXPECT_EQ(Obj.find("error")->asObject().find("code")->asInt(),
            rpc::MethodNotFound);
  EXPECT_EQ(Obj.find("error")->asObject().find("message")->asString(),
            "nope");
}

//===----------------------------------------------------------------------===
// PvpServer
//===----------------------------------------------------------------------===

namespace {

class PvpTest : public ::testing::Test {
protected:
  void SetUp() override {
    Profile P = test::makeFixedProfile();
    Bytes = writeEvProf(P);
    Result<int64_t> Id = Ide.openProfile("fixed.evprof", Bytes);
    ASSERT_TRUE(Id.ok()) << Id.error();
    ProfileId = *Id;
  }

  NodeId nodeNamed(std::string_view Name) {
    const Profile *P = Ide.server().profile(ProfileId);
    for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
      if (P->nameOf(Id) == Name)
        return Id;
    return InvalidNode;
  }

  MockIde Ide;
  std::string Bytes;
  int64_t ProfileId = 0;
};

} // namespace

TEST_F(PvpTest, OpenReportsMetrics) {
  Result<json::Value> R = Ide.call("pvp/open", [&] {
    json::Object P;
    P.set("name", "again");
    P.set("dataBase64", base64Encode(Bytes));
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asObject().find("nodes")->asInt(), 6);
  EXPECT_EQ(R->asObject()
                .find("metrics")
                ->asArray()[0]
                .asObject()
                .find("name")
                ->asString(),
            "time");
}

TEST_F(PvpTest, OpenAcceptsInlineTextData) {
  Result<json::Value> R = Ide.call("pvp/open", [] {
    json::Object P;
    P.set("name", "folded");
    P.set("data", "main;work 5\n");
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asObject().find("nodes")->asInt(), 3);
}

TEST_F(PvpTest, OpenRejectsGarbage) {
  Result<json::Value> R = Ide.call("pvp/open", [] {
    json::Object P;
    P.set("data", "complete nonsense");
    return P;
  }());
  EXPECT_FALSE(R.ok());
}

TEST_F(PvpTest, OpenRejectsBadBase64) {
  Result<json::Value> R = Ide.call("pvp/open", [] {
    json::Object P;
    P.set("dataBase64", "!!!not-base64!!!");
    return P;
  }());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("base64"), std::string::npos);
}

TEST_F(PvpTest, FlameShapes) {
  for (const char *Shape : {"top-down", "bottom-up", "flat"}) {
    Result<json::Value> R = Ide.call("pvp/flame", [&] {
      json::Object P;
      P.set("profile", ProfileId);
      P.set("shape", Shape);
      return P;
    }());
    ASSERT_TRUE(R.ok()) << Shape << ": " << R.error();
    EXPECT_GT(R->asObject().find("rects")->asArray().size(), 1u) << Shape;
    EXPECT_DOUBLE_EQ(R->asObject().find("total")->asNumber(), 100.0)
        << Shape;
  }
}

TEST_F(PvpTest, FlameRejectsUnknownShape) {
  Result<json::Value> R = Ide.call("pvp/flame", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("shape", "sideways");
    return P;
  }());
  EXPECT_FALSE(R.ok());
}

TEST_F(PvpTest, FlameRespectsMaxRects) {
  Result<json::Value> R = Ide.call("pvp/flame", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("maxRects", 2);
    return P;
  }());
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asObject().find("rects")->asArray().size(), 2u);
}

TEST_F(PvpTest, CodeLinkMandatoryAction) {
  Result<bool> Linked = Ide.clickNode(ProfileId, nodeNamed("kernel"));
  ASSERT_TRUE(Linked.ok()) << Linked.error();
  EXPECT_TRUE(*Linked);
  ASSERT_EQ(Ide.navigations().size(), 1u);
  EXPECT_EQ(Ide.navigations()[0].File, "comp.cc");
  EXPECT_EQ(Ide.navigations()[0].Line, 30u);
}

TEST_F(PvpTest, CodeLinkUnavailableWithoutMapping) {
  Result<bool> Linked = Ide.clickNode(ProfileId, nodeNamed("memcpy"));
  ASSERT_TRUE(Linked.ok());
  EXPECT_FALSE(*Linked);
  EXPECT_TRUE(Ide.navigations().empty());
}

TEST_F(PvpTest, HoverListsAllMetrics) {
  Result<std::string> Hover = Ide.hoverNode(ProfileId, nodeNamed("compute"));
  ASSERT_TRUE(Hover.ok()) << Hover.error();
  EXPECT_NE(Hover->find("compute"), std::string::npos);
  EXPECT_NE(Hover->find("inclusive"), std::string::npos);
  EXPECT_NE(Hover->find("exclusive"), std::string::npos);
  EXPECT_NE(Hover->find("time"), std::string::npos);
}

TEST_F(PvpTest, CodeLensAggregatesPerLine) {
  Result<json::Value> R = Ide.call("pvp/codeLens", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("file", "comp.cc");
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  const json::Array &Lenses = R->asObject().find("lenses")->asArray();
  ASSERT_EQ(Lenses.size(), 2u); // Lines 20 (compute) and 30 (kernel).
  EXPECT_EQ(Lenses[0].asObject().find("line")->asInt(), 20);
  EXPECT_NE(Lenses[1].asObject().find("text")->stringOr("").find("time"),
            std::string::npos);
}

TEST_F(PvpTest, SummaryAction) {
  Result<json::Value> R = Ide.call("pvp/summary", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    return P;
  }());
  ASSERT_TRUE(R.ok());
  EXPECT_NE(R->asObject().find("text")->asString().find("contexts: 6"),
            std::string::npos);
}

TEST_F(PvpTest, SearchFindsNodes) {
  Result<json::Value> R = Ide.call("pvp/search", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("pattern", "compute");
    return P;
  }());
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R->asObject().find("count")->asInt(), 1);
}

TEST_F(PvpTest, TreeTableReturnsRows) {
  Result<json::Value> R = Ide.call("pvp/treeTable", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    return P;
  }());
  ASSERT_TRUE(R.ok());
  EXPECT_GE(R->asObject().find("rows")->asArray().size(), 4u);
  EXPECT_NE(R->asObject().find("text")->asString().find("kernel"),
            std::string::npos);
}

TEST_F(PvpTest, AggregateAndHistogram) {
  // Open the same bytes twice more, then aggregate all three.
  int64_t Id2 = *Ide.openProfile("s2", Bytes);
  int64_t Id3 = *Ide.openProfile("s3", Bytes);
  Result<json::Value> Agg = Ide.call("pvp/aggregate", [&] {
    json::Object P;
    json::Array Ids;
    Ids.push_back(ProfileId);
    Ids.push_back(Id2);
    Ids.push_back(Id3);
    P.set("profiles", std::move(Ids));
    return P;
  }());
  ASSERT_TRUE(Agg.ok()) << Agg.error();
  int64_t AggId = Agg->asObject().find("profile")->asInt();
  EXPECT_EQ(Agg->asObject().find("inputs")->asInt(), 3);

  // Histogram of the kernel context across the three "snapshots".
  const Profile *Merged = Ide.server().profile(AggId);
  ASSERT_NE(Merged, nullptr);
  NodeId Kernel = InvalidNode;
  for (NodeId Id = 0; Id < Merged->nodeCount(); ++Id)
    if (Merged->nameOf(Id) == "kernel")
      Kernel = Id;
  Result<json::Value> Hist = Ide.call("pvp/histogram", [&] {
    json::Object P;
    P.set("aggregate", AggId);
    P.set("node", Kernel);
    P.set("metric", 0);
    return P;
  }());
  ASSERT_TRUE(Hist.ok()) << Hist.error();
  const json::Array &Series = Hist->asObject().find("series")->asArray();
  ASSERT_EQ(Series.size(), 3u);
  EXPECT_DOUBLE_EQ(Series[0].asNumber(), 40.0);
}

TEST_F(PvpTest, DiffCountsTags) {
  int64_t Id2 = *Ide.openProfile("other", Bytes);
  Result<json::Value> R = Ide.call("pvp/diff", [&] {
    json::Object P;
    P.set("base", ProfileId);
    P.set("test", Id2);
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asObject().find("added")->asInt(), 0);
  EXPECT_EQ(R->asObject().find("deleted")->asInt(), 0);
}

TEST_F(PvpTest, QueryRunsEvql) {
  Result<json::Value> R = Ide.call("pvp/query", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("program", "derive x = 2 * exclusive(\"time\");"
                     "print total(\"time\");");
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asObject().find("printed")->asArray()[0].asString(), "100");
  EXPECT_EQ(R->asObject().find("derived")->asArray()[0].asString(), "x");
  int64_t NewId = R->asObject().find("profile")->asInt();
  EXPECT_NE(Ide.server().profile(NewId), nullptr);
}

TEST_F(PvpTest, QuerySurfacesLanguageErrors) {
  Result<json::Value> R = Ide.call("pvp/query", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("program", "derive x = metric(\"missing\");");
    return P;
  }());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("missing"), std::string::npos);
}

TEST_F(PvpTest, UnknownMethodError) {
  Result<json::Value> R = Ide.call("pvp/teleport", json::Object());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("unknown method"), std::string::npos);
}

TEST_F(PvpTest, MissingProfileError) {
  Result<json::Value> R = Ide.call("pvp/summary", [] {
    json::Object P;
    P.set("profile", 4242);
    return P;
  }());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("4242"), std::string::npos);
}

TEST_F(PvpTest, CloseRemovesProfile) {
  Result<json::Value> R = Ide.call("pvp/close", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    return P;
  }());
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(R->asObject().find("closed")->asBool());
  EXPECT_EQ(Ide.server().profile(ProfileId), nullptr);
}

TEST(PvpServerWire, BadFrameYieldsParseError) {
  PvpServer Server;
  std::string Out = Server.handleWire("Content-Length: 2\r\n\r\n!!");
  EXPECT_NE(Out.find("-32700"), std::string::npos);
}

TEST(PvpServerWire, RequestWithoutMethodRejected) {
  PvpServer Server;
  json::Object Msg;
  Msg.set("jsonrpc", "2.0");
  Msg.set("id", 5);
  std::string Out = Server.handleWire(rpc::frame(json::Value(Msg)));
  EXPECT_NE(Out.find("-32600"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Wire resilience: split delivery, resynchronization, frame caps
//===----------------------------------------------------------------------===

namespace {

/// Deframes a handleWire() reply into its individual JSON payloads.
std::vector<json::Value> deframe(std::string_view Wire) {
  rpc::FrameReader Reader;
  Reader.feed(Wire);
  std::vector<json::Value> Out;
  while (auto V = Reader.poll())
    Out.push_back(std::move(*V));
  return Out;
}

/// A pvp/open request frame carrying the fixed profile inline.
std::string openFrame(int64_t Id, const std::string &Bytes) {
  json::Object P;
  P.set("name", "wire.evprof");
  P.set("dataBase64", base64Encode(Bytes));
  return rpc::frame(rpc::makeRequest(Id, "pvp/open", P));
}

bool isErrorWithCode(const json::Value &Resp, int Code) {
  const json::Value *E = Resp.asObject().find("error");
  return E && E->asObject().find("code")->asInt() == Code;
}

bool isSuccess(const json::Value &Resp) {
  return Resp.asObject().find("result") != nullptr;
}

} // namespace

TEST(PvpServerWire, SplitDeliveryProducesAllResponses) {
  // Two requests, delivered one byte at a time: fragment boundaries land
  // inside headers and bodies, yet both requests are answered exactly once.
  PvpServer Server;
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  json::Object SummaryParams;
  SummaryParams.set("profile", 1);
  std::string Wire = openFrame(1, Bytes) +
                     rpc::frame(rpc::makeRequest(2, "pvp/summary",
                                                 SummaryParams));
  std::string Out;
  for (size_t I = 0; I < Wire.size(); ++I)
    Out += Server.handleWire(Wire.substr(I, 1));

  std::vector<json::Value> Responses = deframe(Out);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_TRUE(isSuccess(Responses[0]));
  EXPECT_TRUE(isSuccess(Responses[1]));
  EXPECT_EQ(Server.wireReader().bufferedBytes(), 0u);
}

TEST(PvpServerWire, CorruptHeaderThenValidFrameRecovers) {
  // A mangled Content-Length poisons one frame only: the server reports
  // it and the following request on the same stream still succeeds.
  PvpServer Server;
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  std::string Wire = "Content-Length: zzz\r\n\r\n{\"oops\":1}";
  Wire += openFrame(7, Bytes);
  std::string Out = Server.handleWire(Wire);

  std::vector<json::Value> Responses = deframe(Out);
  ASSERT_GE(Responses.size(), 2u);
  EXPECT_TRUE(isErrorWithCode(Responses.front(), rpc::ParseError));
  EXPECT_TRUE(isSuccess(Responses.back()));
  EXPECT_GE(Server.wireReader().resyncCount(), 1u);
  EXPECT_GT(Server.wireReader().droppedBytes(), 0u);
}

TEST(PvpServerWire, NegativeContentLengthRejectedAndRecovered) {
  PvpServer Server;
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  std::string Wire = "Content-Length: -5\r\n\r\n";
  Wire += openFrame(9, Bytes);
  std::string Out = Server.handleWire(Wire);

  std::vector<json::Value> Responses = deframe(Out);
  ASSERT_GE(Responses.size(), 2u);
  EXPECT_TRUE(isErrorWithCode(Responses.front(), rpc::ParseError));
  EXPECT_NE(Out.find("negative"), std::string::npos);
  EXPECT_TRUE(isSuccess(Responses.back()));
}

TEST(PvpServerWire, OversizedFrameSkippedWithoutBuffering) {
  ServerLimits L;
  L.Wire.MaxFrameBytes = 128;
  PvpServer Server(L);

  // Announce a body far over the cap; the reader must discard it as it
  // arrives instead of accumulating it.
  std::string Huge(4096, 'x');
  std::string Wire = "Content-Length: 4096\r\n\r\n" + Huge;

  std::string Out = Server.handleWire(Wire);
  EXPECT_NE(Out.find("-32000"), std::string::npos);
  // The oversized body was never buffered.
  EXPECT_LE(Server.wireReader().bufferedBytes(), 128u);

  // The session keeps answering once frames under the cap resume.
  std::string Small =
      rpc::frame(rpc::makeRequest(4, "pvp/teleport", json::Object()));
  Out = Server.handleWire(Small);
  EXPECT_NE(Out.find("-32601"), std::string::npos);
}

TEST(PvpServerWire, GarbageBetweenFramesIsSkipped) {
  PvpServer Server;
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  std::string Wire = openFrame(1, Bytes);
  Wire += "\x01\x02garbage bytes with no header\x7f";
  Wire += openFrame(2, Bytes);
  std::string Out = Server.handleWire(Wire);

  std::vector<json::Value> Responses = deframe(Out);
  size_t Successes = 0;
  for (const json::Value &R : Responses)
    Successes += isSuccess(R);
  EXPECT_EQ(Successes, 2u);
  EXPECT_EQ(Server.profileCount(), 2u);
}

//===----------------------------------------------------------------------===
// Guardrails: deadlines, degradation, open limits, retry
//===----------------------------------------------------------------------===

TEST(PvpServerLimits, RequestDeadlineMapsToTimeoutCode) {
  ServerLimits L;
  L.RequestDeadlineMs = 5;
  PvpServer Server(L);
  int64_t Id = Server.addProfile(test::makeRandomProfile(7));

  // Every clock read advances far past the deadline, so the first
  // in-handler check trips.
  uint64_t Now = 0;
  Server.setClock([&Now] {
    Now += 1000000;
    return Now;
  });

  json::Object P;
  P.set("profile", Id);
  P.set("pattern", "fn");
  json::Value Resp = Server.handleMessage(rpc::makeRequest(3, "pvp/search", P));
  ASSERT_TRUE(isErrorWithCode(Resp, rpc::RequestTimeout));
  EXPECT_NE(Resp.asObject()
                .find("error")
                ->asObject()
                .find("message")
                ->asString()
                .find("deadline"),
            std::string::npos);

  // Restoring the real clock un-wedges the session.
  Server.setClock(nullptr);
  Resp = Server.handleMessage(rpc::makeRequest(4, "pvp/search", P));
  EXPECT_TRUE(isSuccess(Resp));
}

TEST(PvpServerLimits, FlameDegradesInsteadOfFailing) {
  ServerLimits L;
  L.MaxFlameRects = 3;
  PvpServer Server(L);
  int64_t Id = Server.addProfile(test::makeFixedProfile());

  json::Object P;
  P.set("profile", Id);
  json::Value Resp = Server.handleMessage(rpc::makeRequest(1, "pvp/flame", P));
  ASSERT_TRUE(isSuccess(Resp));
  json::Value Result = test::resultTree(Resp);
  const json::Object &R = Result.asObject();
  EXPECT_LE(R.find("rects")->asArray().size(), 3u);
  EXPECT_TRUE(R.find("truncated")->asBool());
  EXPECT_GT(R.find("droppedRects")->asInt(), 0);
}

TEST(PvpServerLimits, TreeTableDegradesInsteadOfFailing) {
  ServerLimits L;
  L.MaxTreeTableRows = 2;
  PvpServer Server(L);
  int64_t Id = Server.addProfile(test::makeFixedProfile());

  json::Object P;
  P.set("profile", Id);
  json::Value Resp =
      Server.handleMessage(rpc::makeRequest(1, "pvp/treeTable", P));
  ASSERT_TRUE(isSuccess(Resp));
  json::Value Result = test::resultTree(Resp);
  const json::Object &R = Result.asObject();
  EXPECT_LE(R.find("rows")->asArray().size(), 2u);
  EXPECT_TRUE(R.find("truncated")->asBool());
  EXPECT_GT(R.find("droppedRows")->asInt(), 0);
}

TEST(PvpServerLimits, OpenRejectsOversizedPayload) {
  ServerLimits L;
  L.MaxOpenBytes = 64;
  PvpServer Server(L);

  std::string Bytes = writeEvProf(test::makeFixedProfile());
  ASSERT_GT(Bytes.size(), 64u);
  json::Object P;
  P.set("name", "big.evprof");
  P.set("dataBase64", base64Encode(Bytes));
  json::Value Resp = Server.handleMessage(rpc::makeRequest(1, "pvp/open", P));
  ASSERT_FALSE(isSuccess(Resp));
  EXPECT_NE(Resp.asObject()
                .find("error")
                ->asObject()
                .find("message")
                ->asString()
                .find("exceeds"),
            std::string::npos);
  EXPECT_EQ(Server.profileCount(), 0u);
}

TEST(PvpServerLimits, OpenByPathRetriesTransientFailures) {
  std::string Path = "/tmp/evtool_test_open_retry.evprof";
  ASSERT_TRUE(writeFile(Path, writeEvProf(test::makeFixedProfile())).ok());

  // Fail the first two read attempts; the third succeeds. Record the
  // backoff schedule instead of sleeping.
  unsigned Attempts = 0;
  setReadFaultHook([&Attempts](const std::string &, unsigned Attempt,
                               std::string &Message) {
    ++Attempts;
    if (Attempt < 2) {
      Message = "simulated transient read failure";
      return true;
    }
    return false;
  });
  std::vector<uint64_t> Sleeps;
  setRetrySleepHook([&Sleeps](uint64_t Ms) { Sleeps.push_back(Ms); });

  PvpServer Server;
  json::Object P;
  P.set("path", Path);
  json::Value Resp = Server.handleMessage(rpc::makeRequest(1, "pvp/open", P));

  setReadFaultHook(nullptr);
  setRetrySleepHook(nullptr);
  std::remove(Path.c_str());

  ASSERT_TRUE(isSuccess(Resp));
  EXPECT_EQ(Attempts, 3u);
  ASSERT_EQ(Sleeps.size(), 2u);
  EXPECT_EQ(Sleeps[0], 10u);
  EXPECT_EQ(Sleeps[1], 20u); // Doubled, still under MaxBackoffMs.
  EXPECT_EQ(Server.profileCount(), 1u);
}

TEST(PvpServerLimits, OpenByPathGivesUpAfterBoundedAttempts) {
  setReadFaultHook([](const std::string &, unsigned, std::string &Message) {
    Message = "persistent failure";
    return true;
  });
  setRetrySleepHook([](uint64_t) {});

  PvpServer Server;
  json::Object P;
  P.set("path", "/tmp/evtool_test_never_readable.evprof");
  json::Value Resp = Server.handleMessage(rpc::makeRequest(1, "pvp/open", P));

  setReadFaultHook(nullptr);
  setRetrySleepHook(nullptr);

  ASSERT_FALSE(isSuccess(Resp));
  EXPECT_NE(Resp.asObject()
                .find("error")
                ->asObject()
                .find("message")
                ->asString()
                .find("attempts"),
            std::string::npos);
}

TEST(PvpServerLimits, DecodeLimitsRejectHostileProfile) {
  ServerLimits L;
  L.Decode.MaxNodes = 3; // Fixed profile has 6 nodes.
  PvpServer Server(L);

  std::string Bytes = writeEvProf(test::makeFixedProfile());
  json::Object P;
  P.set("name", "dense.evprof");
  P.set("dataBase64", base64Encode(Bytes));
  json::Value Resp = Server.handleMessage(rpc::makeRequest(1, "pvp/open", P));
  ASSERT_FALSE(isSuccess(Resp));
  EXPECT_NE(Resp.asObject()
                .find("error")
                ->asObject()
                .find("message")
                ->asString()
                .find("limit"),
            std::string::npos);
}

//===----------------------------------------------------------------------===
// pvp/diagnostics
//===----------------------------------------------------------------------===

TEST_F(PvpTest, DiagnosticsRoundTripThroughWire) {
  // Program findings and profile validation batched in one reply, driven
  // through the real Content-Length framing by the mock editor.
  Result<json::Value> R = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("program", "let unused = 1;\nprint total(\"bogus\");");
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  const json::Object &Reply = R->asObject();
  const json::Array &Diags = Reply.find("diagnostics")->asArray();
  ASSERT_GE(Diags.size(), 2u);

  bool SawUnusedBinding = false, SawUnknownMetric = false;
  for (const json::Value &DV : Diags) {
    const json::Object &D = DV.asObject();
    EXPECT_FALSE(D.find("id")->asString().empty());
    EXPECT_FALSE(D.find("severity")->asString().empty());
    EXPECT_FALSE(D.find("message")->asString().empty());
    if (D.find("id")->asString() == "EVQL009") {
      SawUnusedBinding = true;
      EXPECT_EQ(D.find("line")->asInt(), 1);
      EXPECT_EQ(D.find("column")->asInt(), 1);
    }
    if (D.find("id")->asString() == "EVQL006")
      SawUnknownMetric = true;
  }
  EXPECT_TRUE(SawUnusedBinding);
  EXPECT_TRUE(SawUnknownMetric);
  EXPECT_GE(Reply.find("errors")->asInt(), 1);
  EXPECT_GE(Reply.find("warnings")->asInt(), 1);
  EXPECT_FALSE(Reply.find("truncated")->asBool());
}

TEST_F(PvpTest, DiagnosticsCleanProfileAndProgram) {
  Result<json::Value> R = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("program", "print total(\"time\");");
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R->asObject().find("diagnostics")->asArray().empty());
  EXPECT_EQ(R->asObject().find("errors")->asInt(), 0);
  EXPECT_EQ(R->asObject().find("warnings")->asInt(), 0);
}

TEST_F(PvpTest, DiagnosticsRequiresProgramOrProfile) {
  Result<json::Value> R = Ide.call("pvp/diagnostics", json::Object());
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("program"), std::string::npos);
}

TEST_F(PvpTest, DiagnosticsRejectsBadOptions) {
  Result<json::Value> Bad = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("program", "print 1;");
    P.set("minSeverity", "catastrophic");
    return P;
  }());
  EXPECT_FALSE(Bad.ok());

  Result<json::Value> Unknown = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("program", "print 1;");
    json::Array Disable;
    Disable.push_back(json::Value("no-such-rule"));
    P.set("disable", std::move(Disable));
    return P;
  }());
  EXPECT_FALSE(Unknown.ok());
}

TEST_F(PvpTest, DiagnosticsSeverityAndDisableFilters) {
  // EVQL009 is a warning: a minSeverity of "error" suppresses it...
  Result<json::Value> Filtered = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("program", "let unused = 1;");
    P.set("minSeverity", "error");
    return P;
  }());
  ASSERT_TRUE(Filtered.ok()) << Filtered.error();
  EXPECT_TRUE(Filtered->asObject().find("diagnostics")->asArray().empty());
  EXPECT_EQ(Filtered->asObject().find("warnings")->asInt(), 0);

  // ...and so does disabling the rule by name.
  Result<json::Value> Disabled = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("program", "let unused = 1;");
    json::Array Disable;
    Disable.push_back(json::Value("unused-binding"));
    P.set("disable", std::move(Disable));
    return P;
  }());
  ASSERT_TRUE(Disabled.ok()) << Disabled.error();
  EXPECT_TRUE(Disabled->asObject().find("diagnostics")->asArray().empty());
}

TEST_F(PvpTest, DiagnosticsHonorsMaxDiagnostics) {
  std::string Program;
  for (int I = 0; I < 10; ++I)
    Program += "print undef" + std::to_string(I) + ";\n";
  Result<json::Value> R = Ide.call("pvp/diagnostics", [&] {
    json::Object P;
    P.set("program", Program);
    P.set("maxDiagnostics", 3);
    return P;
  }());
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_LE(R->asObject().find("diagnostics")->asArray().size(), 3u);
  EXPECT_TRUE(R->asObject().find("truncated")->asBool());
  EXPECT_GT(R->asObject().find("dropped")->asInt(), 0);
}

TEST_F(PvpTest, DiagnosticsFilterBeforeTheCapAndCountDrops) {
  // Five EVQL007 warnings, then one EVQL002 error past a cap of three.
  std::string Program;
  for (int I = 0; I < 5; ++I)
    Program += "print 1 / 0;\n";
  Program += "print nosuchvar;\n";
  auto Diagnose = [&](const char *MinSeverity) {
    json::Object P;
    P.set("program", Program);
    P.set("maxDiagnostics", 3);
    if (MinSeverity)
      P.set("minSeverity", MinSeverity);
    Result<json::Value> R = Ide.call("pvp/diagnostics", std::move(P));
    EXPECT_TRUE(R.ok()) << R.error();
    return R ? R.take() : json::Value();
  };
  // The totals count what the cap dropped, the error included.
  json::Value All = Diagnose(nullptr);
  EXPECT_EQ(All.asObject().find("diagnostics")->asArray().size(), 3u);
  EXPECT_EQ(All.asObject().find("errors")->asInt(), 1);
  EXPECT_EQ(All.asObject().find("warnings")->asInt(), 5);
  EXPECT_EQ(All.asObject().find("dropped")->asInt(), 3);
  EXPECT_TRUE(All.asObject().find("truncated")->asBool());
  // Filtered warnings never take room under the cap, so the error shows.
  json::Value Errors = Diagnose("error");
  const json::Array &Shown = Errors.asObject().find("diagnostics")->asArray();
  ASSERT_EQ(Shown.size(), 1u);
  EXPECT_EQ(Shown[0].asObject().find("id")->asString(), "EVQL002");
  EXPECT_EQ(Errors.asObject().find("errors")->asInt(), 1);
  EXPECT_EQ(Errors.asObject().find("warnings")->asInt(), 0);
  EXPECT_EQ(Errors.asObject().find("dropped")->asInt(), 0);
  EXPECT_FALSE(Errors.asObject().find("truncated")->asBool());
}

TEST(PvpServerLimits, DiagnosticsDeadlineDegradesToTruncatedReply) {
  ServerLimits L;
  L.RequestDeadlineMs = 5;
  PvpServer Server(L);

  uint64_t Now = 0;
  Server.setClock([&Now] {
    Now += 1000000;
    return Now;
  });

  // Analysis completed; only serialization ran out of deadline — the
  // findings degrade to a truncated (but successful) reply, never an
  // error that would discard them.
  json::Object P;
  P.set("program", "print undefined_name;");
  json::Value Resp =
      Server.handleMessage(rpc::makeRequest(9, "pvp/diagnostics", P));
  ASSERT_TRUE(isSuccess(Resp));
  const json::Object &R = Resp.asObject().find("result")->asObject();
  EXPECT_TRUE(R.find("truncated")->asBool());
  EXPECT_TRUE(R.find("deadlineExpired")->asBool());
  EXPECT_GT(R.find("dropped")->asInt(), 0);
}

//===----------------------------------------------------------------------===
// Strict numeric parameter validation
//===----------------------------------------------------------------------===
//
// asInt() on a hostile double used to truncate silently (UB for NaN).
// Every id-bearing parameter now goes through getInteger(): anything that
// is not an exact int64 answers InvalidParams (-32602) instead of being
// folded onto some unrelated profile id.

namespace {

json::Value nanValue() { return json::Value(std::nan("")); }

} // namespace

TEST(PvpServerParams, NanProfileIdRejected) {
  PvpServer Server;
  Server.addProfile(test::makeFixedProfile());
  json::Object P;
  P.set("profile", nanValue());
  json::Value R = Server.handleMessage(rpc::makeRequest(1, "pvp/flame", P));
  EXPECT_TRUE(isErrorWithCode(R, rpc::InvalidParams));
}

TEST(PvpServerParams, FractionalProfileIdRejected) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  // 1.5 would have truncated onto profile 1 before; it must not resolve.
  json::Object P;
  P.set("profile", static_cast<double>(Id) + 0.5);
  for (const char *Method : {"pvp/flame", "pvp/treeTable", "pvp/summary",
                             "pvp/close"}) {
    json::Value R = Server.handleMessage(rpc::makeRequest(1, Method, P));
    EXPECT_TRUE(isErrorWithCode(R, rpc::InvalidParams)) << Method;
  }
  // The real id still works after all those rejections.
  json::Object Good;
  Good.set("profile", Id);
  EXPECT_TRUE(isSuccess(
      Server.handleMessage(rpc::makeRequest(2, "pvp/summary", Good))));
}

TEST(PvpServerParams, OutOfRangeProfileIdRejected) {
  PvpServer Server;
  Server.addProfile(test::makeFixedProfile());
  json::Object P;
  P.set("profile", 1e300); // Far beyond int64: must not wrap or truncate.
  json::Value R =
      Server.handleMessage(rpc::makeRequest(1, "pvp/treeTable", P));
  EXPECT_TRUE(isErrorWithCode(R, rpc::InvalidParams));
}

TEST(PvpServerParams, NegativeAndNanMaxRectsRejected) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  for (json::Value Bad : {json::Value(-1), nanValue(), json::Value(2.5)}) {
    json::Object P;
    P.set("profile", Id);
    P.set("maxRects", std::move(Bad));
    json::Value R =
        Server.handleMessage(rpc::makeRequest(1, "pvp/flame", P));
    EXPECT_TRUE(isErrorWithCode(R, rpc::InvalidParams));
  }
}

TEST(PvpServerParams, DiffRejectsNonIntegerIds) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  json::Object P;
  P.set("base", nanValue());
  P.set("test", Id);
  json::Value R = Server.handleMessage(rpc::makeRequest(1, "pvp/diff", P));
  EXPECT_TRUE(isErrorWithCode(R, rpc::InvalidParams));
}
