//===- tests/pvp_actions_test.cpp - Extended PVP method tests -------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ide/JsonRpc.h"
#include "ide/MockIde.h"
#include "profile/ProfileBuilder.h"

#include "TestHelpers.h"
#include "convert/Converters.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "support/Strings.h"
#include "workload/ReuseWorkload.h"

#include <algorithm>
#include <map>
#include <optional>

#include <gtest/gtest.h>

using namespace ev;

namespace {

class PvpActionsTest : public ::testing::Test {
protected:
  void SetUp() override {
    Result<int64_t> Id = Ide.openProfile(
        "fixed.evprof", writeEvProf(test::makeFixedProfile()));
    ASSERT_TRUE(Id.ok()) << Id.error();
    ProfileId = *Id;
  }

  Result<json::Value> call(const char *Method, json::Object Params) {
    return Ide.call(Method, std::move(Params));
  }

  MockIde Ide;
  int64_t ProfileId = 0;
};

} // namespace

TEST_F(PvpActionsTest, TransformMaterializesShapes) {
  for (const char *Shape :
       {"top-down", "bottom-up", "flat", "collapse-recursion"}) {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("shape", Shape);
    Result<json::Value> R = call("pvp/transform", std::move(P));
    ASSERT_TRUE(R.ok()) << Shape << ": " << R.error();
    int64_t NewId = R->asObject().find("profile")->asInt();
    EXPECT_NE(Ide.server().profile(NewId), nullptr) << Shape;
    EXPECT_GT(R->asObject().find("nodes")->asInt(), 1) << Shape;
  }
  json::Object Bad;
  Bad.set("profile", ProfileId);
  Bad.set("shape", "helix");
  EXPECT_FALSE(call("pvp/transform", std::move(Bad)).ok());
}

TEST_F(PvpActionsTest, PruneRemovesColdContexts) {
  json::Object P;
  P.set("profile", ProfileId);
  P.set("minFraction", 0.25);
  Result<json::Value> R = call("pvp/prune", std::move(P));
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_GT(R->asObject().find("removed")->asInt(), 0);
  int64_t NewId = R->asObject().find("profile")->asInt();
  const Profile *Pruned = Ide.server().profile(NewId);
  ASSERT_NE(Pruned, nullptr);
  for (NodeId Id = 0; Id < Pruned->nodeCount(); ++Id)
    EXPECT_NE(Pruned->nameOf(Id), "parse");

  json::Object Bad;
  Bad.set("profile", ProfileId);
  Bad.set("minFraction", 2.0);
  EXPECT_FALSE(call("pvp/prune", std::move(Bad)).ok());
}

TEST_F(PvpActionsTest, ExportRoundTripsThroughOpen) {
  for (const char *Fmt :
       {"evprof", "pprof", "collapsed", "speedscope", "chrome"}) {
    json::Object P;
    P.set("profile", ProfileId);
    P.set("format", Fmt);
    Result<json::Value> R = call("pvp/export", std::move(P));
    ASSERT_TRUE(R.ok()) << Fmt << ": " << R.error();
    std::string Bytes;
    ASSERT_TRUE(base64Decode(
        std::string(R->asObject().find("dataBase64")->stringOr("")),
        Bytes))
        << Fmt;
    EXPECT_EQ(Bytes.size(),
              static_cast<size_t>(R->asObject().find("bytes")->asInt()));
    // Exported bytes re-open through the data plane.
    Result<int64_t> Again =
        Ide.openProfile(std::string("again.") + Fmt, Bytes);
    ASSERT_TRUE(Again.ok()) << Fmt << ": " << Again.error();
  }
  json::Object Bad;
  Bad.set("profile", ProfileId);
  Bad.set("format", "dot");
  EXPECT_FALSE(call("pvp/export", std::move(Bad)).ok());
}

namespace {

/// Sends \p Method to \p Server and \returns "<code>: <message>" of the
/// error reply, or "ok" for a result.
std::string replyStatus(PvpServer &Server, const char *Method,
                        json::Object Params) {
  json::Value R = Server.handleMessage(
      rpc::makeRequest(1, Method, json::Value(std::move(Params))));
  const json::Value *E = R.asObject().find("error");
  if (!E)
    return "ok";
  return std::to_string(E->asObject().find("code")->asInt()) + ": " +
         std::string(E->asObject().find("message")->stringOr(""));
}

std::string invalidParams(const std::string &Message) {
  return std::to_string(rpc::InvalidParams) + ": " + Message;
}

} // namespace

TEST(PvpMetricParam, ExportRejectsAnInvalidMetric) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  auto Export = [&](const char *Fmt, std::optional<json::Value> Metric) {
    json::Object P;
    P.set("profile", Id);
    P.set("format", Fmt);
    if (Metric)
      P.set("metric", std::move(*Metric));
    return replyStatus(Server, "pvp/export", std::move(P));
  };
  EXPECT_EQ(Export("collapsed", json::Value("tyme")),
            invalidParams("unknown metric 'tyme'"));
  EXPECT_EQ(Export("collapsed", json::Value(int64_t(7))),
            invalidParams("metric index out of range"));
  EXPECT_EQ(Export("evprof", json::Value(true)),
            invalidParams("'metric' must be an index or a name"));
  EXPECT_EQ(Export("collapsed", json::Value("time")), "ok");
  EXPECT_EQ(Export("collapsed", std::nullopt), "ok");

  // An absent metric still exports a profile that has no metrics at all.
  ProfileBuilder B("no metrics");
  B.child(B.root(), B.functionFrame("main", "main.c", 1, "app"));
  int64_t Bare = Server.addProfile(B.take());
  json::Object P;
  P.set("profile", Bare);
  P.set("format", "evprof");
  EXPECT_EQ(replyStatus(Server, "pvp/export", std::move(P)), "ok");
}

TEST(PvpMetricParam, HistogramRejectsAnInvalidMetric) {
  PvpServer Server;
  int64_t A = Server.addProfile(test::makeFixedProfile());
  int64_t B = Server.addProfile(test::makeFixedProfile());
  json::Object AggParams;
  AggParams.set("profiles", json::Array{json::Value(A), json::Value(B)});
  json::Value Agg = Server.handleMessage(rpc::makeRequest(
      1, "pvp/aggregate", json::Value(std::move(AggParams))));
  const json::Value *AggResult = Agg.asObject().find("result");
  ASSERT_NE(AggResult, nullptr);
  int64_t AggId = AggResult->asObject().find("profile")->asInt();

  auto Histogram = [&](std::optional<json::Value> Metric) {
    json::Object P;
    P.set("aggregate", AggId);
    P.set("node", 1);
    if (Metric)
      P.set("metric", std::move(*Metric));
    return replyStatus(Server, "pvp/histogram", std::move(P));
  };
  EXPECT_EQ(Histogram(json::Value("tyme")),
            invalidParams("unknown metric 'tyme'"));
  EXPECT_EQ(Histogram(json::Value(false)),
            invalidParams("'metric' must be an index or a name"));
  EXPECT_EQ(Histogram(json::Value(int64_t(-1))),
            invalidParams("metric index out of range"));
  // A derived column resolves but has no per-profile samples.
  EXPECT_EQ(Histogram(json::Value("time.min")),
            invalidParams("metric index out of aggregate input range"));
  EXPECT_EQ(Histogram(json::Value("time")), "ok");
  EXPECT_EQ(Histogram(std::nullopt), "ok");
}

namespace {

/// Calls \p Method on a fresh fixed profile with \p Key set to \p Value,
/// or left out when \p Value is empty.
std::string withOptionalParam(const char *Method, const char *Key,
                              std::optional<json::Value> Value) {
  PvpServer Server;
  json::Object P;
  P.set("profile", Server.addProfile(test::makeFixedProfile()));
  if (Value)
    P.set(Key, std::move(*Value));
  return replyStatus(Server, Method, std::move(P));
}

} // namespace

TEST(PvpOptionalParam, FlameRejectsANonStringShape) {
  EXPECT_EQ(withOptionalParam("pvp/flame", "shape", json::Value(int64_t(1))),
            invalidParams("'shape' must be a string"));
  EXPECT_EQ(withOptionalParam("pvp/flame", "shape", json::Value("bottom-up")),
            "ok");
  EXPECT_EQ(withOptionalParam("pvp/flame", "shape", std::nullopt), "ok");
}

TEST(PvpOptionalParam, TreeTableRejectsANonArrayExpand) {
  EXPECT_EQ(withOptionalParam("pvp/treeTable", "expand", json::Value("1")),
            invalidParams("'expand' must be an array of node ids"));
  EXPECT_EQ(withOptionalParam("pvp/treeTable", "expand",
                              json::Value(json::Array{json::Value(1)})),
            "ok");
  EXPECT_EQ(withOptionalParam("pvp/treeTable", "expand", std::nullopt),
            "ok");
}

TEST(PvpOptionalParam, PruneRejectsANonNumberMinFraction) {
  EXPECT_EQ(
      withOptionalParam("pvp/prune", "minFraction", json::Value("0.5")),
      invalidParams("'minFraction' must be a number"));
  EXPECT_EQ(withOptionalParam("pvp/prune", "minFraction", json::Value(0.5)),
            "ok");
  EXPECT_EQ(withOptionalParam("pvp/prune", "minFraction", std::nullopt),
            "ok");
}

TEST_F(PvpActionsTest, ButterflyOverRpc) {
  json::Object P;
  P.set("profile", ProfileId);
  P.set("function", "compute");
  Result<json::Value> R = call("pvp/butterfly", std::move(P));
  ASSERT_TRUE(R.ok()) << R.error();
  const json::Object &Obj = R->asObject();
  EXPECT_DOUBLE_EQ(Obj.find("totalInclusive")->asNumber(), 75.0);
  EXPECT_EQ(Obj.find("callers")
                ->asArray()[0]
                .asObject()
                .find("name")
                ->asString(),
            "main");
  EXPECT_EQ(Obj.find("callees")
                ->asArray()[0]
                .asObject()
                .find("name")
                ->asString(),
            "kernel");

  json::Object Bad;
  Bad.set("profile", ProfileId);
  Bad.set("function", "nothing");
  EXPECT_FALSE(call("pvp/butterfly", std::move(Bad)).ok());
}

TEST_F(PvpActionsTest, CorrelatedPanesOverRpc) {
  workload::ReuseWorkload W = workload::generateReuseWorkload();
  int64_t ReuseId = Ide.server().addProfile(std::move(W.P));

  json::Object P;
  P.set("profile", ReuseId);
  P.set("kind", "reuse");
  Result<json::Value> R = call("pvp/correlated", std::move(P));
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->asObject().find("roles")->asInt(), 3);
  const json::Array &Panes = R->asObject().find("panes")->asArray();
  ASSERT_EQ(Panes.size(), 3u);
  ASSERT_FALSE(Panes[0].asArray().empty());

  // Select the hottest allocation via the RPC, narrowing the groups.
  int64_t HotNode =
      Panes[0].asArray()[0].asObject().find("node")->asInt();
  json::Object P2;
  P2.set("profile", ReuseId);
  P2.set("kind", "reuse");
  json::Array Select;
  Select.push_back(HotNode);
  P2.set("select", std::move(Select));
  Result<json::Value> R2 = call("pvp/correlated", std::move(P2));
  ASSERT_TRUE(R2.ok()) << R2.error();
  EXPECT_EQ(R2->asObject().find("activeGroups")->asInt(), 1);
  EXPECT_FALSE(
      R2->asObject().find("panes")->asArray()[1].asArray().empty());

  json::Object Bad;
  Bad.set("profile", ReuseId);
  Bad.set("kind", "race");
  EXPECT_FALSE(call("pvp/correlated", std::move(Bad)).ok());
}

TEST_F(PvpActionsTest, TransformedProfileServesViews) {
  // Chain: transform to bottom-up, then fetch its flame over RPC.
  json::Object P;
  P.set("profile", ProfileId);
  P.set("shape", "bottom-up");
  Result<json::Value> R = call("pvp/transform", std::move(P));
  ASSERT_TRUE(R.ok());
  int64_t UpId = R->asObject().find("profile")->asInt();

  json::Object F;
  F.set("profile", UpId);
  Result<json::Value> Flame = call("pvp/flame", std::move(F));
  ASSERT_TRUE(Flame.ok()) << Flame.error();
  EXPECT_DOUBLE_EQ(Flame->asObject().find("total")->asNumber(), 100.0);
}

//===----------------------------------------------------------------------===
// Method table policy
//===----------------------------------------------------------------------===

namespace {

/// The cells of every request-method row of docs/PVP.md, in document
/// order. Request methods are the first cell of every row of a
/// "| method |" table; notifications live in a "| notification |" table.
/// Cells split on unescaped '|'.
std::vector<std::vector<std::string>> documentedMethodRows() {
  Result<std::string> Doc =
      readFile(std::string(EASYVIEW_SOURCE_DIR) + "/docs/PVP.md");
  EXPECT_TRUE(Doc.ok()) << Doc.error();
  std::string Text = Doc ? *Doc : "";
  std::vector<std::vector<std::string>> Rows;
  bool InMethodTable = false;
  for (std::string_view Line : splitString(Text, '\n')) {
    if (Line.rfind("| method |", 0) == 0) {
      InMethodTable = true;
      continue;
    }
    if (Line.rfind("|", 0) != 0) {
      InMethodTable = false;
      continue;
    }
    if (!InMethodTable || Line.rfind("| `pvp/", 0) != 0)
      continue;
    std::vector<std::string> Cells(1);
    for (size_t I = 1; I < Line.size(); ++I) {
      if (Line[I] == '|' && Line[I - 1] != '\\')
        Cells.emplace_back();
      else
        Cells.back() += Line[I];
    }
    for (std::string &Cell : Cells)
      Cell = std::string(trim(Cell));
    Rows.push_back(std::move(Cells));
  }
  return Rows;
}

} // namespace

TEST(PvpMethodTable, DocsListExactlyTheTableMethods) {
  std::vector<std::string> Documented;
  for (const std::vector<std::string> &Row : documentedMethodRows())
    Documented.push_back(Row[0].substr(1, Row[0].find('`', 1) - 1));
  std::vector<std::string> Served;
  for (const PvpServer::MethodEntry &E : PvpServer::methods())
    Served.emplace_back(E.Name);
  std::sort(Documented.begin(), Documented.end());
  std::sort(Served.begin(), Served.end());
  EXPECT_EQ(std::adjacent_find(Documented.begin(), Documented.end()),
            Documented.end());
  EXPECT_EQ(Documented, Served);
}

TEST(PvpMethodTable, DocsListEveryDeclaredParameterAndItsPolicy) {
  std::map<std::string, std::vector<std::string>> Rows;
  for (std::vector<std::string> &Row : documentedMethodRows())
    if (Row.size() >= 5)
      Rows[Row[0].substr(1, Row[0].find('`', 1) - 1)] = std::move(Row);
  for (const PvpServer::MethodEntry &E : PvpServer::methods()) {
    auto It = Rows.find(std::string(E.Name));
    ASSERT_NE(It, Rows.end()) << E.Name;
    const std::string &ParamsCell = It->second[1];
    // Each parameter appears as `name` (required) or `name?` (optional),
    // possibly followed by ':' and its shape, as in `base: id|[id...]`.
    std::string CachedOn;
    for (const PvpServer::ParamSpec &P : E.Params) {
      std::string Token =
          "`" + std::string(P.Name) + (P.Required ? "" : "?");
      size_t End = ParamsCell.find(Token);
      if (End != std::string::npos)
        End += Token.size();
      char Next = End < ParamsCell.size() ? ParamsCell[End] : '\0';
      EXPECT_TRUE(Next == '`' || Next == ':')
          << E.Name << " does not document " << Token << "`";
      if (E.Cached && PvpServer::isProfileTyped(P.Kind))
        CachedOn += (CachedOn.empty() ? "`" : ", `") + std::string(P.Name) +
                    "`";
    }
    EXPECT_EQ(It->second[3], E.Cached ? CachedOn : "—") << E.Name;
    EXPECT_EQ(It->second[4], E.Retires ? "`profile`" : "—") << E.Name;
  }
}

TEST(PvpMethodTable, CacheKeyIgnoresMemberOrderAndUndeclaredMembers) {
  auto Cache = std::make_shared<ViewCache>(16);
  PvpServer Server(ServerLimits(), std::make_shared<ProfileStore>(), Cache);
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  auto Flame = [&](json::Object P) {
    return Server.handleMessage(
        rpc::makeRequest(1, "pvp/flame", json::Value(std::move(P))));
  };
  json::Object First;
  First.set("profile", Id);
  First.set("shape", "bottom-up");
  First.set("maxRects", 8);
  json::Value FirstReply = Flame(std::move(First));
  ASSERT_TRUE(FirstReply.asObject().contains("result"));
  uint64_t Hits = Cache->hits();
  size_t Entries = Cache->size();

  // The same view, with its members in another order and one member no
  // handler reads.
  json::Object Second;
  Second.set("maxRects", 8);
  Second.set("comment", "not a pvp/flame parameter");
  Second.set("shape", "bottom-up");
  Second.set("profile", Id);
  json::Value SecondReply = Flame(std::move(Second));
  EXPECT_EQ(Cache->hits(), Hits + 1);
  EXPECT_EQ(Cache->size(), Entries);
  EXPECT_EQ(SecondReply.dump(), FirstReply.dump());
}

TEST(PvpMethodTable, RetiringMethodsBumpOnceAndOnlyOnSuccess) {
  auto Store = std::make_shared<ProfileStore>();
  PvpServer Server(ServerLimits(), Store, std::make_shared<ViewCache>(16));
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  auto Call = [&](const char *Method, const char *Key, json::Value V) {
    json::Object P;
    P.set("profile", Id);
    P.set(Key, std::move(V));
    return replyStatus(Server, Method, std::move(P));
  };

  uint64_t Gen = Store->generationOf(Id);
  EXPECT_EQ(Call("pvp/transform", "shape", json::Value("flat")), "ok");
  EXPECT_EQ(Store->generationOf(Id), Gen + 1);
  EXPECT_EQ(Call("pvp/prune", "minFraction", json::Value(0.1)), "ok");
  EXPECT_EQ(Store->generationOf(Id), Gen + 2);
  EXPECT_EQ(Call("pvp/query", "program", json::Value("print 1;")), "ok");
  EXPECT_EQ(Store->generationOf(Id), Gen + 3);

  // Failures retire nothing.
  EXPECT_NE(Call("pvp/transform", "shape", json::Value("sideways")), "ok");
  EXPECT_NE(Call("pvp/prune", "minFraction", json::Value(2.0)), "ok");
  EXPECT_NE(Call("pvp/query", "program", json::Value("print ;")), "ok");
  EXPECT_EQ(Store->generationOf(Id), Gen + 3);

  // Views are not retiring: a flame leaves the generation alone.
  EXPECT_EQ(Call("pvp/flame", "maxRects", json::Value(int64_t(8))), "ok");
  EXPECT_EQ(Store->generationOf(Id), Gen + 3);
}
