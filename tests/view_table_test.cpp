//===- tests/view_table_test.cpp - Typed view tables and their text -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins ViewTable, the one representation of the flame and tree-table
/// views, against the json::Value trees the handlers used to build: on
/// random tables with hostile doubles and names, the writer's bytes are
/// dump() of that tree, the reader round-trips the text, and a delta
/// applied to its base writes the next table's bytes. Also checks that
/// pvp/stats cacheBytes is exactly the reply text the view cache holds.
///
//===----------------------------------------------------------------------===//

#include "ide/PvpServer.h"
#include "ide/ViewDelta.h"
#include "ide/ViewTable.h"
#include "render/Color.h"
#include "render/FlameLayout.h"
#include "render/TreeTable.h"
#include "support/Rng.h"

#include "TestHelpers.h"

#include <cstring>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

using namespace ev;

namespace {

/// What a flame or tree-table handler reads: the laid-out rows, their
/// names and the reply's top-level values.
struct ViewData {
  bool Flame = true;
  std::vector<FlameRect> Rects;
  std::vector<TreeTableRow> Rows;
  std::vector<std::string> Names; ///< One per rect or row.
  double Total = 0;
  size_t Culled = 0;
  unsigned Depth = 0;
  size_t Dropped = 0;
  std::optional<std::string> Text; ///< Tree table with includeText.
};

/// The reply as the handlers built it before ViewTable: one json::Object
/// per row (the oracle).
json::Value oldReply(const ViewData &D) {
  json::Object Out;
  if (D.Flame) {
    Out.set("total", D.Total);
    Out.set("culled", D.Culled);
    Out.set("depth", D.Depth);
    json::Array Rects;
    for (size_t I = 0; I < D.Rects.size(); ++I) {
      const FlameRect &R = D.Rects[I];
      json::Object RO;
      RO.set("node", R.Node);
      RO.set("depth", R.Depth);
      RO.set("x", R.X);
      RO.set("width", R.Width);
      RO.set("value", R.Value);
      RO.set("name", D.Names[I]);
      RO.set("color", toHexColor(R.Color));
      Rects.push_back(std::move(RO));
    }
    Out.set("truncated", D.Dropped > 0);
    Out.set("droppedRects", D.Dropped);
    Out.set("rects", std::move(Rects));
    return json::Value(std::move(Out));
  }
  json::Array Rows;
  for (size_t I = 0; I < D.Rows.size(); ++I) {
    const TreeTableRow &Row = D.Rows[I];
    json::Object RO;
    RO.set("node", Row.Node);
    RO.set("depth", Row.Depth);
    RO.set("name", D.Names[I]);
    RO.set("expandable", Row.Expandable);
    RO.set("expanded", Row.Expanded);
    Rows.push_back(std::move(RO));
  }
  Out.set("truncated", D.Dropped > 0);
  Out.set("droppedRows", D.Dropped);
  Out.set("rows", std::move(Rows));
  if (D.Text)
    Out.set("text", *D.Text);
  return json::Value(std::move(Out));
}

/// The same reply as the handlers fill a ViewTable.
ViewTable newTable(const ViewData &D) {
  if (D.Flame) {
    ViewTable T(ViewKind::Flame);
    T.addScalar("total", D.Total);
    T.addScalar("culled", D.Culled);
    T.addScalar("depth", D.Depth);
    T.addScalar("truncated", D.Dropped > 0);
    T.addScalar("droppedRects", D.Dropped);
    T.rowsHere();
    for (size_t I = 0; I < D.Rects.size(); ++I) {
      const FlameRect &R = D.Rects[I];
      T.addRow(R.Node, R.Depth, R.X, R.Width, R.Value, D.Names[I],
               toHexColor(R.Color));
    }
    return T;
  }
  ViewTable T(ViewKind::TreeTable);
  T.addScalar("truncated", D.Dropped > 0);
  T.addScalar("droppedRows", D.Dropped);
  T.rowsHere();
  for (size_t I = 0; I < D.Rows.size(); ++I) {
    const TreeTableRow &Row = D.Rows[I];
    T.addRow(Row.Node, Row.Depth, D.Names[I], Row.Expandable, Row.Expanded);
  }
  if (D.Text)
    T.addScalar("text", *D.Text);
  return T;
}

/// A double, often one dump() formats specially.
double hostileDouble(Rng &R) {
  const double Special[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -3 * std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 7,
      1e300,
      -1e300,
      9007199254740992.0, // 2^53
      9007199254740994.0,
      1152921504606846976.0, // 2^60
      9223372036854775808.0, // 2^63: out of int64 range
      -9223372036854775808.0,
      18446744073709551616.0, // 2^64
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.1,
      1.0 / 3.0,
  };
  switch (R.below(4)) {
  case 0:
    return Special[R.below(std::size(Special))];
  case 1: {
    uint64_t Bits = R.next(); // Any pattern, NaN payloads included.
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    return D;
  }
  case 2:
    return static_cast<double>(R.range(-1000000, 1000000));
  default:
    return R.uniform(-1e6, 1e6);
  }
}

/// A name with quotes, backslashes, control bytes and non-ASCII bytes.
std::string hostileName(Rng &R) {
  static const char *Pieces[] = {"main", "\"", "\\", "\n", "\t", "\x01",
                                 "\x1f", "\x7f", "\xc3\xa9", "\xe6\x97\xa5",
                                 "\xff", "/", "std::vector<int>", " "};
  std::string Out;
  for (uint64_t N = R.below(6); N; --N)
    Out += Pieces[R.below(std::size(Pieces))];
  if (R.below(8) == 0)
    Out.push_back('\0');
  return Out;
}

/// Adds a row with node id \p Node to \p D.
void addRow(Rng &R, ViewData &D, NodeId Node) {
  D.Names.push_back(hostileName(R));
  if (D.Flame) {
    FlameRect Rect;
    Rect.Node = Node;
    Rect.Depth = static_cast<unsigned>(R.below(64));
    Rect.X = hostileDouble(R);
    Rect.Width = hostileDouble(R);
    Rect.Value = hostileDouble(R);
    Rect.Color = Rgb{static_cast<uint8_t>(R.below(256)),
                     static_cast<uint8_t>(R.below(256)),
                     static_cast<uint8_t>(R.below(256))};
    D.Rects.push_back(Rect);
    return;
  }
  D.Rows.push_back(TreeTableRow{Node, static_cast<unsigned>(R.below(64)),
                                R.below(2) == 0, R.below(2) == 0});
}

void randomScalars(Rng &R, ViewData &D) {
  D.Total = hostileDouble(R);
  D.Culled = R.below(5) == 0 ? SIZE_MAX : R.below(1000);
  D.Depth = static_cast<unsigned>(R.next());
  D.Dropped = R.below(2) ? 0 : R.below(100000);
}

ViewData randomView(Rng &R, bool Flame) {
  ViewData D;
  D.Flame = Flame;
  randomScalars(R, D);
  if (!Flame && R.below(2))
    D.Text = hostileName(R);
  size_t Rows = R.below(40);
  for (size_t I = 0; I < Rows; ++I)
    addRow(R, D, static_cast<NodeId>(I * 3 + R.below(3)));
  return D;
}

/// The view at a later generation: rows dropped, changed, added and
/// reordered, and new top-level values, as after an append.
ViewData nextView(Rng &R, const ViewData &Base) {
  ViewData D;
  D.Flame = Base.Flame;
  randomScalars(R, D);
  if (Base.Text)
    D.Text = R.below(2) ? *Base.Text : hostileName(R);
  size_t Rows = Base.Flame ? Base.Rects.size() : Base.Rows.size();
  for (size_t I = 0; I < Rows; ++I) {
    if (R.below(5) == 0)
      continue;
    D.Names.push_back(R.below(4) ? Base.Names[I] : hostileName(R));
    if (Base.Flame) {
      FlameRect Rect = Base.Rects[I];
      if (R.below(2))
        Rect.X = hostileDouble(R);
      if (R.below(3) == 0)
        Rect.Value = hostileDouble(R);
      D.Rects.push_back(Rect);
    } else {
      TreeTableRow Row = Base.Rows[I];
      Row.Expanded = R.below(3) ? Row.Expanded : !Row.Expanded;
      D.Rows.push_back(Row);
    }
  }
  for (uint64_t Added = R.below(6); Added; --Added)
    addRow(R, D, static_cast<NodeId>(1000 + Added * 7));
  // Reorder: swap random pairs of rows.
  size_t N = D.Names.size();
  for (size_t Swaps = N ? R.below(N) : 0; Swaps; --Swaps) {
    size_t A = R.below(N), B = R.below(N);
    std::swap(D.Names[A], D.Names[B]);
    if (D.Flame)
      std::swap(D.Rects[A], D.Rects[B]);
    else
      std::swap(D.Rows[A], D.Rows[B]);
  }
  return D;
}

} // namespace

TEST(ViewTableProperty, WriterMatchesTheOldTreeAndRoundTrips) {
  for (uint64_t Seed = 1; Seed <= 300; ++Seed) {
    Rng R(Seed);
    bool Flame = Seed % 2 == 0;
    ViewData Base = randomView(R, Flame);
    ViewTable Table = newTable(Base);
    std::string Text = Table.write();
    ASSERT_EQ(Text, oldReply(Base).dump()) << "seed " << Seed;

    Result<ViewTable> Read = ViewTable::read(json::Value::serialized(Text));
    ASSERT_TRUE(Read.ok()) << "seed " << Seed << ": " << Read.error();
    EXPECT_EQ(Read->write(), Text) << "seed " << Seed;

    ViewData Next = nextView(R, Base);
    ViewTable NextTable = newTable(Next);
    ASSERT_EQ(NextTable.write(), oldReply(Next).dump()) << "seed " << Seed;
    std::string Delta = encodeViewDelta(Table, NextTable, Seed, Seed + 1);
    Result<ViewTable> Applied = applyViewDelta(Table, Delta);
    ASSERT_TRUE(Applied.ok()) << "seed " << Seed << ": " << Applied.error();
    EXPECT_EQ(Applied->write(), NextTable.write()) << "seed " << Seed;
    // The client's copy is read from the wire, not built by the handler.
    Result<ViewTable> FromWire = applyViewDelta(*Read, Delta);
    ASSERT_TRUE(FromWire.ok()) << "seed " << Seed;
    EXPECT_EQ(FromWire->write(), NextTable.write()) << "seed " << Seed;
  }
}

TEST(ViewCacheBytes, CacheBytesIsTheResultTextHeld) {
  PvpServer Server;
  std::vector<int64_t> Ids;
  for (uint64_t Seed : {1, 2, 3})
    Ids.push_back(Server.addProfile(test::makeRandomProfile(Seed)));
  auto Call = [&](const char *Method, json::Object P) {
    return Server.handleMessage(
        rpc::makeRequest(1, Method, json::Value(std::move(P))));
  };
  auto Stat = [&](const char *Key) {
    return test::resultTree(Call("pvp/stats", {}))
        .asObject()
        .find(Key)
        ->asInt();
  };
  auto OnProfile = [](int64_t Id) {
    json::Object P;
    P.set("profile", Id);
    return P;
  };
  json::Array Base{json::Value(Ids[0])}, Test{json::Value(Ids[1])};
  json::Object Regressions;
  Regressions.set("base", Base);
  Regressions.set("test", Test);

  // Every cached method, each reply's result text counted once.
  std::vector<size_t> Sizes;
  for (int64_t Id : {Ids[0], Ids[2]})
    for (const char *Method : {"pvp/flame", "pvp/treeTable", "pvp/summary"})
      Sizes.push_back(
          Call(Method, OnProfile(Id)).asObject().find("result")->dump().size());
  Sizes.push_back(Call("pvp/regressions", Regressions)
                      .asObject()
                      .find("result")
                      ->dump()
                      .size());
  int64_t Sum = 0;
  for (size_t S : Sizes)
    Sum += static_cast<int64_t>(S);
  EXPECT_EQ(Stat("cachedViews"), 7);
  EXPECT_EQ(Stat("cacheBytes"), Sum);
  // A hit adds nothing.
  Call("pvp/flame", OnProfile(Ids[0]));
  EXPECT_EQ(Stat("cacheBytes"), Sum);

  // Retiring a profile subtracts exactly its entries: profile 2's three
  // views go, the regressions view (over profiles 0 and 1) stays.
  json::Object Prune = OnProfile(Ids[2]);
  Prune.set("minFraction", 0.5);
  ASSERT_TRUE(Call("pvp/prune", Prune).asObject().contains("result"));
  Sum -= static_cast<int64_t>(Sizes[3] + Sizes[4] + Sizes[5]);
  EXPECT_EQ(Stat("cachedViews"), 4);
  EXPECT_EQ(Stat("cacheBytes"), Sum);
  // Closing a cohort member drops the cohort view with it.
  Call("pvp/close", OnProfile(Ids[1]));
  Sum -= static_cast<int64_t>(Sizes[6]);
  EXPECT_EQ(Stat("cachedViews"), 3);
  EXPECT_EQ(Stat("cacheBytes"), Sum);
}

TEST(ViewCacheBytes, EvictionSubtractsTheEvictedText) {
  ServerLimits Limits;
  Limits.MaxCachedViews = 2;
  PvpServer Server(Limits);
  int64_t Id = Server.addProfile(test::makeRandomProfile(4));
  auto Size = [&](const char *Method) {
    json::Object P;
    P.set("profile", Id);
    return static_cast<int64_t>(
        Server
            .handleMessage(rpc::makeRequest(1, Method, json::Value(P)))
            .asObject()
            .find("result")
            ->dump()
            .size());
  };
  auto CacheBytes = [&] {
    return test::resultTree(Server.handleMessage(
                                rpc::makeRequest(2, "pvp/stats", json::Object())))
        .asObject()
        .find("cacheBytes")
        ->asInt();
  };
  int64_t Flame = Size("pvp/flame");
  int64_t Table = Size("pvp/treeTable");
  EXPECT_EQ(CacheBytes(), Flame + Table);
  // A third view evicts the least recently used, the flame.
  int64_t Summary = Size("pvp/summary");
  EXPECT_EQ(CacheBytes(), Table + Summary);
}
