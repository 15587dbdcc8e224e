//===- perfbench/Workloads.cpp - cold-open, warm-browse, cohort-analysis --===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Common.h"

#include "convert/Converters.h"
#include "proto/EvProf.h"
#include "support/Strings.h"
#include "workload/FleetWorkload.h"
#include "workload/SyntheticProfile.h"

#include <algorithm>
#include <atomic>
#include <cmath>

using namespace ev;

namespace pb {

const char *const QueryProgram =
    "derive hot = share(\"cpu\") > 0.01 ? 1 : 0;\n"
    "print \"hot contexts: \" + str(total(\"hot\"));\n";

//===----------------------------------------------------------------------===//
// Caller
//===----------------------------------------------------------------------===//

bool Caller::call(const std::string &Key, const std::string &Frame,
                  std::string &Body, double *Ms) {
  ++Log.Attempted;
  setRequest(nextRequestId());
  bool Ok;
  double Elapsed;
  {
    Span S(Key, Category);
    Ok = T.call(Frame, Body);
    Elapsed = S.elapsedMs();
  }
  if (Ms)
    *Ms = Elapsed;
  if (!Ok) {
    ++Log.Failed;
    if (Log.Problems.size() < 8)
      Log.Problems.push_back("no reply to " + Key);
    return false;
  }
  // A success reply is {"jsonrpc":"2.0","id":N,"result":...}.
  size_t At = Body.find("\"result\":");
  if (At == std::string::npos || At > 48) {
    fail(Key + " replied " + Body.substr(0, 200));
    return false;
  }
  ++Log.Completed;
  return true;
}

void Caller::fail(const std::string &What) {
  ++Log.Failed;
  if (Log.Problems.size() < 8)
    Log.Problems.push_back(What);
}

void Caller::sample(const std::string &Series, double Ms) {
  Log.Series[Series].push_back(Ms);
}

void Caller::unit(double Ms) {
  sample("unit", Ms);
  (tracing() ? Log.UnitTraced : Log.UnitUntraced).push_back(Ms);
}

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Salt * 0xBF58476D1CE4E5B9ull + 1;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::string pprofBytes(uint64_t Seed, size_t Bytes) {
  workload::SyntheticOptions O;
  O.Seed = Seed;
  O.TargetBytes = Bytes;
  return workload::generatePprofBytes(O);
}

json::Array idArray(const std::vector<int64_t> &Ids, size_t From, size_t To) {
  json::Array A;
  for (size_t I = From; I < To; ++I)
    A.push_back(Ids[I]);
  return A;
}

std::string openFrame(int64_t Id, const std::string &Name,
                      const std::string &Bytes) {
  json::Object P;
  P.set("name", Name);
  P.set("dataBase64", base64Encode(Bytes));
  return requestFrame(Id, "pvp/open", std::move(P));
}

std::string flameFrame(int64_t Id, int64_t Prof, const char *Shape,
                       int MaxRects) {
  json::Object P;
  P.set("profile", Prof);
  P.set("shape", Shape);
  P.set("maxRects", MaxRects);
  return requestFrame(Id, "pvp/flame", std::move(P));
}

std::string closeFrame(int64_t Id, int64_t Prof) {
  json::Object P;
  P.set("profile", Prof);
  return requestFrame(Id, "pvp/close", std::move(P));
}

std::string queryFrame(int64_t Id, int64_t Prof) {
  json::Object P;
  P.set("profile", Prof);
  P.set("program", QueryProgram);
  return requestFrame(Id, "pvp/query", std::move(P));
}

/// Sends a close and checks it closed something.
void closeChecked(Caller &C, int64_t Id, int64_t Prof) {
  std::string Body;
  if (!C.call("close", closeFrame(Id, Prof), Body))
    return;
  std::optional<json::Value> R = resultOf(Body);
  const json::Value *Closed = R ? R->asObject().find("closed") : nullptr;
  if (!Closed || !Closed->boolOr(false))
    C.fail("close of profile " + std::to_string(Prof) + " closed nothing");
}

/// Opens via \p Frame; \returns the new profile id or -1 (failure counted).
int64_t openChecked(Caller &C, const std::string &Key,
                    const std::string &Frame) {
  std::string Body;
  if (!C.call(Key, Frame, Body))
    return -1;
  std::optional<json::Value> R = resultOf(Body);
  int64_t Id = R ? profileOf(*R) : -1;
  if (Id < 0)
    C.fail(Key + ": reply without a profile id");
  return Id;
}

/// A standalone session with the view cache off: the reference server.
/// Replies are dumped exactly as the socket server frames them.
class Reference {
public:
  Reference() : Server(noCache()) {}

  std::string call(const std::string &Frame) {
    rpc::FrameReader Reader;
    Reader.feed(Frame);
    std::optional<json::Value> Msg = Reader.poll();
    return Msg ? Server.handleMessage(*Msg).dump() : std::string();
  }
  int64_t open(const std::string &Frame) {
    std::optional<json::Value> R = resultOf(call(Frame));
    return R ? profileOf(*R) : -1;
  }

private:
  static ServerLimits noCache() {
    ServerLimits L;
    L.MaxCachedViews = 0;
    return L;
  }
  PvpServer Server;
};

/// Sum of metric 0 over every context of \p P: the profile total.
double profileTotal(const Profile &P) {
  double Sum = 0.0;
  for (const CCTNode &N : P.nodes())
    Sum += N.metricOr(0);
  return Sum;
}

bool near(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max({1.0, std::fabs(A), std::fabs(B)});
}

/// Checks a flame reply: its depth-0 rects add up to its total, and the
/// total is the profile total \p Expected. \returns "" or the problem.
std::string checkFlame(const std::string &Body, double Expected) {
  std::optional<json::Value> R = resultOf(Body);
  if (!R)
    return "flame: error reply";
  const json::Object &O = R->asObject();
  const json::Value *Total = O.find("total");
  const json::Value *Rects = O.find("rects");
  if (!Total || !Rects || !Rects->isArray() || Rects->asArray().empty())
    return "flame: no rects";
  double RootSum = 0.0;
  for (const json::Value &Rect : Rects->asArray())
    if (Rect.asObject().find("depth")->asInt() == 0)
      RootSum += Rect.asObject().find("value")->asNumber();
  if (!near(RootSum, Total->asNumber()))
    return "flame: root rects sum to " + std::to_string(RootSum) +
           ", total is " + std::to_string(Total->asNumber());
  if (!near(Total->asNumber(), Expected))
    return "flame: total " + std::to_string(Total->asNumber()) +
           " differs from the profile total " + std::to_string(Expected);
  return "";
}

//===----------------------------------------------------------------------===//
// cold-open
//===----------------------------------------------------------------------===//

/// Payload sizes of the open pool, in MB. Each client walks the pool in
/// order from its own offset, so by count 1/5 of the opens are 1 MB, 3/5
/// are 2 MB and 1/5 are 4 MB: the median sits inside the 2 MB class and the
/// 90th percentile inside the 4 MB class, where neither moves when a run
/// ends one open earlier or later.
constexpr unsigned PoolMB[] = {1, 2, 4, 2, 2};
constexpr size_t PoolSize = sizeof(PoolMB) / sizeof(PoolMB[0]);

class ColdOpen final : public Workload {
public:
  unsigned clients() const override { return 3; }
  const char *unitName() const override {
    return "open_to_flame (pvp/open of new bytes -> first pvp/flame reply)";
  }
  double tailPercentile() const override { return 90; }

  void generate(uint64_t Seed) override {
    Pool.clear();
    for (size_t K = 0; K < PoolSize; ++K)
      Pool.emplace_back("cold-" + std::to_string(K) + ".pb",
                        pprofBytes(mixSeed(Seed, K), size_t(PoolMB[K]) << 20));
    NextUnique = (Seed & 0xffff) << 32;
  }

  bool prepare(std::string &Error) override {
    RefTopDown.assign(PoolSize, "");
    RefBottomUp.assign(PoolSize, "");
    for (size_t K = 0; K < PoolSize; ++K) {
      Reference Ref;
      int64_t Id = Ref.open(Pool[K].frame(1, NextUnique));
      Result<Profile> P = convert::load(Pool[K].payload(NextUnique), "ref");
      if (Id < 0 || !P) {
        Error = "cold-open: reference open of pool item " + std::to_string(K) +
                " failed";
        return false;
      }
      double Total = profileTotal(*P);
      RefTopDown[K] = Ref.call(flameFrame(2, Id, "top-down", 4096));
      RefBottomUp[K] = Ref.call(flameFrame(3, Id, "bottom-up", 4096));
      for (const std::string *Body : {&RefTopDown[K], &RefBottomUp[K]})
        if (std::string Why = checkFlame(*Body, Total); !Why.empty()) {
          Error = "cold-open reference: " + Why;
          return false;
        }
    }
    return true;
  }

  std::unique_ptr<Pane> pane(unsigned Client) override;
  unsigned replayIterations() const override { return PoolSize; }

  ProbeInputs probeInputs() const override {
    ProbeInputs In;
    for (size_t K = 0; K < 4; ++K) {
      In.Names.push_back("cold-" + std::to_string(K) + ".pb");
      In.Payloads.push_back(Pool[K].payload(K));
    }
    In.Primary = 1; // A 2 MB payload, the median open.
    return In;
  }

  std::vector<FreshOpen> Pool;
  std::vector<std::string> RefTopDown, RefBottomUp;
  std::atomic<uint64_t> NextUnique{0};
};

class ColdOpenPane final : public Pane {
public:
  ColdOpenPane(ColdOpen &W, unsigned Client) : W(W), Next(2 * Client) {}

  bool warmUp(Caller &C) override {
    cycle(C, 0, false); // The 1 MB item.
    return true;
  }
  void iterate(Caller &C) override { cycle(C, Next++ % PoolSize, true); }
  void finish(Caller &) override {}

private:
  void cycle(Caller &C, size_t K, bool Record) {
    std::string Key = "#" + std::to_string(K);
    std::string Frame = W.Pool[K].frame(1, W.NextUnique.fetch_add(1));
    Clock::time_point T0 = Clock::now();
    int64_t Id = openChecked(C, "open" + Key, Frame);
    if (Id < 0)
      return;
    std::string Body;
    if (C.call("flame.top-down" + Key, flameFrame(2, Id, "top-down", 4096),
               Body)) {
      double Ms = msSince(T0);
      if (Body != W.RefTopDown[K])
        C.fail("cold-open: top-down flame of pool item " +
               std::to_string(K) + " differs from the in-process reply");
      else if (Record)
        C.unit(Ms);
    }
    if (C.call("flame.bottom-up" + Key, flameFrame(3, Id, "bottom-up", 4096),
               Body) &&
        Body != W.RefBottomUp[K])
      C.fail("cold-open: bottom-up flame of pool item " + std::to_string(K) +
             " differs from the in-process reply");
    closeChecked(C, 4, Id);
  }

  ColdOpen &W;
  size_t Next;
};

std::unique_ptr<Pane> ColdOpen::pane(unsigned Client) {
  return std::make_unique<ColdOpenPane>(*this, Client);
}

//===----------------------------------------------------------------------===//
// warm-browse
//===----------------------------------------------------------------------===//

/// A pvp/query (which retires every cached view of the profile) follows
/// every QueryEveryCycles-th pass over the views.
constexpr unsigned QueryEveryCycles = 8;

/// The hottest contexts below the root of a browsed profile.
struct HotSpots {
  int64_t Hot1 = 0, Hot2 = 0;
  std::string Pattern;
};

struct ViewSpec {
  std::string Key;
  bool Cacheable;
  /// Builds the request for profile \p Prof with JSON-RPC id \p Id.
  std::string (*Build)(int64_t Id, int64_t Prof, const HotSpots &H);
};

std::string nodeRequest(int64_t Id, const char *Method, int64_t Prof,
                        int64_t Node) {
  json::Object P;
  P.set("profile", Prof);
  P.set("node", Node);
  return requestFrame(Id, Method, std::move(P));
}

const ViewSpec Views[] = {
    {"codeLink.hot1", false,
     [](int64_t Id, int64_t Prof, const HotSpots &H) {
       return nodeRequest(Id, "pvp/codeLink", Prof, H.Hot1);
     }},
    {"hover.hot1", false,
     [](int64_t Id, int64_t Prof, const HotSpots &H) {
       return nodeRequest(Id, "pvp/hover", Prof, H.Hot1);
     }},
    {"search", false,
     [](int64_t Id, int64_t Prof, const HotSpots &H) {
       json::Object P;
       P.set("profile", Prof);
       P.set("pattern", H.Pattern);
       return requestFrame(Id, "pvp/search", std::move(P));
     }},
    {"treeTable.hotPath", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       json::Object P;
       P.set("profile", Prof);
       return requestFrame(Id, "pvp/treeTable", std::move(P));
     }},
    {"flame.top-down.512", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       return flameFrame(Id, Prof, "top-down", 512);
     }},
    {"flame.bottom-up.512", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       return flameFrame(Id, Prof, "bottom-up", 512);
     }},
    {"flame.flat.512", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       return flameFrame(Id, Prof, "flat", 512);
     }},
    {"codeLink.hot2", false,
     [](int64_t Id, int64_t Prof, const HotSpots &H) {
       return nodeRequest(Id, "pvp/codeLink", Prof, H.Hot2);
     }},
    {"treeTable.expanded", true,
     [](int64_t Id, int64_t Prof, const HotSpots &H) {
       json::Object P;
       P.set("profile", Prof);
       json::Array Expand;
       Expand.push_back(0);
       Expand.push_back(H.Hot1);
       Expand.push_back(H.Hot2);
       P.set("expand", std::move(Expand));
       return requestFrame(Id, "pvp/treeTable", std::move(P));
     }},
    {"flame.top-down.4096", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       return flameFrame(Id, Prof, "top-down", 4096);
     }},
    {"flame.bottom-up.4096", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       return flameFrame(Id, Prof, "bottom-up", 4096);
     }},
    {"flame.flat.4096", true,
     [](int64_t Id, int64_t Prof, const HotSpots &) {
       return flameFrame(Id, Prof, "flat", 4096);
     }},
};
constexpr size_t ViewCount = sizeof(Views) / sizeof(Views[0]);

class WarmBrowse final : public Workload {
public:
  unsigned clients() const override { return 3; }
  const char *unitName() const override {
    return "view (round trip of one read-only view request)";
  }
  // About 1 view in 12 recomputes after a query; p99 is where that shows.
  double tailPercentile() const override { return 99; }

  void generate(uint64_t S) override {
    Bytes.clear();
    OpenFrames.clear();
    for (unsigned C = 0; C < clients(); ++C) {
      Bytes.push_back(pprofBytes(mixSeed(S, 100 + C), 1u << 20));
      OpenFrames.push_back(
          openFrame(1, "browse-" + std::to_string(C) + ".pb", Bytes.back()));
    }
  }

  bool prepare(std::string &Error) override {
    Hot.assign(clients(), {});
    RefViews.assign(clients(), {});
    RefPrinted.assign(clients(), "");
    for (unsigned C = 0; C < clients(); ++C) {
      Reference Ref;
      int64_t Id = Ref.open(OpenFrames[C]);
      Result<Profile> P = convert::load(Bytes[C], "ref");
      if (Id < 0 || !P) {
        Error = "warm-browse: reference open failed";
        return false;
      }
      // The hottest contexts below the root drive hover, codeLink, search
      // and the expanded tree table.
      std::optional<json::Value> Flame =
          resultOf(Ref.call(flameFrame(1, Id, "top-down", 4096)));
      if (!Flame) {
        Error = "warm-browse: reference flame failed";
        return false;
      }
      double Best1 = -1, Best2 = -1;
      for (const json::Value &R : Flame->asObject().find("rects")->asArray()) {
        const json::Object &O = R.asObject();
        int64_t Depth = O.find("depth")->asInt();
        double V = O.find("value")->asNumber();
        if (Depth < 2 || Depth > 4)
          continue;
        if (V > Best1) {
          Best2 = Best1;
          Hot[C].Hot2 = Hot[C].Hot1;
          Best1 = V;
          Hot[C].Hot1 = O.find("node")->asInt();
          Hot[C].Pattern = O.find("name")->asString();
        } else if (V > Best2) {
          Best2 = V;
          Hot[C].Hot2 = O.find("node")->asInt();
        }
      }
      double Total = profileTotal(*P);
      for (size_t V = 0; V < ViewCount; ++V) {
        RefViews[C].push_back(Ref.call(Views[V].Build(10 + V, Id, Hot[C])));
        if (Views[V].Key.rfind("flame.", 0) == 0)
          if (std::string Why = checkFlame(RefViews[C].back(), Total);
              !Why.empty()) {
            Error = "warm-browse reference " + Views[V].Key + ": " + Why;
            return false;
          }
      }
      std::optional<json::Value> Q = resultOf(Ref.call(queryFrame(100, Id)));
      if (!Q) {
        Error = "warm-browse: reference query failed";
        return false;
      }
      RefPrinted[C] = Q->asObject().find("printed")->dump();
    }
    return true;
  }

  std::unique_ptr<Pane> pane(unsigned Client) override;
  unsigned replayIterations() const override { return QueryEveryCycles + 1; }

  ProbeInputs probeInputs() const override {
    ProbeInputs In;
    for (unsigned C = 0; C < clients(); ++C) {
      In.Names.push_back("browse-" + std::to_string(C) + ".pb");
      In.Payloads.push_back(Bytes[C]);
    }
    return In;
  }

  std::vector<std::string> Bytes, OpenFrames;
  std::vector<HotSpots> Hot;
  std::vector<std::vector<std::string>> RefViews;
  std::vector<std::string> RefPrinted;
};

class WarmBrowsePane final : public Pane {
public:
  WarmBrowsePane(WarmBrowse &W, unsigned Client) : W(W), Client(Client) {}

  bool warmUp(Caller &C) override {
    Prof = openChecked(C, "open", W.OpenFrames[Client]);
    if (Prof < 0)
      return false;
    for (size_t V = 0; V < ViewCount; ++V)
      Frames.push_back(Views[V].Build(10 + V, Prof, W.Hot[Client]));
    // Fill the caches: every view, a query (compiles the program), every
    // view again at the new generation.
    browse(C, false);
    query(C);
    browse(C, false);
    return true;
  }

  void iterate(Caller &C) override {
    browse(C, true);
    if (++Cycle % QueryEveryCycles == 0)
      query(C);
  }

  void finish(Caller &C) override {
    if (Prof >= 0)
      closeChecked(C, 102, Prof);
  }

private:
  void browse(Caller &C, bool Record) {
    std::string Body;
    double Ms = 0.0;
    for (size_t V = 0; V < ViewCount; ++V) {
      std::string Key = "view." + Views[V].Key;
      if (Fresh && Views[V].Cacheable)
        Key += ".recompute";
      if (!C.call(Key, Frames[V], Body, &Ms))
        continue;
      if (Body != W.RefViews[Client][V]) {
        C.fail("warm-browse: " + Views[V].Key +
               " differs from the in-process reply");
        continue;
      }
      if (Record) {
        C.sample("view", Ms);
        C.sample(Key, Ms);
        C.unit(Ms);
      }
    }
    Fresh = false;
  }

  void query(Caller &C) {
    std::string Body;
    double Ms = 0.0;
    if (!C.call("query", queryFrame(100, Prof), Body, &Ms))
      return;
    Fresh = true; // The query bumped the generation: views recompute.
    std::optional<json::Value> R = resultOf(Body);
    int64_t Derived = R ? profileOf(*R) : -1;
    if (Derived < 0 ||
        R->asObject().find("printed")->dump() != W.RefPrinted[Client]) {
      C.fail("warm-browse: query reply differs from the in-process reply");
      return;
    }
    C.sample("query", Ms);
    closeChecked(C, 101, Derived);
  }

  WarmBrowse &W;
  unsigned Client;
  int64_t Prof = -1;
  std::vector<std::string> Frames;
  bool Fresh = false;
  uint64_t Cycle = 0;
};

std::unique_ptr<Pane> WarmBrowse::pane(unsigned Client) {
  return std::make_unique<WarmBrowsePane>(*this, Client);
}

//===----------------------------------------------------------------------===//
// cohort-analysis
//===----------------------------------------------------------------------===//

constexpr size_t Members = 8;

class CohortAnalysis final : public Workload {
public:
  unsigned clients() const override { return 1; }
  const char *unitName() const override {
    return "cohort (first pvp/open -> last analysis reply of an iteration)";
  }
  double tailPercentile() const override { return 90; }

  void generate(uint64_t S) override {
    MemberBytes.clear();
    MemberFrames.clear();
    for (size_t M = 0; M < Members; ++M) {
      workload::SyntheticOptions O;
      O.Seed = mixSeed(S, 200 + M);
      O.TargetBytes = 2u << 20;
      MemberBytes.push_back(writeEvProf(workload::generateSyntheticProfile(O)));
      MemberFrames.push_back(openFrame(1, "member-" + std::to_string(M) + ".evprof",
                                       MemberBytes.back()));
    }
    // The fleet cohort keeps the generator's default seed: its planted
    // findings are pinned at 100% recall for that seed, while other seeds
    // can push a planted share shift under the rule's threshold.
    workload::FleetOptions FO;
    workload::FleetWorkload Fleet = workload::generateFleetWorkload(FO);
    size_t V = Fleet.Versions.size();
    FleetFrames.clear();
    for (size_t Side = 0; Side < 2; ++Side)
      for (const Profile &P : Fleet.Versions[V - 2 + Side])
        FleetFrames.push_back(
            openFrame(1, "fleet-" + std::to_string(FleetFrames.size()) + ".evprof",
                      writeEvProf(P)));
    Planted = Fleet.Planted;
  }

  bool prepare(std::string &Error) override {
    Reference Ref;
    std::vector<int64_t> Ids;
    double Total = 0.0;
    for (size_t M = 0; M < Members; ++M) {
      Ids.push_back(Ref.open(MemberFrames[M]));
      Result<Profile> P = readEvProf(MemberBytes[M]);
      if (Ids.back() < 0 || !P) {
        Error = "cohort-analysis: reference open failed";
        return false;
      }
      Total += profileTotal(*P);
    }
    std::optional<json::Value> Agg = resultOf(Ref.call(aggregateFrame(Ids)));
    std::optional<json::Value> Diff = resultOf(Ref.call(diffFrame(Ids)));
    RefRegressions = Ref.call(regressionsFrame(Ids, Members / 2));
    if (!Agg || !Diff || !resultOf(RefRegressions)) {
      Error = "cohort-analysis: reference analysis failed";
      return false;
    }
    RefAggregate = withoutProfileId(*Agg);
    RefDiff = withoutProfileId(*Diff);
    RefFlame = Ref.call(flameFrame(5, profileOf(*Agg), "bottom-up", 4096));
    if (std::string Why = checkFlame(RefFlame, Total); !Why.empty()) {
      Error = "cohort-analysis reference aggregate " + Why;
      return false;
    }
    std::vector<int64_t> Fleet;
    for (const std::string &F : FleetFrames)
      Fleet.push_back(Ref.open(F));
    RefFleet = Ref.call(regressionsFrame(Fleet, Fleet.size() / 2, 6));
    if (std::string Why = checkRecall(RefFleet); !Why.empty()) {
      Error = "cohort-analysis reference: " + Why;
      return false;
    }
    return true;
  }

  std::unique_ptr<Pane> pane(unsigned Client) override;
  unsigned replayIterations() const override { return 2; }

  ProbeInputs probeInputs() const override {
    ProbeInputs In;
    for (size_t M = 0; M < Members; ++M) {
      In.Names.push_back("member-" + std::to_string(M) + ".evprof");
      In.Payloads.push_back(MemberBytes[M]);
    }
    In.FlameShape = "bottom-up";
    In.FlameOfAggregate = true;
    return In;
  }

  static std::string aggregateFrame(const std::vector<int64_t> &Ids) {
    json::Object P;
    P.set("profiles", idArray(Ids, 0, Members));
    return requestFrame(2, "pvp/aggregate", std::move(P));
  }
  static std::string diffFrame(const std::vector<int64_t> &Ids) {
    json::Object P;
    P.set("base", Ids[0]);
    P.set("test", Ids[1]);
    return requestFrame(3, "pvp/diff", std::move(P));
  }
  static std::string regressionsFrame(const std::vector<int64_t> &Ids,
                                      size_t Split, int64_t Id = 4) {
    json::Object P;
    P.set("base", idArray(Ids, 0, Split));
    P.set("test", idArray(Ids, Split, Ids.size()));
    return requestFrame(Id, "pvp/regressions", std::move(P));
  }

  /// "" when every planted regression of the fleet is among the findings.
  std::string checkRecall(const std::string &Body) const {
    std::optional<json::Value> R = resultOf(Body);
    if (!R)
      return "fleet regressions: error reply";
    const json::Array &Findings = R->asObject().find("findings")->asArray();
    for (const workload::PlantedRegression &Plant : Planted) {
      bool Found = false;
      for (const json::Value &F : Findings) {
        const json::Object &O = F.asObject();
        Found |= O.find("id")->asString() == Plant.RuleId &&
                 O.find("message")->asString().find(Plant.Frame) !=
                     std::string::npos;
      }
      if (!Found)
        return "planted " + Plant.RuleId + " on '" + Plant.Frame +
               "' not found (recall below 100%)";
    }
    return "";
  }

  std::vector<std::string> MemberBytes, MemberFrames, FleetFrames;
  std::vector<workload::PlantedRegression> Planted;
  std::string RefAggregate, RefDiff, RefRegressions, RefFlame, RefFleet;
};

class CohortPane final : public Pane {
public:
  explicit CohortPane(CohortAnalysis &W) : W(W) {}

  bool warmUp(Caller &C) override {
    iteration(C, false);
    return true;
  }
  void iterate(Caller &C) override { iteration(C, true); }
  void finish(Caller &) override {}

private:
  void iteration(Caller &C, bool Record) {
    std::vector<int64_t> Close;
    Clock::time_point T0 = Clock::now();
    std::vector<int64_t> Ids;
    for (size_t M = 0; M < Members; ++M)
      Ids.push_back(openChecked(C, "open.member", W.MemberFrames[M]));
    Close = Ids;
    bool Complete = std::find(Ids.begin(), Ids.end(), -1) == Ids.end();
    std::string Body;
    if (Complete && C.call("aggregate", W.aggregateFrame(Ids), Body)) {
      std::optional<json::Value> Agg = resultOf(Body);
      int64_t AggId = Agg ? profileOf(*Agg) : -1;
      Close.push_back(AggId);
      if (AggId < 0 || withoutProfileId(*Agg) != W.RefAggregate)
        C.fail("cohort: aggregate reply differs from the in-process reply");
      if (C.call("diff", W.diffFrame(Ids), Body)) {
        std::optional<json::Value> Diff = resultOf(Body);
        Close.push_back(Diff ? profileOf(*Diff) : -1);
        if (!Diff || withoutProfileId(*Diff) != W.RefDiff)
          C.fail("cohort: diff reply differs from the in-process reply");
      }
      if (C.call("regressions", W.regressionsFrame(Ids, Members / 2), Body) &&
          Body != W.RefRegressions)
        C.fail("cohort: regressions reply differs from the in-process reply");
      if (AggId >= 0 &&
          C.call("flame.aggregate", flameFrame(5, AggId, "bottom-up", 4096),
                 Body) &&
          Body != W.RefFlame)
        C.fail("cohort: aggregate flame differs from the in-process reply");
    }
    std::vector<int64_t> Fleet;
    for (const std::string &F : W.FleetFrames)
      Fleet.push_back(openChecked(C, "open.fleet", F));
    Close.insert(Close.end(), Fleet.begin(), Fleet.end());
    if (std::find(Fleet.begin(), Fleet.end(), -1) == Fleet.end() &&
        C.call("regressions.fleet",
               W.regressionsFrame(Fleet, Fleet.size() / 2, 6), Body)) {
      if (Body != W.RefFleet)
        C.fail("cohort: fleet regressions differ from the in-process reply");
      else if (std::string Why = W.checkRecall(Body); !Why.empty())
        C.fail("cohort: " + Why);
      else if (Record)
        C.unit(msSince(T0));
    }
    for (int64_t Id : Close)
      if (Id >= 0)
        closeChecked(C, 7, Id);
  }

  CohortAnalysis &W;
};

std::unique_ptr<Pane> CohortAnalysis::pane(unsigned) {
  return std::make_unique<CohortPane>(*this);
}

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "cold-open")
    return std::make_unique<ColdOpen>();
  if (Name == "warm-browse")
    return std::make_unique<WarmBrowse>();
  if (Name == "cohort-analysis")
    return std::make_unique<CohortAnalysis>();
  return nullptr;
}

} // namespace pb
