//===- perfbench/main.cpp - The repository benchmark ----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One run of one workload against an in-process SessionManager + NetServer
/// on a loopback TCP socket:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--out-dir DIR] [--commit ID]
///
/// Setup (generate the inputs from the seed, start a fresh server, connect
/// the clients, warm up) runs 3 to 7 times; setup_s is the median. The last
/// server is then driven for S seconds in a closed loop while every reply is
/// checked. With --trace 0 the last stdout line reports the end-to-end
/// metrics; with --trace 1 it reports the per-layer metrics: half of the
/// iterations record client spans, the workload is replayed in process with
/// one span per layer, every module is probed on the workload's bytes, and
/// all spans are written to DIR as Chrome trace-event JSON. Exit status 1
/// means a check failed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Layers.h"
#include "Wire.h"
#include "Workloads.h"

#include "convert/Converters.h"
#include "ide/SessionManager.h"
#include "net/NetServer.h"
#include "net/Socket.h"
#include "support/FileIo.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace ev;
using namespace pb;

namespace {

/// Setup runs at least MinSetups and at most MaxSetups times, and repeats
/// while all setups so far took less than SetupBudgetS; setup_s is the
/// median, so short setups get more samples.
constexpr int MinSetups = 3;
constexpr int MaxSetups = 7;
constexpr double SetupBudgetS = 4.0;
constexpr unsigned ReplayLane = 100;
constexpr unsigned ProbeLane = 200;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".";
  std::string Commit = "unknown";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--out-dir")
      O.OutDir = Val;
    else if (Key == "--commit")
      O.Commit = Val;
    else
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0;
}

/// The server under test: session strands behind a loopback TCP listener.
class Service {
public:
  explicit Service(unsigned Sessions)
      : Manager(managerOptions(Sessions)), Net(Manager, netOptions()) {}
  ~Service() { Net.drain(); }
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  bool start() {
    return Net.listenTcp("127.0.0.1:0").ok() && Net.start().ok();
  }
  const std::string &address() const { return Net.boundAddress(); }
  SessionManager &manager() { return Manager; }

private:
  static SessionManager::Options managerOptions(unsigned Sessions) {
    SessionManager::Options O;
    O.Sessions = Sessions;
    return O;
  }
  static net::NetServerOptions netOptions() {
    net::NetServerOptions O;
    O.Log = [](const std::string &) {};
    return O;
  }
  SessionManager Manager;
  net::NetServer Net;
};

/// The server plus one connected pane per client.
struct Fleet {
  std::unique_ptr<Service> Svc;
  std::vector<std::unique_ptr<SocketTransport>> Links;
  std::vector<std::unique_ptr<Pane>> Panes;
  std::vector<ClientLog> Logs;
};

/// Runs \p Fn(Client) on one thread per client and joins them.
template <typename Fn> void perClient(unsigned Clients, Fn &&F) {
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&F, C] { F(C); });
  for (std::thread &T : Threads)
    T.join();
}

/// Starts a server, connects the panes and warms them up.
bool startFleet(Workload &W, Fleet &F) {
  unsigned Clients = W.clients();
  F.Svc = std::make_unique<Service>(Clients);
  if (!F.Svc->start())
    return false;
  F.Logs.assign(Clients, ClientLog());
  for (unsigned C = 0; C < Clients; ++C) {
    F.Links.push_back(std::make_unique<SocketTransport>(F.Svc->address()));
    if (!F.Links.back()->ok())
      return false;
    F.Panes.push_back(W.pane(C));
  }
  std::atomic<bool> Ok{true};
  perClient(Clients, [&](unsigned C) {
    Caller Call(*F.Links[C], F.Logs[C], "client");
    if (!F.Panes[C]->warmUp(Call) || F.Logs[C].Failed != 0)
      Ok = false;
  });
  return Ok;
}

/// Closes the clients, then drains and stops the server.
void stopFleet(Fleet &F) {
  F.Panes.clear();
  F.Links.clear();
  F.Svc.reset();
  F.Logs.clear();
}

void finishFleet(Fleet &F, ClientLog &Log) {
  for (size_t C = 0; C < F.Panes.size(); ++C) {
    Caller Call(*F.Links[C], Log, "client");
    F.Panes[C]->finish(Call);
  }
}

/// The "result" of a control request (pvp/stats, pvp/metrics) on link 0.
json::Value control(Fleet &F, ClientLog &Log, const char *Method) {
  std::string Body;
  Caller Call(*F.Links[0], Log, "control");
  if (Call.call(Method, requestFrame(900, Method, json::Object()), Body))
    if (std::optional<json::Value> R = resultOf(Body))
      return *R;
  return json::Object();
}

double number(const json::Value &Obj, std::initializer_list<const char *> Path) {
  const json::Value *V = &Obj;
  for (const char *Key : Path) {
    if (!V->isObject() || !(V = V->asObject().find(Key)))
      return 0.0;
  }
  return V->numberOr(0.0);
}

/// p50 (us) of what histogram \p Name recorded between two pvp/metrics
/// snapshots. The buckets are factor-of-two wide, so this is coarse.
double histogramDeltaP50(const json::Value &Before, const json::Value &After,
                         const char *Name) {
  auto Buckets = [&](const json::Value &Snap) {
    std::map<double, double> Out;
    const json::Value *H = Snap.asObject().find("histograms");
    const json::Value *E = H ? H->asObject().find(Name) : nullptr;
    const json::Value *B = E ? E->asObject().find("buckets") : nullptr;
    if (B && B->isArray())
      for (const json::Value &Pair : B->asArray())
        Out[Pair.asArray()[0].asNumber()] = Pair.asArray()[1].asNumber();
    return Out;
  };
  std::map<double, double> A = Buckets(After), Bf = Buckets(Before);
  double Total = 0.0;
  for (auto &[Floor, Count] : A)
    Total += (Count -= Bf[Floor]);
  double Seen = 0.0;
  for (const auto &[Floor, Count] : A) {
    if (Count <= 0)
      continue;
    if (Seen + Count >= Total / 2) {
      double Width = Floor == 0 ? 1.0 : Floor;
      return Floor + Width * (Total / 2 - Seen) / Count;
    }
    Seen += Count;
  }
  return 0.0;
}

double ratio(double Hits, double Misses) {
  return Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Share (%) of client-observed request time no layer span explains. For
/// each request kind, the layer time is the median parse + dispatch + write
/// of that kind in the in-process replay.
double unattributedPct(const std::vector<SpanRecord> &Spans) {
  std::map<uint64_t, double> ChildSum; // Replay request span -> layer time.
  std::map<uint64_t, const SpanRecord *> ById;
  for (const SpanRecord &S : Spans)
    ById[S.Id] = &S;
  for (const SpanRecord &S : Spans)
    if (S.Cat == "ide" && ById.count(S.Parent))
      ChildSum[S.Parent] += (S.EndUs - S.StartUs) / 1000.0;
  std::map<std::string, std::vector<double>> Layer;
  for (const auto &[Id, Ms] : ChildSum)
    Layer[ById[Id]->Name].push_back(Ms);
  double Client = 0.0, Explained = 0.0;
  for (const SpanRecord &S : Spans) {
    if (S.Cat != "client" || S.Name == "iteration")
      continue;
    auto It = Layer.find(S.Name);
    if (It == Layer.end())
      continue;
    Client += (S.EndUs - S.StartUs) / 1000.0;
    Explained += percentile(It->second, 50);
  }
  return Client > 0 ? 100.0 * (Client - Explained) / Client : 0.0;
}

/// Samples the store's resident bytes while the run is measured.
class StoreSampler {
public:
  explicit StoreSampler(ProfileStore &Store)
      : Store(Store), Thread([this] { loop(); }) {}
  ~StoreSampler() { stop(); }
  StoreSampler(const StoreSampler &) = delete;
  StoreSampler &operator=(const StoreSampler &) = delete;

  void stop() {
    Done = true;
    if (Thread.joinable())
      Thread.join();
  }
  double peakMb() const { return static_cast<double>(Peak) / double(1 << 20); }

private:
  void loop() {
    while (!Done) {
      Peak = std::max<uint64_t>(Peak, Store.stats().ResidentBytes);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ProfileStore &Store;
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Peak{0};
  std::thread Thread; // Declared last: starts after the members it reads.
};

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  json::Object M;
  for (const Metric &X : Metrics) {
    json::Object V;
    V.set("value", X.Value);
    V.set("unit", X.Unit);
    M.set(X.Name, std::move(V));
  }
  json::Object Out;
  Out.set("correct", Correct);
  Out.set("attempted", Attempted);
  Out.set("failed", Failed);
  Out.set("metrics", std::move(M));
  std::printf("%s\n", json::Value(std::move(Out)).dump().c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  if (!parseArgs(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit ID]\n");
    return 2;
  }
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (cold-open, "
                         "warm-browse, cohort-analysis)\n",
                 Opt.Workload.c_str());
    return 2;
  }
  // A wedged server must not hang the caller: the process dies after 170 s.
  alarm(170);
  net::ignoreSigpipe();

  // Host and build fingerprint.
  const char *EvThreads = std::getenv("EV_THREADS");
#ifdef NDEBUG
  const char *Assertions = "off";
#else
  const char *Assertions = "on";
#endif
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Opt.Seconds, Opt.Trace ? 1 : 0);
  std::printf("perfbench: host nproc=%ld hardware_concurrency=%u "
              "ThreadPool::configuredThreads=%u EV_THREADS=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              ThreadPool::configuredThreads(), EvThreads ? EvThreads : "(unset)");
  std::printf("perfbench: build compiler=%s type=%s flags=%s assertions=%s "
              "commit=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_OPT_FLAGS,
              Assertions, Opt.Commit.c_str());

  std::vector<std::string> Problems;
  auto Fail = [&](const std::string &Why) {
    Problems.push_back(Why);
    std::printf("perfbench: CHECK FAILED: %s\n", Why.c_str());
  };

  // Setup, several times; the last fleet is measured.
  std::vector<double> SetupS;
  Fleet F;
  ClientLog Control;
  for (int S = 0;; ++S) {
    Clock::time_point T0 = Clock::now();
    W->generate(Opt.Seed);
    double GenerateMs = msSince(T0);
    if (S == 0) {
      std::string Error;
      if (!W->prepare(Error)) {
        Fail(Error);
        printResult(false, 1, 1, {});
        return 1;
      }
    }
    Clock::time_point T1 = Clock::now();
    if (!startFleet(*W, F)) {
      for (const ClientLog &L : F.Logs)
        for (const std::string &P : L.Problems)
          Fail("setup: " + P);
      Fail("setup: the server did not start or a warm-up request failed");
      printResult(false, 1, 1, {});
      return 1;
    }
    SetupS.push_back((GenerateMs + msSince(T1)) / 1000.0);
    double Spent = std::accumulate(SetupS.begin(), SetupS.end(), 0.0);
    if (S + 1 >= MaxSetups || (S + 1 >= MinSetups && Spent >= SetupBudgetS))
      break;
    finishFleet(F, Control);
    stopFleet(F);
  }
  std::printf("perfbench: setups=%zu\n", SetupS.size());
  for (ClientLog &L : F.Logs)
    L = ClientLog();

  // Measured phase.
  unsigned Clients = W->clients();
  json::Value Stats0 = control(F, Control, "pvp/stats");
  json::Value Metrics0 = control(F, Control, "pvp/metrics");
  std::optional<StoreSampler> Sampler;
  if (Opt.Trace)
    Sampler.emplace(F.Svc->manager().store());
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::microseconds(static_cast<int64_t>(Opt.Seconds * 1e6));
  perClient(Clients, [&](unsigned C) {
    setLane(C + 1);
    Caller Call(*F.Links[C], F.Logs[C], "client");
    for (uint64_t I = 0; Clock::now() < Deadline; ++I) {
      // Trace a pseudo-random half of the iterations, so the choice never
      // lines up with a workload's own period (warm-browse's query cycle).
      setTracing(Opt.Trace && ((I * 0x9E3779B97F4A7C15ull) >> 63) != 0);
      Span S("iteration", "client");
      F.Panes[C]->iterate(Call);
    }
    setTracing(false);
  });
  double WallS = msSince(Start) / 1000.0;
  if (Sampler)
    Sampler->stop();
  json::Value Stats1 = control(F, Control, "pvp/stats");
  json::Value Metrics1 = control(F, Control, "pvp/metrics");
  if (number(Stats1, {"storeProfiles"}) != number(Stats0, {"storeProfiles"}))
    Fail("steady state: the store holds " +
         std::to_string(number(Stats1, {"storeProfiles"})) +
         " profiles after the run, " +
         std::to_string(number(Stats0, {"storeProfiles"})) + " before");

  // Idle-connection round trip of a minimal request (traced run only).
  double PingUs = 0.0;
  if (Opt.Trace) {
    Caller Call(*F.Links[0], Control, "control");
    std::string Body;
    json::Object P;
    P.set("name", "ping.collapsed");
    P.set("data", "main;ping 1\n");
    Call.call("open", requestFrame(901, "pvp/open", P), Body);
    std::optional<json::Value> R = resultOf(Body);
    int64_t Id = R ? profileOf(*R) : -1;
    json::Object L;
    L.set("profile", Id);
    L.set("node", 0);
    std::string Frame = requestFrame(902, "pvp/codeLink", L);
    std::vector<double> Us;
    for (int I = 0; I < 200 && Id >= 0; ++I) {
      double Ms = 0.0;
      if (Call.call("ping", Frame, Body, &Ms))
        Us.push_back(Ms * 1000.0);
    }
    PingUs = percentile(Us, 50);
    json::Object Cl;
    Cl.set("profile", Id);
    Call.call("close", requestFrame(903, "pvp/close", Cl), Body);
  }

  finishFleet(F, Control);
  json::Value Stats2 = control(F, Control, "pvp/stats");
  double StoreEnd = number(Stats2, {"storeProfiles"});
  if (StoreEnd != 0)
    Fail("steady state: " + std::to_string(StoreEnd) +
         " profiles left open after every client closed its own");
  std::vector<ClientLog> Logs = std::move(F.Logs);
  stopFleet(F);

  // Totals over the measured phase; control requests count as attempts.
  uint64_t Attempted = Control.Attempted, Failed = Control.Failed;
  uint64_t Completed = 0;
  std::map<std::string, std::vector<double>> Series;
  std::vector<double> Traced, Untraced;
  for (const ClientLog &L : Logs) {
    Attempted += L.Attempted;
    Failed += L.Failed;
    Completed += L.Completed;
    for (const auto &[Name, V] : L.Series)
      Series[Name].insert(Series[Name].end(), V.begin(), V.end());
    Traced.insert(Traced.end(), L.UnitTraced.begin(), L.UnitTraced.end());
    Untraced.insert(Untraced.end(), L.UnitUntraced.begin(),
                    L.UnitUntraced.end());
  }
  for (const std::string &P : Control.Problems)
    Fail(P);
  for (const ClientLog &L : Logs)
    for (const std::string &P : L.Problems)
      Fail(P);
  const std::vector<double> &Unit = Series["unit"];
  if (Unit.empty())
    Fail("no " + std::string(W->unitName()) + " sample completed");

  std::printf("perfbench: unit=%s, tail=p%g\n", W->unitName(),
              W->tailPercentile());
  auto Line = [&](const char *Name, const std::string &Key, double P) {
    const std::vector<double> &V = Series[Key];
    if (!V.empty())
      std::printf("perfbench: %s=%.3f ms (n=%zu)\n", Name, percentile(V, P),
                  V.size());
  };
  if (Opt.Workload == "cold-open") {
    Line("open_to_flame_p50_ms", "unit", 50);
    Line("open_to_flame_p90_ms", "unit", 90);
  } else if (Opt.Workload == "warm-browse") {
    Line("view_p50_ms", "view", 50);
    Line("view_p99_ms", "view", 99);
    Line("query_p50_ms", "query", 50);
    for (const auto &[Key, V] : Series)
      if (Key.rfind("view.", 0) == 0)
        Line(("  " + Key + "_p50_ms").c_str(), Key, 50);
  } else {
    Line("cohort_p50_ms", "unit", 50);
    Line("cohort_p90_ms", "unit", 90);
  }
  double ErrorRate =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 1.0;
  std::printf("perfbench: error_rate=%g (%llu of %llu requests)\n", ErrorRate,
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));

  std::vector<Metric> Out;
  if (!Opt.Trace) {
    Out = {{"setup_s", percentile(SetupS, 50), "s"},
           {"latency_p50_ms", percentile(Unit, 50), "ms"},
           {"latency_tail_ms", percentile(Unit, W->tailPercentile()), "ms"},
           {"throughput_rps", static_cast<double>(Completed) / WallS, "1/s"},
           {"peak_rss_mb", peakRssMb(), "MB"}};
  } else {
    // In-process replay of the same client code, one span per layer.
    {
      InProcessTransport Shadow(ServerLimits().MaxCachedViews);
      ClientLog ReplayLog;
      Caller Call(Shadow, ReplayLog, "replay");
      std::unique_ptr<Pane> P = W->pane(0);
      setLane(ReplayLane);
      if (!P->warmUp(Call))
        Fail("replay: warm-up failed");
      setTracing(true);
      for (unsigned I = 0; I < W->replayIterations(); ++I) {
        Span S("iteration", "replay");
        P->iterate(Call);
      }
      setTracing(false);
      P->finish(Call);
      for (const std::string &Pr : ReplayLog.Problems)
        Fail("replay: " + Pr);
    }
    setLane(ProbeLane);
    setTracing(true);
    std::string Error;
    std::map<std::string, double> Layers = probeLayers(W->probeInputs(), Error);
    setTracing(false);
    if (!Error.empty())
      Fail(Error);

    std::vector<SpanRecord> Spans = collectSpans();
    std::string TracePath = Opt.OutDir + "/trace-" + Opt.Workload + "-seed" +
                            std::to_string(Opt.Seed) + ".json";
    std::string TraceJson = chromeTraceJson(Spans);
    if (!writeFile(TracePath, TraceJson).ok())
      Fail("cannot write " + TracePath);
    Result<Profile> Self = convert::fromChromeTrace(TraceJson);
    if (!Self)
      Fail("the trace does not load through convert::fromChromeTrace: " +
           Self.error());
    else
      std::printf("perfbench: trace %s: %zu spans, %zu CCT nodes\n",
                  TracePath.c_str(), Spans.size(), Self->nodeCount());

    double Requests = number(Metrics1, {"counters", "net.framesIn"}) -
                      number(Metrics0, {"counters", "net.framesIn"});
    auto Delta = [&](const json::Value &A, const json::Value &B,
                     std::initializer_list<const char *> Path) {
      return number(B, Path) - number(A, Path);
    };
    double VcHits = Delta(Stats0, Stats1, {"cacheHits"});
    double VcMiss = Delta(Stats0, Stats1, {"cacheMisses"});
    double PcHits = Delta(Stats0, Stats1, {"programCacheHits"});
    double PcMiss = Delta(Stats0, Stats1, {"programCacheMisses"});
    double Overhead = percentile(Untraced, 50) > 0
                          ? 100.0 * (percentile(Traced, 50) /
                                         percentile(Untraced, 50) -
                                     1.0)
                          : 0.0;
    Out = {
        {"net.ping_p50_us", PingUs, "us"},
        {"net.bytes_in_per_req",
         Requests > 0 ? Delta(Metrics0, Metrics1, {"counters", "net.bytesIn"}) /
                            Requests
                      : 0.0,
         "B"},
        {"net.bytes_out_per_req",
         Requests > 0 ? Delta(Metrics0, Metrics1, {"counters", "net.bytesOut"}) /
                            Requests
                      : 0.0,
         "B"},
        {"net.drops", Delta(Metrics0, Metrics1, {"counters", "net.connectionsDropped"}),
         "count"},
        {"ide.viewcache.hit_ratio", ratio(VcHits, VcMiss), "ratio"},
        {"ide.viewcache.lookups", VcHits + VcMiss, "count"},
        {"ide.programcache.hit_ratio", ratio(PcHits, PcMiss), "ratio"},
        {"ide.programcache.lookups", PcHits + PcMiss, "count"},
        {"ide.session.queue_wait_p50_us",
         histogramDeltaP50(Metrics0, Metrics1, "session.queueWaitUs"), "us"},
        {"ide.session.run_p50_us",
         histogramDeltaP50(Metrics0, Metrics1, "session.runUs"), "us"},
        {"ide.unattributed_pct", unattributedPct(Spans), "%"},
        {"profile.store_resident_mb", Sampler ? Sampler->peakMb() : 0.0, "MB"},
        {"profile.store_profiles_end", StoreEnd, "count"},
        {"trace.overhead_pct", Overhead, "%"},
        {"trace.spans", static_cast<double>(Spans.size()), "count"},
        {"error_rate", ErrorRate, "ratio"},
    };
    static const std::map<std::string, const char *> LayerUnits = {
        {"ide.frame.parse_ms", "ms"},
        {"ide.frame.write_ms", "ms"},
        {"ide.dispatch_ms.open", "ms"},
        {"ide.dispatch_ms.flame", "ms"},
        {"ide.dispatch_ms.treeTable", "ms"},
        {"ide.dispatch_ms.query", "ms"},
        {"ide.dispatch_ms.aggregate", "ms"},
        {"ide.dispatch_ms.diff", "ms"},
        {"ide.dispatch_ms.regressions", "ms"},
        {"ide.cache_hit_us", "us"},
        {"support.base64_decode_ms", "ms"},
        {"support.json_dump_ms", "ms"},
        {"support.reply_kb", "KB"},
        {"convert.load_ms", "ms"},
        {"convert.load_mb_per_s", "MB/s"},
        {"proto.read_evprof_ms", "ms"},
        {"profile.verify_ms", "ms"},
        {"analysis.top_down_ms", "ms"},
        {"analysis.bottom_up_ms", "ms"},
        {"analysis.aggregate_ms", "ms"},
        {"analysis.diff_ms", "ms"},
        {"analysis.regressions_ms", "ms"},
        {"render.flame_layout_ms", "ms"},
        {"render.flame_rects", "count"},
        {"render.tree_table_ms", "ms"},
        {"query.compile_ms", "ms"},
        {"query.run_ms", "ms"},
    };
    for (const auto &[Name, Unit] : LayerUnits)
      Out.push_back({Name, Layers.count(Name) ? Layers[Name] : 0.0, Unit});

    // The predictions each workload was chosen for.
    double HitRatio = ratio(VcHits, VcMiss);
    if (Opt.Workload == "cold-open")
      std::printf("perfbench: prediction view-cache hit ratio ~0 on "
                  "cold-open: %s (%.3f of %.0f lookups)\n",
                  HitRatio < 0.05 ? "held" : "NOT held", HitRatio,
                  VcHits + VcMiss);
    else if (Opt.Workload == "warm-browse")
      std::printf("perfbench: prediction view-cache hit ratio high on "
                  "warm-browse: %s (%.3f of %.0f lookups)\n",
                  HitRatio > 0.8 ? "held" : "NOT held", HitRatio,
                  VcHits + VcMiss);
    else {
      // Within the replayed iterations: the analysis requests' dispatch
      // spans against the iterations' whole span.
      double AnalysisMs = 0.0, IterationMs = 0.0;
      for (const SpanRecord &S : Spans) {
        double Ms = (S.EndUs - S.StartUs) / 1000.0;
        if (S.Cat == "replay" && S.Name == "iteration")
          IterationMs += Ms;
        else if (S.Cat == "ide" && (S.Name == "ide.dispatch.aggregate" ||
                                    S.Name == "ide.dispatch.diff" ||
                                    S.Name == "ide.dispatch.regressions" ||
                                    S.Name == "ide.dispatch.flame"))
          AnalysisMs += Ms;
      }
      double Share = IterationMs > 0 ? 100.0 * AnalysisMs / IterationMs : 0.0;
      std::printf("perfbench: prediction analysis spans dominate "
                  "cohort-analysis: %s (aggregate, diff, regressions and the "
                  "aggregate flame take %.0f%% of the replayed iterations)\n",
                  Share > 50 ? "held" : "NOT held", Share);
    }
  }

  bool Correct = Problems.empty() && Failed == 0;
  printResult(Correct, std::max<uint64_t>(Attempted, 1), Failed, Out);
  return Correct ? 0 : 1;
}
