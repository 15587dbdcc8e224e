//===- bench/bench_fig5_response_time.cpp - Paper Fig. 5 ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 5 (and Appendix A2): end-to-end response time to OPEN a
/// pprof profile and show its first flame graph, for EasyView versus the
/// default-pprof and GoLand-plugin baselines, across profile sizes.
///
/// The paper sweeps ~1MB to ~1GB production profiles; the sweep here is
/// 1..64MB of in-process synthetic pprof (the 1GB point is an
/// extrapolation in EXPERIMENTS.md). Expected SHAPE: EasyView < GoLand <
/// PProf at every size, gap widening with size. The GoLand-style baseline
/// parses with pprof::read into the object model.
///
/// The EasyView column is what an editor waits for, on a standalone
/// in-process PvpServer: the JSON parse of a pvp/open request carrying the
/// bytes as 'dataBase64', the pvp/open handler (base64 decode, streaming
/// pprof decode into a frozen calling context tree, verify, store), then
/// pvp/flame of the new profile (layout and reply text). Each row splits
/// it into those stages: "parse", "base64" (the same decode, timed alone),
/// "open" (the pvp/open handler less the base64 column) and "flame". The
/// peak RSS column is what that whole open-to-flame adds to the process's
/// resident set at its peak, sampled while it runs.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "baseline/GolandTreeTable.h"
#include "baseline/PprofFlameView.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "support/Strings.h"
#include "workload/SyntheticProfile.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <thread>

#include <malloc.h>
#include <unistd.h>

using namespace ev;

namespace {

const std::string &profileBytes(size_t Mb) {
  static std::map<size_t, std::string> Cache;
  auto It = Cache.find(Mb);
  if (It != Cache.end())
    return It->second;
  workload::SyntheticOptions Opt;
  Opt.Seed = 42;
  Opt.TargetBytes = Mb << 20;
  return Cache.emplace(Mb, workload::generatePprofBytes(Opt)).first->second;
}

/// The pvp/open request an editor sends for \p Bytes, as JSON text.
std::string openRequest(const std::string &Bytes) {
  json::Object Params;
  Params.set("name", "bench");
  Params.set("dataBase64", base64Encode(Bytes));
  return rpc::makeRequest(1, "pvp/open", std::move(Params)).dump();
}

double timeMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

/// The server's stages of one editor open-to-first-flame, in ms.
struct OpenStages {
  double ParseMs = 0, Base64Ms = 0, OpenMs = 0, FlameMs = 0;
  double totalMs() const { return ParseMs + Base64Ms + OpenMs + FlameMs; }
};

/// Exits with \p Reply when it is an error reply: a failed stage times
/// nothing an editor waits for.
void requireSuccess(const json::Value &Reply) {
  if (Reply.asObject().find("error")) {
    std::fprintf(stderr, "request failed: %s\n", Reply.dump().c_str());
    std::exit(1);
  }
}

/// Runs pvp/open of \p Request (the text openRequest() built) and then
/// pvp/flame of the opened profile on a fresh server, as an editor does.
OpenStages openLikeAnEditor(const std::string &Request) {
  // The sweep's 64 MB point is past the default open size limit.
  ServerLimits Limits;
  Limits.MaxOpenBytes = Request.size();
  PvpServer Server(Limits);
  OpenStages S;
  Result<json::Value> Open = makeError("not parsed");
  S.ParseMs = timeMs([&] { Open = json::parse(Request); });
  std::string_view Data = Open->asObject()
                              .find("params")
                              ->asObject()
                              .find("dataBase64")
                              ->asString();
  S.Base64Ms = timeMs([&] {
    std::string Bytes;
    benchmark::DoNotOptimize(base64Decode(Data, Bytes));
  });
  json::Value Opened;
  S.OpenMs = timeMs([&] { Opened = Server.handleMessage(*Open); }) -
             S.Base64Ms;
  requireSuccess(Opened);
  json::Object Params;
  Params.set("profile", Opened.asObject()
                            .find("result")
                            ->asObject()
                            .find("profile")
                            ->asInt());
  json::Value Flame = rpc::makeRequest(2, "pvp/flame", std::move(Params));
  json::Value Reply;
  S.FlameMs = timeMs([&] { Reply = Server.handleMessage(Flame); });
  requireSuccess(Reply);
  return S;
}

void easyViewOpen(benchmark::State &State) {
  const std::string &Bytes = profileBytes(static_cast<size_t>(State.range(0)));
  std::string Request = openRequest(Bytes);
  double LastMs = 0.0;
  for (auto _ : State)
    LastMs = openLikeAnEditor(Request).totalMs();
  State.counters["open_ms"] = LastMs;
  State.counters["input_mb"] =
      static_cast<double>(Bytes.size()) / (1 << 20);
}

void pprofOpen(benchmark::State &State) {
  const std::string &Bytes = profileBytes(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    auto R = baseline::openWithPprofView(Bytes);
    benchmark::DoNotOptimize(R);
  }
  State.counters["input_mb"] =
      static_cast<double>(Bytes.size()) / (1 << 20);
}

void golandOpen(benchmark::State &State) {
  const std::string &Bytes = profileBytes(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    auto R = baseline::openWithGolandView(Bytes);
    benchmark::DoNotOptimize(R);
  }
  State.counters["input_mb"] =
      static_cast<double>(Bytes.size()) / (1 << 20);
}

BENCHMARK(easyViewOpen)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(golandOpen)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(pprofOpen)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Resident set size of this process now, in bytes.
uint64_t currentRssBytes() {
  long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return static_cast<uint64_t>(Resident) * sysconf(_SC_PAGESIZE);
}

/// MB that \p Fn adds to this process's resident set at its peak. Free
/// heap goes back to the OS first, so \p Fn cannot reuse resident pages
/// an earlier size freed; a thread samples the resident set every 200 us
/// while \p Fn runs.
double addedPeakRssMb(const std::function<void()> &Fn) {
  malloc_trim(0);
  const uint64_t Before = currentRssBytes();
  std::atomic<uint64_t> Peak{Before};
  std::atomic<bool> Done{false};
  auto Sample = [&] {
    uint64_t Now = currentRssBytes();
    for (uint64_t Seen = Peak.load(); Now > Seen;)
      if (Peak.compare_exchange_weak(Seen, Now))
        break;
  };
  std::thread Sampler([&] {
    while (!Done.load()) {
      Sample();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Fn();
  Sample();
  Done = true;
  Sampler.join();
  return static_cast<double>(Peak.load() - Before) / (1 << 20);
}

/// Prints the figure rows with one timed run per (tool, size).
void printFigure() {
  bench::row("Fig5: response time to open a profile (ms); lower is better");
  bench::row("(in-process synthetic pprof; the paper sweeps 1MB..1GB "
             "production profiles)");
  bench::row("%-8s %10s %10s %10s | %8s %8s %8s %8s | %8s", "size",
             "EasyView", "GoLand", "PProf", "parse", "base64", "open",
             "flame", "peakMB");
  for (size_t Mb : {1, 2, 4, 8, 16, 64}) {
    const std::string &Bytes = profileBytes(Mb);
    std::string Request = openRequest(Bytes);
    OpenStages Ev = openLikeAnEditor(Request);
    double Gl = timeMs([&] {
      auto R = baseline::openWithGolandView(Bytes);
      benchmark::DoNotOptimize(R);
    });
    double Pp = timeMs([&] {
      auto R = baseline::openWithPprofView(Bytes);
      benchmark::DoNotOptimize(R);
    });
    double PeakMb = addedPeakRssMb([&] { (void)openLikeAnEditor(Request); });
    double EvMs = Ev.totalMs();
    bench::row("%-6zuMB %10.1f %10.1f %10.1f | %8.1f %8.1f %8.1f %8.1f | "
               "%8.0f %s",
               Mb, EvMs, Gl, Pp, Ev.ParseMs, Ev.Base64Ms, Ev.OpenMs,
               Ev.FlameMs, PeakMb,
               EvMs < Gl && Gl < Pp ? "ordered" : "ORDER VIOLATED");
  }
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printFigure();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
