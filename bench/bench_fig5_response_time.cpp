//===- bench/bench_fig5_response_time.cpp - Paper Fig. 5 ------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 5 (and Appendix A2): end-to-end response time to OPEN a
/// pprof profile — parsing, tree construction, metric computation, first
/// top-down flame-graph render — for EasyView versus the default-pprof and
/// GoLand-plugin baselines, across profile sizes.
///
/// The paper sweeps ~1MB to ~1GB production profiles; the sweep here is
/// 1..64MB of in-process synthetic pprof (the 1GB point is an
/// extrapolation in EXPERIMENTS.md). Expected SHAPE: EasyView < GoLand <
/// PProf at every size, gap widening with size. The EasyView column runs
/// the streaming pprof decoder (convert::fromPprof); the GoLand-style
/// baseline parses with pprof::read into the object model.
///
/// Each row also splits EasyView's side of an editor's open into layers:
/// the JSON parse of the pvp/open request that carries the bytes, the
/// base64 decode of its 'dataBase64', the pprof decode into a frozen
/// calling context tree (decoding and tree construction are one streamed
/// pass), the metric columns ("build") and the first flame layout. The
/// peak RSS column is what that whole server-side open (parse, base64,
/// decode, build, layout) adds to the process's resident set at its peak,
/// sampled while it runs.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "baseline/GolandTreeTable.h"
#include "baseline/PprofFlameView.h"
#include "core/EasyView.h"
#include "ide/JsonRpc.h"
#include "support/Strings.h"
#include "workload/SyntheticProfile.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
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

void easyViewOpen(benchmark::State &State) {
  const std::string &Bytes = profileBytes(static_cast<size_t>(State.range(0)));
  double LastMs = 0.0;
  for (auto _ : State) {
    EasyViewEngine Engine;
    auto R = Engine.openProfileBytes(Bytes, "bench");
    benchmark::DoNotOptimize(R);
    LastMs = Engine.lastOpenStats().totalMs();
  }
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

double timeMs(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(T1 - T0).count();
}

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

/// The server side of an editor's open: the JSON parse of the pvp/open
/// request \p Frame, the base64 decode of its bytes, then the engine's
/// open.
struct OpenLayers {
  double ParseMs = 0, Base64Ms = 0;
  OpenStats Engine;
};

OpenLayers openLikeAnEditor(const std::string &Frame) {
  OpenLayers L;
  Result<json::Value> Request = makeError("not parsed");
  L.ParseMs = timeMs([&] { Request = json::parse(Frame); });
  std::string Bytes;
  const json::Value &Params = *Request->asObject().find("params");
  L.Base64Ms = timeMs([&] {
    base64Decode(Params.asObject().find("dataBase64")->asString(), Bytes);
  });
  EasyViewEngine Engine;
  auto R = Engine.openProfileBytes(Bytes);
  benchmark::DoNotOptimize(R);
  L.Engine = Engine.lastOpenStats();
  return L;
}

/// Prints the figure rows with one timed run per (tool, size).
void printFigure() {
  bench::row("Fig5: response time to open a profile (ms); lower is better");
  bench::row("(in-process synthetic pprof; the paper sweeps 1MB..1GB "
             "production profiles)");
  bench::row("%-8s %10s %10s %10s | %8s %8s %8s %8s %8s | %8s", "size",
             "EasyView", "GoLand", "PProf", "parse", "base64", "decode",
             "build", "layout", "peakMB");
  for (size_t Mb : {1, 2, 4, 8, 16, 64}) {
    const std::string &Bytes = profileBytes(Mb);
    double Ev = timeMs([&] {
      EasyViewEngine Engine;
      auto R = Engine.openProfileBytes(Bytes);
      benchmark::DoNotOptimize(R);
    });
    double Gl = timeMs([&] {
      auto R = baseline::openWithGolandView(Bytes);
      benchmark::DoNotOptimize(R);
    });
    double Pp = timeMs([&] {
      auto R = baseline::openWithPprofView(Bytes);
      benchmark::DoNotOptimize(R);
    });
    json::Object Params;
    Params.set("name", "bench");
    Params.set("dataBase64", base64Encode(Bytes));
    std::string Frame = rpc::makeRequest(1, "pvp/open", std::move(Params)).dump();
    OpenLayers L = openLikeAnEditor(Frame);
    double PeakMb = addedPeakRssMb([&] { (void)openLikeAnEditor(Frame); });
    bench::row("%-6zuMB %10.1f %10.1f %10.1f | %8.1f %8.1f %8.1f %8.1f %8.1f | "
               "%8.0f %s",
               Mb, Ev, Gl, Pp, L.ParseMs, L.Base64Ms, L.Engine.ParseMs,
               L.Engine.AnalyzeMs, L.Engine.LayoutMs, PeakMb,
               Ev < Gl && Gl < Pp ? "ordered" : "ORDER VIOLATED");
  }
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printFigure();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
