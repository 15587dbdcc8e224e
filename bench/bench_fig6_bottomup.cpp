//===- bench/bench_fig6_bottomup.cpp - Paper Fig. 6 -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Fig. 6: the bottom-up flame graph of LULESH's HPCToolkit
/// CPUTIME profile, whose hot leaf is `brk` in libc reached from multiple
/// memory-management call paths. Times the full pipeline (experiment.xml
/// parse -> bottom-up transform -> layout), and the bottom-up flame as the
/// views lay it out: straight from the caller groups, with no tree.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "analysis/MetricEngine.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "render/FlameLayout.h"
#include "workload/LuleshWorkload.h"

#include <benchmark/benchmark.h>

using namespace ev;

namespace {

void convertExperimentXml(benchmark::State &State) {
  std::string Xml = workload::generateLuleshExperimentXml({});
  for (auto _ : State) {
    Result<Profile> P = convert::fromHpctoolkit(Xml);
    benchmark::DoNotOptimize(P.ok());
  }
  State.counters["xml_kb"] = static_cast<double>(Xml.size()) / 1024.0;
}
BENCHMARK(convertExperimentXml)->Unit(benchmark::kMillisecond);

void bottomUpTransform(benchmark::State &State) {
  Profile P = workload::generateLuleshProfile({});
  for (auto _ : State) {
    Profile Up = bottomUpTree(P);
    benchmark::DoNotOptimize(Up.nodeCount());
  }
}
BENCHMARK(bottomUpTransform)->Unit(benchmark::kMicrosecond);

void bottomUpFlameLayout(benchmark::State &State) {
  Profile Up = bottomUpTree(workload::generateLuleshProfile({}));
  for (auto _ : State) {
    FlameGraph G(Up, 0);
    benchmark::DoNotOptimize(G.rects().data());
  }
}
BENCHMARK(bottomUpFlameLayout)->Unit(benchmark::kMicrosecond);

void bottomUpFlame(benchmark::State &State) {
  Profile P = workload::generateLuleshProfile({});
  for (auto _ : State) {
    FlameGraph G(CallersTree(P, 0));
    benchmark::DoNotOptimize(G.rects().data());
  }
}
BENCHMARK(bottomUpFlame)->Unit(benchmark::kMicrosecond);

void printFigure() {
  std::string Xml = workload::generateLuleshExperimentXml({});
  Result<Profile> P = convert::fromHpctoolkit(Xml);
  if (!P) {
    bench::row("ERROR: %s", P.error().c_str());
    return;
  }
  Profile Up = bottomUpTree(*P);
  MetricView View(Up, 0);
  bench::row("Fig6: bottom-up view of LULESH CPUTIME (HPCToolkit)");
  bench::row("%-4s %-34s %-16s %8s", "rank", "leaf function", "module",
             "share");
  std::vector<std::pair<double, NodeId>> Level;
  for (NodeId Child : Up.node(Up.root()).Children)
    Level.push_back({View.inclusive(Child), Child});
  std::sort(Level.rbegin(), Level.rend());
  for (size_t I = 0; I < Level.size() && I < 8; ++I) {
    NodeId Id = Level[I].second;
    bench::row("%-4zu %-34s %-16s %7.1f%%", I + 1,
               std::string(Up.nameOf(Id)).c_str(),
               std::string(Up.text(Up.frameOf(Id).Loc.Module)).c_str(),
               100.0 * Level[I].first / View.total());
  }
  bench::row("expected: brk (libc) on top, rooted in memory management");
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printFigure();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
