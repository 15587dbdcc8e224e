//===- bench/bench_pipeline.cpp - Fast-path pipeline benchmark ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the analysis fast path end to end — decode (pvp/open), aggregation
/// of 8 runs, differencing, and flame-view serving — one row per phase, on
/// the calling thread the way a PVP session runs them, and measures the
/// memoized view cache (cold vs. warm pvp/flame). Results go to
/// BENCH_pipeline.json (override with --out=PATH) together with the host
/// they were measured on; --smoke shrinks the workload and repetition count
/// for the CI smoke test.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "analysis/Aggregate.h"
#include "analysis/Diff.h"
#include "analysis/Transform.h"
#include "ide/PvpServer.h"
#include "proto/EvProf.h"
#include "render/FlameLayout.h"
#include "support/Trace.h"
#include "workload/LuleshWorkload.h"
#include "workload/SparkWorkload.h"
#include "workload/SyntheticProfile.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

using namespace ev;

namespace {

/// Best-of-N wall time of \p Fn, in milliseconds.
template <typename Fn> double timeMs(int Reps, Fn &&F) {
  double Best = 0.0;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    F();
    auto T1 = std::chrono::steady_clock::now();
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (R == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

/// The CPU model from /proc/cpuinfo, or "unknown" where there is none.
std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

json::Value flameRequest(int64_t ProfileId) {
  json::Object Params;
  Params.set("profile", ProfileId);
  Params.set("shape", "bottom-up");
  Params.set("maxRects", 4096);
  json::Object Req;
  Req.set("jsonrpc", "2.0");
  Req.set("id", 1);
  Req.set("method", "pvp/flame");
  Req.set("params", std::move(Params));
  return json::Value(std::move(Req));
}

} // namespace

int main(int argc, char **argv) {
#ifdef EV_BENCH_DEFAULT_OUT
  std::string OutPath = EV_BENCH_DEFAULT_OUT;
#else
  std::string OutPath = "BENCH_pipeline.json";
#endif
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(argv[I], "--out=", 6) == 0)
      OutPath = argv[I] + 6;
  }

  const int Reps = Smoke ? 1 : 5;
  const size_t AggInputs = Smoke ? 4 : 8;

  // Workloads. The paper's case studies (LULESH/HPCToolkit, Spark) are
  // small by construction, so the phase timings run on size-scaled
  // synthetic service profiles; the case-study inputs get their own rows.
  std::vector<Profile> Runs;
  for (size_t I = 0; I < AggInputs; ++I) {
    workload::SyntheticOptions Opt;
    Opt.Seed = 11 + I;
    Opt.TargetBytes = Smoke ? (64u << 10) : (2u << 20);
    Runs.push_back(workload::generateSyntheticProfile(Opt));
  }
  std::vector<Profile> Lulesh;
  for (size_t I = 0; I < AggInputs; ++I) {
    workload::LuleshOptions Opt;
    Opt.Seed = 11 + I;
    Lulesh.push_back(workload::generateLuleshProfile(Opt));
  }
  workload::SparkWorkload Spark = workload::generateSparkWorkload();
  std::string Wire = writeEvProf(Runs[0]);

  bench::JsonReporter Report("pipeline");
  Report.setMeta("smoke", Smoke);
  Report.setMeta("aggregateInputs", static_cast<int64_t>(AggInputs));
  Report.setMeta("syntheticNodes", static_cast<int64_t>(Runs[0].nodeCount()));
  Report.setMeta("luleshNodes", static_cast<int64_t>(Lulesh[0].nodeCount()));
  Report.setMeta("sparkNodes",
                 static_cast<int64_t>(Spark.Rdd.nodeCount()));
  Report.setMeta("wireBytes", static_cast<int64_t>(Wire.size()));
  Report.setMeta("hardwareThreads",
                 static_cast<int64_t>(std::thread::hardware_concurrency()));
  Report.setMeta("cpu", cpuModel());
#if defined(__clang__)
  Report.setMeta("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  Report.setMeta("compiler", "gcc " __VERSION__);
#endif
#ifdef EV_BENCH_BUILD_TYPE
  Report.setMeta("buildType", EV_BENCH_BUILD_TYPE);
#endif

  std::vector<const Profile *> AggPtrs;
  for (const Profile &P : Runs)
    AggPtrs.push_back(&P);
  AggregateOptions AggOpt;
  AggOpt.WithMin = AggOpt.WithMax = AggOpt.WithMean = AggOpt.WithStddev =
      true;

  // Every timed phase also reports how far it pushed the process's peak
  // RSS (monotonic high-water, so later phases that fit under an earlier
  // mark report zero).
  auto RssRow = [&](std::string_view Phase, double Ms, uint64_t RssBefore) {
    json::Object Extra;
    Extra.set("peakRssDeltaBytes",
              static_cast<int64_t>(bench::peakRssBytes() - RssBefore));
    Report.addRow(Phase, 1, Ms, std::move(Extra));
  };

  uint64_t Rss = bench::peakRssBytes();
  double OpenMs = timeMs(Reps, [&] {
    Result<Profile> P = readEvProf(Wire);
    if (!P)
      std::abort();
  });
  RssRow("open", OpenMs, Rss);
  bench::row("open ms=%.3f", OpenMs);

  Rss = bench::peakRssBytes();
  double AggregateMs = timeMs(Reps, [&] {
    AggregatedProfile Agg =
        aggregate(std::span<const Profile *const>(AggPtrs), AggOpt);
    (void)Agg;
  });
  RssRow("aggregate", AggregateMs, Rss);
  bench::row("aggregate ms=%.3f", AggregateMs);

  Rss = bench::peakRssBytes();
  double DiffMs = timeMs(Reps, [&] {
    DiffResult D = diffProfiles(Runs[0], Runs[1], 0);
    (void)D;
  });
  RssRow("diff", DiffMs, Rss);
  bench::row("diff ms=%.3f", DiffMs);

  // Case-study rows: the paper's workloads.
  std::vector<const Profile *> LuleshPtrs;
  for (const Profile &P : Lulesh)
    LuleshPtrs.push_back(&P);
  double LuleshAggMs = timeMs(Reps, [&] {
    AggregatedProfile Agg =
        aggregate(std::span<const Profile *const>(LuleshPtrs), AggOpt);
    (void)Agg;
  });
  Report.addRow("aggregate-lulesh", 1, LuleshAggMs);
  double SparkDiffMs = timeMs(Reps, [&] {
    DiffResult D = diffProfiles(Spark.Rdd, Spark.Sql, 0);
    (void)D;
  });
  Report.addRow("diff-spark", 1, SparkDiffMs);

  Rss = bench::peakRssBytes();
  double FlameMs = timeMs(Reps, [&] {
    FlameGraph Flame(CallersTree(Runs[0], 0));
    (void)Flame;
  });
  RssRow("flame-shape", FlameMs, Rss);
  bench::row("flame-shape ms=%.3f", FlameMs);

  // Memoized view cache: first pvp/flame computes (miss), the repeat is
  // served from the LRU. The cold/warm ratio is the cache speedup.
  PvpServer Server;
  int64_t Id = Server.addProfile(Runs[0]);
  json::Value Req = flameRequest(Id);
  uint64_t FlameRss = bench::peakRssBytes();
  double ColdMs = timeMs(1, [&] { Server.handleMessage(Req); });
  RssRow("pvp-flame-cold", ColdMs, FlameRss);
  FlameRss = bench::peakRssBytes();
  double WarmMs = timeMs(Smoke ? 3 : 20, [&] { Server.handleMessage(Req); });
  double CacheSpeedup = WarmMs > 0.0 ? ColdMs / WarmMs : 0.0;
  RssRow("pvp-flame-warm", WarmMs, FlameRss);
  Report.setSummary("flameCacheSpeedup", CacheSpeedup);
  bench::row("pvp/flame cold ms=%.3f warm ms=%.3f speedup=%.1fx", ColdMs,
             WarmMs, CacheSpeedup);

  // Instrumentation-overhead ablation: the same pipeline
  // (decode + aggregate + diff + bottom-up flame) with span retention on vs
  // off. The delta is what self-profiling costs every request; the
  // acceptance bar is <= 5%.
  auto Pipeline = [&] {
    Result<Profile> P = readEvProf(Wire);
    if (!P)
      std::abort();
    AggregatedProfile Agg =
        aggregate(std::span<const Profile *const>(AggPtrs), AggOpt);
    (void)Agg;
    DiffResult D = diffProfiles(Runs[0], Runs[1], 0);
    (void)D;
    FlameGraph Flame(CallersTree(Runs[0], 0));
    (void)Flame;
  };
  const int AblateReps = Smoke ? 2 : 7;
  trace::setEnabled(true);
  uint64_t AblateRss = bench::peakRssBytes();
  double TracedMs = timeMs(AblateReps, Pipeline);
  RssRow("pipeline-traced", TracedMs, AblateRss);
  trace::setEnabled(false);
  AblateRss = bench::peakRssBytes();
  double UntracedMs = timeMs(AblateReps, Pipeline);
  trace::setEnabled(true);
  trace::clear();
  double OverheadPct =
      UntracedMs > 0.0 ? (TracedMs / UntracedMs - 1.0) * 100.0 : 0.0;
  RssRow("pipeline-untraced", UntracedMs, AblateRss);
  Report.setSummary("instrumentationOverheadPct", OverheadPct);
  bench::row("pipeline traced ms=%.3f untraced ms=%.3f overhead=%.2f%%",
             TracedMs, UntracedMs, OverheadPct);

  Report.setMeta("peakRssBytes", static_cast<int64_t>(bench::peakRssBytes()));

  if (!Report.write(OutPath)) {
    std::fprintf(stderr, "failed to write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
