//===- bench/bench_subscribe.cpp - Delta vs full-view payload sizes -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the compactness claim behind pvp/subscribe: for a live
/// subscription fed by single-section pvp/append calls, the pushed
/// pvp/viewDelta payload against the full view a re-querying client would
/// fetch at the same generation. Runs the real server through the wire
/// framing (MockIde), verifies every applied delta writes the bytes of the
/// re-query before counting it, and reports per-view medians for
/// the decoded delta bytes, the base64 wire bytes, and the append-to-push
/// round trip.
///
/// Results merge under the "subscribe" key of BENCH_load.json (override
/// with --out=PATH); --smoke shrinks the run for the CI smoke test.
///
/// Exit code 1 means a broken run: a delta failed to apply, diverged from
/// the re-query, or no pushes were observed.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "ide/MockIde.h"
#include "ide/ViewDelta.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "support/Strings.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ev;

namespace {

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Canonical .evprof bytes of a profile growing across \p Stages
/// generations with the prefix property (stage k+1's bytes extend stage
/// k's byte-for-byte), so consecutive stages differ by exactly the
/// appendable section a live profiler would emit. \p BaseLeaves widens
/// stage 0 under a subtree the growth scheme never touches, scaling the
/// view's row count (and thus the full-view payload) without perturbing
/// the per-stage change. Mirrors the construction the subscribe test
/// suite pins.
std::vector<std::string> growthStages(size_t Stages, size_t BaseLeaves) {
  std::vector<std::string> Out;
  for (size_t S = 0; S < Stages; ++S) {
    ProfileBuilder B("live");
    MetricId Time = B.addMetric("time", "nanoseconds");
    std::vector<FrameId> Pool;
    for (size_t I = 0; I < 40; ++I)
      Pool.push_back(B.functionFrame(
          "fn" + std::to_string(I), "file" + std::to_string(I % 3) + ".cc",
          static_cast<uint32_t>(10 + I), "mod"));

    std::vector<FrameId> P;
    P = {Pool[0]};
    B.addSample(P, Time, 5);
    P = {Pool[0], Pool[11]};
    B.addSample(P, Time, 40);
    for (size_t K = 0; K < BaseLeaves; ++K) {
      P = {Pool[0], Pool[11], Pool[12 + K % 28], Pool[12 + (K / 28) % 28],
           Pool[12 + (K / 784) % 28]};
      B.addSample(P, Time, static_cast<double>(K % 97 + 1));
    }
    for (size_t G = 1; G <= S; ++G)
      for (size_t J = 0; J < 3; ++J) {
        P = {Pool[0], Pool[1 + (G - 1) % 10], Pool[1 + J]};
        B.addSample(P, Time, static_cast<double>(G * 100 + J * 7 + 1));
      }
    Out.push_back(writeEvProf(B.take()));
  }
  return Out;
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>((P / 100.0) * static_cast<double>(V.size()));
  if (Rank >= V.size())
    Rank = V.size() - 1;
  return V[Rank];
}

/// One measured push: the decoded delta, its base64 wire form, the full
/// re-query payload at the same generation, and the append round trip.
struct Sample {
  double DeltaBytes = 0;
  double WireBytes = 0;
  double FullBytes = 0;
  double AppendToPushUs = 0;
};

/// Streams one growth sequence through a live subscription on \p View,
/// appending one section per generation and measuring each push against a
/// full re-query. \returns false on a broken run (apply failure or
/// divergence — compactness numbers from a wrong codec are meaningless).
bool runView(const char *View, const char *Method, size_t Stages,
             size_t BaseLeaves, std::vector<Sample> &Out) {
  std::vector<std::string> Bytes = growthStages(Stages, BaseLeaves);
  MockIde Ide;
  Result<int64_t> Prof = Ide.openProfile("bench.live", Bytes[0]);
  if (!Prof) {
    std::fprintf(stderr, "bench_subscribe: open failed: %s\n",
                 Prof.error().c_str());
    return false;
  }

  json::Object ViewParams; // The subscription's params, reused on re-query.
  if (std::strcmp(View, "flame") == 0)
    ViewParams.set("maxRects", static_cast<int64_t>(100000));
  else
    ViewParams.set("includeText", false);

  json::Object SubParams;
  SubParams.set("profile", *Prof);
  SubParams.set("view", View);
  SubParams.set("params", json::Value(json::Object(ViewParams)));
  Result<json::Value> Sub = Ide.call("pvp/subscribe", std::move(SubParams));
  if (!Sub) {
    std::fprintf(stderr, "bench_subscribe: subscribe failed: %s\n",
                 Sub.error().c_str());
    return false;
  }
  int64_t SubId = Sub->asObject().find("subscription")->asInt();
  Result<ViewTable> Held = ViewTable::read(*Sub->asObject().find("view"));
  if (!Held) {
    std::fprintf(stderr, "bench_subscribe: bad view: %s\n",
                 Held.error().c_str());
    return false;
  }

  for (size_t S = 0; S + 1 < Bytes.size(); ++S) {
    json::Object AP;
    AP.set("profile", *Prof);
    AP.set("dataBase64",
           base64Encode(Bytes[S + 1].substr(Bytes[S].size())));
    uint64_t T0 = nowUs();
    Result<json::Value> Appended = Ide.call("pvp/append", std::move(AP));
    std::vector<json::Value> Notes = Ide.takeNotifications();
    uint64_t T1 = nowUs();
    if (!Appended) {
      std::fprintf(stderr, "bench_subscribe: append failed: %s\n",
                   Appended.error().c_str());
      return false;
    }

    const json::Value *Delta = nullptr;
    for (const json::Value &N : Notes)
      if (N.isObject())
        if (const json::Value *M = N.asObject().find("method");
            M && M->isString() && M->asString() == "pvp/viewDelta")
          Delta = N.asObject().find("params");
    if (!Delta) {
      std::fprintf(stderr, "bench_subscribe: append produced no push\n");
      return false;
    }
    std::string Wire(Delta->asObject().find("deltaBase64")->stringOr(""));
    std::string Raw;
    if (!base64Decode(Wire, Raw)) {
      std::fprintf(stderr, "bench_subscribe: bad delta base64\n");
      return false;
    }
    Result<ViewTable> Applied = applyViewDelta(*Held, Raw);
    if (!Applied) {
      std::fprintf(stderr, "bench_subscribe: apply failed: %s\n",
                   Applied.error().c_str());
      return false;
    }

    json::Object Requery(ViewParams);
    Requery.set("profile", *Prof);
    Result<json::Value> Full = Ide.call(Method, std::move(Requery));
    if (!Full) {
      std::fprintf(stderr, "bench_subscribe: re-query failed: %s\n",
                   Full.error().c_str());
      return false;
    }
    std::string FullDump = Full->dump();
    if (Applied->write() != FullDump) {
      std::fprintf(stderr,
                   "bench_subscribe: applied delta diverged from re-query "
                   "(%s, stage %zu)\n",
                   View, S + 1);
      return false;
    }

    json::Object AckP;
    AckP.set("subscription", SubId);
    AckP.set("generation", *Delta->asObject().find("toGeneration"));
    Ide.call("pvp/ack", std::move(AckP));
    Held = std::move(Applied);

    Sample Row;
    Row.DeltaBytes = static_cast<double>(Raw.size());
    Row.WireBytes = static_cast<double>(Wire.size());
    Row.FullBytes = static_cast<double>(FullDump.size());
    Row.AppendToPushUs = static_cast<double>(T1 - T0);
    Out.push_back(Row);
  }
  return true;
}

json::Value summarize(const char *View, std::vector<Sample> &Samples,
                      double &MedianRatioOut) {
  std::vector<double> Delta, Wire, Full, Ratio, WireRatio, Us;
  for (const Sample &S : Samples) {
    Delta.push_back(S.DeltaBytes);
    Wire.push_back(S.WireBytes);
    Full.push_back(S.FullBytes);
    Ratio.push_back(S.FullBytes > 0 ? S.DeltaBytes / S.FullBytes : 0);
    WireRatio.push_back(S.FullBytes > 0 ? S.WireBytes / S.FullBytes : 0);
    Us.push_back(S.AppendToPushUs);
  }
  MedianRatioOut = percentile(Ratio, 50);
  json::Object O;
  O.set("samples", static_cast<int64_t>(Samples.size()));
  O.set("medianDeltaBytes", percentile(Delta, 50));
  O.set("medianWireBytes", percentile(Wire, 50));
  O.set("medianFullViewBytes", percentile(Full, 50));
  O.set("medianDeltaToFullRatio", percentile(Ratio, 50));
  O.set("p90DeltaToFullRatio", percentile(Ratio, 90));
  O.set("medianWireToFullRatio", percentile(WireRatio, 50));
  O.set("medianAppendToPushUs", percentile(Us, 50));
  O.set("p99AppendToPushUs", percentile(Us, 99));
  bench::row("%-10s n=%-4zu delta p50=%7.0fB wire p50=%7.0fB full "
             "p50=%8.0fB ratio p50=%.3f p90=%.3f push p50=%6.0fus",
             View, Samples.size(), percentile(Delta, 50), percentile(Wire, 50),
             percentile(Full, 50), percentile(Ratio, 50), percentile(Ratio, 90),
             percentile(Us, 50));
  return json::Value(std::move(O));
}

} // namespace

int main(int argc, char **argv) {
#ifdef EV_BENCH_DEFAULT_OUT
  std::string OutPath = EV_BENCH_DEFAULT_OUT;
#else
  std::string OutPath = "BENCH_load.json";
#endif
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(argv[I], "--out=", 6) == 0)
      OutPath = argv[I] + 6;
    else {
      std::fprintf(stderr, "usage: bench_subscribe [--smoke] [--out=PATH]\n");
      return 2;
    }
  }

  // Each run streams a full growth sequence (10 single-section appends)
  // at one base view size; three sizes cover small panes to wide tables.
  std::vector<size_t> BaseSizes =
      Smoke ? std::vector<size_t>{100} : std::vector<size_t>{200, 1000, 3000};
  size_t Stages = Smoke ? 5 : 11;

  struct ViewSpec {
    const char *View;
    const char *Method;
  };
  const ViewSpec Views[] = {{"flame", "pvp/flame"},
                            {"treeTable", "pvp/treeTable"}};

  json::Object ViewsOut;
  std::vector<double> MedianRatios;
  for (const ViewSpec &V : Views) {
    std::vector<Sample> Samples;
    for (size_t Base : BaseSizes)
      if (!runView(V.View, V.Method, Stages, Base, Samples))
        return 1;
    if (Samples.empty()) {
      std::fprintf(stderr, "bench_subscribe: no pushes observed\n");
      return 1;
    }
    double MedianRatio = 0;
    ViewsOut.set(V.View, summarize(V.View, Samples, MedianRatio));
    MedianRatios.push_back(MedianRatio);
  }

  telemetry::Registry &Reg = telemetry::Registry::global();
  json::Object Counters;
  for (const char *Name :
       {"sub.pushes", "sub.deltaBytes", "sub.fullViewBytes", "sub.acks"})
    Counters.set(Name, static_cast<int64_t>(Reg.counter(Name).value()));

  double WorstMedian =
      *std::max_element(MedianRatios.begin(), MedianRatios.end());
  json::Object Subscribe;
  Subscribe.set("smoke", Smoke);
  Subscribe.set("stagesPerRun", static_cast<int64_t>(Stages));
  Subscribe.set("appendsPerRun", static_cast<int64_t>(Stages - 1));
  Subscribe.set("views", std::move(ViewsOut));
  Subscribe.set("counters", std::move(Counters));
  Subscribe.set("worstViewMedianDeltaToFullRatio", WorstMedian);
  bench::row("worst per-view median delta/full ratio: %.3f (target <= 0.20)",
             WorstMedian);
  if (WorstMedian > 0.20)
    std::fprintf(stderr, "bench_subscribe: WARNING — median delta payload "
                         "exceeds 20%% of the full view\n");

  // Merge under the "subscribe" key of the (possibly existing) load
  // report, so one JSON document carries the whole transport story.
  json::Object Doc;
  if (Result<std::string> Existing = readFile(OutPath); Existing.ok())
    if (Result<json::Value> Parsed = json::parse(*Existing);
        Parsed.ok() && Parsed->isObject())
      Doc = Parsed->asObject();
  Doc.set("subscribe", std::move(Subscribe));
  std::string Text = json::Value(std::move(Doc)).dumpPretty();
  Text.push_back('\n');
  if (!writeFile(OutPath, Text).ok()) {
    std::fprintf(stderr, "bench_subscribe: cannot write %s\n",
                 OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
