//===- bench/bench_evql.cpp - EVQL oracle vs bytecode VM ablation ---------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The EVQL execution ablation behind pvp/query. Two phases:
///
///  1. Node-visit sweep: a derive/keep-heavy program over a large
///     synthetic CCT, the tree-walking test oracle (tests/EvqlOracle.h)
///     versus compile-once + runCompiled, the production engine. Outputs
///     are asserted byte-identical first, then both are timed.
///  2. Warm compiled-program cache: a parse-heavy source through
///     pvp/query end to end. The first call pays lex/parse/compile; warm
///     calls hit the ProgramCache in ViewCache and skip the frontend.
///
/// Results merge into BENCH_pipeline.json under the "evql" key (override
/// with --out=PATH); --smoke shrinks the sweep for the CI smoke test and
/// reports the speedups without enforcing the full-size floors (>= 3x for
/// the sweep, >= 10x for the warm cache).
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "ide/MockIde.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "EvqlOracle.h"
#include "query/Compiler.h"
#include "query/Parser.h"
#include "query/Vm.h"
#include "support/FileIo.h"
#include "support/Rng.h"

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

using namespace ev;

namespace {

double nowMs() {
  auto Now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(Now).count();
}

/// Deterministic synthetic CCT: \p Paths random call paths over a pool of
/// 64 functions, one "time" metric. Merged size grows roughly with
/// Paths * average depth.
Profile makeSweepProfile(size_t Paths) {
  Rng R(7);
  ProfileBuilder B("evql-sweep");
  MetricId Time = B.addMetric("time", "nanoseconds");
  std::vector<FrameId> Pool;
  for (size_t I = 0; I < 64; ++I)
    Pool.push_back(B.functionFrame(
        "fn" + std::to_string(I), "file" + std::to_string(I % 9) + ".cc",
        static_cast<uint32_t>(10 + I), "mod" + std::to_string(I % 4)));
  std::vector<FrameId> Path;
  for (size_t S = 0; S < Paths; ++S) {
    Path.clear();
    unsigned Depth = static_cast<unsigned>(R.range(2, 16));
    for (unsigned D = 0; D < Depth; ++D)
      Path.push_back(Pool[R.below(Pool.size())]);
    B.addSample(Path, Time, static_cast<double>(R.range(1, 1000)));
  }
  return B.take();
}

/// One string carrying everything an engine produced, for byte-identity
/// checks across interpreter/VM and across runs.
std::string outputFingerprint(const evql::QueryOutput &O) {
  std::string S = writeEvProf(O.Result);
  for (const std::string &L : O.Printed) {
    S += "\nP:";
    S += L;
  }
  for (const std::string &D : O.DerivedMetrics) {
    S += "\nD:";
    S += D;
  }
  return S;
}

/// A source whose per-node expression work dominates: metric lookups,
/// topology intrinsics, pure math, short-circuit logic, ternaries, and a
/// topology-changing keep. The interpreter pays AST recursion + boxed
/// values per operator per node; the VM pays one dispatched instruction
/// per operator per lane, which is the differential being measured.
const char *sweepSource() {
  return "derive hot = exclusive(\"time\") * 0.25 + inclusive(\"time\") / "
         "(1 + depth())"
         " + min(share(\"time\") * 1000, nchildren() + 3)"
         " + max(abs(exclusive(\"time\") - inclusive(\"time\")), "
         "sqrt(1 + exclusive(\"time\")))"
         " + log(2 + inclusive(\"time\")) * floor(share(\"time\") * 640)"
         " + ratio(exclusive(\"time\"), 1 + inclusive(\"time\"))"
         " + ceil(share(\"time\") * 97);\n"
         "derive weight = (share(\"time\") > 0.0001 && !isleaf() ? "
         "nchildren() : 1)"
         " + (depth() % 7) * ceil(share(\"time\") * 100)"
         " + (metric(\"hot\") > 12 ? metric(\"hot\") / 3 : "
         "metric(\"hot\") * 2)"
         " + min(metric(\"hot\"), 500) + abs(metric(\"hot\") - "
         "depth() * 3);\n"
         "keep when depth() < 12 || share(\"time\") > 0.001 || "
         "nchildren() > 2 && metric(\"hot\") > 50;\n"
         "print total(\"time\");\n"
         "print nodecount();\n";
}

/// A parse-heavy, run-light source for the warm-cache phase: hundreds of
/// constant let-bindings the compiler folds away. \p Salt makes distinct
/// sources (distinct cache keys) for cold measurements.
std::string makeFrontendHeavySource(size_t Stmts, size_t Salt) {
  std::string Src;
  Src.reserve(Stmts * 72);
  for (size_t K = 0; K < Stmts; ++K) {
    std::string N = std::to_string(K + Salt * 100000);
    Src += "let v" + std::to_string(K) + " = ((" + N + " + 3) * 7 - min(" +
           N + ", 11)) % 101 + sqrt(" + N + " + 2) + max(" +
           std::to_string(K % 13) + ", 4);\n";
  }
  Src += "print v" + std::to_string(Stmts - 1) + ";\n";
  Src += "print total(\"time\");\n";
  return Src;
}

Profile makeTinyProfile() {
  ProfileBuilder B("tiny");
  MetricId Time = B.addMetric("time", "nanoseconds");
  FrameId Main = B.functionFrame("main", "app.cc", 1, "app");
  FrameId Work = B.functionFrame("work", "app.cc", 9, "app");
  std::vector<FrameId> P{Main};
  B.addSample(P, Time, 40);
  P = {Main, Work};
  B.addSample(P, Time, 60);
  return B.take();
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

  json::Object Evql;

  // Phase 1: node-visit sweep, interpreter vs compiled bytecode.
  const size_t Paths = Smoke ? 2000 : 30000;
  const int Reps = Smoke ? 2 : 3;
  Profile Sweep = makeSweepProfile(Paths);
  Evql.set("sweepNodes", static_cast<int64_t>(Sweep.nodeCount()));

  Result<evql::Program> Prog = evql::parseProgram(sweepSource());
  if (!Prog) {
    std::fprintf(stderr, "bench_evql: sweep source failed to parse: %s\n",
                 Prog.error().c_str());
    return 1;
  }
  double T0 = nowMs();
  std::shared_ptr<const evql::CompiledProgram> Compiled =
      evql::compileProgram(*Prog, AnalysisLimits());
  double CompileMs = nowMs() - T0;

  // Oracle check before timing anything: byte-identical outputs.
  Result<evql::QueryOutput> OracleOut = evql::oracle::runProgram(Sweep, *Prog);
  Result<evql::QueryOutput> VmOut = evql::runCompiled(Sweep, *Compiled);
  if (!OracleOut || !VmOut ||
      outputFingerprint(*OracleOut) != outputFingerprint(*VmOut)) {
    std::fprintf(stderr,
                 "bench_evql: VM output diverged from the oracle\n");
    return 1;
  }

  double InterpMs = 1e30, VmMs = 1e30;
  for (int R = 0; R < Reps; ++R) {
    T0 = nowMs();
    Result<evql::QueryOutput> O = evql::oracle::runProgram(Sweep, *Prog);
    double Ms = nowMs() - T0;
    if (!O)
      return 1;
    InterpMs = std::min(InterpMs, Ms);
  }
  for (int R = 0; R < Reps; ++R) {
    T0 = nowMs();
    Result<evql::QueryOutput> O = evql::runCompiled(Sweep, *Compiled);
    double Ms = nowMs() - T0;
    if (!O)
      return 1;
    VmMs = std::min(VmMs, Ms);
  }
  double SweepSpeedup = VmMs > 0 ? InterpMs / VmMs : 0;
  bench::row("evql sweep: %zu nodes, interpreter %.2f ms, vm %.2f ms "
             "(compile %.3f ms), speedup %.2fx",
             Sweep.nodeCount(), InterpMs, VmMs, CompileMs, SweepSpeedup);
  Evql.set("interpreterMs", InterpMs);
  Evql.set("vmMs", VmMs);
  Evql.set("compileMs", CompileMs);
  Evql.set("sweepSpeedup", SweepSpeedup);
  Evql.set("vmInstructions",
           static_cast<int64_t>(Compiled->instructionCount()));

  // Phase 2: warm ProgramCache through pvp/query end to end.
  const size_t Stmts = Smoke ? 300 : 1200;
  const size_t ColdReps = 5;
  const size_t WarmReps = Smoke ? 20 : 50;
  MockIde Ide;
  std::string Bytes = writeEvProf(makeTinyProfile());
  Result<int64_t> Id = Ide.openProfile("tiny", Bytes);
  if (!Id) {
    std::fprintf(stderr, "bench_evql: openProfile failed: %s\n",
                 Id.error().c_str());
    return 1;
  }

  auto Query = [&](const std::string &Src) -> double {
    json::Object P;
    P.set("profile", *Id);
    P.set("program", Src);
    double Start = nowMs();
    Result<json::Value> R = Ide.call("pvp/query", std::move(P));
    double Ms = nowMs() - Start;
    if (!R) {
      std::fprintf(stderr, "bench_evql: pvp/query failed: %s\n",
                   R.error().c_str());
      std::exit(1);
    }
    return Ms;
  };

  double ColdTotal = 0;
  std::string WarmSrc;
  for (size_t C = 0; C < ColdReps; ++C) {
    WarmSrc = makeFrontendHeavySource(Stmts, C);
    ColdTotal += Query(WarmSrc);
  }
  double WarmTotal = 0;
  for (size_t W = 0; W < WarmReps; ++W)
    WarmTotal += Query(WarmSrc);
  double ColdMs = ColdTotal / static_cast<double>(ColdReps);
  double WarmMs = WarmTotal / static_cast<double>(WarmReps);
  double WarmSpeedup = WarmMs > 0 ? ColdMs / WarmMs : 0;
  bench::row("evql cache: %zu-stmt source, cold %.3f ms, warm %.3f ms, "
             "speedup %.2fx",
             Stmts, ColdMs, WarmMs, WarmSpeedup);
  Evql.set("cacheSourceBytes", static_cast<int64_t>(WarmSrc.size()));
  Evql.set("coldMs", ColdMs);
  Evql.set("warmMs", WarmMs);
  Evql.set("warmSpeedup", WarmSpeedup);

  Result<json::Value> Stats = Ide.call("pvp/stats", json::Object());
  int64_t CacheHits = 0;
  if (Stats && Stats->isObject())
    if (const json::Value *H = Stats->asObject().find("programCacheHits"))
      CacheHits = static_cast<int64_t>(H->numberOr(0));
  Evql.set("programCacheHits", CacheHits);
  if (CacheHits < static_cast<int64_t>(WarmReps)) {
    std::fprintf(stderr,
                 "bench_evql: expected >= %zu program cache hits, got %lld\n",
                 WarmReps, static_cast<long long>(CacheHits));
    return 1;
  }

  // Acceptance floors only at full size; smoke reports without judging,
  // since the shrunken sweep spends proportionally more time in fixed
  // overheads.
  if (!Smoke) {
    if (SweepSpeedup < 3.0) {
      std::fprintf(stderr, "bench_evql: sweep speedup %.2fx below 3x\n",
                   SweepSpeedup);
      return 1;
    }
    if (WarmSpeedup < 10.0) {
      std::fprintf(stderr, "bench_evql: warm speedup %.2fx below 10x\n",
                   WarmSpeedup);
      return 1;
    }
  }

  // Merge under the "evql" key of the (possibly existing) pipeline report.
  json::Object Doc;
  if (Result<std::string> Existing = readFile(OutPath); Existing.ok())
    if (Result<json::Value> Parsed = json::parse(*Existing);
        Parsed.ok() && Parsed->isObject())
      Doc = Parsed->asObject();
  Doc.set("evql", std::move(Evql));
  std::string Text = json::Value(std::move(Doc)).dumpPretty();
  Text.push_back('\n');
  if (!writeFile(OutPath, Text).ok()) {
    std::fprintf(stderr, "bench_evql: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
