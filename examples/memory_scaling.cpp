//===- examples/memory_scaling.cpp - Division-based differential metrics --===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's §V-B customization story: "use division instead
/// of subtraction to derive differential metrics, which is used to measure
/// memory scaling" (the ScaAnalyzer analysis). Two memory profiles of an
/// MPI-like solver — 8 and 64 processes — are merged with the diff
/// operation, then an EVQL program derives a per-context scaling ratio
/// and prunes away everything that scales well, leaving exactly the
/// O(P) communication buffers.
///
//===----------------------------------------------------------------------===//

#include "analysis/Diff.h"
#include "query/Vm.h"
#include "support/Strings.h"
#include "workload/ScalingWorkload.h"

#include <cstdio>

using namespace ev;

int main() {
  workload::ScalingOptions Opt;
  workload::ScalingWorkload W = workload::generateScalingWorkload(Opt);
  double ProcRatio =
      static_cast<double>(Opt.LargeProcs) / Opt.SmallProcs;
  std::printf("profiles: %s vs %s (process ratio %.0fx)\n\n",
              W.Small.name().c_str(), W.Large.name().c_str(), ProcRatio);

  // Merge the two runs; the diff carries "base mem-bytes" and
  // "test mem-bytes" columns per context.
  DiffResult D = diffProfiles(W.Small, W.Large, 0);

  // The paper's customization: a DIVISION-based differential metric.
  const char *Program = R"(
      derive scaling = ratio(inclusive("test mem-bytes"),
                             inclusive("base mem-bytes"));
      # Keep contexts whose per-process memory grew by more than 2x.
      prune when metric("scaling") != 0 && metric("scaling") < 2;
      print "scaling ratios derived; poor scalers kept";
  )";
  Result<evql::QueryOutput> Out = evql::runProgram(D.Merged, Program);
  if (!Out) {
    std::fprintf(stderr, "query error: %s\n", Out.error().c_str());
    return 1;
  }
  for (const std::string &Line : Out->Printed)
    std::printf("evql: %s\n", Line.c_str());

  const Profile &Result = Out->Result;
  MetricId Scaling = Result.findMetric("scaling");
  std::printf("\n%-24s %-12s %-12s %-8s\n", "context", "mem @8p",
              "mem @64p", "ratio");
  size_t Flagged = 0, TrueHits = 0;
  for (NodeId Id = 1; Id < Result.nodeCount(); ++Id) {
    double Ratio = Result.node(Id).metricOr(Scaling);
    if (Ratio < 2.0)
      continue;
    double Base = Result.node(Id).metricOr(D.BaseMetric);
    double Test = Result.node(Id).metricOr(D.TestMetric);
    if (Base == 0.0)
      continue;
    ++Flagged;
    std::printf("%-24s %-12s %-12s %6.1fx\n",
                std::string(Result.nameOf(Id)).c_str(),
                formatBytes(Base).c_str(), formatBytes(Test).c_str(),
                Ratio);
    for (const std::string &Name : W.NonScalable)
      if (Result.nameOf(Id) == Name)
        ++TrueHits;
  }
  std::printf("\nflagged %zu contexts; %zu/%zu known non-scalable "
              "contexts found\n",
              Flagged, TrueHits, W.NonScalable.size());
  std::printf("expected ratio for O(P) contexts: ~%.0fx\n", ProcRatio);
  return TrueHits == W.NonScalable.size() ? 0 : 1;
}
