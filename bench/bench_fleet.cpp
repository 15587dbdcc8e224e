//===- bench/bench_fleet.cpp - Streaming vs batch fleet aggregation -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the fleet-scale aggregation path behind `evtool regress`:
/// streaming N profiles through a CohortAccumulator (O(merged CCT) memory)
/// versus the batch aggregate (which must hold every decoded input plus a
/// dense per-profile matrix), then times the EVL3xx analyzer over two
/// cohorts. Peak RSS is sampled with getrusage after each phase — the
/// streaming phase runs FIRST because ru_maxrss is monotonic, so its
/// sample is not contaminated by the batch blow-up.
///
/// Results merge into BENCH_pipeline.json under the "fleet" key (override
/// with --out=PATH); --smoke shrinks the fleet for the CI smoke test.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "analysis/Aggregate.h"
#include "analysis/FleetAggregate.h"
#include "analysis/Regression.h"
#include "profile/ProfileBuilder.h"
#include "profile/ProfileStore.h"
#include "support/FileIo.h"
#include "support/Rng.h"
#include "workload/FleetWorkload.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace ev;

namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size so far, in kilobytes (Linux ru_maxrss unit).
int64_t peakRssKb() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return static_cast<int64_t>(Usage.ru_maxrss);
}

/// One synthetic fleet member: random call paths over a shared function
/// pool, so the merged CCT is much smaller than the sum of the inputs.
Profile makeMember(uint64_t Seed) {
  Rng R(Seed);
  ProfileBuilder B("member-" + std::to_string(Seed));
  MetricId Time = B.addMetric("cpu-time", "nanoseconds");
  MetricId Bytes = B.addMetric("alloc-bytes", "bytes");
  std::vector<FrameId> Pool;
  for (size_t I = 0; I < 48; ++I)
    Pool.push_back(B.functionFrame(
        "fn" + std::to_string(I), "file" + std::to_string(I % 9) + ".cc",
        static_cast<uint32_t>(10 + I), "svc" + std::to_string(I % 4)));
  std::vector<FrameId> Path;
  for (size_t S = 0; S < 120; ++S) {
    Path.clear();
    unsigned Depth = static_cast<unsigned>(R.range(2, 14));
    for (unsigned D = 0; D < Depth; ++D)
      Path.push_back(Pool[R.below(Pool.size())]);
    NodeId Leaf = B.pushPath(Path);
    B.addValue(Leaf, Time, static_cast<double>(R.range(1, 100000)));
    if (R.chance(0.3))
      B.addValue(Leaf, Bytes, static_cast<double>(R.range(1, 1 << 22)));
  }
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

  const size_t FleetN = Smoke ? 200 : 1000;
  // The batch path is capped: at full fleet size its dense matrix would
  // dominate the host, which is the point being measured, not a useful
  // thing to actually do.
  const size_t BatchN = Smoke ? 32 : 128;

  json::Object Fleet;
  Fleet.set("profiles", static_cast<int64_t>(FleetN));
  Fleet.set("batchProfiles", static_cast<int64_t>(BatchN));

  // Phase 1 (first on purpose, see file comment): stream the whole fleet.
  double T0 = nowMs();
  FleetAggregateOptions Opts;
  Opts.NodeBudget = 1u << 14;
  CohortAccumulator Acc(Opts);
  for (size_t I = 0; I < FleetN; ++I)
    Acc.add(makeMember(1000 + I));
  double StreamMs = nowMs() - T0;
  int64_t StreamRssKb = peakRssKb();
  bench::row("fleet streaming: %zu profiles in %.1f ms, accumulator %.2f MB, "
             "peak RSS %lld KB",
             FleetN, StreamMs,
             static_cast<double>(Acc.approxMemoryBytes()) / (1024.0 * 1024.0),
             static_cast<long long>(StreamRssKb));
  Fleet.set("streamingMs", StreamMs);
  Fleet.set("streamingAccumulatorBytes",
            static_cast<int64_t>(Acc.approxMemoryBytes()));
  Fleet.set("streamingPeakRssKb", StreamRssKb);
  Fleet.set("prunes", static_cast<int64_t>(Acc.pruneCount()));

  // Phase 2: the batch path over BatchN inputs — hold every decoded
  // profile, then run the dense aggregate.
  T0 = nowMs();
  std::vector<Profile> Held;
  std::vector<const Profile *> Inputs;
  size_t HeldBytes = 0;
  for (size_t I = 0; I < BatchN; ++I) {
    Held.push_back(makeMember(1000 + I));
    HeldBytes += Held.back().approxMemoryBytes();
  }
  for (const Profile &P : Held)
    Inputs.push_back(&P);
  AggregateOptions BatchOpts;
  BatchOpts.WithMean = BatchOpts.WithStddev = true;
  AggregatedProfile Batch = aggregate(Inputs, BatchOpts);
  double BatchMs = nowMs() - T0;
  int64_t BatchRssKb = peakRssKb();
  // Held inputs alone already dwarf the accumulator; projected to the full
  // fleet they are the O(N) blow-up streaming exists to avoid.
  int64_t ProjectedBytes =
      static_cast<int64_t>(HeldBytes / BatchN * FleetN);
  bench::row("fleet batch: %zu profiles in %.1f ms, held inputs %.2f MB "
             "(projected %.2f MB at %zu), peak RSS %lld KB",
             BatchN, BatchMs,
             static_cast<double>(HeldBytes) / (1024.0 * 1024.0),
             static_cast<double>(ProjectedBytes) / (1024.0 * 1024.0), FleetN,
             static_cast<long long>(BatchRssKb));
  Fleet.set("batchMs", BatchMs);
  Fleet.set("batchHeldBytes", static_cast<int64_t>(HeldBytes));
  Fleet.set("batchProjectedBytes", ProjectedBytes);
  Fleet.set("batchPeakRssKb", BatchRssKb);
  Fleet.set("batchMergedNodes", static_cast<int64_t>(Batch.merged().nodeCount()));
  Held.clear();

  // Phase 3: the EVL3xx analyzer over the planted fleet workload.
  workload::FleetOptions WOpts;
  WOpts.Replicas = Smoke ? 8 : 32;
  workload::FleetWorkload W = workload::generateFleetWorkload(WOpts);
  size_t M = W.Versions.size();
  CohortAccumulator Base, Test;
  for (const Profile &P : W.Versions[M - 2])
    Base.add(P);
  for (const Profile &P : W.Versions[M - 1])
    Test.add(P);
  T0 = nowMs();
  DiagnosticSet Diags(1000);
  RegressionAnalyzer().analyze(Base, Test, Diags);
  double AnalyzeMs = nowMs() - T0;
  bench::row("fleet analyze: %zu vs %zu replicas -> %zu findings in %.2f ms",
             static_cast<size_t>(Base.profileCount()),
             static_cast<size_t>(Test.profileCount()), Diags.size(),
             AnalyzeMs);
  Fleet.set("analyzeMs", AnalyzeMs);
  Fleet.set("findings", static_cast<int64_t>(Diags.size()));

  // Phase 4: the full fleet through a BUDGETED ProfileStore — every member
  // is retained (its block spilled once cold) yet the store's
  // resident bytes never exceed the budget while the cohort streams
  // through the accumulator. This is the out-of-core acceptance check, so
  // a budget violation or a statistics mismatch fails the smoke run.
  {
    ProfileStore Store;
    uint64_t MemberResident;
    {
      // Probe one member's resident footprint to size a budget that holds
      // only a small fraction of the fleet.
      ProfileStore Probe;
      Probe.add(makeMember(1000));
      MemberResident = Probe.stats().ResidentBytes;
    }
    const uint64_t StoreBudget = MemberResident * 20;
    std::string SpillDir =
        "/tmp/evbench_fleet_spill_" + std::to_string(getpid());
    if (!Store.setBudget(StoreBudget, SpillDir).ok()) {
      std::fprintf(stderr, "bench_fleet: cannot budget store at %s\n",
                   SpillDir.c_str());
      return 1;
    }
    T0 = nowMs();
    CohortAccumulator StoreAcc(Opts);
    uint64_t MaxResident = 0;
    std::vector<int64_t> EarlyIds;
    for (size_t I = 0; I < FleetN; ++I) {
      int64_t Id = Store.add(makeMember(1000 + I));
      if (EarlyIds.size() < 8)
        EarlyIds.push_back(Id);
      std::shared_ptr<const Profile> P = Store.get(Id);
      if (!P) {
        std::fprintf(stderr, "bench_fleet: store fault failed for %lld\n",
                     static_cast<long long>(Id));
        return 1;
      }
      StoreAcc.add(*P);
      MaxResident = std::max(MaxResident, Store.stats().ResidentBytes);
    }
    // Revisit the earliest (long-evicted) members: each faults back from
    // its spill file by mmap, still without breaching the budget.
    for (int64_t Id : EarlyIds) {
      if (!Store.get(Id)) {
        std::fprintf(stderr, "bench_fleet: refault failed for %lld\n",
                     static_cast<long long>(Id));
        return 1;
      }
      MaxResident = std::max(MaxResident, Store.stats().ResidentBytes);
    }
    double StoreMs = nowMs() - T0;
    StoreStats S = Store.stats();
    bench::row("fleet store: %zu profiles in %.1f ms, budget %.2f MB, peak "
               "resident %.2f MB, %llu spills, %llu faults",
               FleetN, StoreMs,
               static_cast<double>(StoreBudget) / (1024.0 * 1024.0),
               static_cast<double>(MaxResident) / (1024.0 * 1024.0),
               static_cast<unsigned long long>(S.Spills),
               static_cast<unsigned long long>(S.Faults));
    Fleet.set("storeMs", StoreMs);
    Fleet.set("storeBudgetBytes", static_cast<int64_t>(StoreBudget));
    Fleet.set("storePeakResidentBytes", static_cast<int64_t>(MaxResident));
    Fleet.set("storeSpills", static_cast<int64_t>(S.Spills));
    Fleet.set("storeSpilledBytes", static_cast<int64_t>(S.SpilledBytes));
    Fleet.set("storeEvictions", static_cast<int64_t>(S.Evictions));
    Fleet.set("storeFaults", static_cast<int64_t>(S.Faults));
    if (MaxResident > StoreBudget) {
      std::fprintf(stderr,
                   "bench_fleet: store resident %llu exceeded budget %llu\n",
                   static_cast<unsigned long long>(MaxResident),
                   static_cast<unsigned long long>(StoreBudget));
      return 1;
    }
    if (S.Spills == 0) {
      std::fprintf(stderr,
                   "bench_fleet: fleet fit the budget without spilling — "
                   "budget too generous for the acceptance check\n");
      return 1;
    }
    // Streaming through the budgeted store must produce the same cohort
    // statistics as streaming the decoded profiles (Phase 1).
    if (StoreAcc.profileCount() != Acc.profileCount() ||
        StoreAcc.inclusiveSumColumn(0)[0] != Acc.inclusiveSumColumn(0)[0]) {
      std::fprintf(stderr, "bench_fleet: store-streamed cohort diverged\n");
      return 1;
    }
  }

  // Merge under the "fleet" key of the (possibly existing) pipeline
  // report, so one JSON document carries the whole fast-path story.
  json::Object Doc;
  if (Result<std::string> Existing = readFile(OutPath); Existing.ok())
    if (Result<json::Value> Parsed = json::parse(*Existing);
        Parsed.ok() && Parsed->isObject())
      Doc = Parsed->asObject();
  Doc.set("fleet", std::move(Fleet));
  std::string Text = json::Value(std::move(Doc)).dumpPretty();
  Text.push_back('\n');
  if (!writeFile(OutPath, Text).ok()) {
    std::fprintf(stderr, "bench_fleet: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
