//===- workload/SyntheticProfile.cpp - Size-scaled synthetic profiles -----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "workload/SyntheticProfile.h"

#include "convert/Converters.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>

namespace ev {
namespace workload {

namespace {

const char *const Packages[] = {
    "net/http", "google.golang.org/grpc", "runtime", "encoding/json",
    "github.com/acme/orders/internal/service",
    "github.com/acme/orders/internal/store", "database/sql",
    "github.com/acme/billing/pkg/ledger", "bufio", "crypto/tls",
    "compress/gzip", "github.com/acme/gateway/middleware"};

const char *const Verbs[] = {"Serve",  "Handle", "Process", "Encode",
                             "Decode", "Fetch",  "Write",   "Read",
                             "Merge",  "Flush",  "Dial",    "Query"};

const char *const Nouns[] = {"Request",  "Response", "Batch",  "Stream",
                             "Header",   "Payload",  "Row",    "Txn",
                             "Snapshot", "Shard",    "Bucket", "Frame"};

} // namespace

pprof::PprofProfile generatePprofModel(const SyntheticOptions &Options) {
  Rng R(Options.Seed);
  pprof::PprofProfile P;
  P.StringTable.emplace_back("");

  // Fast interning: the generic PprofProfile::intern is linear, so keep an
  // index here where the volume is.
  auto Intern = [&P](const std::string &S) {
    P.StringTable.push_back(S);
    return static_cast<int64_t>(P.StringTable.size() - 1);
  };

  P.SampleTypes.push_back({Intern("cpu"), Intern("nanoseconds")});
  P.PeriodType = {P.SampleTypes[0].Type, P.SampleTypes[0].Unit};
  P.Period = 10'000'000; // 100 Hz sampling.

  // Mappings: a main binary plus a handful of shared objects.
  const char *const Modules[] = {"/srv/bin/orders", "/usr/lib/libc.so.6",
                                 "/usr/lib/libssl.so.3",
                                 "/srv/bin/plugins/auth.so"};
  for (uint64_t I = 0; I < 4; ++I) {
    pprof::Mapping M;
    M.Id = I + 1;
    M.MemoryStart = 0x400000 + I * 0x10000000;
    M.MemoryLimit = M.MemoryStart + 0x800000;
    M.Filename = Intern(Modules[I]);
    P.Mappings.push_back(M);
  }

  // Function pool with Go-style qualified names.
  size_t FunctionCount =
      std::max<size_t>(64, Options.TargetBytes / Options.BytesPerFunction);
  FunctionCount = std::min<size_t>(FunctionCount, 200'000);
  for (size_t I = 0; I < FunctionCount; ++I) {
    const char *Pkg = Packages[R.below(std::size(Packages))];
    std::string Name = std::string(Pkg) + ".(*" +
                       Nouns[R.below(std::size(Nouns))] + "Manager)." +
                       Verbs[R.below(std::size(Verbs))] +
                       Nouns[R.below(std::size(Nouns))] +
                       std::to_string(I % 97);
    std::string File = std::string(Pkg) + "/" +
                       Verbs[R.below(std::size(Verbs))] + "_" +
                       std::to_string(I % 53) + ".go";
    pprof::Function F;
    F.Id = I + 1;
    F.Name = Intern(Name);
    F.Filename = Intern(File);
    F.StartLine = static_cast<int64_t>(R.range(5, 900));
    P.Functions.push_back(F);
  }

  // One location per function (typical for Go CPU profiles after symbol
  // merging), occasionally with an extra inlined line.
  for (size_t I = 0; I < FunctionCount; ++I) {
    pprof::Location L;
    L.Id = I + 1;
    L.MappingId = 1 + R.below(4);
    L.Address = 0x400000 + I * 64 + R.below(32);
    L.Lines.push_back(
        {I + 1, static_cast<int64_t>(R.range(10, 950))});
    if (R.chance(0.08)) // Inline expansion.
      L.Lines.push_back(
          {1 + R.below(FunctionCount), static_cast<int64_t>(R.range(1, 400))});
    P.Locations.push_back(std::move(L));
  }

  // Dispatch roots shared by most stacks (prefix sharing). Root-most last
  // in pprof's leaf-first ordering.
  std::vector<uint64_t> RootChain;
  for (unsigned I = 0; I < 6; ++I)
    RootChain.push_back(1 + R.below(FunctionCount));

  // Production services execute a bounded set of code paths: samples pick
  // from a pool of stack templates (with occasional leaf mutations), so
  // the calling context tree stays bounded while the file size scales
  // with the sample count — the structure the paper's production PProf
  // profiles exhibit.
  size_t TemplateCount = std::clamp<size_t>(Options.TargetBytes / 8192,
                                            256, 32768);

  // Running size estimate: per-sample cost ~ (stack depth * varint) +
  // overhead; table cost estimated once.
  size_t EstimatedBytes = 0;
  for (const std::string &S : P.StringTable)
    EstimatedBytes += S.size() + 3;
  EstimatedBytes += P.Locations.size() * 14 + P.Functions.size() * 10;

  // Zipf-ish popularity: stacks reuse a hot subset of functions.
  auto PickFunction = [&]() -> uint64_t {
    // 80% of picks from the hottest 20%.
    if (R.chance(0.8))
      return 1 + R.below(std::max<uint64_t>(1, FunctionCount / 5));
    return 1 + R.below(FunctionCount);
  };

  std::vector<std::vector<uint64_t>> Templates(TemplateCount);
  for (auto &Template : Templates) {
    unsigned Depth = static_cast<unsigned>(
        R.range(Options.MinStackDepth, Options.MaxStackDepth));
    // Leaf-first: random frames, then the shared dispatch chain.
    for (unsigned D = 0; D + RootChain.size() < Depth; ++D)
      Template.push_back(PickFunction());
    for (size_t I = 0; I < RootChain.size(); ++I)
      Template.push_back(RootChain[I]);
  }

  auto AddSample = [&] {
    pprof::Sample S;
    // Hot templates dominate, like hot request paths in production.
    size_t Which = R.chance(0.8)
                       ? R.below(std::max<size_t>(1, TemplateCount / 5))
                       : R.below(TemplateCount);
    S.LocationIds = Templates[Which];
    if (R.chance(0.1) && !S.LocationIds.empty())
      S.LocationIds[0] = PickFunction(); // Leaf mutation.
    S.Values.push_back(static_cast<int64_t>(P.Period) *
                       R.range(1, 12)); // 1..12 ticks per aggregated sample.
    EstimatedBytes += S.LocationIds.size() * 3 + 12;
    P.Samples.push_back(std::move(S));
  };
  while (EstimatedBytes < Options.TargetBytes)
    AddSample();

  // The estimate drifts a few percent below the real encoding; measure and
  // top up until the serialized size actually reaches the target.
  for (int Round = 0; Round < 6; ++Round) {
    size_t Actual = pprof::write(P).size();
    if (Actual >= Options.TargetBytes)
      break;
    size_t PerSample = std::max<size_t>(1, Actual / std::max<size_t>(
                                                        1, P.Samples.size()));
    size_t Missing = (Options.TargetBytes - Actual) / PerSample + 1;
    for (size_t I = 0; I < Missing; ++I)
      AddSample();
  }
  P.DurationNanos = static_cast<int64_t>(P.Samples.size()) * P.Period;
  P.TimeNanos = 1700000000LL * 1000000000LL;
  return P;
}

std::string generatePprofBytes(const SyntheticOptions &Options) {
  return pprof::write(generatePprofModel(Options));
}

Profile generateSyntheticProfile(const SyntheticOptions &Options) {
  std::string Bytes = generatePprofBytes(Options);
  Result<Profile> P = convert::fromPprof(Bytes);
  assert(P.ok() && "synthetic pprof bytes must convert cleanly");
  return P->renamed("synthetic " + std::to_string(Options.TargetBytes >> 20) +
                    "MB profile (seed " + std::to_string(Options.Seed) + ")");
}

} // namespace workload
} // namespace ev
