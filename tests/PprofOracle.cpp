//===- tests/PprofOracle.cpp - Object-model pprof conversion --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object-model pprof converter the streaming decoder replaced: it
/// reads the whole message into a pprof::PprofProfile, indexes its tables
/// by id in hash maps, and pushes every sample's full path into the
/// builder. Kept as the test oracle that convert::fromPprof is checked
/// against (tests/pprof_oracle_test.cpp).
///
//===----------------------------------------------------------------------===//

#include "PprofOracle.h"

#include "profile/ProfileBuilder.h"
#include "proto/PprofFormat.h"

#include <cstdio>
#include <unordered_map>

namespace ev {
namespace convert {
namespace oracle {

namespace {

/// Maps a pprof unit string onto the generic unit vocabulary.
std::string_view mapUnit(std::string_view Unit) {
  if (Unit == "nanoseconds" || Unit == "ns")
    return "nanoseconds";
  if (Unit == "microseconds" || Unit == "us")
    return "nanoseconds"; // Values are scaled below.
  if (Unit == "milliseconds" || Unit == "ms")
    return "nanoseconds";
  if (Unit == "seconds" || Unit == "s")
    return "nanoseconds";
  if (Unit == "bytes")
    return "bytes";
  return "count";
}

double unitScale(std::string_view Unit) {
  if (Unit == "microseconds" || Unit == "us")
    return 1e3;
  if (Unit == "milliseconds" || Unit == "ms")
    return 1e6;
  if (Unit == "seconds" || Unit == "s")
    return 1e9;
  return 1.0;
}

} // namespace

Result<Profile> fromPprof(std::string_view Bytes) {
  Result<pprof::PprofProfile> Parsed = pprof::read(Bytes);
  if (!Parsed)
    return makeError(Parsed.error());
  const pprof::PprofProfile &In = *Parsed;
  if (In.SampleTypes.empty())
    return makeError("pprof profile has no sample types");

  ProfileBuilder B("pprof profile");

  std::vector<MetricId> Metrics;
  std::vector<double> Scales;
  for (const pprof::ValueType &VT : In.SampleTypes) {
    std::string_view Type = In.text(VT.Type);
    std::string_view Unit = In.text(VT.Unit);
    Metrics.push_back(B.addMetric(Type.empty() ? "samples" : Type,
                                  mapUnit(Unit)));
    Scales.push_back(unitScale(Unit));
  }

  // Index the tables by their ids (pprof ids are arbitrary, often 1-based
  // and dense, but the format does not guarantee it).
  std::unordered_map<uint64_t, const pprof::Function *> Functions;
  for (const pprof::Function &F : In.Functions)
    Functions.emplace(F.Id, &F);
  std::unordered_map<uint64_t, const pprof::Mapping *> Mappings;
  for (const pprof::Mapping &M : In.Mappings)
    Mappings.emplace(M.Id, &M);
  std::unordered_map<uint64_t, const pprof::Location *> Locations;
  for (const pprof::Location &L : In.Locations)
    Locations.emplace(L.Id, &L);

  // Pre-translate every location into its (possibly multi-frame, for
  // inlining) root-first frame run.
  std::unordered_map<uint64_t, std::vector<FrameId>> LocationFrames;
  LocationFrames.reserve(Locations.size());
  for (const pprof::Location &L : In.Locations) {
    std::vector<FrameId> Run;
    std::string_view ModuleName;
    if (const auto It = Mappings.find(L.MappingId); It != Mappings.end())
      ModuleName = In.text(It->second->Filename);
    if (L.Lines.empty()) {
      // No symbol information: synthesize a frame from the address.
      char Buffer[32];
      std::snprintf(Buffer, sizeof(Buffer), "0x%llx",
                    static_cast<unsigned long long>(L.Address));
      Run.push_back(B.functionFrame(Buffer, "", 0, ModuleName, L.Address));
    } else {
      // pprof stores inline frames innermost-first; emit outermost-first.
      for (size_t I = L.Lines.size(); I > 0; --I) {
        const pprof::Line &Ln = L.Lines[I - 1];
        std::string_view Name = "??";
        std::string_view File;
        auto FIt = Functions.find(Ln.FunctionId);
        if (FIt != Functions.end()) {
          Name = In.text(FIt->second->Name);
          File = In.text(FIt->second->Filename);
        }
        Run.push_back(B.functionFrame(
            Name, File,
            Ln.LineNumber > 0 ? static_cast<uint32_t>(Ln.LineNumber) : 0,
            ModuleName, L.Address));
      }
    }
    LocationFrames.emplace(L.Id, std::move(Run));
  }

  std::vector<FrameId> Path;
  for (const pprof::Sample &S : In.Samples) {
    Path.clear();
    // Sample stacks are leaf-first; build root-first.
    for (size_t I = S.LocationIds.size(); I > 0; --I) {
      auto It = LocationFrames.find(S.LocationIds[I - 1]);
      if (It == LocationFrames.end())
        return makeError("sample references unknown location id " +
                         std::to_string(S.LocationIds[I - 1]));
      Path.insert(Path.end(), It->second.begin(), It->second.end());
    }
    NodeId Leaf = B.pushPath(Path);
    for (size_t M = 0; M < S.Values.size() && M < Metrics.size(); ++M)
      if (S.Values[M] != 0)
        B.addValue(Leaf, Metrics[M],
                   static_cast<double>(S.Values[M]) * Scales[M]);
  }
  return B.take();
}

} // namespace oracle
} // namespace convert
} // namespace ev
