//===- tests/TestHelpers.h - Shared fixtures for the test suite -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_TESTS_TESTHELPERS_H
#define EASYVIEW_TESTS_TESTHELPERS_H

#include "analysis/ProfileLint.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "proto/EvProfStream.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace ev {
namespace test {

/// The 'result' of a PVP response as a tree, or null when it has none. A
/// view reply arrives as serialized text and is parsed, as a client over
/// the wire would parse it.
inline json::Value resultTree(const json::Value &Response) {
  const json::Value *R =
      Response.isObject() ? Response.asObject().find("result") : nullptr;
  if (!R || !R->isSerialized())
    return R ? *R : json::Value();
  Result<json::Value> Tree = json::parse(*R->serializedText());
  return Tree ? Tree.take() : json::Value();
}

/// Lints \p Bytes and \returns how the run breaks lint's contract with the
/// decoder, or "" when it keeps it: lint decodes exactly what readEvProf
/// decodes, and a refused stream gets one EVL1xx finding whose message is
/// readEvProf's error (an EVL100 may put "profile does not decode: " before
/// it, for a fault no reference rule names).
inline std::string lintVersusDecoder(const ProfileLinter &Linter,
                                     std::string_view Bytes,
                                     const DecodeLimits &Limits) {
  DiagnosticSet Diags(64);
  bool Decoded = Linter.lint(Bytes, Limits, Diags);
  Result<Profile> P = readEvProf(Bytes, Limits);
  if (Decoded != P.ok())
    return Decoded ? "lint decoded a stream readEvProf refuses"
                   : "lint refused a stream readEvProf decodes";
  if (Decoded)
    return "";
  if (Diags.size() != 1)
    return std::to_string(Diags.size()) + " findings for one refusal";
  const Diagnostic &D = Diags.all()[0];
  if (!D.Id.starts_with("EVL1"))
    return "refusal reported as " + std::string(D.Id);
  if (D.Message != P.error() &&
      !(D.Id == "EVL100" &&
        D.Message == "profile does not decode: " + P.error()))
    return "message '" + D.Message + "' is not the decoder's '" + P.error() +
           "'";
  return "";
}

/// A small fixed profile used by many tests:
///
///   ROOT
///    └─ main (app.cc:1, app)            excl 5
///        ├─ parse (parse.cc:10, app)    excl 20
///        └─ compute (comp.cc:20, app)   excl 10
///            ├─ kernel (comp.cc:30, app)     excl 40
///            └─ memcpy (<none>, libc.so)     excl 25
///
/// Metric 0 = "time" (ns). Total exclusive = 100.
inline Profile makeFixedProfile() {
  ProfileBuilder B("fixed");
  MetricId Time = B.addMetric("time", "nanoseconds");
  FrameId Main = B.functionFrame("main", "app.cc", 1, "app");
  FrameId Parse = B.functionFrame("parse", "parse.cc", 10, "app");
  FrameId Compute = B.functionFrame("compute", "comp.cc", 20, "app");
  FrameId Kernel = B.functionFrame("kernel", "comp.cc", 30, "app");
  FrameId Memcpy = B.functionFrame("memcpy", "", 0, "libc.so");

  std::vector<FrameId> P;
  P = {Main};
  B.addSample(P, Time, 5);
  P = {Main, Parse};
  B.addSample(P, Time, 20);
  P = {Main, Compute};
  B.addSample(P, Time, 10);
  P = {Main, Compute, Kernel};
  B.addSample(P, Time, 40);
  P = {Main, Compute, Memcpy};
  B.addSample(P, Time, 25);
  return B.take();
}

/// A copy of \p P whose node \p Id carries \p Value for \p Metric.
inline Profile withValue(const Profile &P, NodeId Id, MetricId Metric,
                         double Value) {
  ProfileBuilder B(P);
  B.addValue(Id, Metric, Value - P.node(Id).metricOr(Metric));
  return B.take();
}

/// Deterministic random profile for property tests: \p Paths call paths of
/// depth up to \p MaxDepth over a pool of \p Functions functions, two
/// metrics ("time", "bytes") with non-negative values.
inline Profile makeRandomProfile(uint64_t Seed, size_t Paths = 200,
                                 unsigned MaxDepth = 12,
                                 size_t Functions = 40) {
  Rng R(Seed);
  ProfileBuilder B("random-" + std::to_string(Seed));
  MetricId Time = B.addMetric("time", "nanoseconds");
  MetricId Bytes = B.addMetric("bytes", "bytes");

  std::vector<FrameId> Pool;
  for (size_t I = 0; I < Functions; ++I)
    Pool.push_back(B.functionFrame(
        "fn" + std::to_string(I), "file" + std::to_string(I % 7) + ".cc",
        static_cast<uint32_t>(10 + I), "mod" + std::to_string(I % 3)));

  std::vector<FrameId> Path;
  for (size_t S = 0; S < Paths; ++S) {
    Path.clear();
    unsigned Depth = static_cast<unsigned>(R.range(1, MaxDepth));
    for (unsigned D = 0; D < Depth; ++D)
      Path.push_back(Pool[R.below(Pool.size())]);
    NodeId Leaf = B.pushPath(Path);
    if (R.chance(0.9))
      B.addValue(Leaf, Time, static_cast<double>(R.range(1, 1000)));
    if (R.chance(0.5))
      B.addValue(Leaf, Bytes, static_cast<double>(R.range(1, 1 << 20)));
  }
  return B.take();
}

/// A copy of \p P in which every value v reads v / 3 + 0.1: values that are
/// not integers, so a sum of them depends on the order it adds them in.
inline Profile withFractionalValues(const Profile &P) {
  ProfileBuilder B(P.name());
  std::vector<MetricId> Metrics = B.addMetrics(P);
  std::vector<FrameId> Frames(P.frames().size());
  for (FrameId F = 0; F < P.frames().size(); ++F)
    Frames[F] = B.importFrame(P, F);
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id)
    B.createNode(P.parents()[Id], Frames[P.frameRefs()[Id]]);
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    for (const MetricValue &MV : P.node(Id).Metrics)
      B.appendValue(Id, {Metrics[MV.Metric], MV.Value / 3.0 + 0.1});
  return B.take();
}

/// Canonical .evprof bytes of a profile that grows across \p Stages
/// generations, with the *prefix property*: stage k+1's bytes extend stage
/// k's byte-for-byte. The construction leans on the canonical field order
/// (name, strings, metrics, frames, nodes): every frame (hence every
/// string) exists from stage 0, and each later stage only adds samples
/// whose LEAF nodes are new — no earlier node's values (and therefore no
/// earlier byte) ever changes. Stage k+1 minus stage k is then exactly the
/// appendable section a live profiler would emit.
///
/// \p BaseLeaves widens stage 0 with that many extra leaves under a
/// subtree the growth scheme never touches, so view deltas carry a
/// realistically sized row-order footprint (useful for flood tests)
/// without perturbing the per-stage growth.
inline std::vector<std::string> growthStageBytes(size_t Stages,
                                                 size_t BaseLeaves = 0) {
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

    // The wide base lives under {fn0, fn11}: depth-5 paths over digits
    // drawn from Pool[12..39] (base 28), distinct for K < 28^3, and
    // disjoint from the growth subtrees below (which never use Pool[11]
    // at depth 1).
    for (size_t K = 0; K < BaseLeaves; ++K) {
      P = {Pool[0], Pool[11], Pool[12 + K % 28], Pool[12 + (K / 28) % 28],
           Pool[12 + (K / 784) % 28]};
      B.addSample(P, Time, static_cast<double>(K % 97 + 1));
    }

    // Stage G's paths bake G into position 1 and J into position 2, so
    // every (G, J) leaf is distinct from every other stage's and from the
    // base paths above.
    for (size_t G = 1; G <= S; ++G)
      for (size_t J = 0; J < 3; ++J) {
        P = {Pool[0], Pool[1 + (G - 1) % 10], Pool[1 + J]};
        B.addSample(P, Time, static_cast<double>(G * 100 + J * 7 + 1));
      }
    Out.push_back(writeEvProf(B.take()));
  }
  return Out;
}

/// The appended section taking stage \p From to stage \p From + 1 of a
/// growthStageBytes() sequence.
inline std::string sectionBytes(const std::vector<std::string> &Stages,
                                size_t From) {
  return Stages[From + 1].substr(Stages[From].size());
}

/// Decodes \p Bytes with one EvProfStreamDecoder fed in chunks that end
/// at each of \p Cuts (any order, duplicates allowed), then finished.
inline Result<Profile> decodeInChunks(std::string_view Bytes,
                                      std::vector<size_t> Cuts) {
  std::sort(Cuts.begin(), Cuts.end());
  Cuts.push_back(Bytes.size());
  EvProfStreamDecoder Decoder(DecodeLimits::defaults());
  size_t From = 0;
  for (size_t Cut : Cuts) {
    if (Result<size_t> Fed = Decoder.feed(Bytes.substr(From, Cut - From));
        !Fed)
      return makeError(Fed.error());
    From = Cut;
  }
  return Decoder.finish();
}

} // namespace test
} // namespace ev

#endif // EASYVIEW_TESTS_TESTHELPERS_H
