//===- tests/proto_test.cpp - .evprof and pprof codec tests ---------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "proto/EvProf.h"
#include "proto/EvProfStream.h"
#include "proto/PprofFormat.h"
#include "support/Limits.h"
#include "support/ProtoWire.h"

#include "TestHelpers.h"
#include "analysis/MetricEngine.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ev;

namespace {

/// Structural equality useful for round-trip checks.
void expectSameShape(const Profile &A, const Profile &B) {
  ASSERT_EQ(A.nodeCount(), B.nodeCount());
  ASSERT_EQ(A.metrics().size(), B.metrics().size());
  for (MetricId M = 0; M < A.metrics().size(); ++M) {
    EXPECT_EQ(A.metrics()[M], B.metrics()[M]);
    EXPECT_DOUBLE_EQ(metricTotal(A, M), metricTotal(B, M));
  }
  for (NodeId Id = 0; Id < A.nodeCount(); ++Id) {
    EXPECT_EQ(A.node(Id).Parent, B.node(Id).Parent);
    EXPECT_EQ(A.nameOf(Id), B.nameOf(Id));
    EXPECT_EQ(A.frameOf(Id).Loc.Line, B.frameOf(Id).Loc.Line);
    EXPECT_EQ(A.text(A.frameOf(Id).Loc.File), B.text(B.frameOf(Id).Loc.File));
    EXPECT_EQ(A.node(Id).Metrics.size(), B.node(Id).Metrics.size());
  }
  ASSERT_EQ(A.groups().size(), B.groups().size());
  for (size_t G = 0; G < A.groups().size(); ++G) {
    EXPECT_EQ(A.text(A.groups()[G].Kind), B.text(B.groups()[G].Kind));
    EXPECT_TRUE(std::ranges::equal(A.groups()[G].Contexts,
                                   B.groups()[G].Contexts));
    EXPECT_DOUBLE_EQ(A.groups()[G].Value, B.groups()[G].Value);
  }
}

} // namespace

//===----------------------------------------------------------------------===
// .evprof
//===----------------------------------------------------------------------===

TEST(EvProf, MagicDetection) {
  Profile P;
  std::string Bytes = writeEvProf(P);
  EXPECT_TRUE(isEvProf(Bytes));
  EXPECT_FALSE(isEvProf("not a profile"));
  EXPECT_FALSE(isEvProf(""));
}

TEST(EvProf, RoundTripEmptyProfile) {
  Profile P = ProfileBuilder("empty").take();
  Result<Profile> Back = readEvProf(writeEvProf(P));
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_EQ(Back->name(), "empty");
  EXPECT_EQ(Back->nodeCount(), 1u);
}

TEST(EvProf, RoundTripFixedProfile) {
  Profile P = test::makeFixedProfile();
  Result<Profile> Back = readEvProf(writeEvProf(P));
  ASSERT_TRUE(Back.ok()) << Back.error();
  expectSameShape(P, *Back);
  EXPECT_TRUE(Back->verify().ok());
}

TEST(EvProf, RoundTripMetricAggregationKinds) {
  ProfileBuilder B;
  B.addMetric("a", "count", MetricAggregation::Sum);
  B.addMetric("b", "bytes", MetricAggregation::Min);
  B.addMetric("c", "bytes", MetricAggregation::Max);
  B.addMetric("d", "bytes", MetricAggregation::Last);
  Profile P = B.take();
  Result<Profile> Back = readEvProf(writeEvProf(P));
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_EQ(Back->metrics()[1].Aggregation, MetricAggregation::Min);
  EXPECT_EQ(Back->metrics()[3].Aggregation, MetricAggregation::Last);
}

TEST(EvProf, RoundTripContextGroups) {
  ProfileBuilder B("g");
  MetricId M = B.addMetric("accesses", "count");
  FrameId A = B.functionFrame("alloc", "a.cc", 1);
  FrameId U = B.functionFrame("use", "a.cc", 2);
  std::vector<FrameId> P1 = {A};
  std::vector<FrameId> P2 = {U};
  NodeId N1 = B.addSample(P1, M, 1);
  NodeId N2 = B.addSample(P2, M, 2);
  const NodeId Ctx[] = {N1, N2};
  B.addGroup("reuse", Ctx, M, 123.0);
  Profile P = B.take();

  Result<Profile> Back = readEvProf(writeEvProf(P));
  ASSERT_TRUE(Back.ok()) << Back.error();
  expectSameShape(P, *Back);
}

TEST(EvProf, RejectsBadMagic) {
  Result<Profile> R = readEvProf("XXPROF1\n\x01\x02");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("magic"), std::string::npos);
}

TEST(EvProf, RejectsTruncatedBody) {
  Profile P = test::makeFixedProfile();
  std::string Bytes = writeEvProf(P);
  Bytes.resize(Bytes.size() / 2);
  EXPECT_FALSE(readEvProf(Bytes).ok());
}

TEST(EvProf, RejectsGarbageBody) {
  std::string Bytes(EvProfMagic);
  Bytes += std::string(64, '\xff');
  EXPECT_FALSE(readEvProf(Bytes).ok());
}

TEST(EvProf, RejectsDanglingReferences) {
  // Hand-craft a stream whose node references a frame out of range.
  ProtoWriter W;
  W.writeBytes(1, "bad");
  W.writeBytes(2, ""); // string table: [""].
  {
    ProtoWriter NodeW; // Node 0 (root) referencing frame 5: out of range.
    NodeW.writeVarint(2, 5);
    W.writeBytes(5, NodeW.buffer());
  }
  std::string Bytes(EvProfMagic);
  Bytes += W.buffer();
  Result<Profile> R = readEvProf(Bytes);
  ASSERT_FALSE(R.ok());
}

TEST(EvProf, RejectsDuplicateMetricDescriptors) {
  // Hand-craft a stream declaring the same metric name twice. The decoder
  // must reject it at decode time (metric ids are positional; a silent
  // dedup would shift every later column).
  ProtoWriter W;
  W.writeBytes(1, "dup");
  W.writeBytes(2, ""); // string table: [""].
  for (int I = 0; I < 2; ++I) {
    ProtoWriter MW;
    MW.writeBytes(1, "time");
    MW.writeBytes(2, "nanoseconds");
    W.writeBytes(3, MW.buffer());
  }
  std::string Bytes(EvProfMagic);
  Bytes += W.buffer();
  Result<Profile> R = readEvProf(Bytes);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("duplicate metric"), std::string::npos)
      << R.error();
}

TEST(EvProf, RoundTripRandomProfiles) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Profile P = test::makeRandomProfile(Seed);
    Result<Profile> Back = readEvProf(writeEvProf(P));
    ASSERT_TRUE(Back.ok()) << Back.error();
    expectSameShape(P, *Back);
  }
}

TEST(EvProfStream, AnySplitDecodesLikeTheWholeStream) {
  // Every single split point of the fixed profile, then one byte a feed.
  std::string Fixed = writeEvProf(test::makeFixedProfile());
  Result<Profile> Whole = readEvProf(Fixed);
  ASSERT_TRUE(Whole.ok()) << Whole.error();
  ASSERT_EQ(writeEvProf(*Whole), Fixed);
  std::vector<size_t> EveryByte;
  for (size_t Split = 0; Split <= Fixed.size(); ++Split) {
    Result<Profile> P = test::decodeInChunks(Fixed, {Split});
    ASSERT_TRUE(P.ok()) << "split " << Split << ": " << P.error();
    EXPECT_EQ(writeEvProf(*P), Fixed) << "split " << Split;
    EveryByte.push_back(Split);
  }
  Result<Profile> Bytewise = test::decodeInChunks(Fixed, EveryByte);
  ASSERT_TRUE(Bytewise.ok()) << Bytewise.error();
  EXPECT_EQ(writeEvProf(*Bytewise), Fixed);

  // 64 random split points per random profile: each alone, then all at
  // once.
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    std::string Bytes = writeEvProf(test::makeRandomProfile(Seed));
    Result<Profile> Expected = readEvProf(Bytes);
    ASSERT_TRUE(Expected.ok()) << Expected.error();
    std::string ExpectedBytes = writeEvProf(*Expected);
    Rng R(Seed);
    std::vector<size_t> Cuts;
    for (int I = 0; I < 64; ++I) {
      Cuts.push_back(R.below(Bytes.size() + 1));
      Result<Profile> P = test::decodeInChunks(Bytes, {Cuts.back()});
      ASSERT_TRUE(P.ok()) << "seed " << Seed << " split " << Cuts.back();
      EXPECT_EQ(writeEvProf(*P), ExpectedBytes)
          << "seed " << Seed << " split " << Cuts.back();
    }
    Result<Profile> P = test::decodeInChunks(Bytes, Cuts);
    ASSERT_TRUE(P.ok()) << "seed " << Seed << ": " << P.error();
    EXPECT_EQ(writeEvProf(*P), ExpectedBytes) << "seed " << Seed;
  }
}

TEST(EvProfStream, StreamCutMidFieldFailsAtFinish) {
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  std::string_view Cut = std::string_view(Bytes).substr(0, Bytes.size() - 1);

  // Fed alone the cut stream is only waiting for more bytes; the decoded
  // prefix is already a valid profile.
  EvProfStreamDecoder Decoder(DecodeLimits::defaults());
  ASSERT_TRUE(Decoder.feed(Cut).ok());
  EXPECT_TRUE(Decoder.snapshot().ok());
  // Ending the stream there is an error, whichever way it is decoded.
  Result<Profile> Finished = Decoder.finish();
  ASSERT_FALSE(Finished.ok());
  EXPECT_EQ(Finished.error(), "malformed EvProfile message");
  Result<Profile> OneShot = readEvProf(Cut);
  ASSERT_FALSE(OneShot.ok());
  EXPECT_EQ(OneShot.error(), "malformed EvProfile message");
}

TEST(EvProfStream, RefusesStringsAfterTheFramesThatUseThem) {
  // Re-emit the fixed profile's top-level fields with the string table
  // moved behind the frames: the schema allows any field order, but the
  // decoder resolves references as they arrive, so a frame that names a
  // string before the string appears is refused.
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  ProtoReader R(std::string_view(Bytes).substr(EvProfMagic.size()));
  ProtoWriter Name, Strings, Tables, Tree; // 1; 2; 3 and 4; 5 and 6.
  while (R.next()) {
    uint32_t Field = R.fieldNumber();
    ProtoWriter &To = Field == 1   ? Name
                      : Field == 2 ? Strings
                      : Field <= 4 ? Tables
                                   : Tree;
    To.writeBytes(Field, R.bytes());
  }
  ASSERT_FALSE(R.failed());
  std::string Canonical(EvProfMagic);
  Canonical += Name.buffer() + Strings.buffer() + Tables.buffer() +
               Tree.buffer();
  ASSERT_EQ(Canonical, Bytes);

  std::string Moved(EvProfMagic);
  Moved += Name.buffer() + Tables.buffer() + Strings.buffer() + Tree.buffer();
  Result<Profile> P = readEvProf(Moved);
  ASSERT_FALSE(P.ok());
  EXPECT_EQ(P.error(), "string reference out of range");
}

//===----------------------------------------------------------------------===
// pprof profile.proto
//===----------------------------------------------------------------------===

namespace {

pprof::PprofProfile makeSmallPprof() {
  pprof::PprofProfile P;
  P.StringTable = {"", "cpu", "nanoseconds", "main", "main.go", "leafFn",
                   "leaf.go", "/bin/app"};
  P.SampleTypes.push_back({1, 2});
  P.Period = 10000000;
  P.PeriodType = {1, 2};
  P.Mappings.push_back({1, 0x400000, 0x500000, 0, 7, 0});
  P.Functions.push_back({1, 3, 3, 4, 1});
  P.Functions.push_back({2, 5, 5, 6, 10});
  pprof::Location L1;
  L1.Id = 1;
  L1.MappingId = 1;
  L1.Address = 0x401000;
  L1.Lines.push_back({1, 5});
  pprof::Location L2;
  L2.Id = 2;
  L2.MappingId = 1;
  L2.Address = 0x402000;
  L2.Lines.push_back({2, 20});
  P.Locations.push_back(L1);
  P.Locations.push_back(L2);
  pprof::Sample S;
  S.LocationIds = {2, 1}; // leaf-first: leafFn <- main.
  S.Values = {250000};
  P.Samples.push_back(S);
  return P;
}

} // namespace

TEST(Pprof, WriteReadRoundTrip) {
  pprof::PprofProfile P = makeSmallPprof();
  Result<pprof::PprofProfile> Back = pprof::read(pprof::write(P));
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_EQ(Back->StringTable, P.StringTable);
  ASSERT_EQ(Back->SampleTypes.size(), 1u);
  EXPECT_EQ(Back->SampleTypes[0].Type, 1);
  ASSERT_EQ(Back->Samples.size(), 1u);
  EXPECT_EQ(Back->Samples[0].LocationIds, P.Samples[0].LocationIds);
  EXPECT_EQ(Back->Samples[0].Values, P.Samples[0].Values);
  ASSERT_EQ(Back->Locations.size(), 2u);
  EXPECT_EQ(Back->Locations[0].Lines[0].FunctionId, 1u);
  EXPECT_EQ(Back->Mappings[0].MemoryStart, 0x400000u);
  EXPECT_EQ(Back->Period, 10000000);
}

TEST(Pprof, LabelsRoundTrip) {
  pprof::PprofProfile P = makeSmallPprof();
  pprof::Label L;
  L.Key = 1;
  L.Num = -5;
  P.Samples[0].Labels.push_back(L);
  Result<pprof::PprofProfile> Back = pprof::read(pprof::write(P));
  ASSERT_TRUE(Back.ok()) << Back.error();
  ASSERT_EQ(Back->Samples[0].Labels.size(), 1u);
  EXPECT_EQ(Back->Samples[0].Labels[0].Num, -5);
}

TEST(Pprof, InternBuildsStringTable) {
  pprof::PprofProfile P;
  int64_t A = P.intern("x");
  int64_t B = P.intern("x");
  EXPECT_EQ(A, B);
  EXPECT_EQ(P.StringTable.size(), 2u);
  EXPECT_EQ(P.text(A), "x");
  EXPECT_EQ(P.text(999), "");
}

TEST(Pprof, UnpackedRepeatedVarintsAccepted) {
  // Hand-encode a sample with unpacked location ids (wire type 0 repeated).
  ProtoWriter SampleW;
  SampleW.writeVarint(1, 2);
  SampleW.writeVarint(1, 1);
  SampleW.writeVarint(2, 7);
  ProtoWriter W;
  W.writeBytes(2, SampleW.buffer());
  W.writeBytes(6, ""); // string_table[0] = "".
  Result<pprof::PprofProfile> Back = pprof::read(W.buffer());
  ASSERT_TRUE(Back.ok()) << Back.error();
  ASSERT_EQ(Back->Samples.size(), 1u);
  EXPECT_EQ(Back->Samples[0].LocationIds, (std::vector<uint64_t>{2, 1}));
  EXPECT_EQ(Back->Samples[0].Values, (std::vector<int64_t>{7}));
}

TEST(Pprof, RejectsNonEmptyFirstString) {
  ProtoWriter W;
  W.writeBytes(6, "oops"); // string_table[0] must be "".
  EXPECT_FALSE(pprof::read(W.buffer()).ok());
}

TEST(Pprof, RejectsMalformedStream) {
  EXPECT_FALSE(pprof::read(std::string(32, '\xff')).ok());
}

TEST(Pprof, EmptyStreamYieldsEmptyProfile) {
  Result<pprof::PprofProfile> Back = pprof::read("");
  ASSERT_TRUE(Back.ok());
  EXPECT_TRUE(Back->Samples.empty());
  EXPECT_EQ(Back->StringTable.size(), 1u);
}

TEST(Pprof, UnknownFieldsSkipped) {
  pprof::PprofProfile P = makeSmallPprof();
  std::string Bytes = pprof::write(P);
  ProtoWriter Extra;
  Extra.writeBytes(15, "future extension");
  Extra.writeVarint(20, 7);
  Bytes += Extra.buffer();
  Result<pprof::PprofProfile> Back = pprof::read(Bytes);
  ASSERT_TRUE(Back.ok()) << Back.error();
  EXPECT_EQ(Back->Samples.size(), 1u);
}

//===----------------------------------------------------------------------===
// Decode limits
//===----------------------------------------------------------------------===

TEST(EvProfLimits, DefaultsAcceptOrdinaryProfiles) {
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  Result<Profile> P = readEvProf(Bytes, DecodeLimits::defaults());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->nodeCount(), 6u);
}

TEST(EvProfLimits, MaxInputBytesRejectsOversizedBlob) {
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  DecodeLimits L;
  L.MaxInputBytes = Bytes.size() - 1;
  Result<Profile> P = readEvProf(Bytes, L);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("exceed"), std::string::npos);
}

TEST(EvProfLimits, MaxNodesTripsDuringDecode) {
  std::string Bytes = writeEvProf(test::makeFixedProfile());
  DecodeLimits L;
  L.MaxNodes = 3; // Profile has 6.
  Result<Profile> P = readEvProf(Bytes, L);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("limit"), std::string::npos);
}

TEST(EvProfLimits, MaxStringsTripsDuringDecode) {
  std::string Bytes = writeEvProf(test::makeRandomProfile(3));
  DecodeLimits L;
  L.MaxStrings = 4;
  Result<Profile> P = readEvProf(Bytes, L);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("limit"), std::string::npos);
}

TEST(EvProfLimits, MaxTreeDepthRejectsDeepChains) {
  // A single 64-deep call path.
  ProfileBuilder B("deep");
  MetricId Time = B.addMetric("time", "nanoseconds");
  std::vector<FrameId> Path;
  for (int I = 0; I < 64; ++I)
    Path.push_back(B.functionFrame("f" + std::to_string(I), "f.cc",
                                   static_cast<uint32_t>(I), "app"));
  B.addSample(Path, Time, 1);
  std::string Bytes = writeEvProf(B.take());

  DecodeLimits Tight;
  Tight.MaxTreeDepth = 16;
  Result<Profile> P = readEvProf(Bytes, Tight);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("limit"), std::string::npos);

  DecodeLimits Loose;
  Loose.MaxTreeDepth = 128;
  Result<Profile> Q = readEvProf(Bytes, Loose);
  ASSERT_TRUE(Q.ok()) << Q.error();
}

TEST(EvProfLimits, MaxAllocBytesBoundsDecodeMemory) {
  std::string Bytes = writeEvProf(test::makeRandomProfile(5));
  DecodeLimits L;
  L.MaxAllocBytes = 64; // Far below what the profile needs.
  Result<Profile> P = readEvProf(Bytes, L);
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.error().find("limit"), std::string::npos);
}

TEST(EvProfLimits, GuardReportsWhatTripped) {
  DecodeLimits L;
  L.MaxNodes = 2;
  ResourceGuard G(L);
  EXPECT_TRUE(G.chargeNode());
  EXPECT_TRUE(G.chargeNode());
  EXPECT_FALSE(G.chargeNode());
  EXPECT_TRUE(G.exceeded());
  EXPECT_NE(G.error().find("node"), std::string::npos);
  // Once tripped, the guard stays tripped.
  EXPECT_FALSE(G.chargeString(1));
}
