//===- tests/telemetry_test.cpp - Self-profiling observability layer ------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The telemetry registry (support/Telemetry.h), the span tracer
// (support/Trace.h), and their PVP surface (pvp/metrics, pvp/selfProfile).
// Suites are named Telemetry*/Trace*/SelfProfile* to match the
// easyview_telemetry ctest entry, which the tsan preset also runs.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/ProfileLint.h"
#include "convert/Converters.h"
#include "ide/PvpServer.h"
#include "ide/SessionManager.h"
#include "proto/EvProf.h"
#include "support/Clock.h"
#include "support/Strings.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

using namespace ev;

namespace {

const json::Object *resultOf(const json::Value &Response) {
  if (!Response.isObject())
    return nullptr;
  const json::Value *R = Response.asObject().find("result");
  return R && R->isObject() ? &R->asObject() : nullptr;
}

json::Object flameParams(int64_t Id) {
  json::Object P;
  P.set("profile", Id);
  P.set("maxRects", 256);
  return P;
}

} // namespace

//===----------------------------------------------------------------------===
// Histogram bucket math
//===----------------------------------------------------------------------===

TEST(Telemetry, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(telemetry::Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(telemetry::Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(telemetry::Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(telemetry::Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(telemetry::Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(telemetry::Histogram::bucketIndex(7), 3u);
  EXPECT_EQ(telemetry::Histogram::bucketIndex(8), 4u);
  // The floor of every bucket maps back into that bucket, and the value
  // just below it maps into the previous one.
  for (size_t I = 1; I + 1 < telemetry::Histogram::BucketCount; ++I) {
    uint64_t Floor = telemetry::Histogram::bucketFloor(I);
    EXPECT_EQ(telemetry::Histogram::bucketIndex(Floor), I) << I;
    EXPECT_EQ(telemetry::Histogram::bucketIndex(Floor - 1), I - 1) << I;
  }
  // Values past the last finite bucket collapse into the overflow bucket.
  constexpr size_t Overflow = telemetry::Histogram::BucketCount - 1;
  EXPECT_EQ(telemetry::Histogram::bucketIndex(UINT64_MAX), Overflow);
  EXPECT_EQ(
      telemetry::Histogram::bucketIndex(telemetry::Histogram::bucketFloor(
          Overflow)),
      Overflow);
}

TEST(Telemetry, HistogramRecordAndStats) {
  telemetry::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // Empty histogram reports 0, not UINT64_MAX.
  H.record(0);
  H.record(5);
  H.record(1000);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 1005u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(telemetry::Histogram::bucketIndex(5)), 1u);
  EXPECT_EQ(H.bucketCount(telemetry::Histogram::bucketIndex(1000)), 1u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.max(), 0u);
}

TEST(Telemetry, PercentileEstimateEmptyHistogramIsZero) {
  telemetry::Histogram H;
  for (double P : {0.0, 1.0, 50.0, 99.9, 100.0})
    EXPECT_EQ(H.percentileEstimate(P), 0.0) << P;
}

TEST(Telemetry, PercentileEstimateSingleSampleIsExact) {
  // With one sample the clamp to [min(), max()] collapses every percentile
  // to exactly that sample, interpolation notwithstanding.
  telemetry::Histogram H;
  H.record(100);
  for (double P : {0.0, 1.0, 50.0, 99.9, 100.0})
    EXPECT_EQ(H.percentileEstimate(P), 100.0) << P;
  H.reset();
  H.record(0); // The dedicated zero bucket behaves the same way.
  for (double P : {1.0, 50.0, 100.0})
    EXPECT_EQ(H.percentileEstimate(P), 0.0) << P;
}

TEST(Telemetry, PercentileEstimateAllInOverflowBucketStaysClamped) {
  // Every value lands in the open-ended overflow bucket, whose upper edge
  // is the observed max; estimates must stay inside [min, max].
  telemetry::Histogram H;
  constexpr size_t Overflow = telemetry::Histogram::BucketCount - 1;
  uint64_t Lo = telemetry::Histogram::bucketFloor(Overflow) + 1;
  H.record(Lo);
  H.record(Lo * 2);
  H.record(Lo * 3);
  ASSERT_EQ(H.bucketCount(Overflow), 3u);
  for (double P : {1.0, 25.0, 50.0, 75.0, 99.0, 100.0}) {
    double E = H.percentileEstimate(P);
    EXPECT_GE(E, static_cast<double>(H.min())) << P;
    EXPECT_LE(E, static_cast<double>(H.max())) << P;
  }
  EXPECT_EQ(H.percentileEstimate(100.0), static_cast<double>(H.max()));
}

TEST(Telemetry, CountersExactUnderParallelWorkers) {
  telemetry::Registry Reg(4);
  telemetry::Counter &C = Reg.counter("test.parallel");
  telemetry::Histogram &H = Reg.histogram("test.parallelHist");
  constexpr size_t N = 10000, Threads = 4;
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (size_t I = T; I < N; I += Threads) {
        C.add();
        H.record(I);
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), N);
  EXPECT_EQ(H.count(), N);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), N - 1);
}

TEST(Telemetry, RegistryHandlesAreStableAndShared) {
  telemetry::Registry Reg;
  telemetry::Counter &A = Reg.counter("same.name");
  telemetry::Counter &B = Reg.counter("same.name");
  EXPECT_EQ(&A, &B);
  A.add(3);
  EXPECT_EQ(B.value(), 3u);
}

TEST(Telemetry, SnapshotSortsNamesAndHonorsTimingOption) {
  telemetry::Registry Reg;
  Reg.counter("zeta").add(1);
  Reg.counter("alpha").add(2);
  Reg.gauge("depth").set(-7);
  Reg.histogram("lat").record(42);

  json::Value Snap = Reg.snapshot();
  const json::Object &Counters =
      Snap.asObject().find("counters")->asObject();
  // Insertion-ordered json::Object + sorted emission = "alpha" first.
  EXPECT_EQ(Counters.begin()->first, "alpha");
  EXPECT_EQ(Snap.asObject().find("gauges")
                ->asObject()
                .find("depth")
                ->asInt(),
            -7);
  const json::Object &Lat = Snap.asObject()
                                .find("histograms")
                                ->asObject()
                                .find("lat")
                                ->asObject();
  EXPECT_EQ(Lat.find("count")->asInt(), 1);
  EXPECT_NE(Lat.find("sum"), nullptr);
  EXPECT_NE(Lat.find("buckets"), nullptr);

  telemetry::SnapshotOptions NoTimings;
  NoTimings.IncludeTimings = false;
  json::Value Bare = Reg.snapshot(NoTimings);
  const json::Object &BareLat = Bare.asObject()
                                    .find("histograms")
                                    ->asObject()
                                    .find("lat")
                                    ->asObject();
  EXPECT_NE(BareLat.find("count"), nullptr);
  EXPECT_EQ(BareLat.find("sum"), nullptr);
  EXPECT_EQ(BareLat.find("buckets"), nullptr);
}

TEST(Telemetry, ClockHelpersAreSane) {
  // Wall time is epoch-based: any plausible "now" is far past 2020-01-01.
  EXPECT_GT(wallMillis(), 1577836800000ull);
  uint64_t A = monoMillis();
  uint64_t B = monoMillis();
  EXPECT_LE(A, B); // Monotonic never goes backwards.
  uint64_t U1 = monoMicros();
  uint64_t U2 = monoMicros();
  EXPECT_LE(U1, U2);
}

//===----------------------------------------------------------------------===
// Span tracing
//===----------------------------------------------------------------------===

TEST(Trace, SpanNestingRecordsDepthAndPath) {
  trace::clear();
  {
    trace::Span Outer("test/outer", "test");
    {
      trace::Span Mid("test/mid", "test");
      trace::Span Inner("test/inner", "test");
      (void)Inner;
      (void)Mid;
    }
    (void)Outer;
  }
  std::vector<trace::SpanRecord> Records = trace::collectSpans();
  const trace::SpanRecord *Outer = nullptr, *Mid = nullptr, *Inner = nullptr;
  for (const trace::SpanRecord &R : Records) {
    if (std::string_view(R.Name) == "test/outer")
      Outer = &R;
    else if (std::string_view(R.Name) == "test/mid")
      Mid = &R;
    else if (std::string_view(R.Name) == "test/inner")
      Inner = &R;
  }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Mid, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Depth, 0u);
  EXPECT_EQ(Mid->Depth, 1u);
  EXPECT_EQ(Inner->Depth, 2u);
  EXPECT_STREQ(Mid->Path[0], "test/outer");
  EXPECT_STREQ(Inner->Path[0], "test/outer");
  EXPECT_STREQ(Inner->Path[1], "test/mid");
  // Children close before parents, and a parent's inclusive time covers
  // its children; self time never exceeds inclusive time.
  EXPECT_GE(Outer->DurUs, Inner->DurUs);
  EXPECT_LE(Outer->SelfUs, Outer->DurUs);
}

TEST(Trace, SpansAcrossWorkerThreads) {
  trace::clear();
  constexpr size_t N = 64, Threads = 4;
  std::vector<std::thread> Workers;
  for (size_t T = 0; T < Threads; ++T)
    Workers.emplace_back([] {
      for (size_t I = 0; I < N / Threads; ++I) {
        trace::Span S("test/parallelBody", "test");
        (void)S;
      }
    });
  for (std::thread &W : Workers)
    W.join();
  std::vector<trace::SpanRecord> Records = trace::collectSpans();
  size_t Bodies = 0;
  for (const trace::SpanRecord &R : Records)
    if (std::string_view(R.Name) == "test/parallelBody")
      ++Bodies;
  EXPECT_EQ(Bodies, N); // Every body span retained, none dropped.
  EXPECT_GE(trace::laneCount(), 1u);
  EXPECT_EQ(trace::droppedSpans(), 0u);
}

TEST(Trace, RingRetentionBoundsMemoryAndCountsDrops) {
  // configureRing applies to lanes created AFTER the call, so record from
  // a fresh thread.
  trace::clear();
  trace::configureRing(16);
  std::thread Writer([] {
    for (int I = 0; I < 100; ++I) {
      trace::Span S("test/ringSpam", "test");
      (void)S;
    }
  });
  Writer.join();
  trace::configureRing(4096); // Restore the default for later tests.

  size_t Spam = 0;
  for (const trace::SpanRecord &R : trace::collectSpans())
    if (std::string_view(R.Name) == "test/ringSpam")
      ++Spam;
  EXPECT_LE(Spam, 16u);
  EXPECT_GT(Spam, 0u);
  EXPECT_EQ(trace::droppedSpans(), 100u - Spam);
  trace::clear();
  EXPECT_EQ(trace::droppedSpans(), 0u);
}

TEST(Trace, DisabledSpansRecordNothing) {
  trace::clear();
  trace::setEnabled(false);
  {
    trace::Span S("test/disabled", "test");
    (void)S;
  }
  trace::setEnabled(true);
  for (const trace::SpanRecord &R : trace::collectSpans())
    EXPECT_NE(std::string_view(R.Name), "test/disabled");
}

TEST(Trace, InternLabelIsStableAndBounded) {
  const char *A = trace::internLabel("test/interned-label");
  const char *B = trace::internLabel("test/interned-label");
  EXPECT_EQ(A, B); // Same pointer: the table interns, not copies.
  EXPECT_STREQ(A, "test/interned-label");
}

TEST(Trace, ChromeTraceJsonRoundTripsThroughOwnConverter) {
  trace::clear();
  {
    trace::Span Outer("test/chromeOuter", "test");
    trace::Span Inner("test/chromeInner", "test");
    (void)Inner;
    (void)Outer;
  }
  std::string Json = trace::toChromeTraceJson();
  // The document is itself valid JSON with a traceEvents array...
  Result<json::Value> Doc = json::parse(Json);
  ASSERT_TRUE(Doc.ok()) << Doc.error();
  ASSERT_TRUE(Doc->asObject().find("traceEvents")->isArray());
  // ...and our own Chrome importer accepts it, rebuilding a CCT in which
  // the inner span nests below the outer by timestamp containment.
  Result<Profile> P = convert::fromChromeTrace(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_GT(P->nodeCount(), 1u);
  bool SawInner = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
    if (P->nameOf(Id) == "test/chromeInner")
      SawInner = true;
  EXPECT_TRUE(SawInner);
}

TEST(Trace, ToProfileFoldsSpansIntoVerifiedCct) {
  trace::clear();
  for (int I = 0; I < 3; ++I) {
    trace::Span Outer("test/foldOuter", "test");
    trace::Span Inner("test/foldInner", "test");
    (void)Inner;
    (void)Outer;
  }
  Profile P = trace::toProfile("fold-test");
  ASSERT_TRUE(P.verify().ok());
  ASSERT_EQ(P.metrics().size(), 2u);
  EXPECT_EQ(P.metrics()[0].Name, "wall-time");
  EXPECT_EQ(P.metrics()[1].Name, "count");
  // Repeated identical call paths merge into one node with an accumulated
  // count, not duplicate siblings or duplicate metric values.
  NodeId InnerNode = InvalidNode;
  size_t InnerNodes = 0;
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    if (P.nameOf(Id) == "test/foldInner") {
      InnerNode = Id;
      ++InnerNodes;
    }
  ASSERT_EQ(InnerNodes, 1u);
  EXPECT_EQ(P.node(InnerNode).metricOr(1, 0.0), 3.0);
}

//===----------------------------------------------------------------------===
// PVP surface: pvp/metrics and pvp/selfProfile
//===----------------------------------------------------------------------===

TEST(SelfProfile, MetricsEndpointReportsRegistryAndStats) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));

  json::Value Resp =
      Server.handleMessage(rpc::makeRequest(2, "pvp/metrics", json::Object()));
  const json::Object *R = resultOf(Resp);
  ASSERT_NE(R, nullptr);
  EXPECT_GT(R->find("wallTimeMs")->asInt(), 1577836800000ll);
  ASSERT_NE(R->find("counters"), nullptr);
  ASSERT_NE(R->find("histograms"), nullptr);
  ASSERT_NE(R->find("spans"), nullptr);
  // The request counter includes at least the two requests above.
  EXPECT_GE(R->find("counters")->asObject().find("pvp.requests")->asInt(), 2);
  // Expanded stats ride along with the pinned keys plus the multi-session
  // additions.
  const json::Object &Stats = R->find("stats")->asObject();
  for (const char *Key :
       {"profiles", "cachedViews", "cacheCapacity", "cacheHits",
        "cacheMisses", "cacheEvictions", "cacheBytes", "storeProfiles"})
    EXPECT_NE(Stats.find(Key), nullptr) << Key;
}

TEST(SelfProfile, UnknownMethodsRegisterNoHistograms) {
  PvpServer Server;
  auto HistogramCount = [&Server] {
    json::Value Resp = Server.handleMessage(
        rpc::makeRequest(1, "pvp/metrics", json::Object()));
    const json::Object *R = resultOf(Resp);
    EXPECT_NE(R, nullptr);
    return R ? R->find("histograms")->asObject().size() : 0u;
  };
  size_t Before = HistogramCount();
  for (int I = 0; I < 1000; ++I) {
    json::Value Resp = Server.handleMessage(rpc::makeRequest(
        I, "pvp/junk" + std::to_string(I), json::Object()));
    ASSERT_EQ(Resp.asObject().find("error")->asObject().find("code")->asInt(),
              rpc::MethodNotFound);
  }
  EXPECT_EQ(HistogramCount(), Before);
}

TEST(SelfProfile, EmitsWellFormedEvprofThatLintsClean) {
  trace::clear();
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeRandomProfile(3));
  // Generate real server work so the self-profile has structure.
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  json::Object TableParams;
  TableParams.set("profile", Id);
  Server.handleMessage(rpc::makeRequest(2, "pvp/treeTable", TableParams));
  Server.handleMessage(rpc::makeRequest(3, "pvp/summary", TableParams));

  json::Value Resp = Server.handleMessage(
      rpc::makeRequest(4, "pvp/selfProfile", json::Object()));
  const json::Object *R = resultOf(Resp);
  ASSERT_NE(R, nullptr) << Resp.dump();
  EXPECT_GT(R->find("spans")->asInt(), 0);
  EXPECT_GT(R->find("nodes")->asInt(), 0);

  std::string Bytes;
  ASSERT_TRUE(base64Decode(R->find("dataBase64")->asString(), Bytes));
  EXPECT_EQ(static_cast<int64_t>(Bytes.size()), R->find("bytes")->asInt());

  // The flagship acceptance: readEvProf decodes it and the full lint
  // pass (EVL1xx refusals + EVL2xx decoded) reports zero diagnostics.
  Result<Profile> Decoded = readEvProf(Bytes);
  ASSERT_TRUE(Decoded.ok()) << Decoded.error();
  EXPECT_GT(Decoded->nodeCount(), 0u);
  DiagnosticSet Diags(64);
  ProfileLinter Linter;
  EXPECT_TRUE(Linter.lint(Bytes, DecodeLimits(), Diags));
  EXPECT_TRUE(Diags.empty()) << Diags.all().front().Id << ": "
                             << Diags.all().front().Message;

  // The profile registered in-session: a flame view of the server's own
  // execution works immediately (the dogfooding loop closes).
  int64_t SelfId = R->find("profile")->asInt();
  json::Value Flame = Server.handleMessage(
      rpc::makeRequest(5, "pvp/flame", flameParams(SelfId)));
  EXPECT_TRUE(test::resultTree(Flame).isObject());
}

TEST(SelfProfile, ResetParamClearsRetainedSpans) {
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeFixedProfile());
  Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
  json::Object P;
  P.set("reset", true);
  json::Value Resp =
      Server.handleMessage(rpc::makeRequest(2, "pvp/selfProfile", P));
  ASSERT_NE(resultOf(Resp), nullptr);
  // The selfProfile request itself runs inside a span that is still open
  // when the reset happens, so it records itself AFTER the clear — the
  // only span that may remain is that one.
  ASSERT_LE(trace::retainedSpans(), 1u);
  for (const trace::SpanRecord &R : trace::collectSpans())
    EXPECT_EQ(std::string_view(R.Name), "pvp/selfProfile");
}

TEST(SelfProfile, WireCountersTrackFraming) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  uint64_t FramesBefore = Reg.counter("wire.framesIn").value();
  uint64_t ErrorsBefore = Reg.counter("wire.frameErrors").value();

  PvpServer Server;
  std::string Frame =
      rpc::frame(rpc::makeRequest(1, "pvp/stats", json::Object()));
  std::string Replies = Server.handleWire(Frame);
  EXPECT_FALSE(Replies.empty());
  EXPECT_EQ(Reg.counter("wire.framesIn").value(), FramesBefore + 1);
  EXPECT_EQ(Reg.counter("wire.frameErrors").value(), ErrorsBefore);
}

TEST(SelfProfile, StatsAggregateAcrossSessionsWithoutDoubleCounting) {
  SessionManager::Options Opts;
  Opts.Sessions = 2;
  SessionManager Manager(Opts);

  // Session 0 opens a profile and serves a flame twice (1 miss + 1 hit).
  std::string Wire = writeEvProf(test::makeFixedProfile());
  json::Object OpenParams;
  OpenParams.set("name", "s0");
  OpenParams.set("dataBase64", base64Encode(Wire));
  json::Value OpenResp =
      Manager.handle(0, rpc::makeRequest(1, "pvp/open", OpenParams));
  const json::Object *Opened = resultOf(OpenResp);
  ASSERT_NE(Opened, nullptr);
  int64_t Id = Opened->find("profile")->asInt();
  uint64_t HitsBefore = Manager.viewCache().hits();
  uint64_t MissesBefore = Manager.viewCache().misses();
  Manager.handle(0, rpc::makeRequest(2, "pvp/flame", flameParams(Id)));
  Manager.handle(0, rpc::makeRequest(3, "pvp/flame", flameParams(Id)));

  // The shared-cache counters count each lookup once: exactly one miss and
  // one hit.
  EXPECT_EQ(Manager.viewCache().hits(), HitsBefore + 1);
  EXPECT_EQ(Manager.viewCache().misses(), MissesBefore + 1);

  // Both sessions see the same aggregated stats; per-session "profiles"
  // differs (ownership) while store-wide storeProfiles matches.
  json::Value S0 = Manager.handle(0, rpc::makeRequest(4, "pvp/stats",
                                                      json::Object()));
  json::Value S1 = Manager.handle(1, rpc::makeRequest(5, "pvp/stats",
                                                      json::Object()));
  const json::Object *Stats0 = resultOf(S0);
  const json::Object *Stats1 = resultOf(S1);
  ASSERT_NE(Stats0, nullptr);
  ASSERT_NE(Stats1, nullptr);
  EXPECT_EQ(Stats0->find("profiles")->asInt(), 1);
  EXPECT_EQ(Stats1->find("profiles")->asInt(), 0);
  EXPECT_EQ(Stats0->find("storeProfiles")->asInt(), 1);
  EXPECT_EQ(Stats1->find("storeProfiles")->asInt(), 1);
  EXPECT_EQ(Stats0->find("cacheHits")->asInt(),
            Stats1->find("cacheHits")->asInt());
}

TEST(SelfProfile, CountersAreByteStableAcrossRuns) {
  // The same deterministic workload, run twice: the counters-only
  // snapshot (IncludeTimings=false drops sums/buckets, which legitimately
  // vary) must be byte-identical — counters sit at fixed code points, not
  // in timing-dependent paths.
  auto RunWorkload = [] {
    telemetry::Registry::global().reset();
    trace::clear();
    PvpServer Server;
    int64_t Id = Server.addProfile(test::makeRandomProfile(17));
    Server.handleMessage(rpc::makeRequest(1, "pvp/flame", flameParams(Id)));
    Server.handleMessage(rpc::makeRequest(2, "pvp/flame", flameParams(Id)));
    json::Object P;
    P.set("profile", Id);
    Server.handleMessage(rpc::makeRequest(3, "pvp/treeTable", P));
    Server.handleMessage(rpc::makeRequest(4, "pvp/summary", P));
    Server.handleMessage(rpc::makeRequest(5, "pvp/stats", json::Object()));
    telemetry::SnapshotOptions Opts;
    Opts.IncludeTimings = false;
    return telemetry::Registry::global().snapshot(Opts).dump();
  };
  std::string First = RunWorkload();
  EXPECT_EQ(First, RunWorkload());
}
