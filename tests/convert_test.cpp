//===- tests/convert_test.cpp - Format converter tests --------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "convert/Converters.h"

#include "analysis/MetricEngine.h"
#include "proto/EvProf.h"
#include "proto/PprofFormat.h"
#include "workload/LuleshWorkload.h"
#include "workload/SyntheticProfile.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ev;
using namespace ev::convert;

//===----------------------------------------------------------------------===
// Collapsed stacks
//===----------------------------------------------------------------------===

TEST(Collapsed, BasicStacks) {
  Result<Profile> P = fromCollapsed("main;foo;bar 10\n"
                                    "main;foo 5\n"
                                    "main;baz 2\n");
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->nodeCount(), 5u); // ROOT main foo bar baz.
  MetricId M = P->findMetric("samples");
  ASSERT_NE(M, Profile::InvalidMetric);
  EXPECT_DOUBLE_EQ(metricTotal(*P, M), 17.0);
  EXPECT_TRUE(P->verify().ok());
}

TEST(Collapsed, ModuleAnnotations) {
  Result<Profile> P = fromCollapsed("libc.so!malloc;brk 3\n"
                                    "main (/bin/app);work (/bin/app) 4\n");
  ASSERT_TRUE(P.ok()) << P.error();
  bool SawBangModule = false, SawParenModule = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id) {
    const Frame &F = P->frameOf(Id);
    if (P->nameOf(Id) == "malloc" && P->text(F.Loc.Module) == "libc.so")
      SawBangModule = true;
    if (P->nameOf(Id) == "work" && P->text(F.Loc.Module) == "/bin/app")
      SawParenModule = true;
  }
  EXPECT_TRUE(SawBangModule);
  EXPECT_TRUE(SawParenModule);
}

TEST(Collapsed, CommentsAndBlanksIgnored) {
  Result<Profile> P = fromCollapsed("# comment\n\nmain;a 1\n");
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->nodeCount(), 3u);
}

TEST(Collapsed, RejectsMissingCount) {
  EXPECT_FALSE(fromCollapsed("main;foo;bar\n").ok());
}

TEST(Collapsed, RejectsNonNumericCount) {
  Result<Profile> R = fromCollapsed("main;foo xyz\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("line 1"), std::string::npos);
}

//===----------------------------------------------------------------------===
// perf script
//===----------------------------------------------------------------------===

namespace {

const char *PerfScriptSample =
    "app 1234 4000.123456:     250000 cycles:\n"
    "\tffffffff8104f45a do_syscall_64+0x1a (/boot/vmlinux)\n"
    "\t          4005d0 compute+0x40 (/home/u/app)\n"
    "\t          400400 main+0x10 (/home/u/app)\n"
    "\n"
    "app 1234 4000.133456:     250000 cycles:\n"
    "\t          4005d0 compute+0x40 (/home/u/app)\n"
    "\t          400400 main+0x10 (/home/u/app)\n"
    "\n";

} // namespace

TEST(PerfScript, ParsesSamples) {
  Result<Profile> P = fromPerfScript(PerfScriptSample);
  ASSERT_TRUE(P.ok()) << P.error();
  MetricId M = P->findMetric("cycles");
  ASSERT_NE(M, Profile::InvalidMetric);
  EXPECT_DOUBLE_EQ(metricTotal(*P, M), 500000.0);
  // Root-first: main -> compute -> do_syscall_64.
  bool FoundChain = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id) {
    if (P->nameOf(Id) != "do_syscall_64")
      continue;
    std::vector<NodeId> Path = P->pathTo(Id);
    ASSERT_EQ(Path.size(), 4u);
    EXPECT_EQ(P->nameOf(Path[1]), "main");
    EXPECT_EQ(P->nameOf(Path[2]), "compute");
    FoundChain = true;
  }
  EXPECT_TRUE(FoundChain);
}

TEST(PerfScript, ModuleAndAddressCaptured) {
  Result<Profile> P = fromPerfScript(PerfScriptSample);
  ASSERT_TRUE(P.ok());
  bool Found = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id) {
    const Frame &F = P->frameOf(Id);
    if (P->nameOf(Id) == "main") {
      EXPECT_EQ(P->text(F.Loc.Module), "/home/u/app");
      EXPECT_EQ(F.Loc.Address, 0x400400u);
      Found = true;
    }
  }
  EXPECT_TRUE(Found);
}

TEST(PerfScript, EventModifiersStripped) {
  Result<Profile> P = fromPerfScript("app 1 1.0:  100 cache-misses:u:\n"
                                     "\t400400 main (/bin/a)\n\n");
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_NE(P->findMetric("cache-misses"), Profile::InvalidMetric);
}

TEST(PerfScript, RejectsEmptyInput) {
  EXPECT_FALSE(fromPerfScript("").ok());
  EXPECT_FALSE(fromPerfScript("no samples here\n").ok());
}

//===----------------------------------------------------------------------===
// Chrome trace
//===----------------------------------------------------------------------===

TEST(ChromeTrace, CompleteEventsNest) {
  const char *Json = R"({"traceEvents":[
    {"ph":"X","name":"parent","ts":0,"dur":100,"pid":1,"tid":1},
    {"ph":"X","name":"child","ts":10,"dur":40,"pid":1,"tid":1},
    {"ph":"X","name":"sibling","ts":60,"dur":20,"pid":1,"tid":1}
  ]})";
  Result<Profile> P = fromChromeTrace(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  MetricId M = P->findMetric("wall-time");
  // parent self = 100-60, child 40, sibling 20 (microseconds -> ns).
  EXPECT_DOUBLE_EQ(metricTotal(*P, M), 100e3);
  bool ChildUnderParent = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
    if (P->nameOf(Id) == "child" &&
        P->nameOf(P->node(Id).Parent) == "parent")
      ChildUnderParent = true;
  EXPECT_TRUE(ChildUnderParent);
}

TEST(ChromeTrace, BeginEndPairs) {
  const char *Json = R"([
    {"ph":"B","name":"a","ts":0,"pid":1,"tid":1},
    {"ph":"B","name":"b","ts":10,"pid":1,"tid":1},
    {"ph":"E","name":"b","ts":30,"pid":1,"tid":1},
    {"ph":"E","name":"a","ts":50,"pid":1,"tid":1}
  ])";
  Result<Profile> P = fromChromeTrace(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_DOUBLE_EQ(metricTotal(*P, 0), 50e3);
}

TEST(ChromeTrace, SeparateThreadsSeparateLanes) {
  const char *Json = R"([
    {"ph":"X","name":"t1work","ts":0,"dur":10,"pid":1,"tid":1},
    {"ph":"X","name":"t2work","ts":0,"dur":10,"pid":1,"tid":2}
  ])";
  Result<Profile> P = fromChromeTrace(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  // Both are roots (children of ROOT), not nested.
  EXPECT_EQ(P->node(P->root()).Children.size(), 2u);
}

TEST(ChromeTrace, RejectsUnmatchedEnd) {
  EXPECT_FALSE(
      fromChromeTrace(R"([{"ph":"E","name":"x","ts":5,"pid":1,"tid":1}])")
          .ok());
}

TEST(ChromeTrace, RejectsUnclosedBegin) {
  EXPECT_FALSE(
      fromChromeTrace(R"([{"ph":"B","name":"x","ts":5,"pid":1,"tid":1}])")
          .ok());
}

TEST(ChromeTrace, RejectsNonTraceJson) {
  EXPECT_FALSE(fromChromeTrace(R"({"foo": 1})").ok());
  EXPECT_FALSE(fromChromeTrace("...").ok());
}

//===----------------------------------------------------------------------===
// Speedscope
//===----------------------------------------------------------------------===

namespace {

const char *SpeedscopeSampled = R"({
  "$schema": "https://www.speedscope.app/file-format-schema.json",
  "shared": {"frames": [
    {"name": "main", "file": "m.c", "line": 3},
    {"name": "work", "file": "w.c", "line": 9}
  ]},
  "profiles": [{
    "type": "sampled", "name": "cpu", "unit": "milliseconds",
    "samples": [[0], [0, 1], [0, 1]],
    "weights": [2, 3, 4]
  }]
})";

} // namespace

TEST(Speedscope, SampledProfile) {
  Result<Profile> P = fromSpeedscope(SpeedscopeSampled);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_DOUBLE_EQ(metricTotal(*P, 0), 9.0);
  bool WorkUnderMain = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
    if (P->nameOf(Id) == "work" && P->nameOf(P->node(Id).Parent) == "main")
      WorkUnderMain = true;
  EXPECT_TRUE(WorkUnderMain);
}

TEST(Speedscope, EventedProfile) {
  const char *Json = R"({
    "$schema": "x", "shared": {"frames": [{"name": "f"}, {"name": "g"}]},
    "profiles": [{"type": "evented", "name": "t", "events": [
      {"type": "O", "frame": 0, "at": 0},
      {"type": "O", "frame": 1, "at": 2},
      {"type": "C", "frame": 1, "at": 5},
      {"type": "C", "frame": 0, "at": 10}
    ]}]
  })";
  Result<Profile> P = fromSpeedscope(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_DOUBLE_EQ(metricTotal(*P, 0), 10.0); // f self 7 + g self 3.
}

TEST(Speedscope, MultipleProfilesGetThreadNodes) {
  const char *Json = R"({
    "shared": {"frames": [{"name": "f"}]},
    "profiles": [
      {"type": "sampled", "name": "t1", "samples": [[0]], "weights": [1]},
      {"type": "sampled", "name": "t2", "samples": [[0]], "weights": [1]}
    ]
  })";
  Result<Profile> P = fromSpeedscope(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  size_t ThreadNodes = 0;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
    if (P->frameOf(Id).Kind == FrameKind::Thread)
      ++ThreadNodes;
  EXPECT_EQ(ThreadNodes, 2u);
}

TEST(Speedscope, RejectsFrameIndexOutOfRange) {
  const char *Json = R"({
    "shared": {"frames": [{"name": "f"}]},
    "profiles": [{"type": "sampled", "samples": [[7]], "weights": [1]}]
  })";
  EXPECT_FALSE(fromSpeedscope(Json).ok());
}

TEST(Speedscope, RejectsWeightMismatch) {
  const char *Json = R"({
    "shared": {"frames": [{"name": "f"}]},
    "profiles": [{"type": "sampled", "samples": [[0]], "weights": [1, 2]}]
  })";
  EXPECT_FALSE(fromSpeedscope(Json).ok());
}

TEST(Speedscope, RejectsMismatchedClose) {
  const char *Json = R"({
    "shared": {"frames": [{"name": "f"}, {"name": "g"}]},
    "profiles": [{"type": "evented", "events": [
      {"type": "O", "frame": 0, "at": 0},
      {"type": "C", "frame": 1, "at": 5}
    ]}]
  })";
  EXPECT_FALSE(fromSpeedscope(Json).ok());
}

//===----------------------------------------------------------------------===
// HPCToolkit
//===----------------------------------------------------------------------===

namespace {

const char *HpctkXml = R"(<?xml version="1.0"?>
<HPCToolkitExperiment version="2.2">
<Header n="test-db"/>
<SecCallPathProfile i="0" n="test">
<SecHeader>
<MetricTable><Metric i="0" n="CPUTIME (usec):Sum"/></MetricTable>
<LoadModuleTable><LoadModule i="2" n="/bin/app"/></LoadModuleTable>
<FileTable><File i="3" n="app.cc"/></FileTable>
<ProcedureTable>
  <Procedure i="4" n="main"/>
  <Procedure i="5" n="work"/>
</ProcedureTable>
</SecHeader>
<SecCallPathProfileData>
<PF i="10" n="4" f="3" lm="2" l="12">
  <M n="0" v="100"/>
  <C i="11" l="20">
    <PF i="12" n="5" f="3" lm="2" l="30">
      <M n="0" v="400"/>
      <L i="13" l="35" f="3">
        <S i="14" l="36"><M n="0" v="50"/></S>
      </L>
    </PF>
  </C>
</PF>
</SecCallPathProfileData>
</SecCallPathProfile>
</HPCToolkitExperiment>
)";

} // namespace

TEST(Hpctoolkit, ParsesCallPathProfile) {
  Result<Profile> P = fromHpctoolkit(HpctkXml);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->name(), "test-db");
  MetricId M = P->findMetric("CPUTIME (usec):Sum");
  ASSERT_NE(M, Profile::InvalidMetric);
  // 550 usec scaled to ns.
  EXPECT_DOUBLE_EQ(metricTotal(*P, M), 550e3);

  bool SawLoop = false, SawStatement = false, WorkUnderMain = false;
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id) {
    if (P->frameOf(Id).Kind == FrameKind::Loop)
      SawLoop = true;
    if (P->frameOf(Id).Kind == FrameKind::Instruction)
      SawStatement = true;
    if (P->nameOf(Id) == "work" && P->nameOf(P->node(Id).Parent) == "main")
      WorkUnderMain = true;
  }
  EXPECT_TRUE(SawLoop);
  EXPECT_TRUE(SawStatement);
  EXPECT_TRUE(WorkUnderMain);
}

TEST(Hpctoolkit, SourceAttribution) {
  Result<Profile> P = fromHpctoolkit(HpctkXml);
  ASSERT_TRUE(P.ok());
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id) {
    if (P->nameOf(Id) != "main")
      continue;
    const Frame &F = P->frameOf(Id);
    EXPECT_EQ(P->text(F.Loc.File), "app.cc");
    EXPECT_EQ(F.Loc.Line, 12u);
    EXPECT_EQ(P->text(F.Loc.Module), "/bin/app");
  }
}

TEST(Hpctoolkit, RejectsWrongRoot) {
  EXPECT_FALSE(fromHpctoolkit("<NotAnExperiment/>").ok());
}

TEST(Hpctoolkit, RejectsMissingMetricTable) {
  const char *Xml = "<HPCToolkitExperiment><SecCallPathProfile>"
                    "<SecHeader></SecHeader>"
                    "<SecCallPathProfileData/>"
                    "</SecCallPathProfile></HPCToolkitExperiment>";
  EXPECT_FALSE(fromHpctoolkit(Xml).ok());
}

TEST(Hpctoolkit, GeneratedLuleshDatabaseConverts) {
  std::string Xml = workload::generateLuleshExperimentXml({});
  Result<Profile> P = fromHpctoolkit(Xml);
  ASSERT_TRUE(P.ok()) << P.error();
  Profile Direct = workload::generateLuleshProfile({});
  MetricId M = P->findMetric("CPUTIME (usec):Sum");
  ASSERT_NE(M, Profile::InvalidMetric);
  // The XML stores usec with 3 decimals, so totals agree to ~1e-3 usec
  // per node.
  EXPECT_NEAR(metricTotal(*P, M), metricTotal(Direct, 0),
              1.0 * static_cast<double>(Direct.nodeCount()));
}

//===----------------------------------------------------------------------===
// Scalene & pyinstrument
//===----------------------------------------------------------------------===

TEST(Scalene, ParsesLines) {
  const char *Json = R"({
    "files": {"app.py": {"lines": [
      {"lineno": 3, "function": "hot", "n_cpu_percent_python": 40.0,
       "n_cpu_percent_c": 10.0, "n_malloc_mb": 2.0},
      {"lineno": 9, "function": "cold", "n_cpu_percent_python": 0.5}
    ]}}})";
  Result<Profile> P = fromScalene(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_DOUBLE_EQ(metricTotal(*P, P->findMetric("cpu-python")), 40.5);
  EXPECT_DOUBLE_EQ(metricTotal(*P, P->findMetric("alloc-bytes")),
                   2.0 * 1024 * 1024);
}

TEST(Scalene, RejectsEmpty) {
  EXPECT_FALSE(fromScalene(R"({"files": {}})").ok());
  EXPECT_FALSE(fromScalene(R"({"nope": 1})").ok());
}

TEST(Pyinstrument, RecursiveFrameTree) {
  const char *Json = R"({
    "root_frame": {
      "function": "<module>", "file_path": "app.py", "line_no": 1,
      "time": 10.0,
      "children": [
        {"function": "slow", "file_path": "app.py", "line_no": 5,
         "time": 7.0, "children": []},
        {"function": "fast", "file_path": "app.py", "line_no": 9,
         "time": 1.0, "children": []}
      ]
    }, "duration": 10.0})";
  Result<Profile> P = fromPyinstrument(Json);
  ASSERT_TRUE(P.ok()) << P.error();
  // Total = inclusive root time in ns.
  EXPECT_DOUBLE_EQ(metricTotal(*P, 0), 10e9);
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
    if (P->nameOf(Id) == "<module>") {
      EXPECT_DOUBLE_EQ(P->node(Id).metricOr(0), 2e9); // 10 - 7 - 1 self.
    }
}

TEST(Pyinstrument, RejectsMissingRootFrame) {
  EXPECT_FALSE(fromPyinstrument(R"({"duration": 1})").ok());
}

//===----------------------------------------------------------------------===
// pprof converter
//===----------------------------------------------------------------------===

TEST(PprofConvert, SyntheticWorkloadConverts) {
  workload::SyntheticOptions Opt;
  Opt.TargetBytes = 32 << 10;
  std::string Bytes = workload::generatePprofBytes(Opt);
  Result<Profile> P = fromPprof(Bytes);
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_GT(P->nodeCount(), 10u);
  EXPECT_NE(P->findMetric("cpu"), Profile::InvalidMetric);
  EXPECT_TRUE(P->verify().ok());
}

TEST(PprofConvert, LeafFirstStacksReversed) {
  pprof::PprofProfile In;
  In.StringTable = {"", "cpu", "count", "leaf", "root"};
  In.SampleTypes.push_back({1, 2});
  In.Functions.push_back({1, 3, 3, 0, 0});
  In.Functions.push_back({2, 4, 4, 0, 0});
  pprof::Location L1, L2;
  L1.Id = 1;
  L1.Lines.push_back({1, 0});
  L2.Id = 2;
  L2.Lines.push_back({2, 0});
  In.Locations = {L1, L2};
  pprof::Sample S;
  S.LocationIds = {1, 2}; // leaf-first: leaf under root.
  S.Values = {5};
  In.Samples.push_back(S);

  Result<Profile> P = fromPprof(pprof::write(In));
  ASSERT_TRUE(P.ok()) << P.error();
  for (NodeId Id = 0; Id < P->nodeCount(); ++Id)
    if (P->nameOf(Id) == "leaf") {
      EXPECT_EQ(P->nameOf(P->node(Id).Parent), "root");
    }
}

TEST(PprofConvert, UnitScaling) {
  pprof::PprofProfile In;
  In.StringTable = {"", "wall", "milliseconds", "f"};
  In.SampleTypes.push_back({1, 2});
  In.Functions.push_back({1, 3, 3, 0, 0});
  pprof::Location L;
  L.Id = 1;
  L.Lines.push_back({1, 0});
  In.Locations.push_back(L);
  pprof::Sample S;
  S.LocationIds = {1};
  S.Values = {2};
  In.Samples.push_back(S);

  Result<Profile> P = fromPprof(pprof::write(In));
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->metrics()[0].Unit, "nanoseconds");
  EXPECT_DOUBLE_EQ(metricTotal(*P, 0), 2e6); // 2 ms in ns.
}

TEST(PprofConvert, RejectsUnknownLocation) {
  pprof::PprofProfile In;
  In.StringTable = {"", "cpu", "count"};
  In.SampleTypes.push_back({1, 2});
  pprof::Sample S;
  S.LocationIds = {42};
  S.Values = {1};
  In.Samples.push_back(S);
  EXPECT_FALSE(fromPprof(pprof::write(In)).ok());
}

TEST(PprofConvert, LoadRefusesAPathDeeperThanTheDepthBudget) {
  // 3.7 KB of pprof: one location with 400 inlined lines, sampled once
  // with that location repeated 1000 times. Unmetered it becomes a
  // 400,001-node chain, four times DecodeLimits::MaxTreeDepth.
  pprof::PprofProfile In;
  In.StringTable = {"", "cpu", "count", "f"};
  In.SampleTypes.push_back({1, 2});
  In.Functions.push_back({1, 3, 3, 0, 0});
  pprof::Location L;
  L.Id = 1;
  for (int I = 0; I < 400; ++I)
    L.Lines.push_back({1, I + 1});
  In.Locations.push_back(L);
  pprof::Sample S;
  S.LocationIds.assign(1000, 1);
  S.Values = {1};
  In.Samples.push_back(S);
  std::string Bytes = pprof::write(In);
  ASSERT_LT(Bytes.size(), 4096u);

  Result<Profile> P = load(Bytes);
  ASSERT_FALSE(P.ok()) << P->nodeCount() << " nodes accepted";
  EXPECT_EQ(P.error(), "decode limit exceeded: tree too deep");

  // The same input under a budget that admits it converts in full.
  DecodeLimits Roomy = DecodeLimits::unlimited();
  Result<Profile> Full = load(Bytes, "", Roomy);
  ASSERT_TRUE(Full.ok()) << Full.error();
  EXPECT_EQ(Full->nodeCount(), 400001u);
}

//===----------------------------------------------------------------------===
// Detection & load
//===----------------------------------------------------------------------===

struct DetectCase {
  const char *Name;
  std::string Bytes;
  Format Expected;
};

class DetectFormatTest : public ::testing::TestWithParam<int> {};

namespace {

std::vector<DetectCase> detectCases() {
  std::vector<DetectCase> Cases;
  Cases.push_back({"evprof", writeEvProf(test::makeFixedProfile()),
                   Format::EvProf});
  {
    workload::SyntheticOptions Opt;
    Opt.TargetBytes = 8 << 10;
    Cases.push_back({"pprof", workload::generatePprofBytes(Opt),
                     Format::Pprof});
  }
  Cases.push_back({"collapsed", "main;a;b 10\nmain;c 2\n",
                   Format::Collapsed});
  Cases.push_back({"perf", PerfScriptSample, Format::PerfScript});
  Cases.push_back({"chrome",
                   R"({"traceEvents":[{"ph":"X","name":"a","ts":0,"dur":1}]})",
                   Format::ChromeTrace});
  Cases.push_back({"speedscope", SpeedscopeSampled, Format::Speedscope});
  Cases.push_back({"hpctoolkit", HpctkXml, Format::Hpctoolkit});
  Cases.push_back(
      {"pyinstrument",
       R"({"root_frame":{"function":"m","time":1.0,"children":[]}})",
       Format::Pyinstrument});
  Cases.push_back(
      {"scalene",
       R"({"files":{"a.py":{"lines":[{"lineno":1,"n_cpu_percent_python":5}]}}})",
       Format::Scalene});
  return Cases;
}

} // namespace

TEST_P(DetectFormatTest, SniffsCorrectly) {
  std::vector<DetectCase> Cases = detectCases();
  const DetectCase &C = Cases[static_cast<size_t>(GetParam())];
  EXPECT_EQ(detectFormat(C.Bytes), C.Expected) << C.Name;
}

INSTANTIATE_TEST_SUITE_P(AllFormats, DetectFormatTest,
                         ::testing::Range(0, 9));

TEST(Load, AutoDetectsAndConverts) {
  std::vector<DetectCase> Cases = detectCases();
  for (const DetectCase &C : Cases) {
    Result<Profile> P = load(C.Bytes, C.Name);
    ASSERT_TRUE(P.ok()) << C.Name << ": " << P.error();
    EXPECT_EQ(P->name(), C.Name);
    EXPECT_TRUE(P->verify().ok()) << C.Name;
  }
}

TEST(Load, RejectsUnknownFormat) {
  Result<Profile> R = load("complete nonsense input");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("unrecognized"), std::string::npos);
}

TEST(FormatName, Stable) {
  EXPECT_EQ(formatName(Format::Pprof), "pprof");
  EXPECT_EQ(formatName(Format::PerfScript), "perf-script");
  EXPECT_EQ(formatName(Format::Unknown), "unknown");
}
