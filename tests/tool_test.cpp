//===- tests/tool_test.cpp - evtool CLI driver tests ----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tool/CliDriver.h"

#include "TestHelpers.h"
#include "proto/EvProf.h"
#include "support/FileIo.h"
#include "support/ProtoWire.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>

using namespace ev;
using namespace ev::tool;

namespace {

/// Writes fixture files into a per-test temp directory.
class ToolTest : public ::testing::Test {
protected:
  void SetUp() override {
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = std::string("/tmp/evtool_test_") + Info->name();
    std::string Cmd = "mkdir -p " + Dir;
    ASSERT_EQ(std::system(Cmd.c_str()), 0);

    Evprof = Dir + "/fixed.evprof";
    ASSERT_TRUE(writeFile(Evprof, writeEvProf(test::makeFixedProfile()))
                    .ok());
    Folded = Dir + "/stacks.folded";
    ASSERT_TRUE(
        writeFile(Folded, "main;alpha;beta 10\nmain;gamma 5\n").ok());
  }

  int run(std::initializer_list<std::string> Args) {
    Out.clear();
    Err.clear();
    return runEvTool(std::vector<std::string>(Args), Out, Err);
  }

  std::string Dir, Evprof, Folded;
  std::string Out, Err;
};

} // namespace

TEST_F(ToolTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(Out.find("usage: evtool"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}), ExitUsageError);
  EXPECT_NE(Err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}), ExitUsageError);
  EXPECT_NE(Err.find("usage: evtool"), std::string::npos);
}

TEST_F(ToolTest, DistinctExitCodesPerFailureMode) {
  // Usage errors and data errors are distinguishable by exit code alone,
  // and both diagnose on stderr, never stdout.
  EXPECT_EQ(run({"info"}), ExitUsageError);
  EXPECT_TRUE(Out.empty());
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(run({"info", Dir + "/does-not-exist.prof"}), ExitDataError);
  EXPECT_TRUE(Out.empty());
  EXPECT_NE(Err.find("evtool: error:"), std::string::npos);
  std::string Garbage = Dir + "/garbage.prof";
  ASSERT_TRUE(writeFile(Garbage, "not a profile at all").ok());
  EXPECT_EQ(run({"info", Garbage}), ExitDataError);
}

TEST_F(ToolTest, InfoDescribesProfile) {
  ASSERT_EQ(run({"info", Evprof}), 0) << Err;
  EXPECT_NE(Out.find("format:   evprof"), std::string::npos);
  EXPECT_NE(Out.find("contexts: 6"), std::string::npos);
  EXPECT_NE(Out.find("metric:   time"), std::string::npos);
}

TEST_F(ToolTest, InfoAutoDetectsForeignFormats) {
  ASSERT_EQ(run({"info", Folded}), 0) << Err;
  EXPECT_NE(Out.find("format:   collapsed"), std::string::npos);
}

TEST_F(ToolTest, MissingFileFails) {
  EXPECT_EQ(run({"info", Dir + "/nope.prof"}), ExitDataError);
  EXPECT_NE(Err.find("cannot open"), std::string::npos);
}

TEST_F(ToolTest, SummaryListsHotspots) {
  ASSERT_EQ(run({"summary", Evprof}), 0) << Err;
  EXPECT_NE(Out.find("kernel"), std::string::npos);
}

TEST_F(ToolTest, FlameAnsiAllShapes) {
  for (const char *Shape : {"top-down", "bottom-up", "flat"}) {
    ASSERT_EQ(run({"flame", Evprof, "--shape", Shape}), 0)
        << Shape << ": " << Err;
    EXPECT_FALSE(Out.empty()) << Shape;
  }
  EXPECT_EQ(run({"flame", Evprof, "--shape", "spiral"}), ExitUsageError);
}

TEST_F(ToolTest, FlameSvgWritesFile) {
  std::string Svg = Dir + "/flame.svg";
  ASSERT_EQ(run({"flame", Evprof, "--svg", Svg}), 0) << Err;
  Result<std::string> Written = readFile(Svg);
  ASSERT_TRUE(Written.ok());
  EXPECT_NE(Written->find("<svg"), std::string::npos);
  EXPECT_NE(Written->find("kernel"), std::string::npos);
}

namespace {

/// The y coordinate of the flame rectangle titled \p Name in \p Svg, and
/// the least and greatest y over all rectangles.
struct SvgRows {
  double Named = -1, Min = 1e300, Max = -1;
};

SvgRows svgRows(const std::string &Svg, std::string_view Name) {
  SvgRows R;
  static constexpr std::string_view Rect = "<g><rect x=\"";
  for (size_t At = Svg.find(Rect); At != std::string::npos;
       At = Svg.find(Rect, At + 1)) {
    size_t Y = Svg.find(" y=\"", At) + 4;
    double V = std::stod(Svg.substr(Y, Svg.find('"', Y) - Y));
    R.Min = std::min(R.Min, V);
    R.Max = std::max(R.Max, V);
    if (Svg.compare(Svg.find("<title>", At) + 7, Name.size(), Name) == 0)
      R.Named = V;
  }
  return R;
}

} // namespace

TEST_F(ToolTest, FlameSvgOrientationFollowsTheShape) {
  // Top-down grows up from a root at the bottom; bottom-up is an icicle
  // with the root at the top, as in the HTML report.
  std::string Svg = Dir + "/f.svg";
  ASSERT_EQ(run({"flame", Evprof, "--svg", Svg}), 0) << Err;
  SvgRows Down = svgRows(*readFile(Svg), "ROOT");
  EXPECT_EQ(Down.Named, Down.Max);
  EXPECT_LT(Down.Min, Down.Max);
  ASSERT_EQ(run({"flame", Evprof, "--shape", "bottom-up", "--svg", Svg}), 0)
      << Err;
  SvgRows Up = svgRows(*readFile(Svg), "ROOT");
  EXPECT_EQ(Up.Named, Up.Min);
  EXPECT_LT(Up.Min, Up.Max);
}

TEST_F(ToolTest, TableShowsHotPath) {
  ASSERT_EQ(run({"table", Evprof}), 0) << Err;
  EXPECT_NE(Out.find("kernel"), std::string::npos);
  EXPECT_NE(Out.find("incl/excl"), std::string::npos);
}

TEST_F(ToolTest, ConvertBetweenFormats) {
  for (const char *To :
       {"evprof", "pprof", "collapsed", "speedscope", "chrome"}) {
    std::string Target = Dir + "/out." + To;
    ASSERT_EQ(run({"convert", Folded, Target, "--to", To}), 0)
        << To << ": " << Err;
    // Everything except chrome re-opens through auto-detection; chrome
    // re-opens too (the converter reads trace JSON).
    ASSERT_EQ(run({"info", Target}), 0) << To << ": " << Err;
  }
  EXPECT_EQ(run({"convert", Folded, Dir + "/x", "--to", "dot"}), ExitUsageError);
}

TEST_F(ToolTest, DiffPrintsTags) {
  // Diff the profile against itself: all common, no [A]/[D].
  ASSERT_EQ(run({"diff", Evprof, Evprof}), 0) << Err;
  EXPECT_NE(Out.find("[=] ROOT"), std::string::npos);
  EXPECT_EQ(Out.find("[A]"), std::string::npos);
}

TEST_F(ToolTest, AggregateWritesMergedProfile) {
  std::string Target = Dir + "/agg.evprof";
  ASSERT_EQ(run({"aggregate", Target, Evprof, Evprof}), 0) << Err;
  ASSERT_EQ(run({"info", Target}), 0) << Err;
  EXPECT_NE(Out.find("contexts: 6"), std::string::npos);
  EXPECT_NE(Out.find("200"), std::string::npos); // Doubled total.
}

TEST_F(ToolTest, QueryInlineProgram) {
  ASSERT_EQ(run({"query", Evprof, "--e",
                 "print total(\"time\"); derive s = share(\"time\");"}),
            0)
      << Err;
  EXPECT_NE(Out.find("100"), std::string::npos);
  EXPECT_NE(Out.find("derived metrics: s"), std::string::npos);
}

TEST_F(ToolTest, QueryFromFileAndResultOutput) {
  std::string Program = Dir + "/prog.evql";
  ASSERT_TRUE(
      writeFile(Program, "prune when name() == \"parse\";\n").ok());
  std::string Target = Dir + "/pruned.evprof";
  ASSERT_EQ(run({"query", Evprof, "--file", Program, "--out", Target}), 0)
      << Err;
  ASSERT_EQ(run({"info", Target}), 0) << Err;
  EXPECT_NE(Out.find("contexts: 5"), std::string::npos);
}

TEST_F(ToolTest, QueryErrorsSurface) {
  EXPECT_EQ(run({"query", Evprof, "--e", "print ("}), ExitDataError);
  EXPECT_NE(Err.find("error"), std::string::npos);
  // No program given: that is a usage error, not a data error.
  EXPECT_EQ(run({"query", Evprof}), ExitUsageError);
  // A source past AnalysisLimits::MaxProgramBytes is refused before
  // parsing, with the checker's EVQL013 message.
  std::string Huge = Dir + "/huge.evql";
  ASSERT_TRUE(writeFile(Huge, "print 1;" + std::string(1u << 20, ' ')).ok());
  EXPECT_EQ(run({"query", Evprof, "--file", Huge}), ExitDataError);
  EXPECT_NE(Err.find("program of 1048584 bytes exceeds the analysis limit "
                     "of 1048576"),
            std::string::npos)
      << Err;
}

TEST_F(ToolTest, ButterflyShowsCallersAndCallees) {
  ASSERT_EQ(run({"butterfly", Evprof, "compute"}), 0) << Err;
  EXPECT_NE(Out.find("callers:"), std::string::npos);
  EXPECT_NE(Out.find("main"), std::string::npos);
  EXPECT_NE(Out.find("kernel"), std::string::npos);
  EXPECT_EQ(run({"butterfly", Evprof, "missingFn"}), ExitDataError);
}

TEST_F(ToolTest, ReportWritesHtml) {
  std::string Target = Dir + "/report.html";
  ASSERT_EQ(run({"report", Evprof, Target}), 0) << Err;
  Result<std::string> Html = readFile(Target);
  ASSERT_TRUE(Html.ok());
  EXPECT_NE(Html->find("<!DOCTYPE html>"), std::string::npos);
}

TEST_F(ToolTest, AnnotateListsSourceLines) {
  ASSERT_EQ(run({"annotate", Evprof, "comp.cc"}), 0) << Err;
  EXPECT_NE(Out.find("line 20"), std::string::npos);
  EXPECT_NE(Out.find("line 30"), std::string::npos);
  EXPECT_NE(Out.find("time"), std::string::npos);
  ASSERT_EQ(run({"annotate", Evprof, "unknown.cc"}), 0) << Err;
  EXPECT_NE(Out.find("no profile data"), std::string::npos);
}

TEST_F(ToolTest, ConvertTauInput) {
  std::string Tau = Dir + "/profile.0.0.0";
  ASSERT_TRUE(writeFile(Tau,
                        "2 templated_functions_MULTI_TIME\n"
                        "\"main()\" 1 1 500 1500 0\n"
                        "\"main() => calc()\" 3 0 1000 1000 0\n")
                  .ok());
  ASSERT_EQ(run({"info", Tau}), 0) << Err;
  EXPECT_NE(Out.find("format:   tau"), std::string::npos);
  ASSERT_EQ(run({"butterfly", Tau, "calc()"}), 0) << Err;
  EXPECT_NE(Out.find("main()"), std::string::npos);
}

TEST_F(ToolTest, OptionWithoutValueFails) {
  EXPECT_EQ(run({"flame", Evprof, "--shape"}), ExitUsageError);
  EXPECT_NE(Err.find("needs a value"), std::string::npos);
}

TEST_F(ToolTest, UndeclaredOptionIsAUsageError) {
  // An option the command does not declare is refused, not ignored.
  EXPECT_EQ(run({"query", Evprof, "--frobnicate", "1", "--e", "print 1;"}),
            ExitUsageError);
  EXPECT_EQ(Out, "");
  EXPECT_NE(Err.find("unknown option '--frobnicate'"), std::string::npos)
      << Err;
  // The removed interpreter switch is refused by name instead of
  // swallowing the next argument as its value.
  EXPECT_EQ(run({"query", Evprof, "--interpreter", "--e", "print 1;"}),
            ExitUsageError);
  EXPECT_NE(Err.find("unknown option '--interpreter'"), std::string::npos)
      << Err;
  // A flag is declared per command too.
  EXPECT_EQ(run({"info", Evprof, "--werror"}), ExitUsageError);
  EXPECT_NE(Err.find("unknown option"), std::string::npos) << Err;
  EXPECT_EQ(run({"info", Evprof, "-Werror"}), ExitUsageError);
  EXPECT_NE(Err.find("unknown option '-Werror'"), std::string::npos) << Err;
}

TEST_F(ToolTest, UsageNamesEveryCommandWithTheParsedSpelling) {
  ASSERT_EQ(run({"help"}), ExitSuccess);
  std::string Usage = Out;
  for (const char *Command :
       {"info", "summary", "flame", "table", "convert", "diff", "aggregate",
        "query", "check", "lint", "regress", "butterfly", "annotate",
        "report", "store", "serve", "help"})
    EXPECT_TRUE(Usage.find("\n  " + std::string(Command) + " ") !=
                    std::string::npos ||
                Usage.find("\n  " + std::string(Command) + "\n") !=
                    std::string::npos)
        << Command;
  // query's program option is spelled the way the parser accepts it.
  EXPECT_NE(Usage.find("query <profile> [--e PROGRAM]"), std::string::npos)
      << Usage;
  EXPECT_EQ(Usage.find(" -e "), std::string::npos) << Usage;
  ASSERT_EQ(run({"query", Evprof, "--e", "print 1;"}), ExitSuccess) << Err;
  ASSERT_EQ(run({"--help"}), ExitSuccess);
  EXPECT_EQ(Out, Usage);
  // The derived text wraps within 78 columns.
  for (std::string_view Line : splitString(Usage, '\n'))
    EXPECT_LE(Line.size(), 78u) << Line;
}

TEST_F(ToolTest, EveryNumericOptionRefusesAMalformedValue) {
  // The numeric options every command declares, by kind.
  using Decl = std::tuple<std::string, std::string, std::string>;
  const std::set<Decl> Numeric = {
      {"flame", "columns", "count"},      {"table", "rows", "count"},
      {"regress", "rel-min", "ratio"},    {"regress", "abs-min", "ratio"},
      {"regress", "sigma", "ratio"},      {"regress", "node-budget", "count"},
      {"store", "budget", "count"},       {"serve", "sessions", "count"},
      {"serve", "max-conns", "count"},    {"serve", "idle-ms", "count"},
      {"serve", "frame-ms", "count"},     {"serve", "drain-ms", "count"},
      {"serve", "drain-after-ms", "count"},
  };
  const std::string CountMsg = " expects an unsigned number, got '";
  const std::string RatioMsg = " expects a non-negative number, got '";

  // Every option of every command in the usage text: "-1" is malformed
  // for both numeric kinds. The trailing undeclared option stops a
  // command whose option takes text before it runs.
  ASSERT_EQ(run({"help"}), ExitSuccess);
  std::string Usage = Out;
  std::set<Decl> Seen;
  std::string Command;
  for (std::string_view Line : splitString(Usage, '\n')) {
    if (startsWith(Line, "  ") && Line.size() > 2 && Line[2] != ' ')
      Command = std::string(splitString(Line.substr(2), ' ')[0]);
    else if (!startsWith(Line, "    ") || startsWith(Line, "      "))
      continue;
    for (size_t At = Line.find("[--"); At != std::string_view::npos;
         At = Line.find("[--", At + 1)) {
      size_t End = Line.find_first_of(" ]", At);
      std::string Option(Line.substr(At + 3, End - At - 3));
      std::string Flag = "--" + Option;
      ASSERT_EQ(run({Command, Flag, "-1", "--zz"}), ExitUsageError)
          << Command << " " << Flag;
      EXPECT_TRUE(Out.empty()) << Command << " " << Flag;
      if (Err.find(Flag + CountMsg + "-1'") != std::string::npos)
        Seen.insert({Command, Option, "count"});
      else if (Err.find(Flag + RatioMsg + "-1'") != std::string::npos)
        Seen.insert({Command, Option, "ratio"});
      else
        EXPECT_NE(Err.find("unknown option '--zz'"), std::string::npos)
            << Command << " " << Flag << ": " << Err;
    }
  }
  EXPECT_EQ(Seen, Numeric);

  // Each numeric option names itself and the value it refused.
  for (const auto &[Cmd, Option, Kind] : Numeric)
    for (const char *Bad : {"x", "", "1e400", "nan"}) {
      std::string Value = Kind == "count" && Bad[0] == 'n' ? "1.5" : Bad;
      ASSERT_EQ(run({Cmd, "--" + Option, Value}), ExitUsageError)
          << Cmd << " --" << Option << " " << Value;
      EXPECT_EQ(Err, "evtool: error: --" + Option +
                         (Kind == "count" ? CountMsg : RatioMsg) + Value +
                         "'\n");
    }
}

//===----------------------------------------------------------------------===
// check / lint
//===----------------------------------------------------------------------===

TEST_F(ToolTest, CheckReportsDiagnosticsWithSpans) {
  std::string Query = Dir + "/bad.evql";
  ASSERT_TRUE(
      writeFile(Query, "let unused = 1;\nprint oops + totl(\"t\");\n").ok());
  EXPECT_EQ(run({"check", Query}), ExitDataError);
  EXPECT_NE(Out.find(Query + ":1:1: warning:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[EVQL009]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[EVQL002]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[EVQL003]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("did you mean 'total'?"), std::string::npos) << Out;
  EXPECT_NE(Out.find("2 error(s), 1 warning(s)"), std::string::npos) << Out;
}

TEST_F(ToolTest, CheckFilterAndTotalsSeeEveryFinding) {
  // 1005 EVQL007 warnings, then an EVQL002 error past the 1000-finding
  // cap.
  std::string Query = Dir + "/many.evql";
  std::string Source;
  for (int I = 0; I < 1005; ++I)
    Source += "print 1 / 0;\n";
  ASSERT_TRUE(writeFile(Query, Source + "print nosuchvar;\n").ok());
  // The dropped findings count, so the run fails on its error.
  EXPECT_EQ(run({"check", Query}), ExitDataError) << Out;
  EXPECT_NE(Out.find(": 1 error(s), 1005 warning(s) (diagnostics "
                     "truncated; 6 dropped)"),
            std::string::npos)
      << Out.substr(Out.size() - std::min<size_t>(Out.size(), 200));
  // The severity filter runs before the cap: the error is listed.
  EXPECT_EQ(run({"check", Query, "--min-severity", "error"}), ExitDataError);
  EXPECT_NE(Out.find("many.evql:1006:7: error: undefined identifier "
                     "'nosuchvar' [EVQL002]"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("many.evql: 1 error(s), 0 warning(s)\n"),
            std::string::npos)
      << Out;
}

TEST_F(ToolTest, CheckCleanProgramSucceeds) {
  EXPECT_EQ(run({"check", "--e", "let x = 1; print x;"}), 0) << Out;
  EXPECT_NE(Out.find("<command-line>: 0 error(s), 0 warning(s)"),
            std::string::npos);
}

TEST_F(ToolTest, CheckWerrorEscalatesWarnings) {
  // An unused binding is a warning: accepted normally, fatal under -Werror.
  EXPECT_EQ(run({"check", "--e", "let unused = 1;"}), 0) << Out;
  EXPECT_EQ(run({"check", "--e", "let unused = 1;", "-Werror"}),
            ExitDataError);
}

TEST_F(ToolTest, CheckValidatesMetricsAgainstProfile) {
  EXPECT_EQ(run({"check", "--e", "print total(\"bogus\");", "--profile",
                 Evprof}),
            ExitDataError);
  EXPECT_NE(Out.find("[EVQL006]"), std::string::npos) << Out;
  EXPECT_EQ(run({"check", "--e", "print total(\"time\");", "--profile",
                 Evprof}),
            0)
      << Out;
}

TEST_F(ToolTest, CheckUsageErrors) {
  EXPECT_EQ(run({"check"}), ExitUsageError);
  EXPECT_EQ(run({"check", Dir + "/missing.evql"}), ExitDataError);
}

TEST_F(ToolTest, LintCleanProfileSucceeds) {
  EXPECT_EQ(run({"lint", Evprof}), 0) << Err;
  EXPECT_NE(Out.find("0 error(s), 0 warning(s)"), std::string::npos);
}

TEST_F(ToolTest, LintExplainsCorruptProfile) {
  // Node 1 referencing node 2 as parent breaks parents-first ordering;
  // the loader refuses it, lint explains it.
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(4, "");
  W.writeBytes(5, "");
  ProtoWriter N;
  N.writeVarint(1, 3);
  W.writeBytes(5, N.buffer());
  std::string Corrupt = Dir + "/corrupt.evprof";
  ASSERT_TRUE(writeFile(Corrupt, std::string(EvProfMagic) + W.buffer()).ok());

  EXPECT_EQ(run({"info", Corrupt}), ExitDataError);
  EXPECT_EQ(run({"lint", Corrupt}), ExitDataError);
  EXPECT_NE(Out.find("[EVL105]"), std::string::npos) << Out;
}

TEST_F(ToolTest, LintListRulesAndRuleFilters) {
  EXPECT_EQ(run({"lint", "--list-rules"}), 0);
  EXPECT_NE(Out.find("EVL201"), std::string::npos);
  EXPECT_NE(Out.find("exclusive-exceeds-inclusive"), std::string::npos);

  EXPECT_EQ(run({"lint", Evprof, "--disable", "no-such-rule"}),
            ExitUsageError);
  // Validation goes through the rule table shared with check and
  // regress, so the message no longer says "lint".
  EXPECT_NE(Err.find("unknown rule"), std::string::npos);
  EXPECT_EQ(run({"lint", Evprof, "--min-severity", "loud"}), ExitUsageError);
  EXPECT_EQ(run({"lint", Evprof, "--min-severity", "warning", "--disable",
                 "unreferenced-frame,zero-metric-subtree"}),
            0)
      << Err;
}

TEST_F(ToolTest, LintAcceptsForeignFormats) {
  // Non-evprof inputs are converted first, then linted as decoded trees.
  EXPECT_EQ(run({"lint", Folded}), 0) << Err;
}
