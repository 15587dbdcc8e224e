//===- tests/sema_test.cpp - Static analysis tests ------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the static-analysis layer: the diagnostic primitives, the
/// EVQL semantic analyzer (every EVQL rule with one firing and one
/// non-firing program), and the profile lint engine (every EVL rule, with
/// .evprof corruption crafted byte by byte).
///
//===----------------------------------------------------------------------===//

#include "analysis/Diagnostic.h"
#include "analysis/ProfileLint.h"
#include "analysis/Sema.h"
#include "proto/EvProf.h"
#include "query/Vm.h"
#include "support/ProtoWire.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ev;

namespace {

DiagnosticSet runSema(std::string_view Source, const Profile *P = nullptr,
                      AnalysisLimits Limits = AnalysisLimits::defaults()) {
  SemaOptions Opts;
  Opts.MetricSource = P;
  Opts.Limits = Limits;
  DiagnosticSet Out(Limits.MaxDiagnostics);
  SemaChecker(Opts).checkSource(Source, Out);
  return Out;
}

bool hasId(const DiagnosticSet &Diags, std::string_view Id) {
  for (const Diagnostic &D : Diags.all())
    if (D.Id == Id)
      return true;
  return false;
}

size_t countId(const DiagnosticSet &Diags, std::string_view Id) {
  size_t N = 0;
  for (const Diagnostic &D : Diags.all())
    N += D.Id == Id;
  return N;
}

std::string describe(const DiagnosticSet &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags.all())
    Out += renderDiagnostic(D, "test") + "\n";
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===
// Diagnostic primitives
//===----------------------------------------------------------------------===

TEST(Diagnostic, SeverityNamesRoundTrip) {
  for (Severity S : {Severity::Note, Severity::Info, Severity::Warning,
                     Severity::Error}) {
    Severity Back = Severity::Note;
    ASSERT_TRUE(parseSeverity(severityName(S), Back));
    EXPECT_EQ(Back, S);
  }
  Severity Out = Severity::Note;
  EXPECT_FALSE(parseSeverity("fatal", Out));
  EXPECT_FALSE(parseSeverity("", Out));
}

TEST(Diagnostic, RenderIncludesSpanIdAndHint) {
  Diagnostic D;
  D.Id = "EVQL002";
  D.Sev = Severity::Error;
  D.Message = "undefined identifier 'y'";
  D.Hint = "did you mean 'x'?";
  D.Line = 3;
  D.Column = 7;
  std::string Text = renderDiagnostic(D, "q.evql");
  EXPECT_NE(Text.find("q.evql:3:7: error: undefined identifier 'y'"),
            std::string::npos);
  EXPECT_NE(Text.find("[EVQL002]"), std::string::npos);
  EXPECT_NE(Text.find("hint: did you mean 'x'?"), std::string::npos);

  // Without a source position the span is omitted entirely.
  D.Line = 0;
  D.Hint.clear();
  Text = renderDiagnostic(D, "q.evql");
  EXPECT_NE(Text.find("q.evql: error:"), std::string::npos);
  EXPECT_EQ(Text.find(":0:"), std::string::npos);
  EXPECT_EQ(Text.find("hint"), std::string::npos);
}

TEST(Diagnostic, SetCapsAndCounts) {
  DiagnosticSet Set(2);
  for (int I = 0; I < 5; ++I) {
    Diagnostic D;
    D.Id = "X";
    D.Sev = I == 0 ? Severity::Error : Severity::Warning;
    Set.add(D);
  }
  EXPECT_EQ(Set.size(), 2u);
  EXPECT_EQ(Set.dropped(), 3u);
  EXPECT_TRUE(Set.truncated());
  // The counts include the three dropped warnings.
  EXPECT_EQ(Set.count(Severity::Error), 1u);
  EXPECT_EQ(Set.count(Severity::Warning), 4u);
  EXPECT_EQ(Set.count(Severity::Note), 0u);
}

TEST(Sema, RuleFilterAppliesBeforeTheCap) {
  // 1005 EVQL007 warnings, then an EVQL002 error past the default cap.
  std::string Source;
  for (int I = 0; I < 1005; ++I)
    Source += "print 1 / 0;\n";
  Source += "print nosuchvar;\n";
  SemaOptions Opts;
  Opts.Filter.MinSeverity = Severity::Error;
  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  SemaChecker(Opts).checkSource(Source, Diags);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags.all()[0].Id, "EVQL002");
  EXPECT_FALSE(Diags.truncated());
}

TEST(Diagnostic, SortBySourceOrdersBySpan) {
  DiagnosticSet Set(16);
  auto Add = [&](size_t Line, size_t Column) {
    Diagnostic D;
    D.Id = "X";
    D.Line = Line;
    D.Column = Column;
    Set.add(D);
  };
  Add(3, 1);
  Add(1, 9);
  Add(1, 2);
  Set.sortBySource();
  EXPECT_EQ(Set.all()[0].Line, 1u);
  EXPECT_EQ(Set.all()[0].Column, 2u);
  EXPECT_EQ(Set.all()[1].Column, 9u);
  EXPECT_EQ(Set.all()[2].Line, 3u);
}

//===----------------------------------------------------------------------===
// Sema: the check registry
//===----------------------------------------------------------------------===

TEST(Sema, RegistryIsCompleteAndLookupWorks) {
  EXPECT_EQ(std::count_if(std::begin(AnalysisRules), std::end(AnalysisRules),
                          [](const RuleInfo &R) {
                            return R.Id.starts_with("EVQL");
                          }),
            13);
  const RuleInfo *ById = findRule("EVQL005");
  ASSERT_NE(ById, nullptr);
  EXPECT_EQ(ById->Name, "type-mismatch");
  const RuleInfo *ByName = findRule("unused-binding");
  ASSERT_NE(ByName, nullptr);
  EXPECT_EQ(ByName->Id, "EVQL009");
  EXPECT_EQ(findRule("EVQL999"), nullptr);
}

//===----------------------------------------------------------------------===
// Sema: every rule, one firing and one non-firing program
//===----------------------------------------------------------------------===

namespace {

struct SemaCase {
  const char *CheckId;
  const char *Source;
};

// Each program trips exactly the rule under test (it may trip others too;
// the assertion is only that the expected id fires).
const SemaCase Firing[] = {
    {"EVQL001", "let = 1;"},
    {"EVQL002", "print missing;"},
    {"EVQL003", "print totl(\"time\");"},
    {"EVQL004", "print total(\"time\", 1);"},
    {"EVQL005", "print 1 - \"a\";"},
    {"EVQL006", "print total(\"nope\");"},
    {"EVQL007", "print 1 / 0;"},
    {"EVQL008", "prune when true;"},
    {"EVQL009", "let unused = 1;"},
    {"EVQL010", "return 1;\nprint 2;"},
    {"EVQL011", "print name();"},
};

// Each program exercises the same construct correctly and is fully clean:
// zero diagnostics of any kind.
const SemaCase Clean[] = {
    {"EVQL001", "let x = 1;\nprint x;"},
    {"EVQL002", "let y = 2;\nprint y;"},
    {"EVQL003", "print total(\"time\");"},
    {"EVQL004", "print min(1, 2);"},
    {"EVQL005", "print \"a\" + \"b\";"},
    {"EVQL006", "derive d = 1;\nprint total(\"d\");"},
    {"EVQL007", "print ratio(1, 0);"},
    {"EVQL008", "prune when metric(\"time\") < 1;"},
    {"EVQL009", "let used = 1;\nprint used;"},
    {"EVQL010", "print 1;\nreturn 2;"},
    {"EVQL011", "derive hot = exclusive(\"time\");"},
};

} // namespace

TEST(Sema, EveryRuleFires) {
  Profile P = test::makeFixedProfile();
  for (const SemaCase &C : Firing) {
    DiagnosticSet Diags = runSema(C.Source, &P);
    EXPECT_TRUE(hasId(Diags, C.CheckId))
        << C.CheckId << " did not fire on: " << C.Source << "\n"
        << describe(Diags);
    // Every source-level finding carries a 1-based span.
    for (const Diagnostic &D : Diags.all()) {
      EXPECT_GT(D.Line, 0u) << describe(Diags);
      EXPECT_GT(D.Column, 0u) << describe(Diags);
    }
  }
}

TEST(Sema, EveryRuleStaysQuietOnCorrectCode) {
  Profile P = test::makeFixedProfile();
  for (const SemaCase &C : Clean) {
    DiagnosticSet Diags = runSema(C.Source, &P);
    EXPECT_TRUE(Diags.empty())
        << "clean program for " << C.CheckId << " diagnosed:\n"
        << describe(Diags);
  }
}

TEST(Sema, ExprDepthLimitFires) {
  // 300 chained unary minuses nest past the default 256-deep expression
  // budget but stay inside the parser's own recursion guard.
  std::string Deep = "print " + std::string(300, '-') + "1;";
  DiagnosticSet Diags = runSema(Deep);
  EXPECT_TRUE(hasId(Diags, "EVQL012")) << describe(Diags);

  DiagnosticSet Shallow = runSema("print --1;");
  EXPECT_TRUE(Shallow.empty()) << describe(Shallow);
}

TEST(Sema, ProgramSizeLimitFires) {
  AnalysisLimits Tight;
  Tight.MaxProgramBytes = 8;
  DiagnosticSet Diags = runSema("print 12345;", nullptr, Tight);
  EXPECT_TRUE(hasId(Diags, "EVQL013")) << describe(Diags);
  EXPECT_TRUE(Diags.truncated());

  DiagnosticSet Ok = runSema("print 1;", nullptr, Tight);
  EXPECT_TRUE(Ok.empty()) << describe(Ok);
}

//===----------------------------------------------------------------------===
// Sema: spans, hints, recovery, budgets
//===----------------------------------------------------------------------===

TEST(Sema, ColumnsAreOneBasedAndExact) {
  DiagnosticSet Diags = runSema("let a = 1;\nprint a + oops;");
  ASSERT_EQ(countId(Diags, "EVQL002"), 1u) << describe(Diags);
  for (const Diagnostic &D : Diags.all())
    if (D.Id == "EVQL002") {
      EXPECT_EQ(D.Line, 2u);
      EXPECT_EQ(D.Column, 11u);
    }
}

TEST(Sema, SuggestsNearbyNames) {
  Profile P = test::makeFixedProfile();
  DiagnosticSet Builtin = runSema("print totl(\"time\");", &P);
  std::string Text = describe(Builtin);
  EXPECT_NE(Text.find("did you mean 'total'?"), std::string::npos) << Text;

  DiagnosticSet Metric = runSema("print total(\"tim\");", &P);
  Text = describe(Metric);
  EXPECT_NE(Text.find("time"), std::string::npos) << Text;

  DiagnosticSet Binding = runSema("let count = 1;\nprint cont + count;", &P);
  Text = describe(Binding);
  EXPECT_NE(Text.find("did you mean 'count'?"), std::string::npos) << Text;
}

TEST(Sema, RecoveryReportsMultipleSyntaxErrors) {
  // Two broken statements, one good one: both parse failures surface and
  // the survivor is still analyzed.
  DiagnosticSet Diags =
      runSema("let = 1;\nprint 2 + ;\nprint undefined_thing;");
  EXPECT_EQ(countId(Diags, "EVQL001"), 2u) << describe(Diags);
  EXPECT_TRUE(hasId(Diags, "EVQL002")) << describe(Diags);
}

TEST(Sema, DiagnosticBudgetTruncates) {
  AnalysisLimits Tight;
  Tight.MaxDiagnostics = 2;
  std::string Source;
  for (int I = 0; I < 8; ++I)
    Source += "print u" + std::to_string(I) + ";\n";
  DiagnosticSet Diags(Tight.MaxDiagnostics);
  SemaOptions Opts;
  Opts.Limits = Tight;
  SemaChecker(Opts).checkSource(Source, Diags);
  EXPECT_EQ(Diags.size(), 2u);
  EXPECT_GT(Diags.dropped(), 0u);
  EXPECT_TRUE(Diags.truncated());
}

TEST(Sema, ConstantConditionExplainsBothPolarities) {
  DiagnosticSet TrueCase = runSema("keep when 1 < 2;");
  EXPECT_TRUE(hasId(TrueCase, "EVQL008")) << describe(TrueCase);
  DiagnosticSet FalseCase = runSema("prune when 1 > 2;");
  EXPECT_TRUE(hasId(FalseCase, "EVQL008")) << describe(FalseCase);
}

TEST(Sema, FoldingMatchesInterpreterSemantics) {
  // Bool-to-number coercion and short-circuit evaluation fold exactly the
  // way the interpreter evaluates, so no false constant-condition claims.
  DiagnosticSet Coerce = runSema("print (1 < 2) + 1;");
  EXPECT_TRUE(Coerce.empty()) << describe(Coerce);
  // 'false && bad' short-circuits: the undefined name on the dead side
  // still diagnoses (sema walks both sides), but the fold must not crash.
  DiagnosticSet Short = runSema("keep when 1 > 2 && metric(\"t\") > 0;");
  EXPECT_TRUE(hasId(Short, "EVQL008")) << describe(Short);
}

TEST(Sema, ConstantConditionsFoldLikeTheEngineRunsThem) {
  // The checker folds through the compiler's folder: 1e308 * 10 is +inf,
  // and inf >= inf holds in the engine, so the checker must not call the
  // condition always false (inf - inf is NaN, not 0). Pure builtin calls
  // and mixed string/number equality fold too.
  struct Row {
    const char *Source;
    const char *Message;
  };
  const Row Rows[] = {
      {"prune when 1e308 * 10 >= 1e308 * 10;",
       "'prune when' condition is always true"},
      {"prune when min(1, 2) > 0;", "'prune when' condition is always true"},
      {"prune when \"a\" == 1;", "'prune when' condition is always false"},
  };
  Profile P = test::makeFixedProfile();
  for (const Row &R : Rows) {
    DiagnosticSet Diags = runSema(R.Source);
    ASSERT_EQ(countId(Diags, "EVQL008"), 1u) << R.Source << "\n"
                                               << describe(Diags);
    for (const Diagnostic &D : Diags.all())
      if (D.Id == "EVQL008") {
        EXPECT_EQ(D.Message, R.Message) << R.Source;
      }
    // The engine agrees: always true prunes every node below the root,
    // always false prunes nothing.
    Result<evql::QueryOutput> Out = evql::runProgram(P, R.Source);
    ASSERT_TRUE(Out.ok()) << Out.error();
    bool AlwaysTrue = std::string_view(R.Message).ends_with("true");
    EXPECT_EQ(Out->Result.nodeCount(), AlwaysTrue ? 1u : P.nodeCount())
        << R.Source;
  }
}

TEST(Sema, MixedTypeTernaryIsATypeMismatch) {
  // The engine's registers are statically typed, so a ternary whose arms
  // differ under a data-dependent condition fails at runtime; the checker
  // says so first, with the runtime message minus its line.
  struct Row {
    const char *Source;
    const char *Message; ///< nullptr: EVQL005 must stay quiet.
  };
  const Row Rows[] = {
      {"keep when (isleaf() ? 1 : name()) != \"\";",
       "ternary branches have different types (number and string)"},
      {"print nodecount() > 3 ? \"many\" : nodecount() > 1;",
       "ternary branches have different types (string and condition)"},
      // Same types, a constant condition, an unknown arm: quiet. An arm
      // that always fails (wrong arity, node builtin outside a node
      // context) has no type, as in the engine.
      {"print nodecount() > 3 ? 1 : 2;", nullptr},
      {"print true ? 1 : \"s\";", nullptr},
      {"print nodecount() > 3 ? 1 : missing;", nullptr},
      {"print nodecount() > 3 ? \"a\" : min(1);", nullptr},
      {"print nodecount() > 3 ? 1 : name();", nullptr},
  };
  for (const Row &R : Rows) {
    DiagnosticSet Diags = runSema(R.Source);
    if (!R.Message) {
      EXPECT_FALSE(hasId(Diags, "EVQL005")) << R.Source << "\n"
                                             << describe(Diags);
      continue;
    }
    ASSERT_EQ(countId(Diags, "EVQL005"), 1u) << R.Source << "\n"
                                               << describe(Diags);
    for (const Diagnostic &D : Diags.all())
      if (D.Id == "EVQL005") {
        EXPECT_EQ(D.Message, R.Message);
        EXPECT_EQ(D.Sev, Severity::Error);
        EXPECT_EQ(D.Rule, "type-mismatch");
      }
  }
}

TEST(Sema, EveryMixedTernaryPairReadsAsTheEngineTrap) {
  // The engine's trap and EVQL005 spell the message with one function
  // (evql::ternaryMismatch): for every (then, else) pair of different
  // types both name the pair the same way, a condition as "condition".
  const std::pair<const char *, const char *> Arms[] = {
      {"1", "number"}, {"\"s\"", "string"}, {"nodecount() > 1", "condition"}};
  Profile P = test::makeFixedProfile();
  for (const auto &[Then, ThenName] : Arms)
    for (const auto &[Else, ElseName] : Arms) {
      if (Then == Else)
        continue;
      std::string Src = std::string("print nodecount() > 3 ? ") + Then +
                        " : " + Else + ";";
      std::string Want = std::string("ternary branches have different "
                                     "types (") +
                         ThenName + " and " + ElseName + ")";
      Result<evql::QueryOutput> Run = evql::runProgram(P, Src);
      ASSERT_FALSE(Run.ok()) << Src;
      EXPECT_EQ(Run.error(), Want + " at line 1");
      DiagnosticSet Diags = runSema(Src);
      ASSERT_EQ(countId(Diags, "EVQL005"), 1u) << Src << "\n"
                                                 << describe(Diags);
      for (const Diagnostic &D : Diags.all()) {
        if (D.Id == "EVQL005") {
          EXPECT_EQ(D.Message, Want) << Src;
        }
      }
    }
}

TEST(Sema, NoMetricSourceSkipsMetricCheck) {
  DiagnosticSet Diags = runSema("print total(\"anything-at-all\");");
  EXPECT_FALSE(hasId(Diags, "EVQL006")) << describe(Diags);
}

//===----------------------------------------------------------------------===
// ProfileLinter: registry and clean baseline
//===----------------------------------------------------------------------===

TEST(ProfileLint, RegistryIsCompleteAndLookupWorks) {
  EXPECT_EQ(std::count_if(std::begin(AnalysisRules), std::end(AnalysisRules),
                          [](const RuleInfo &R) {
                            return R.Id.starts_with("EVL1") ||
                                   R.Id.starts_with("EVL2");
                          }),
            14);
  const RuleInfo *ById = findRule("EVL201");
  ASSERT_NE(ById, nullptr);
  EXPECT_EQ(ById->Name, "exclusive-exceeds-inclusive");
  const RuleInfo *ByName = findRule("duplicate-context-id");
  ASSERT_NE(ByName, nullptr);
  EXPECT_EQ(ByName->Id, "EVL204");
}

TEST(ProfileLint, CleanProfileProducesNoFindings) {
  Profile P = test::makeFixedProfile();
  ProfileLinter Linter;
  DiagnosticSet Decoded(64);
  Linter.lintProfile(P, Decoded);
  EXPECT_TRUE(Decoded.empty()) << describe(Decoded);

  DiagnosticSet Both(64);
  EXPECT_TRUE(Linter.lint(writeEvProf(P), DecodeLimits(), Both));
  EXPECT_TRUE(Both.empty()) << describe(Both);
}

//===----------------------------------------------------------------------===
// ProfileLinter: refused streams, crafted byte by byte
//===----------------------------------------------------------------------===

namespace {

// Field numbers mirror proto/EvProf.cpp: EvProfile {name=1, string=2,
// metric=3, frame=4, node=5, group=6}, Metric {name=1},
// Frame {kind=1, name=2, file=3},
// Node {parent_plus1=1, frame=2, value=3}, MetricValue {metric=1,
// value=2}, Group {kind=1, context=2(packed), metric=3, value=4}.
std::string wrap(const ProtoWriter &W) {
  return std::string(EvProfMagic) + W.buffer();
}

std::string danglingFrameStringRef() {
  ProtoWriter W;
  W.writeBytes(2, ""); // string table: [""]
  ProtoWriter F;
  F.writeVarint(2, 7); // frame name -> string 7: out of range
  W.writeBytes(4, F.buffer());
  return wrap(W);
}

std::string danglingNodeFrameRef() {
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(4, ""); // frame table: [root]
  ProtoWriter N;
  N.writeVarint(2, 5); // node frame -> frame 5: out of range
  W.writeBytes(5, N.buffer());
  return wrap(W);
}

std::string danglingGroupContext() {
  ProtoWriter W;
  W.writeBytes(2, "");
  ProtoWriter M;
  M.writeBytes(1, "time");
  W.writeBytes(3, M.buffer()); // metric 0, which the group names
  W.writeBytes(4, "");
  W.writeBytes(5, ""); // one root node
  ProtoWriter G;
  uint64_t Contexts[] = {3}; // -> node 3: out of range
  G.writePackedVarints(2, Contexts, 1);
  W.writeBytes(6, G.buffer());
  return wrap(W);
}

std::string danglingMetricRef() {
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(4, "");
  ProtoWriter V;
  V.writeVarint(1, 2); // metric value -> metric 2: none declared
  V.writeDouble(2, 1.0);
  ProtoWriter N;
  N.writeBytes(3, V.buffer());
  W.writeBytes(5, N.buffer());
  return wrap(W);
}

std::string forwardParentRef() {
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(4, "");
  W.writeBytes(5, ""); // node 0: root
  ProtoWriter N;
  N.writeVarint(1, 3); // node 1 -> parent node 2: breaks parents-first
  W.writeBytes(5, N.buffer());
  return wrap(W);
}

/// A frame naming string 1 before any string arrived: every field is well
/// formed and the string comes later, but readEvProf resolves references
/// as they arrive.
std::string stringsAfterFrames() {
  ProtoWriter W;
  ProtoWriter F;
  F.writeVarint(2, 1); // frame name -> string 1: not yet arrived
  W.writeBytes(4, F.buffer());
  W.writeBytes(2, "");
  W.writeBytes(2, "main");
  W.writeBytes(5, "");
  return wrap(W);
}

std::string frameOfUnknownKind() {
  ProtoWriter W;
  W.writeBytes(2, "");
  ProtoWriter F;
  F.writeVarint(1, 99); // frame kind 99: no such kind
  W.writeBytes(4, F.buffer());
  W.writeBytes(5, "");
  return wrap(W);
}

std::string duplicateMetric() {
  ProtoWriter W;
  W.writeBytes(2, "");
  ProtoWriter M;
  M.writeBytes(1, "time");
  W.writeBytes(3, M.buffer());
  W.writeBytes(3, M.buffer()); // the same name again
  W.writeBytes(4, "");
  W.writeBytes(5, "");
  return wrap(W);
}

std::string nodeWithoutAnyFrame() {
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(5, ""); // frame 0 by default, but no frame arrived
  return wrap(W);
}

/// A well-formed two-node stream, refused under a one-node decode limit.
std::string twoNodes() {
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(4, "");
  W.writeBytes(5, "");
  ProtoWriter N;
  N.writeVarint(1, 1); // node 1 -> parent node 0
  W.writeBytes(5, N.buffer());
  return wrap(W);
}

DecodeLimits oneNode() {
  DecodeLimits L;
  L.MaxNodes = 1;
  return L;
}

struct RefusalCase {
  std::string_view ExpectId;
  std::string Bytes;
  /// The wire node the fault is in, for faults inside a Node message.
  NodeId Node = InvalidNode;
  DecodeLimits Limits = DecodeLimits();
};

} // namespace

TEST(ProfileLint, RefusalIsOneFindingForTheDecodersFault) {
  const RefusalCase Cases[] = {
      {"EVL101", danglingFrameStringRef()},
      {"EVL102", danglingNodeFrameRef(), 0},
      {"EVL103", danglingGroupContext()},
      {"EVL104", danglingMetricRef(), 0},
      {"EVL105", forwardParentRef(), 1},
      {"EVL101", stringsAfterFrames()},
      {"EVL100", "not even close to a profile"},
      {"EVL100", std::string(EvProfMagic) + std::string(64, '\xff')},
      // Faults no reference rule names: the generic EVL100.
      {"EVL100", twoNodes(), InvalidNode, oneNode()},
      {"EVL100", frameOfUnknownKind()},
      {"EVL100", duplicateMetric()},
      {"EVL102", nodeWithoutAnyFrame(), 0},
  };
  ProfileLinter Linter;
  for (const RefusalCase &C : Cases) {
    // The decoder refuses the stream...
    Result<Profile> P = readEvProf(C.Bytes, C.Limits);
    ASSERT_FALSE(P.ok()) << C.ExpectId;
    // ...and lint reports that refusal as one finding of the expected
    // rule, in the decoder's words.
    DiagnosticSet Diags(64);
    EXPECT_FALSE(Linter.lint(C.Bytes, C.Limits, Diags));
    ASSERT_EQ(Diags.size(), 1u) << P.error() << "\n" << describe(Diags);
    const Diagnostic &D = Diags.all()[0];
    EXPECT_EQ(D.Id, C.ExpectId) << describe(Diags);
    EXPECT_EQ(D.Node, C.Node) << describe(Diags);
    EXPECT_TRUE(D.Message == P.error() ||
                (D.Id == "EVL100" &&
                 D.Message == "profile does not decode: " + P.error()))
        << P.error() << "\n" << describe(Diags);
    EXPECT_TRUE(Diags.truncated());
  }
}

TEST(ProfileLint, FirstFaultWinsOverLaterCorruptFraming) {
  // A dangling reference followed by a truncated top-level field (frame
  // tag, length 5, no payload): the decoder refuses the stream at the
  // reference and never reads the framing after it.
  std::string Bytes = danglingFrameStringRef() + "\x22\x05";
  ProfileLinter Linter;
  DiagnosticSet Diags(64);
  EXPECT_FALSE(Linter.lint(Bytes, DecodeLimits(), Diags));
  ASSERT_EQ(Diags.size(), 1u) << describe(Diags);
  EXPECT_EQ(Diags.all()[0].Id, "EVL101") << describe(Diags);
  EXPECT_EQ(Diags.all()[0].Message, readEvProf(Bytes).error());
}

TEST(ProfileLint, CombinedLintDoesNotDoubleReportExplainedCorruption) {
  ProfileLinter Linter;
  DiagnosticSet Diags(64);
  EXPECT_FALSE(Linter.lint(forwardParentRef(), DecodeLimits(), Diags));
  ASSERT_EQ(Diags.size(), 1u) << describe(Diags);
  EXPECT_EQ(Diags.all()[0].Id, "EVL105") << describe(Diags);
  // The generic decode-failure finding stands only for faults no rule
  // names.
  EXPECT_EQ(Diags.all()[0].Message.find("profile does not decode"),
            std::string::npos)
      << describe(Diags);
}

TEST(ProfileLint, UnexplainedDecodeFailureStillReported) {
  // A refusal no reference rule names: structurally sound wire with zero
  // nodes.
  ProtoWriter W;
  W.writeBytes(2, "");
  W.writeBytes(4, "");
  std::string Bytes = wrap(W);
  ProfileLinter Linter;
  DiagnosticSet Diags(64);
  EXPECT_FALSE(Linter.lint(Bytes, DecodeLimits(), Diags));
  ASSERT_TRUE(hasId(Diags, "EVL100")) << describe(Diags);
  EXPECT_NE(describe(Diags).find("profile does not decode"),
            std::string::npos);
}

//===----------------------------------------------------------------------===
// ProfileLinter: decoded-profile rules
//===----------------------------------------------------------------------===

TEST(ProfileLint, ExclusiveExceedsInclusiveOnNegativeDescendant) {
  ProfileBuilder B("neg");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  FrameId Leak = B.functionFrame("leak");
  std::vector<FrameId> P = {Main};
  B.addSample(P, Time, 10);
  P = {Main, Leak};
  B.addSample(P, Time, -5); // inclusive(main) = 5 < exclusive(main) = 10
  DiagnosticSet Diags(64);
  ProfileLinter().lintProfile(B.take(), Diags);
  EXPECT_TRUE(hasId(Diags, "EVL201")) << describe(Diags);
}

TEST(ProfileLint, DepthPathologyHonorsThreshold) {
  ProfileBuilder B("deep");
  MetricId Time = B.addMetric("time", "ns");
  std::vector<FrameId> Path;
  for (int I = 0; I < 6; ++I)
    Path.push_back(B.functionFrame("f" + std::to_string(I)));
  B.addSample(Path, Time, 1);
  Profile P = B.take();

  LintOptions Tight;
  Tight.MaxReasonableDepth = 3;
  DiagnosticSet Fires(64);
  ProfileLinter(Tight).lintProfile(P, Fires);
  EXPECT_TRUE(hasId(Fires, "EVL202")) << describe(Fires);

  DiagnosticSet Quiet(64);
  ProfileLinter().lintProfile(P, Quiet);
  EXPECT_FALSE(hasId(Quiet, "EVL202")) << describe(Quiet);
}

TEST(ProfileLint, FanOutPathologyHonorsThreshold) {
  ProfileBuilder B("wide");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  for (int I = 0; I < 5; ++I) {
    std::vector<FrameId> P = {Main,
                              B.functionFrame("c" + std::to_string(I))};
    B.addSample(P, Time, 1);
  }
  Profile P = B.take();

  LintOptions Tight;
  Tight.MaxReasonableFanOut = 3;
  DiagnosticSet Fires(64);
  ProfileLinter(Tight).lintProfile(P, Fires);
  EXPECT_TRUE(hasId(Fires, "EVL203")) << describe(Fires);
}

TEST(ProfileLint, DuplicateContextIdInGroup) {
  ProfileBuilder B("dup");
  MetricId Reuse = B.addMetric("reuse", "count");
  FrameId Main = B.functionFrame("main");
  std::vector<FrameId> Path = {Main};
  NodeId Leaf = B.addSample(Path, Reuse, 1);
  std::vector<NodeId> Contexts = {Leaf, Leaf};
  B.addGroup("reuse-pair", Contexts, Reuse, 2.0);
  DiagnosticSet Diags(64);
  ProfileLinter().lintProfile(B.take(), Diags);
  EXPECT_TRUE(hasId(Diags, "EVL204")) << describe(Diags);
}

TEST(ProfileLint, ZeroMetricSubtreeFlagsMaximalSubtree) {
  ProfileBuilder B("zero");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  FrameId Dead = B.functionFrame("dead");
  FrameId Deeper = B.functionFrame("deeper");
  std::vector<FrameId> P = {Main};
  B.addSample(P, Time, 10);
  P = {Main, Dead, Deeper};
  B.pushPath(P); // two-node subtree under main with no values anywhere
  DiagnosticSet Diags(64);
  ProfileLinter().lintProfile(B.take(), Diags);
  EXPECT_EQ(countId(Diags, "EVL205"), 1u) << describe(Diags);
}

TEST(ProfileLint, NonMonotonicSourceOffsetsAmongSiblings) {
  ProfileBuilder B("lines");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main", "app.cc", 1);
  FrameId Late = B.functionFrame("late", "app.cc", 50);
  FrameId Early = B.functionFrame("early", "app.cc", 10);
  std::vector<FrameId> P = {Main, Late};
  B.addSample(P, Time, 1);
  P = {Main, Early}; // same file, decreasing line among siblings
  B.addSample(P, Time, 1);
  DiagnosticSet Diags(64);
  ProfileLinter().lintProfile(B.take(), Diags);
  EXPECT_TRUE(hasId(Diags, "EVL206")) << describe(Diags);
}

TEST(ProfileLint, DuplicateMetricValueOnOneNode) {
  ProfileBuilder B("dupval");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  std::vector<FrameId> Path = {Main};
  NodeId Leaf = B.addSample(Path, Time, 5);
  // addSample merges same-metric values; a buggy producer's raw append
  // does not.
  B.appendValue(Leaf, {Time, 1.0});
  Profile P = B.take();
  DiagnosticSet Diags(64);
  ProfileLinter().lintProfile(P, Diags);
  EXPECT_TRUE(hasId(Diags, "EVL207")) << describe(Diags);
}

TEST(ProfileLint, UnreferencedFrameReportedOnce) {
  ProfileBuilder B("orphan");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  B.functionFrame("never-called");
  B.functionFrame("also-never-called");
  std::vector<FrameId> Path = {Main};
  B.addSample(Path, Time, 1);
  DiagnosticSet Diags(64);
  ProfileLinter().lintProfile(B.take(), Diags);
  EXPECT_EQ(countId(Diags, "EVL208"), 1u) << describe(Diags);
}

//===----------------------------------------------------------------------===
// ProfileLinter: configuration
//===----------------------------------------------------------------------===

TEST(ProfileLint, DisableByNameSuppressesRule) {
  ProfileBuilder B("neg");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  FrameId Leak = B.functionFrame("leak");
  std::vector<FrameId> P = {Main};
  B.addSample(P, Time, 10);
  P = {Main, Leak};
  B.addSample(P, Time, -5);
  Profile Prof = B.take();

  LintOptions Opts;
  Opts.Filter.Disabled = {"exclusive-exceeds-inclusive"};
  DiagnosticSet Diags(64);
  ProfileLinter(Opts).lintProfile(Prof, Diags);
  EXPECT_FALSE(hasId(Diags, "EVL201")) << describe(Diags);
}

TEST(ProfileLint, MinSeveritySuppressesBelowThreshold) {
  ProfileBuilder B("orphan");
  MetricId Time = B.addMetric("time", "ns");
  FrameId Main = B.functionFrame("main");
  B.functionFrame("never-called");
  std::vector<FrameId> Path = {Main};
  B.addSample(Path, Time, 1);
  Profile Prof = B.take();

  LintOptions Opts;
  Opts.Filter.MinSeverity = Severity::Warning; // EVL208 is info
  DiagnosticSet Diags(64);
  ProfileLinter(Opts).lintProfile(Prof, Diags);
  EXPECT_FALSE(hasId(Diags, "EVL208")) << describe(Diags);
}

TEST(ProfileLint, NodeBudgetDegradesWithTruncatedFlag) {
  Profile P = test::makeRandomProfile(7);
  LintOptions Opts;
  Opts.Limits.MaxLintNodes = 4;
  DiagnosticSet Diags(64);
  ProfileLinter(Opts).lintProfile(P, Diags);
  EXPECT_TRUE(Diags.truncated());
}
