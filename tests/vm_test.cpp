//===- tests/vm_test.cpp - EVQL engine differential suite -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-walking oracle (EvqlOracle.h) defines EVQL; the production
/// engine (evql::runProgram: parse -> compileProgram -> runCompiled) must
/// produce byte-identical QueryOutput — transformed profile bytes, printed
/// lines, derived metric names, and error messages with their line
/// numbers. This suite drives both over a table-driven corpus (every
/// builtin, every operator family, every diagnostic path) and over a
/// seeded generated corpus, asserts the compiler accepts every program,
/// pins the two compiler-only traps (mixed-type ternary, register-file
/// overflow), checks that a multi-chunk sweep reports the lowest failing
/// node, exercises the guarded depth column and the size and recursion
/// bounds, and covers the ProgramCache (LRU behavior plus the source-only
/// key that keeps pvp/query warm across appends and profiles).
///
//===----------------------------------------------------------------------===//

#include "EvqlOracle.h"
#include "TestHelpers.h"

#include "analysis/MetricEngine.h"
#include "ide/MockIde.h"
#include "profile/Profile.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "query/Compiler.h"
#include "query/Parser.h"
#include "query/Vm.h"
#include "support/Rng.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ev {
namespace {

/// Everything an engine produced, in one string, so "byte-identical" is a
/// single comparison: serialized result profile + printed lines + derived
/// metric names.
std::string fingerprint(const evql::QueryOutput &O) {
  std::string S = writeEvProf(O.Result);
  for (const std::string &L : O.Printed) {
    S += "\nP:";
    S += L;
  }
  for (const std::string &D : O.DerivedMetrics) {
    S += "\nD:";
    S += D;
  }
  return S;
}

/// The outcome of one run as one string: the fingerprint, or the error.
std::string outcome(const Result<evql::QueryOutput> &R) {
  return R ? "ok\n" + fingerprint(*R) : "error: " + R.error();
}

/// Runs \p Src through the oracle and the production engine and asserts
/// identical outcomes: same ok/error state, identical error strings,
/// identical output bytes. The program must parse and compile; both
/// engines share the parser, so a parse error would agree trivially.
/// \returns whether the oracle ran the program without error.
bool expectEnginesAgree(const Profile &P, const std::string &Src,
                        const AnalysisLimits &Limits = AnalysisLimits()) {
  SCOPED_TRACE("program: " + Src);
  Result<evql::Program> Prog = evql::parseProgram(Src);
  if (!Prog) {
    ADD_FAILURE() << "does not parse: " << Prog.error();
    return false;
  }
  EXPECT_NE(evql::compileProgram(*Prog, Limits), nullptr);
  Result<evql::QueryOutput> O = evql::oracle::runProgram(P, Src, Limits);
  Result<evql::QueryOutput> V = evql::runProgram(P, Src, Limits);
  EXPECT_EQ(outcome(O), outcome(V));
  return O.ok();
}

TEST(EvqlDifferential, BuiltinsAndOperators) {
  Profile P = test::makeFixedProfile();
  const char *Corpus[] = {
      // Profile-level builtins and plain prints.
      "print total(\"time\");",
      "print nodecount();",
      "print total(\"time\") / nodecount();",
      // Metric family over nodes.
      "derive a = metric(\"time\");",
      "derive b = exclusive(\"time\") + inclusive(\"time\");",
      "derive c = share(\"time\") * 100;",
      // Topology intrinsics.
      "derive d = depth() + nchildren() * 2 - (isleaf() ? 1 : 0);",
      "keep when hasancestor(\"compute\");",
      "prune when hasancestor(\"nosuchframe\");",
      // Frame attribute builtins in string expressions.
      "prune when name() == \"memcpy\";",
      "keep when contains(file(), \"comp\") || module() == \"libc.so\";",
      "prune when startswith(name(), \"par\") && line() > 5;",
      "keep when endswith(kind(), \"n\") || isleaf();",
      "derive e = parentname() == \"compute\" ? metric(\"time\") : 0 - 1;",
      // Pure math builtins, with both const and node-varying operands.
      "derive f = min(metric(\"time\"), 30) + max(depth(), 2) + "
      "abs(0 - metric(\"time\")) + ratio(metric(\"time\"), 7);",
      "derive g = log(metric(\"time\") + 1) + sqrt(metric(\"time\")) + "
      "floor(share(\"time\") * 10) + ceil(share(\"time\") * 10);",
      "print min(3, 4); print max(3, 4); print ratio(1, 4); "
      "print abs(0 - 2.5); print log(1); print sqrt(9); "
      "print floor(1.9); print ceil(1.1);",
      // Let bindings, constant propagation, guarded div/mod.
      "let k = 3; derive h = metric(\"time\") % k;",
      "let a = 2; let b = a * 3; derive z = metric(\"time\") * b;",
      "print 1 / 0; print 5 % 0;",
      "let s = str(42); print s;",
      "let t = total(\"time\"); print t > 50 ? str(t) : \"low\";",
      // String builtins and concatenation.
      "print \"ab\" + \"cd\";",
      "print str(1.5); print str(7); print fmt(3.14159, 2);",
      "print contains(\"haystack\", \"ays\"); "
      "print startswith(\"abc\", \"ab\"); print endswith(\"abc\", \"bc\");",
      // Comparisons, both numeric and string, plus mixed ==/!=.
      "print 1 < 2; print 2 <= 2; print 3 > 4; print 4 >= 4; "
      "print 1 == 1; print 1 != 2;",
      "print \"a\" < \"b\"; print \"b\" <= \"a\"; print \"a\" == \"a\"; "
      "print \"a\" != \"b\"; print \"z\" > \"a\"; print \"z\" >= \"z\";",
      "print 1 == \"1\"; print \"x\" != 2;",
      // Logic, ternaries, unary operators.
      "print true || false; print false && true; print !false;",
      "print 1 < 2 ? \"yes\" : \"no\";",
      "print 10 - -3; print -(2 + 3);",
      // Statement plumbing: keep/prune of everything/nothing, return.
      "keep when true;",
      "prune when false;",
      "return total(\"time\") / 2; print \"unreachable\";",
      // Derived metrics visible to later statements through metric().
      "derive hot = exclusive(\"time\") * 2; keep when metric(\"hot\") > 30; "
      "print nodecount();",
  };
  for (const char *Src : Corpus)
    expectEnginesAgree(P, Src);
}

TEST(EvqlDifferential, RandomProfileSweep) {
  // A larger, multi-chunk profile so lanes cross the 2048-lane chunk
  // boundary and the keep/prune paths rewrite real topology.
  Profile P = test::makeRandomProfile(42, 3000, 14, 50);
  const char *Corpus[] = {
      "derive hot = exclusive(\"time\") + inclusive(\"time\") / "
      "(1 + depth());",
      "derive w = share(\"time\") > 0.0001 && !isleaf() ? nchildren() : 1;",
      "keep when depth() < 6 || share(\"time\") > 0.001;",
      "prune when isleaf() && metric(\"bytes\") == 0;",
      "keep when hasancestor(\"fn1\") || startswith(name(), \"fn2\");",
      "derive hot = metric(\"time\") * 3; prune when metric(\"hot\") < 10; "
      "print total(\"time\"); print nodecount();",
  };
  for (const char *Src : Corpus)
    expectEnginesAgree(P, Src);
}

TEST(EvqlDifferential, DiagnosticsMatchOracleExactly) {
  Profile P = test::makeFixedProfile();
  const char *Corpus[] = {
      // Node-context misuse (long and short forms).
      "print name();",
      "print file();",
      "print depth();",
      "print share(\"time\");",
      "print metric(\"time\");",
      "print parentname();",
      "print isleaf();",
      "print hasancestor(\"main\");",
      // Unknown things.
      "derive x = metric(\"missing\");",
      "keep when hasancestor(\"main\") && metric(\"missing\") > 0;",
      "print unknownfn(1);",
      "print nosuchvar;",
      // Type errors on the numeric path.
      "derive x = \"a\" * 2;",
      "print 1 + \"a\";",
      "print \"a\" - 1;",
      "derive x = name();",
      "keep when \"str\";",
      "let x = \"s\"; derive y = metric(\"time\") + x;",
      // Arity errors (checked before operand evaluation).
      "print min(1);",
      "print total();",
      "print fmt(1);",
      "print depth(1);",
      "print unknownfn(metric(\"missing\"));",
      // Line numbers survive multi-line programs.
      "print 1;\nprint metric(\"nope\");",
      "let a = 1;\nlet b = 2;\nderive x = a + b + name();",
  };
  for (const char *Src : Corpus) {
    SCOPED_TRACE(Src);
    Result<evql::QueryOutput> I = evql::oracle::runProgram(P, Src);
    ASSERT_FALSE(I.ok()) << "corpus entry unexpectedly succeeded";
    expectEnginesAgree(P, Src);
  }
}

TEST(EvqlDifferential, ShortCircuitSkipsUnevaluatedOperands) {
  Profile P = test::makeFixedProfile();
  // The oracle never evaluates the right side when the left decides; the
  // VM compiles the right side under a lane mask whose error lanes are all
  // dead. Both must succeed.
  const char *Lazy[] = {
      "prune when false && metric(\"nope\") > 0;",
      "keep when true || nosuchvar > 0;",
      "print false && 1 / 0 > 0;",
      "keep when !isleaf() || metric(\"time\") > 0;",
  };
  for (const char *Src : Lazy) {
    SCOPED_TRACE(Src);
    Result<evql::QueryOutput> I = evql::oracle::runProgram(P, Src);
    EXPECT_TRUE(I.ok()) << I.error();
    expectEnginesAgree(P, Src);
  }

  // Dynamic masks: some lanes DO reach the failing operand, and the
  // winning error is the first failing node in id order.
  const char *Failing[] = {
      "keep when isleaf() || metric(\"nope\") > 0;",
      "prune when depth() < 2 && metric(\"nope\") > 0 || "
      "name() == \"memcpy\";",
  };
  for (const char *Src : Failing) {
    SCOPED_TRACE(Src);
    Result<evql::QueryOutput> I = evql::oracle::runProgram(P, Src);
    EXPECT_FALSE(I.ok());
    expectEnginesAgree(P, Src);
  }
}

TEST(EvqlTraps, MixedTypeTernaryFailsWithPinnedMessage) {
  Profile P = test::makeFixedProfile();
  // A ternary with a number on one arm and a string on the other, under a
  // data-dependent condition, has no typed register representation: it
  // compiles to a trap under the ternary's mask. The oracle evaluates only
  // the taken arm and runs it; this is one of the two documented
  // differences.
  const std::string Src = "keep when (isleaf() ? 1 : name()) != \"\";";
  Result<evql::Program> Prog = evql::parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.error();
  EXPECT_NE(evql::compileProgram(*Prog, AnalysisLimits()), nullptr);
  EXPECT_TRUE(evql::oracle::runProgram(P, Src).ok());
  Result<evql::QueryOutput> V = evql::runProgram(P, Src);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.error(), "ternary branches have different types (number and "
                       "string) at line 1");

  // The line is the ternary's; a let fails where it is evaluated.
  Result<evql::QueryOutput> Let = evql::runProgram(
      P, "print 1;\nlet x = total(\"time\") > 50 ?\n  \"high\" : 0;\n"
         "print x;");
  ASSERT_FALSE(Let.ok());
  EXPECT_EQ(Let.error(), "ternary branches have different types (string and "
                         "number) at line 2");

  // The trap is masked like any other: no lane reaches the ternary here,
  // so both engines succeed with identical output.
  expectEnginesAgree(
      P, "keep when depth() < 0 && (isleaf() ? true : name()) != \"\";");
  // An arm that always traps has no type of its own and takes the other
  // arm's: both engines report the trap of the lowest failing node.
  expectEnginesAgree(P, "keep when (isleaf() ? \"a\" : nosuchvar) == \"a\";");
  expectEnginesAgree(P, "keep when (isleaf() ? name() : min(1)) == \"a\";");

  // Constant conditions fold to the taken arm, so THIS mixed ternary runs
  // in both engines: the fold mirrors the oracle's laziness.
  const std::string Folded = "print true ? 1 : \"s\";";
  expectEnginesAgree(P, Folded);
  Result<evql::QueryOutput> F = evql::runProgram(P, Folded);
  ASSERT_TRUE(F.ok()) << F.error();
  EXPECT_EQ(F->Printed, std::vector<std::string>{"1"});
}

/// A balanced sum of 2^\p Log2 depth() leaves: 2^Log2 - 1 additions, so
/// 2^(Log2+1) - 1 number registers, at expression depth Log2 + 1.
std::string balancedDepthSum(unsigned Log2) {
  if (Log2 == 0)
    return "depth()";
  std::string Half = balancedDepthSum(Log2 - 1);
  return "(" + Half + " + " + Half + ")";
}

TEST(EvqlTraps, RegisterOverflowFailsWithPinnedMessage) {
  Profile P = test::makeFixedProfile();
  // 2^14 leaves fit the register file: the engines agree.
  expectEnginesAgree(P, "derive x = " + balancedDepthSum(14) + ";");

  // 2^15 leaves need 65535 number registers, past the 65280 cap, yet the
  // source is well inside MaxProgramBytes. The statement compiles to one
  // trap; nothing crashes.
  const std::string Src =
      "print 1;\nderive x = " + balancedDepthSum(15) + ";";
  ASSERT_LT(Src.size(), AnalysisLimits().MaxProgramBytes);
  Result<evql::Program> Prog = evql::parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.error();
  std::shared_ptr<const evql::CompiledProgram> C =
      evql::compileProgram(*Prog, AnalysisLimits());
  ASSERT_NE(C, nullptr);
  ASSERT_EQ(C->Stmts.size(), 2u);
  EXPECT_EQ(C->Stmts[1].Code.size(), 1u);
  Result<evql::QueryOutput> V = evql::runCompiled(P, *C);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.error(), "statement needs more than 65280 registers at line 2");

  // Global slots count too: the 65281st numeric 'let' is refused the same
  // way, on its own line.
  std::string Lets;
  for (size_t I = 0; I <= 65280; ++I)
    Lets += "let v" + std::to_string(I) + "=0;\n";
  ASSERT_LT(Lets.size(), AnalysisLimits().MaxProgramBytes);
  Result<evql::QueryOutput> G = evql::runProgram(P, Lets);
  ASSERT_FALSE(G.ok());
  EXPECT_EQ(G.error(),
            "statement needs more than 65280 registers at line 65281");
}

TEST(EvqlVm, MatchesOracleIncludingLowestFailingNode) {
  Profile P = test::makeRandomProfile(99, 3000, 14, 50);
  const std::string Ok =
      "derive hot = exclusive(\"time\") + inclusive(\"time\") / "
      "(1 + depth()) + min(share(\"time\") * 1000, nchildren() + 3);\n"
      "keep when depth() < 8 || share(\"time\") > 0.001;\n"
      "print total(\"time\"); print nodecount();";
  // An error whose failing lanes sit mid-profile and span several chunks:
  // the reported diagnostic must be the lowest failing node's, the one the
  // oracle stops at.
  const std::string Bad =
      "keep when depth() < 3 || metric(\"nope\") > 0;";

  Result<evql::Program> OkProg = evql::parseProgram(Ok);
  Result<evql::Program> BadProg = evql::parseProgram(Bad);
  ASSERT_TRUE(OkProg.ok() && BadProg.ok());
  auto OkC = evql::compileProgram(*OkProg, AnalysisLimits());
  auto BadC = evql::compileProgram(*BadProg, AnalysisLimits());
  ASSERT_NE(OkC, nullptr);
  ASSERT_NE(BadC, nullptr);

  Result<evql::QueryOutput> V = evql::runCompiled(P, *OkC);
  ASSERT_TRUE(V.ok()) << V.error();
  Result<evql::QueryOutput> E = evql::runCompiled(P, *BadC);
  ASSERT_FALSE(E.ok());

  Result<evql::QueryOutput> I = evql::oracle::runProgram(P, Ok);
  ASSERT_TRUE(I.ok()) << I.error();
  EXPECT_EQ(fingerprint(*I), fingerprint(*V));
  Result<evql::QueryOutput> IE = evql::oracle::runProgram(P, Bad);
  ASSERT_FALSE(IE.ok());
  EXPECT_EQ(IE.error(), E.error());
}

TEST(EvqlVm, DeriveKeepsTheInputsContextGroups) {
  // A run starts from the input profile, so a program that only derives
  // keeps its context groups, in the engine and in the oracle.
  ProfileBuilder B("grouped");
  MetricId M = B.addMetric("time", "ns");
  std::vector<FrameId> P1 = {B.functionFrame("main"), B.functionFrame("a")};
  std::vector<FrameId> P2 = {B.functionFrame("main"), B.functionFrame("b")};
  const NodeId Contexts[] = {B.addSample(P1, M, 3), B.addSample(P2, M, 5)};
  B.addGroup("reuse", Contexts, M, 42.0);
  Profile P = B.take();
  const std::string Src = "derive twice = metric(\"time\") * 2;";
  for (const Result<evql::QueryOutput> &R :
       {evql::runProgram(P, Src), evql::oracle::runProgram(P, Src)}) {
    ASSERT_TRUE(R.ok()) << R.error();
    const Profile &Out = R->Result;
    ASSERT_EQ(Out.groups().size(), 1u);
    ContextGroup G = Out.groups()[0];
    EXPECT_EQ(Out.text(G.Kind), "reuse");
    EXPECT_DOUBLE_EQ(G.Value, 42.0);
    ASSERT_EQ(G.Contexts.size(), 2u);
    EXPECT_EQ(G.Contexts[0], Contexts[0]);
    EXPECT_EQ(G.Contexts[1], Contexts[1]);
  }
  expectEnginesAgree(P, Src);
}

TEST(EvqlRender, NumbersBeyondInt64PrintViaDouble) {
  Profile P = test::makeFixedProfile();
  // 1e19 overflows int64; the old static_cast was UB. Both engines route
  // through formatDouble(V, 6).
  Result<evql::QueryOutput> R =
      evql::runProgram(P, "print 5000000000 * 2000000000;");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->Printed[0], "10000000000000000000.000000");
  expectEnginesAgree(P, "print 5000000000 * 2000000000;");
  expectEnginesAgree(P, "print 0 - 5000000000 * 2000000000;");
  expectEnginesAgree(P, "print str(5000000000 * 2000000000);");
  // In-range integral doubles keep the integer rendering.
  Result<evql::QueryOutput> Small = evql::runProgram(P, "print 4.0 * 25;");
  ASSERT_TRUE(Small.ok());
  EXPECT_EQ(Small->Printed[0], "100");
}

TEST(EvqlRender, FmtClampsHostileDigitCounts) {
  Profile P = test::makeFixedProfile();
  // A digit count beyond int range would be UB in the double->int
  // conversion; renderFormatted clamps it for both engines.
  expectEnginesAgree(P, "print fmt(3.5, 2000000000000);");
  expectEnginesAgree(P, "print fmt(3.5, 0 - 2000000000000);");
  expectEnginesAgree(P, "print fmt(1.0 / 3, 3);");
}

TEST(EvqlDepth, GuardedDepthColumn) {
  Profile P = test::makeFixedProfile();
  std::vector<uint32_t> D = depthColumn(P);
  ASSERT_EQ(D.size(), P.nodeCount());
  EXPECT_EQ(D[0], 0u); // Root depth is 0.
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    uint32_t Parent = P.node(Id).Parent;
    EXPECT_EQ(D[Id], D[Parent] + 1);
  }

  // Crafted parent columns never index out of bounds: a self-parent, a
  // forward reference, and an invalid parent on a non-root all map to 0.
  std::vector<uint32_t> Crafted = {InvalidNode, 0, 2, 5, InvalidNode, 3};
  std::vector<uint32_t> Depths = depthsFromParents(Crafted);
  ASSERT_EQ(Depths.size(), Crafted.size());
  EXPECT_EQ(Depths[0], 0u);
  EXPECT_EQ(Depths[1], 1u); // Normal child of root.
  EXPECT_EQ(Depths[2], 0u); // Self-parent guard.
  EXPECT_EQ(Depths[3], 0u); // Forward reference guard.
  EXPECT_EQ(Depths[4], 0u); // Invalid parent on a non-root.
  EXPECT_EQ(Depths[5], 1u); // Child of a guarded node.
}

TEST(EvqlLimits, NestingBoundIsACleanDiagnosticInBothEngines) {
  Profile P = test::makeFixedProfile();
  auto Parens = [](size_t Depth) {
    std::string Src = "print ";
    Src.append(Depth, '(');
    Src += "1";
    Src.append(Depth, ')');
    Src += ";";
    return Src;
  };
  auto Chain = [](size_t Ops) {
    // A left-leaning spine of Ops binary adds: AST depth Ops + 1.
    // (Parentheses unwrap in the parser and add no AST depth.)
    std::string Src = "print 1";
    for (size_t I = 0; I < Ops; ++I)
      Src += " + 1";
    Src += ";";
    return Src;
  };

  // 300 nested operators: parses fine, but both engines refuse at the
  // analysis bound with the same message and line.
  std::string Deep = Chain(300);
  Result<evql::QueryOutput> I = evql::runProgram(P, Deep);
  ASSERT_FALSE(I.ok());
  EXPECT_NE(I.error().find("expression nesting exceeds the analysis limit "
                           "of 256 at line 1"),
            std::string::npos)
      << I.error();
  expectEnginesAgree(P, Deep);

  // 600 nested parens: the parser itself refuses, and both engines
  // surface its error verbatim.
  const std::string TooDeep = Parens(600);
  Result<evql::Program> Unparsed = evql::parseProgram(TooDeep);
  ASSERT_FALSE(Unparsed.ok());
  Result<evql::QueryOutput> V = evql::runProgram(P, TooDeep);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.error(), Unparsed.error());
  EXPECT_EQ(outcome(evql::oracle::runProgram(P, TooDeep)), outcome(V));

  // Custom limits thread through compileProgram the same as the oracle.
  AnalysisLimits Tight;
  Tight.MaxExprDepth = 4;
  expectEnginesAgree(P, Chain(2), Tight);
  expectEnginesAgree(P, "print 1 + 2 * (3 + (4 - (5 + 6)));", Tight);
}

TEST(EvqlLimits, OversizedProgramIsRefusedBeforeParsing) {
  Profile P = test::makeFixedProfile();
  // One byte past MaxProgramBytes: the engine refuses with the checker's
  // EVQL013 message instead of lexing a megabyte of whitespace.
  const std::string Huge = "print 1;" + std::string(1u << 20, ' ');
  const std::string Expected =
      "program of 1048584 bytes exceeds the analysis limit of 1048576";
  Result<evql::QueryOutput> R = evql::runProgram(P, Huge);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error(), Expected);

  // pvp/query refuses it too, before parsing or probing the program cache.
  MockIde Ide;
  Result<int64_t> Id = Ide.openProfile("fixed", writeEvProf(P));
  ASSERT_TRUE(Id.ok()) << Id.error();
  json::Object Params;
  Params.set("profile", *Id);
  Params.set("program", Huge);
  Result<json::Value> Reply = Ide.call("pvp/query", std::move(Params));
  ASSERT_FALSE(Reply.ok());
  EXPECT_NE(Reply.error().find(Expected), std::string::npos)
      << Reply.error();
  Result<json::Value> Stats = Ide.call("pvp/stats", json::Object());
  ASSERT_TRUE(Stats.ok()) << Stats.error();
  const json::Value *Misses = Stats->asObject().find("programCacheMisses");
  ASSERT_NE(Misses, nullptr);
  EXPECT_EQ(Misses->numberOr(-1), 0);

  // At the limit exactly, the program runs.
  const std::string AtLimit =
      "print 1;" + std::string((1u << 20) - 8, ' ');
  EXPECT_TRUE(evql::runProgram(P, AtLimit).ok());
}

//===----------------------------------------------------------------------===
// Generated differential corpus
//===----------------------------------------------------------------------===

/// Seeded, type-directed EVQL program generator. Every expression it
/// builds has one static type, so ternary arms always agree (a mixed-type
/// ternary is where the engines part ways by design). It covers every
/// statement kind, operator family and builtin, with expression depth
/// bounded, and plants traps of every family at random leaves — so traps
/// land on both the live and the dead side of &&, || and ?:.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  /// Whether the last program has a trap somewhere, live or dead.
  bool plantedTrap() const { return Planted; }

  std::string program() {
    std::string Src;
    size_t Count = static_cast<size_t>(R.range(1, 5));
    for (size_t I = 0; I < Count; ++I)
      Src += statement() + "\n";
    return Src;
  }

private:
  enum class Ty { Num, Bool, Str };

  Rng R;
  bool NodeCtx = false;
  bool Planted = false;
  std::vector<std::pair<std::string, Ty>> Lets;
  std::vector<std::string> Derived;

  template <size_t N> const char *pick(const char *const (&Options)[N]) {
    return Options[R.below(N)];
  }
  Ty anyType() { return static_cast<Ty>(R.below(3)); }

  std::string statement() {
    switch (R.below(11)) {
    case 0:
    case 1: {
      NodeCtx = false;
      Ty T = anyType();
      std::string Name = "v" + std::to_string(Lets.size());
      std::string Value = expr(T, 3);
      Lets.emplace_back(Name, T);
      return "let " + Name + " = " + Value + ";";
    }
    case 2:
    case 3:
      NodeCtx = false;
      return "print " + expr(anyType(), 3) + ";";
    case 4:
    case 5:
    case 6: {
      NodeCtx = true;
      std::string Name = "d" + std::to_string(Derived.size());
      std::string Value = expr(Ty::Num, 4);
      Derived.push_back(Name);
      return "derive " + Name + " = " + Value + ";";
    }
    case 7:
    case 8:
      NodeCtx = true;
      return "prune when " + expr(Ty::Bool, 4) + ";";
    case 9:
      NodeCtx = true;
      return "keep when " + expr(Ty::Bool, 4) + ";";
    default:
      NodeCtx = false;
      return "return " + expr(anyType(), 2) + ";";
    }
  }

  /// A metric name: mostly a literal (memoized view slot), sometimes a
  /// data-dependent one (resolved per lane), rarely a missing one.
  std::string metricName(unsigned Depth) {
    if (R.chance(0.03))
      return "\"nope\"";
    if (!Derived.empty() && R.chance(0.25))
      return "\"" + Derived[R.below(Derived.size())] + "\"";
    if (Depth > 0 && R.chance(0.15))
      return "(" + expr(Ty::Bool, Depth - 1) + " ? \"time\" : \"bytes\")";
    return R.chance(0.5) ? "\"time\"" : "\"bytes\"";
  }

  std::string var(Ty T) {
    std::vector<std::string> Names;
    for (const auto &[Name, VT] : Lets)
      if (VT == T)
        Names.push_back(Name);
    return Names.empty() ? "" : Names[R.below(Names.size())];
  }

  /// An expression that fails on every lane reaching it (or, for the
  /// metric family, on every lane of a profile without the metric), typed
  /// \p T.
  std::string trap(Ty T) {
    Planted = true;
    switch (T) {
    case Ty::Num: {
      static const char *const Traps[] = {
          "metric(\"nope\")", "nosuchvar", "nosuchfn(1)", "min(1)",
          "(1 + \"s\")",      "total(\"nope\")", "floor()"};
      return pick(Traps);
    }
    case Ty::Bool: {
      static const char *const Traps[] = {
          "(inclusive(\"nope\") > 0)", "!\"s\"", "hasancestor()",
          "isleaf(1)", "contains(1, \"a\")"};
      return pick(Traps);
    }
    case Ty::Str: {
      static const char *const Traps[] = {"str(nosuchvar)", "fmt(1)",
                                          "name(1)", "parentname(\"x\")"};
      return pick(Traps);
    }
    }
    return "";
  }

  /// A condition that is false on every lane, on some lanes, or folds to
  /// a constant.
  std::string guard() {
    static const char *const Node[] = {"depth() < 0", "isleaf()",
                                       "depth() > 3", "nchildren() > 2",
                                       "false"};
    static const char *const Scalar[] = {"nodecount() < 0",
                                         "total(\"time\") < 0", "false",
                                         "nodecount() > 100"};
    return "(" + std::string(NodeCtx ? pick(Node) : pick(Scalar)) + ")";
  }

  /// A trap behind a guard: depending on the guard it is dead on every
  /// lane, live on some, or folded away with its short-circuit.
  std::string guardedTrap(Ty T, unsigned Depth) {
    std::string G = guard();
    switch (T == Ty::Bool ? R.below(4) : 2 + R.below(2)) {
    case 0:
      return "(" + G + " && " + trap(Ty::Bool) + ")";
    case 1:
      return "(!" + G + " || " + trap(Ty::Bool) + ")";
    case 2:
      return "(" + G + " ? " + trap(T) + " : " + expr(T, Depth) + ")";
    default:
      return "(!" + G + " ? " + expr(T, Depth) + " : " + trap(T) + ")";
    }
  }

  std::string leaf(Ty T) {
    if (R.chance(0.03))
      return trap(T);
    if (R.chance(0.2)) {
      std::string V = var(T);
      if (!V.empty())
        return V;
    }
    // Node builtins appear outside a node context too, now and then: that
    // is one more trap family.
    bool Node = NodeCtx || R.chance(0.02);
    switch (T) {
    case Ty::Num: {
      static const char *const Lits[] = {"0", "1", "2", "3", "0.5", "10",
                                         "100", "1000", "7.25"};
      static const char *const NodeNums[] = {"depth()", "nchildren()",
                                             "line()"};
      switch (R.below(Node ? 4 : 2)) {
      case 0:
        return pick(Lits);
      case 1:
        return R.chance(0.5) ? "nodecount()"
                             : "total(" + metricName(0) + ")";
      case 2:
        return pick(NodeNums);
      default: {
        static const char *const Fns[] = {"metric", "exclusive",
                                          "inclusive", "share"};
        return std::string(pick(Fns)) + "(" + metricName(1) + ")";
      }
      }
    }
    case Ty::Bool:
      if (Node && R.chance(0.5))
        return "isleaf()";
      return R.chance(0.5) ? "true" : "false";
    case Ty::Str: {
      static const char *const Lits[] = {"\"\"",       "\"fn1\"",
                                         "\"fn2\"",    "\"main\"",
                                         "\"file3.cc\"", "\"mod0\"",
                                         "\"function\"", "\"x\""};
      static const char *const NodeStrs[] = {"name()", "file()", "module()",
                                             "kind()", "parentname()"};
      return Node && R.chance(0.5) ? pick(NodeStrs) : pick(Lits);
    }
    }
    return "";
  }

  std::string expr(Ty T, unsigned Depth) {
    if (Depth == 0 || R.chance(0.25))
      return leaf(T);
    unsigned D = Depth - 1;
    if (R.chance(0.08))
      return guardedTrap(T, D);
    auto Cond = [&] { return expr(Ty::Bool, D); };
    if (R.chance(0.12))
      return "(" + Cond() + " ? " + expr(T, D) + " : " + expr(T, D) + ")";
    switch (T) {
    case Ty::Num:
      switch (R.below(6)) {
      case 0: {
        static const char *const Ops[] = {" + ", " - ", " * ", " / ", " % "};
        return "(" + expr(Ty::Num, D) + pick(Ops) + expr(Ty::Num, D) + ")";
      }
      case 1:
        return "-" + expr(Ty::Num, D);
      case 2:
        // A condition in arithmetic coerces to 0 or 1.
        return "(" + expr(Ty::Bool, D) + " * " + expr(Ty::Num, D) + ")";
      case 3: {
        static const char *const Fns[] = {"min", "max", "ratio"};
        return std::string(pick(Fns)) + "(" + expr(Ty::Num, D) + ", " +
               expr(Ty::Num, D) + ")";
      }
      case 4: {
        static const char *const Fns[] = {"abs", "log", "sqrt", "floor",
                                          "ceil"};
        return std::string(pick(Fns)) + "(" + expr(Ty::Num, D) + ")";
      }
      default:
        return leaf(Ty::Num);
      }
    case Ty::Bool:
      switch (R.below(7)) {
      case 0: {
        static const char *const Ops[] = {" < ", " <= ", " > ",
                                          " >= ", " == ", " != "};
        return "(" + expr(Ty::Num, D) + pick(Ops) + expr(Ty::Num, D) + ")";
      }
      case 1: {
        static const char *const Ops[] = {" < ", " <= ", " > ",
                                          " >= ", " == ", " != "};
        return "(" + expr(Ty::Str, D) + pick(Ops) + expr(Ty::Str, D) + ")";
      }
      case 2:
        // Mixed string/number equality is always false, operands still run.
        return "(" + expr(Ty::Num, D) + (R.chance(0.5) ? " == " : " != ") +
               expr(Ty::Str, D) + ")";
      case 3:
        return "!" + expr(Ty::Bool, D);
      case 4:
        // A number as a condition coerces against zero.
        return "(" + expr(R.chance(0.2) ? Ty::Num : Ty::Bool, D) +
               (R.chance(0.5) ? " && " : " || ") + expr(Ty::Bool, D) + ")";
      case 5: {
        static const char *const Fns[] = {"contains", "startswith",
                                          "endswith"};
        return std::string(pick(Fns)) + "(" + expr(Ty::Str, D) + ", " +
               expr(Ty::Str, D) + ")";
      }
      default:
        return NodeCtx ? "hasancestor(" + expr(Ty::Str, D) + ")" : leaf(T);
      }
    case Ty::Str:
      switch (R.below(4)) {
      case 0:
        return "(" + expr(Ty::Str, D) + " + " + expr(Ty::Str, D) + ")";
      case 1:
        return "str(" + expr(anyType(), D) + ")";
      case 2:
        return "fmt(" + expr(Ty::Num, D) + ", " +
               std::to_string(R.range(0, 4)) + ")";
      default:
        return leaf(Ty::Str);
      }
    }
    return leaf(T);
  }
};

TEST(EvqlGenerated, OracleAndEngineAgreeByteForByte) {
  const uint64_t Seeds = 256;
  std::string Corpus;
  size_t Failed = 0, Succeeded = 0, SucceededPastATrap = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    // Mostly small profiles; every 16th crosses the 2048-lane chunk
    // boundary.
    size_t Paths = Seed % 16 == 0 ? 900 : 20 + (Seed % 7) * 15;
    Profile P = test::makeRandomProfile(Seed, Paths, 10, 12);
    // Every fourth program runs under a tight nesting budget, so the
    // depth trap fires inside generated expressions as well.
    AnalysisLimits Limits;
    if (Seed % 4 == 0)
      Limits.MaxExprDepth = 5;
    ProgramGen Gen(Seed);
    std::string Src = Gen.program();
    SCOPED_TRACE("seed " + std::to_string(Seed));
    bool Ok = expectEnginesAgree(P, Src, Limits);
    ++(Ok ? Succeeded : Failed);
    SucceededPastATrap += Ok && Gen.plantedTrap();
    Corpus += Src;
  }
  // The corpus is worth something only if it both runs and fails, and if
  // traps sit on dead sides as well as live ones.
  EXPECT_GE(Succeeded, Seeds / 5);
  EXPECT_GE(Failed, Seeds / 10);
  EXPECT_GE(SucceededPastATrap, Seeds / 10);
  // Every statement kind, operator family and builtin shows up.
  for (const char *Token :
       {"let ", "print ", "derive ", "prune when ", "keep when ", "return ",
        " + ", " - ", " * ", " / ", " % ", "-", "!", " < ", " <= ", " > ",
        " >= ", " == ", " != ", " && ", " || ", " ? ", "metric(",
        "exclusive(", "inclusive(", "share(", "total(", "nodecount()",
        "name()", "file()", "module()", "kind()", "line()", "depth()",
        "nchildren()", "parentname()", "isleaf()", "hasancestor(", "min(",
        "max(", "ratio(", "abs(", "log(", "sqrt(", "floor(", "ceil(",
        "contains(", "startswith(", "endswith(", "str(", "fmt("})
    EXPECT_NE(Corpus.find(Token), std::string::npos) << Token;
}

TEST(EvqlCache, ProgramCacheLruAndCounters) {
  evql::ProgramCache C(2);
  EXPECT_EQ(C.capacity(), 2u);
  auto Mk = [] {
    return std::make_shared<const evql::CompiledProgram>();
  };
  EXPECT_EQ(C.lookup("k1"), nullptr);
  EXPECT_EQ(C.misses(), 1u);
  C.insert("k1", Mk());
  C.insert("k2", Mk());
  EXPECT_EQ(C.size(), 2u);
  EXPECT_NE(C.lookup("k1"), nullptr); // Refreshes k1 to the front.
  EXPECT_EQ(C.hits(), 1u);
  C.insert("k3", Mk()); // Evicts k2, the least recently used.
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.lookup("k2"), nullptr);
  EXPECT_NE(C.lookup("k1"), nullptr);
  EXPECT_NE(C.lookup("k3"), nullptr);
  // Re-inserting an existing key refreshes in place, no growth.
  C.insert("k3", Mk());
  EXPECT_EQ(C.size(), 2u);

  // Capacity 0 disables the cache.
  evql::ProgramCache Off(0);
  Off.insert("k", Mk());
  EXPECT_EQ(Off.size(), 0u);
  EXPECT_EQ(Off.lookup("k"), nullptr);
}

TEST(EvqlCache, KeyDependsOnTheSourceAlone) {
  std::string A = evql::programCacheKey("print 1;");
  EXPECT_NE(A, evql::programCacheKey("print 2;"));
  EXPECT_NE(A, evql::programCacheKey("print 1; "));
  EXPECT_EQ(A, evql::programCacheKey("print 1;"));
}

TEST(EvqlCache, PvpQueryHitsWarmAcrossAppendsAndProfiles) {
  MockIde Ide;
  std::vector<std::string> Stages = test::growthStageBytes(2);
  Result<int64_t> Id = Ide.openProfile("live", Stages[0]);
  ASSERT_TRUE(Id.ok()) << Id.error();
  Result<int64_t> Other =
      Ide.openProfile("fixed", writeEvProf(test::makeFixedProfile()));
  ASSERT_TRUE(Other.ok()) << Other.error();

  auto Stat = [&](const char *Key) {
    Result<json::Value> S = Ide.call("pvp/stats", json::Object());
    EXPECT_TRUE(S.ok());
    const json::Value *V = S->asObject().find(Key);
    return V ? static_cast<int64_t>(V->numberOr(-1)) : -1;
  };
  auto Query = [&](int64_t Profile) {
    json::Object Params;
    Params.set("profile", Profile);
    Params.set("program", "derive x = 2 * exclusive(\"time\");"
                          "print total(\"time\");");
    Result<json::Value> R = Ide.call("pvp/query", std::move(Params));
    ASSERT_TRUE(R.ok()) << R.error();
  };

  EXPECT_GT(Stat("programCacheCapacity"), 0);
  int64_t Hits0 = Stat("programCacheHits");
  int64_t Misses0 = Stat("programCacheMisses");

  // Cold: compile and insert.
  Query(*Id);
  EXPECT_EQ(Stat("programCacheHits"), Hits0);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 1);

  // Warm: the identical source hits, though the first query bumped the
  // profile's generation.
  Query(*Id);
  EXPECT_EQ(Stat("programCacheHits"), Hits0 + 1);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 1);
  int64_t Size1 = Stat("programCacheSize");

  // Compilation reads only the source, so neither an append (a new
  // generation) nor a second profile forces a recompile.
  json::Object AP;
  AP.set("profile", *Id);
  AP.set("dataBase64", base64Encode(test::sectionBytes(Stages, 0)));
  Result<json::Value> Appended = Ide.call("pvp/append", std::move(AP));
  ASSERT_TRUE(Appended.ok()) << Appended.error();

  Query(*Id);
  EXPECT_EQ(Stat("programCacheHits"), Hits0 + 2);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 1);
  Query(*Other);
  EXPECT_EQ(Stat("programCacheHits"), Hits0 + 3);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 1);
  EXPECT_EQ(Stat("programCacheSize"), Size1);
}

TEST(EvqlCache, QueryReplyByteIdenticalColdAndWarm) {
  MockIde Ide;
  Result<int64_t> Id =
      Ide.openProfile("fixed", writeEvProf(test::makeFixedProfile()));
  ASSERT_TRUE(Id.ok()) << Id.error();
  auto Query = [&] {
    json::Object Params;
    Params.set("profile", *Id);
    Params.set("program",
               "derive hot = exclusive(\"time\") + depth();"
               "keep when share(\"time\") > 0.05;"
               "print total(\"time\"); print nodecount();");
    return Ide.call("pvp/query", std::move(Params));
  };
  Result<json::Value> Cold = Query();
  ASSERT_TRUE(Cold.ok()) << Cold.error();
  Result<json::Value> Warm = Query();
  ASSERT_TRUE(Warm.ok()) << Warm.error();
  // The reply contains a fresh derived-profile id; everything else —
  // printed lines and derived names — must match bytewise.
  for (const char *Key : {"printed", "derived"}) {
    const json::Value *C = Cold->asObject().find(Key);
    const json::Value *W = Warm->asObject().find(Key);
    ASSERT_NE(C, nullptr) << Key;
    ASSERT_NE(W, nullptr) << Key;
    EXPECT_EQ(C->dump(), W->dump()) << Key;
  }
}

} // namespace
} // namespace ev
