//===- tests/vm_test.cpp - EVQL bytecode VM differential suite ------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter is the oracle for the EVQL bytecode VM: for every
/// program the compiler accepts, runCompiled() must produce byte-identical
/// QueryOutput — transformed profile bytes, printed lines, derived metric
/// names, and error messages with their line numbers. This suite drives
/// both engines over a table-driven corpus (every builtin, every operator
/// family, every diagnostic path), pins the interpreter-fallback rule for
/// programs the compiler rejects, checks that a multi-chunk sweep reports
/// the lowest failing node, exercises the guarded depth column and the
/// recursion bounds, and covers the ProgramCache (LRU behavior plus
/// generation-keyed invalidation through pvp/query and pvp/append).
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "analysis/MetricEngine.h"
#include "ide/MockIde.h"
#include "profile/Profile.h"
#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "query/Compiler.h"
#include "query/Interpreter.h"
#include "query/Parser.h"
#include "query/Vm.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
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

/// Runs \p Src through the interpreter and the VM and asserts identical
/// outcomes: same ok/error state, identical error strings, identical
/// output bytes. Also checks runProgramAuto (the engine entry point)
/// against the interpreter, which covers the fallback path when the
/// compiler rejects the program.
void expectEnginesAgree(const Profile &P, const std::string &Src,
                        const AnalysisLimits &Limits = AnalysisLimits()) {
  SCOPED_TRACE("program: " + Src);
  Result<evql::QueryOutput> I = evql::runProgram(P, Src, Limits);
  Result<evql::QueryOutput> A = evql::runProgramAuto(P, Src, Limits);
  ASSERT_EQ(I.ok(), A.ok()) << (I ? A.error() : I.error());
  if (!I) {
    EXPECT_EQ(I.error(), A.error());
  } else {
    EXPECT_EQ(fingerprint(*I), fingerprint(*A));
  }

  // When the compiler accepts the program, also pin runCompiled directly.
  Result<evql::Program> Prog = evql::parseProgram(Src);
  if (!Prog)
    return; // Parse errors surface identically through both entry points.
  std::shared_ptr<const evql::CompiledProgram> C =
      evql::compileProgram(*Prog, Limits);
  if (!C)
    return;
  Result<evql::QueryOutput> V = evql::runCompiled(P, *C);
  ASSERT_EQ(I.ok(), V.ok()) << (I ? V.error() : I.error());
  if (!I)
    EXPECT_EQ(I.error(), V.error());
  else
    EXPECT_EQ(fingerprint(*I), fingerprint(*V));
}

/// Programs the compiler must accept (no interpreter fallback): asserts
/// compilation succeeds, then engine agreement.
void expectCompiledAgree(const Profile &P, const std::string &Src) {
  Result<evql::Program> Prog = evql::parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.error() << "\nprogram: " << Src;
  EXPECT_NE(evql::compileProgram(*Prog, AnalysisLimits()), nullptr)
      << "compiler rejected: " << Src;
  expectEnginesAgree(P, Src);
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
    expectCompiledAgree(P, Src);
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
    expectCompiledAgree(P, Src);
}

TEST(EvqlDifferential, DiagnosticsMatchInterpreterExactly) {
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
    Result<evql::QueryOutput> I = evql::runProgram(P, Src);
    ASSERT_FALSE(I.ok()) << "corpus entry unexpectedly succeeded";
    expectEnginesAgree(P, Src);
  }
}

TEST(EvqlDifferential, ShortCircuitSkipsUnevaluatedOperands) {
  Profile P = test::makeFixedProfile();
  // The interpreter never evaluates the right side when the left decides;
  // the VM compiles the right side under a lane mask whose error lanes
  // are all dead. Both must succeed.
  const char *Lazy[] = {
      "prune when false && metric(\"nope\") > 0;",
      "keep when true || nosuchvar > 0;",
      "print false && 1 / 0 > 0;",
      "keep when !isleaf() || metric(\"time\") > 0;",
  };
  for (const char *Src : Lazy) {
    SCOPED_TRACE(Src);
    Result<evql::QueryOutput> I = evql::runProgram(P, Src);
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
    Result<evql::QueryOutput> I = evql::runProgram(P, Src);
    EXPECT_FALSE(I.ok());
    expectEnginesAgree(P, Src);
  }
}

TEST(EvqlFallback, MixedTypeTernaryFallsBackToInterpreter) {
  Profile P = test::makeFixedProfile();
  // A dynamically-typed ternary (number on one arm, string on the other)
  // has no typed register representation; the compiler must reject it and
  // runProgramAuto must fall back to the interpreter with identical
  // results.
  std::string Src = "keep when (isleaf() ? 1 : name()) != \"\";";
  Result<evql::Program> Prog = evql::parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.error();
  EXPECT_EQ(evql::compileProgram(*Prog, AnalysisLimits()), nullptr);
  Result<evql::QueryOutput> I = evql::runProgram(P, Src);
  ASSERT_TRUE(I.ok()) << I.error();
  expectEnginesAgree(P, Src);

  // Constant conditions fold to the taken arm, so THIS mixed ternary
  // stays compilable — the fold mirrors the interpreter's laziness.
  std::string Folded = "print true ? 1 : \"s\";";
  Result<evql::Program> FoldedProg = evql::parseProgram(Folded);
  ASSERT_TRUE(FoldedProg.ok()) << FoldedProg.error();
  EXPECT_NE(evql::compileProgram(*FoldedProg, AnalysisLimits()), nullptr);
  expectEnginesAgree(P, Folded);
}

TEST(EvqlVm, MatchesInterpreterIncludingLowestFailingNode) {
  Profile P = test::makeRandomProfile(99, 3000, 14, 50);
  const std::string Ok =
      "derive hot = exclusive(\"time\") + inclusive(\"time\") / "
      "(1 + depth()) + min(share(\"time\") * 1000, nchildren() + 3);\n"
      "keep when depth() < 8 || share(\"time\") > 0.001;\n"
      "print total(\"time\"); print nodecount();";
  // An error whose failing lanes sit mid-profile and span several chunks:
  // the reported diagnostic must be the lowest failing node's, the one the
  // interpreter stops at.
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

  Result<evql::QueryOutput> I = evql::runProgram(P, Ok);
  ASSERT_TRUE(I.ok()) << I.error();
  EXPECT_EQ(fingerprint(*I), fingerprint(*V));
  Result<evql::QueryOutput> IE = evql::runProgram(P, Bad);
  ASSERT_FALSE(IE.ok());
  EXPECT_EQ(IE.error(), E.error());
}

TEST(EvqlRender, NumbersBeyondInt64PrintViaDouble) {
  Profile P = test::makeFixedProfile();
  // 1e19 overflows int64; the old static_cast was UB. Both engines now
  // route through formatDouble(V, 6).
  Result<evql::QueryOutput> R =
      evql::runProgram(P, "print 5000000000 * 2000000000;");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->Printed[0], "10000000000000000000.000000");
  expectCompiledAgree(P, "print 5000000000 * 2000000000;");
  expectCompiledAgree(P, "print 0 - 5000000000 * 2000000000;");
  expectCompiledAgree(P, "print str(5000000000 * 2000000000);");
  // In-range integral doubles keep the integer rendering.
  Result<evql::QueryOutput> Small = evql::runProgram(P, "print 4.0 * 25;");
  ASSERT_TRUE(Small.ok());
  EXPECT_EQ(Small->Printed[0], "100");
}

TEST(EvqlRender, FmtClampsHostileDigitCounts) {
  Profile P = test::makeFixedProfile();
  // A digit count beyond int range would be UB in the double->int
  // conversion; renderFormatted clamps it for both engines.
  expectCompiledAgree(P, "print fmt(3.5, 2000000000000);");
  expectCompiledAgree(P, "print fmt(3.5, 0 - 2000000000000);");
  expectCompiledAgree(P, "print fmt(1.0 / 3, 3);");
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

  // 600 nested parens: the parser itself refuses; both entry points
  // surface the identical parse error.
  expectEnginesAgree(P, Parens(600));

  // Custom limits thread through compileProgram the same as runProgram.
  AnalysisLimits Tight;
  Tight.MaxExprDepth = 4;
  expectEnginesAgree(P, Chain(2), Tight);
  expectEnginesAgree(P, "print 1 + 2 * (3 + (4 - (5 + 6)));", Tight);
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

TEST(EvqlCache, KeyEmbedsSourceProfileAndGeneration) {
  std::string A = evql::programCacheKey("print 1;", 7, 3);
  EXPECT_NE(A, evql::programCacheKey("print 2;", 7, 3));
  EXPECT_NE(A, evql::programCacheKey("print 1;", 8, 3));
  EXPECT_NE(A, evql::programCacheKey("print 1;", 7, 4));
  EXPECT_EQ(A, evql::programCacheKey("print 1;", 7, 3));
}

TEST(EvqlCache, PvpQueryHitsWarmAndInvalidatesOnAppend) {
  MockIde Ide;
  std::vector<std::string> Stages = test::growthStageBytes(2);
  Result<int64_t> Id = Ide.openProfile("live", Stages[0]);
  ASSERT_TRUE(Id.ok()) << Id.error();

  auto Stat = [&](const char *Key) {
    Result<json::Value> S = Ide.call("pvp/stats", json::Object());
    EXPECT_TRUE(S.ok());
    const json::Value *V = S->asObject().find(Key);
    return V ? static_cast<int64_t>(V->numberOr(-1)) : -1;
  };
  auto Query = [&] {
    json::Object Params;
    Params.set("profile", *Id);
    Params.set("program", "derive x = 2 * exclusive(\"time\");"
                          "print total(\"time\");");
    Result<json::Value> R = Ide.call("pvp/query", std::move(Params));
    ASSERT_TRUE(R.ok()) << R.error();
  };

  EXPECT_GT(Stat("programCacheCapacity"), 0);
  int64_t Hits0 = Stat("programCacheHits");
  int64_t Misses0 = Stat("programCacheMisses");

  // Cold: compile, then insert under the post-query generation.
  Query();
  EXPECT_EQ(Stat("programCacheHits"), Hits0);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 1);

  // Warm: the identical source at the current generation hits.
  Query();
  EXPECT_EQ(Stat("programCacheHits"), Hits0 + 1);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 1);
  int64_t Size1 = Stat("programCacheSize");

  // pvp/append bumps the profile generation, so the cached program's key
  // stops matching: the next identical query is a miss (recompile), and
  // the one after that hits again.
  json::Object AP;
  AP.set("profile", *Id);
  AP.set("dataBase64", base64Encode(test::sectionBytes(Stages, 0)));
  Result<json::Value> Appended = Ide.call("pvp/append", std::move(AP));
  ASSERT_TRUE(Appended.ok()) << Appended.error();

  Query();
  EXPECT_EQ(Stat("programCacheHits"), Hits0 + 1);
  EXPECT_EQ(Stat("programCacheMisses"), Misses0 + 2);
  Query();
  EXPECT_EQ(Stat("programCacheHits"), Hits0 + 2);
  EXPECT_GE(Stat("programCacheSize"), Size1);
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
