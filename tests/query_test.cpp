//===- tests/query_test.cpp - EVQL language tests -------------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "query/Lexer.h"
#include "query/Parser.h"
#include "query/Vm.h"

#include "TestHelpers.h"
#include "analysis/MetricEngine.h"

#include <gtest/gtest.h>

using namespace ev;
using namespace ev::evql;

//===----------------------------------------------------------------------===
// Lexer
//===----------------------------------------------------------------------===

TEST(Lexer, TokenizesKeywordsAndIdentifiers) {
  Result<std::vector<Token>> Tokens =
      lex("let derive prune keep when print true false name");
  ASSERT_TRUE(Tokens.ok()) << Tokens.error();
  ASSERT_EQ(Tokens->size(), 10u); // Incl. EndOfInput.
  EXPECT_EQ((*Tokens)[0].Kind, TokenKind::KwLet);
  EXPECT_EQ((*Tokens)[5].Kind, TokenKind::KwPrint);
  EXPECT_EQ((*Tokens)[8].Kind, TokenKind::Identifier);
  EXPECT_EQ((*Tokens)[8].Text, "name");
  EXPECT_EQ((*Tokens)[9].Kind, TokenKind::EndOfInput);
}

TEST(Lexer, TokenizesOperators) {
  Result<std::vector<Token>> Tokens = lex("== != <= >= < > && || ! = ? :");
  ASSERT_TRUE(Tokens.ok());
  EXPECT_EQ((*Tokens)[0].Kind, TokenKind::EqualEqual);
  EXPECT_EQ((*Tokens)[1].Kind, TokenKind::BangEqual);
  EXPECT_EQ((*Tokens)[2].Kind, TokenKind::LessEqual);
  EXPECT_EQ((*Tokens)[3].Kind, TokenKind::GreaterEqual);
  EXPECT_EQ((*Tokens)[6].Kind, TokenKind::AmpAmp);
  EXPECT_EQ((*Tokens)[7].Kind, TokenKind::PipePipe);
  EXPECT_EQ((*Tokens)[9].Kind, TokenKind::Assign);
}

TEST(Lexer, NumbersIncludingScientific) {
  Result<std::vector<Token>> Tokens = lex("0 3.5 1e3 2.5e-2");
  ASSERT_TRUE(Tokens.ok());
  EXPECT_DOUBLE_EQ((*Tokens)[0].Number, 0.0);
  EXPECT_DOUBLE_EQ((*Tokens)[1].Number, 3.5);
  EXPECT_DOUBLE_EQ((*Tokens)[2].Number, 1000.0);
  EXPECT_DOUBLE_EQ((*Tokens)[3].Number, 0.025);
}

TEST(Lexer, StringsWithEscapes) {
  Result<std::vector<Token>> Tokens = lex(R"("a\nb\"c")");
  ASSERT_TRUE(Tokens.ok());
  EXPECT_EQ((*Tokens)[0].Text, "a\nb\"c");
}

TEST(Lexer, CommentsSkipped) {
  Result<std::vector<Token>> Tokens = lex("1 # a comment\n2");
  ASSERT_TRUE(Tokens.ok());
  ASSERT_EQ(Tokens->size(), 3u);
  EXPECT_DOUBLE_EQ((*Tokens)[1].Number, 2.0);
  EXPECT_EQ((*Tokens)[1].Line, 2u);
}

TEST(Lexer, RejectsBadInput) {
  EXPECT_FALSE(lex("\"unterminated").ok());
  EXPECT_FALSE(lex("a & b").ok());
  EXPECT_FALSE(lex("a | b").ok());
  EXPECT_FALSE(lex("@").ok());
}

TEST(Lexer, ErrorsCarryLineNumbers) {
  Result<std::vector<Token>> R = lex("ok();\n@");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("line 2"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

TEST(Parser, StatementKinds) {
  Result<Program> Prog = parseProgram("let x = 1;\n"
                                      "derive m = 2 * x;\n"
                                      "prune when depth() > 5;\n"
                                      "keep when true;\n"
                                      "print \"done\";\n");
  ASSERT_TRUE(Prog.ok()) << Prog.error();
  ASSERT_EQ(Prog->Statements.size(), 5u);
  EXPECT_EQ(Prog->Statements[0].TheKind, Stmt::Kind::Let);
  EXPECT_EQ(Prog->Statements[1].TheKind, Stmt::Kind::Derive);
  EXPECT_EQ(Prog->Statements[1].Name, "m");
  EXPECT_EQ(Prog->Statements[2].TheKind, Stmt::Kind::Prune);
  EXPECT_EQ(Prog->Statements[3].TheKind, Stmt::Kind::Keep);
  EXPECT_EQ(Prog->Statements[4].TheKind, Stmt::Kind::Print);
}

namespace {

/// Parses "print <Source>;" and \returns the printed expression, so the
/// expression grammar is tested through the one public parser entry.
Result<ExprPtr> parsePrinted(const std::string &Source) {
  Result<Program> Prog = parseProgram("print " + Source + ";");
  if (!Prog)
    return makeError(Prog.error());
  if (Prog->Statements.size() != 1 ||
      Prog->Statements[0].TheKind != Stmt::Kind::Print)
    return makeError("expected one print statement");
  return std::move(Prog->Statements[0].Value);
}

} // namespace

TEST(Parser, PrecedenceMultiplicationBeforeAddition) {
  Result<ExprPtr> E = parsePrinted("1 + 2 * 3");
  ASSERT_TRUE(E.ok()) << E.error();
  ASSERT_EQ((*E)->TheKind, Expr::Kind::Binary);
  EXPECT_EQ((*E)->Op, TokenKind::Plus);
  EXPECT_EQ((*E)->Operands[1]->Op, TokenKind::Star);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  Result<ExprPtr> E = parsePrinted("(1 + 2) * 3");
  ASSERT_TRUE(E.ok()) << E.error();
  EXPECT_EQ((*E)->Op, TokenKind::Star);
}

TEST(Parser, ComparisonBindsLooserThanArithmetic) {
  Result<ExprPtr> E = parsePrinted("1 + 2 < 3 * 4");
  ASSERT_TRUE(E.ok()) << E.error();
  EXPECT_EQ((*E)->Op, TokenKind::Less);
}

TEST(Parser, LogicalOperatorsNest) {
  Result<ExprPtr> E = parsePrinted("a() || b() && c()");
  ASSERT_TRUE(E.ok()) << E.error();
  EXPECT_EQ((*E)->Op, TokenKind::PipePipe); // && binds tighter.
}

TEST(Parser, TernaryRightAssociates) {
  Result<ExprPtr> E = parsePrinted("a() ? 1 : b() ? 2 : 3");
  ASSERT_TRUE(E.ok()) << E.error();
  ASSERT_EQ((*E)->TheKind, Expr::Kind::Ternary);
  EXPECT_EQ((*E)->Operands[2]->TheKind, Expr::Kind::Ternary);
}

TEST(Parser, CallsWithArguments) {
  Result<ExprPtr> E = parsePrinted("min(metric(\"a\"), 2 + 3)");
  ASSERT_TRUE(E.ok()) << E.error();
  EXPECT_EQ((*E)->TheKind, Expr::Kind::Call);
  EXPECT_EQ((*E)->Text, "min");
  ASSERT_EQ((*E)->Operands.size(), 2u);
  EXPECT_EQ((*E)->Operands[0]->TheKind, Expr::Kind::Call);
}

TEST(Parser, RejectsMissingSemicolon) {
  Result<Program> R = parseProgram("print 1");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("';'"), std::string::npos);
}

TEST(Parser, RejectsUnknownStatement) {
  EXPECT_FALSE(parseProgram("frobnicate 3;").ok());
}

TEST(Parser, RejectsMissingWhen) {
  EXPECT_FALSE(parseProgram("prune depth() > 3;").ok());
}

TEST(Parser, RejectsDanglingOperator) {
  EXPECT_FALSE(parsePrinted("1 +").ok());
  EXPECT_FALSE(parsePrinted("(1").ok());
  EXPECT_FALSE(parsePrinted("f(1,").ok());
  // A second expression where the statement must end.
  EXPECT_FALSE(parsePrinted("1 2").ok());
}

//===----------------------------------------------------------------------===
// Semantics, through the production engine (parse -> compile -> VM)
//===----------------------------------------------------------------------===

namespace {

std::string evalToString(const Profile &P, const std::string &Expr) {
  Result<QueryOutput> Out = runProgram(P, "print " + Expr + ";");
  EXPECT_TRUE(Out.ok()) << Out.error();
  return Out.ok() && !Out->Printed.empty() ? Out->Printed[0] : "<error>";
}

} // namespace

TEST(EvqlSemantics, Arithmetic) {
  Profile P = test::makeFixedProfile();
  EXPECT_EQ(evalToString(P, "1 + 2 * 3"), "7");
  EXPECT_EQ(evalToString(P, "10 / 4"), "2.500000");
  EXPECT_EQ(evalToString(P, "7 % 3"), "1");
  EXPECT_EQ(evalToString(P, "-(2 + 3)"), "-5");
  EXPECT_EQ(evalToString(P, "5 / 0"), "0"); // Guarded division.
}

TEST(EvqlSemantics, BooleansAndComparisons) {
  Profile P = test::makeFixedProfile();
  EXPECT_EQ(evalToString(P, "1 < 2"), "true");
  EXPECT_EQ(evalToString(P, "2 <= 1"), "false");
  EXPECT_EQ(evalToString(P, "!(1 == 1)"), "false");
  EXPECT_EQ(evalToString(P, "true && false"), "false");
  EXPECT_EQ(evalToString(P, "true || false"), "true");
  EXPECT_EQ(evalToString(P, "\"a\" == \"a\""), "true");
  EXPECT_EQ(evalToString(P, "\"a\" < \"b\""), "true");
}

TEST(EvqlSemantics, TernaryAndStrings) {
  Profile P = test::makeFixedProfile();
  EXPECT_EQ(evalToString(P, "1 < 2 ? \"yes\" : \"no\""), "yes");
  EXPECT_EQ(evalToString(P, "\"a\" + \"b\""), "ab");
  EXPECT_EQ(evalToString(P, "contains(\"hello\", \"ell\")"), "true");
  EXPECT_EQ(evalToString(P, "startswith(\"hello\", \"he\")"), "true");
  EXPECT_EQ(evalToString(P, "endswith(\"hello\", \"xo\")"), "false");
  EXPECT_EQ(evalToString(P, "str(42)"), "42");
  EXPECT_EQ(evalToString(P, "fmt(3.14159, 2)"), "3.14");
}

TEST(EvqlSemantics, MathBuiltins) {
  Profile P = test::makeFixedProfile();
  EXPECT_EQ(evalToString(P, "min(3, 5)"), "3");
  EXPECT_EQ(evalToString(P, "max(3, 5)"), "5");
  EXPECT_EQ(evalToString(P, "abs(-4)"), "4");
  EXPECT_EQ(evalToString(P, "sqrt(16)"), "4");
  EXPECT_EQ(evalToString(P, "floor(2.7)"), "2");
  EXPECT_EQ(evalToString(P, "ceil(2.1)"), "3");
  EXPECT_EQ(evalToString(P, "ratio(10, 4)"), "2.500000");
  EXPECT_EQ(evalToString(P, "ratio(10, 0)"), "0"); // Guarded.
}

TEST(EvqlSemantics, ProfileBuiltins) {
  Profile P = test::makeFixedProfile();
  EXPECT_EQ(evalToString(P, "total(\"time\")"), "100");
  EXPECT_EQ(evalToString(P, "nodecount()"), "6");
}

TEST(EvqlSemantics, LetBindsGlobals) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out = runProgram(P, "let x = 2 * total(\"time\");\n"
                                          "print x + 1;");
  ASSERT_TRUE(Out.ok()) << Out.error();
  EXPECT_EQ(Out->Printed[0], "201");
}

TEST(EvqlSemantics, DeriveAddsMetricColumn) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out = runProgram(
      P, "derive share = 100 * inclusive(\"time\") / total(\"time\");");
  ASSERT_TRUE(Out.ok()) << Out.error();
  ASSERT_EQ(Out->DerivedMetrics.size(), 1u);
  MetricId Share = Out->Result.findMetric("share");
  ASSERT_NE(Share, Profile::InvalidMetric);
  for (NodeId Id = 0; Id < Out->Result.nodeCount(); ++Id) {
    if (Out->Result.nameOf(Id) == "kernel") {
      EXPECT_DOUBLE_EQ(Out->Result.node(Id).metricOr(Share), 40.0);
    }
    if (Out->Result.nameOf(Id) == "compute") {
      EXPECT_DOUBLE_EQ(Out->Result.node(Id).metricOr(Share), 75.0);
    }
  }
}

TEST(EvqlSemantics, DeriveCanUseNodeAttributes) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out = runProgram(
      P, "derive flag = contains(name(), \"mem\") ? 1 : 0;");
  ASSERT_TRUE(Out.ok()) << Out.error();
  MetricId Flag = Out->Result.findMetric("flag");
  double Sum = metricTotal(Out->Result, Flag);
  EXPECT_DOUBLE_EQ(Sum, 1.0); // Only memcpy matches.
}

TEST(EvqlSemantics, PruneElidesMatchingNodes) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out =
      runProgram(P, "prune when name() == \"compute\";");
  ASSERT_TRUE(Out.ok()) << Out.error();
  bool HasCompute = false, HasKernel = false;
  for (NodeId Id = 0; Id < Out->Result.nodeCount(); ++Id) {
    if (Out->Result.nameOf(Id) == "compute")
      HasCompute = true;
    if (Out->Result.nameOf(Id) == "kernel")
      HasKernel = true;
  }
  EXPECT_FALSE(HasCompute);
  EXPECT_TRUE(HasKernel); // Children re-attach, totals conserved.
  EXPECT_DOUBLE_EQ(metricTotal(Out->Result, 0), 100.0);
}

TEST(EvqlSemantics, KeepInvertsPrune) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out = runProgram(
      P, "keep when inclusive(\"time\") >= 0.25 * total(\"time\");");
  ASSERT_TRUE(Out.ok()) << Out.error();
  for (NodeId Id = 1; Id < Out->Result.nodeCount(); ++Id)
    EXPECT_NE(Out->Result.nameOf(Id), "parse");
  EXPECT_DOUBLE_EQ(metricTotal(Out->Result, 0), 100.0);
}

TEST(EvqlSemantics, StatementsComposeInOrder) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out = runProgram(
      P, "derive d = exclusive(\"time\");\n"
         "prune when name() == \"parse\";\n"
         "print total(\"d\");");
  ASSERT_TRUE(Out.ok()) << Out.error();
  // The derived column existed before pruning, so parse's d folds into
  // main: total stays 100.
  EXPECT_EQ(Out->Printed[0], "100");
}

TEST(EvqlSemantics, DepthAndChildrenBuiltins) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out =
      runProgram(P, "derive d = depth(); derive k = nchildren();");
  ASSERT_TRUE(Out.ok()) << Out.error();
  MetricId DM = Out->Result.findMetric("d");
  for (NodeId Id = 0; Id < Out->Result.nodeCount(); ++Id)
    EXPECT_DOUBLE_EQ(Out->Result.node(Id).metricOr(DM),
                     static_cast<double>(Out->Result.depth(Id)));
}

TEST(EvqlSemantics, RuntimeErrors) {
  Profile P = test::makeFixedProfile();
  EXPECT_FALSE(runProgram(P, "print metric(\"nope\");").ok());
  EXPECT_FALSE(runProgram(P, "print undefinedVar;").ok());
  EXPECT_FALSE(runProgram(P, "print unknownFn(1);").ok());
  EXPECT_FALSE(runProgram(P, "print 1 + \"s\";").ok());
  EXPECT_FALSE(runProgram(P, "print min(1);").ok()); // Arity.
  // Node builtins need a node context.
  EXPECT_FALSE(runProgram(P, "print name();").ok());
  EXPECT_FALSE(runProgram(P, "let x = depth();").ok());
}

TEST(EvqlSemantics, ErrorMessagesNameTheProblem) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> R = runProgram(P, "derive x = metric(\"nope\");");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find("nope"), std::string::npos);
}

TEST(EvqlSemantics, PrintsValuesBeyondInt64Range) {
  // The old int64 cast in toString was undefined behavior for values
  // outside int64 range; they now render through formatDouble(V, 6).
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> R = runProgram(P, "print 5000000000 * 2000000000;");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->Printed[0], "10000000000000000000.000000");
  // In-range integral values keep the bare integer rendering.
  R = runProgram(P, "print 4.0 * 25;");
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R->Printed[0], "100");
  // Hostile fmt() digit counts clamp instead of overflowing the
  // double->int conversion.
  EXPECT_TRUE(runProgram(P, "print fmt(3.5, 2000000000000);").ok());
}

TEST(EvqlSemantics, ExpressionNestingIsBounded) {
  Profile P = test::makeFixedProfile();
  std::string Src = "print 1";
  for (int I = 0; I < 300; ++I)
    Src += " + 1";
  Src += ";";
  Result<QueryOutput> R = runProgram(P, Src);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().find(
                "expression nesting exceeds the analysis limit of 256"),
            std::string::npos)
      << R.error();
}

TEST(EvqlSemantics, DeriveScalesAColumn) {
  Profile P = test::makeFixedProfile();
  Result<QueryOutput> Out =
      runProgram(P, "derive dbl = 2 * exclusive(\"time\");");
  ASSERT_TRUE(Out.ok()) << Out.error();
  MetricId M = Out->Result.findMetric("dbl");
  ASSERT_NE(M, Profile::InvalidMetric);
  EXPECT_DOUBLE_EQ(metricTotal(Out->Result, M), 200.0);
}

TEST(EvqlSemantics, PaperStyleCpiFormula) {
  // The paper's example: cycles per instruction as a derived metric.
  ProfileBuilder B("cpi");
  MetricId Cycles = B.addMetric("cycles", "count");
  MetricId Instr = B.addMetric("instructions", "count");
  FrameId F = B.functionFrame("hot");
  std::vector<FrameId> Path = {F};
  NodeId N = B.addSample(Path, Cycles, 3000);
  B.addValue(N, Instr, 1000);
  Profile P = B.take();

  Result<QueryOutput> Out = runProgram(
      P, "derive cpi = ratio(exclusive(\"cycles\"), "
         "exclusive(\"instructions\"));");
  ASSERT_TRUE(Out.ok()) << Out.error();
  MetricId Cpi = Out->Result.findMetric("cpi");
  for (NodeId Id = 0; Id < Out->Result.nodeCount(); ++Id)
    if (Out->Result.nameOf(Id) == "hot") {
      EXPECT_DOUBLE_EQ(Out->Result.node(Id).metricOr(Cpi), 3.0);
    }
}
