//===- tests/evql_builtins_test.cpp - The EVQL builtin table --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks evql::Builtins, the one definition of every EVQL builtin, so a
/// new row is covered without touching this file. For each row: a
/// well-typed call is clean in the checker and the engine agrees with the
/// oracle byte for byte; a call past its arity and a node builtin at top
/// level fail alike in the checker, the engine and the oracle. A docs test
/// checks docs/EVQL.md "Builtins" lists exactly the rows, at their arity,
/// and another checks the rule tables of docs/ANALYSIS.md against
/// AnalysisRules, the one definition of every analysis rule.
///
//===----------------------------------------------------------------------===//

#include "EvqlOracle.h"
#include "TestHelpers.h"

#include "analysis/RuleRegistry.h"
#include "analysis/Sema.h"
#include "proto/EvProf.h"
#include "query/Compiler.h"
#include "query/Vm.h"
#include "support/FileIo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <sstream>
#include <string>

namespace ev {
namespace {

/// The outcome of one run as one string: the error, or the result profile
/// bytes with the printed lines and derived metric names.
std::string outcome(const Result<evql::QueryOutput> &R) {
  if (!R)
    return "error: " + R.error();
  std::string S = "ok\n" + writeEvProf(R->Result);
  for (const std::string &L : R->Printed)
    S += "\nP:" + L;
  for (const std::string &D : R->DerivedMetrics)
    S += "\nD:" + D;
  return S;
}

/// Runs \p Src through the oracle and the engine, expects the same
/// outcome, and \returns it.
std::string runBoth(const Profile &P, const std::string &Src) {
  std::string Oracle = outcome(evql::oracle::runProgram(P, Src));
  std::string Engine = outcome(evql::runProgram(P, Src));
  EXPECT_EQ(Oracle, Engine) << Src;
  return Engine;
}

DiagnosticSet check(const Profile &P, const std::string &Src) {
  SemaOptions Opts;
  Opts.MetricSource = &P;
  DiagnosticSet Out(Opts.Limits.MaxDiagnostics);
  SemaChecker(Opts).checkSource(Src, Out);
  return Out;
}

bool hasId(const DiagnosticSet &Diags, std::string_view Id) {
  for (const Diagnostic &D : Diags.all())
    if (D.Id == Id)
      return true;
  return false;
}

/// A call of \p B with \p Argc arguments, each well typed for its
/// parameter: a metric column of the fixed profile where argument 0 names
/// one, a frame name for other strings. Arguments past the arity are 1.
std::string call(const evql::Builtin &B, size_t Argc) {
  std::string S = std::string(B.Name) + "(";
  for (size_t I = 0; I < Argc; ++I) {
    S += I ? ", " : "";
    if (I >= B.Arity || B.Args[I] == evql::ArgType::Number)
      S += "1";
    else if (B.Args[I] == evql::ArgType::Any)
      S += "2.5";
    else
      S += I == 0 && B.MetricArg ? "\"time\"" : "\"compute\"";
  }
  return S + ")";
}

bool needsNode(const evql::Builtin &B) {
  return B.Where != evql::NodeUse::Anywhere;
}

TEST(EvqlBuiltinTable, EveryRowAtItsArityIsCleanAndEnginesAgree) {
  Profile P = test::makeFixedProfile();
  for (const evql::Builtin &B : evql::Builtins) {
    // str() takes any value, so the call also runs where its result type
    // is not the statement's.
    std::string Src = needsNode(B)
                          ? "keep when str(" + call(B, B.Arity) + ") != \"\";"
                          : "print " + call(B, B.Arity) + ";";
    SCOPED_TRACE(Src);
    DiagnosticSet Diags = check(P, Src);
    for (const char *Id : {"EVQL003", "EVQL004", "EVQL005", "EVQL011"})
      EXPECT_FALSE(hasId(Diags, Id)) << Id;
    EXPECT_EQ(runBoth(P, Src).rfind("ok\n", 0), 0u);
  }
}

TEST(EvqlBuiltinTable, EveryRowPastItsArityFailsAlikeEverywhere) {
  Profile P = test::makeFixedProfile();
  for (const evql::Builtin &B : evql::Builtins) {
    std::string Src = "print " + call(B, B.Arity + 1u) + ";";
    SCOPED_TRACE(Src);
    EXPECT_TRUE(hasId(check(P, Src), "EVQL004"));
    EXPECT_EQ(runBoth(P, Src), "error: '" + std::string(B.Name) +
                                   "' expects " + std::to_string(B.Arity) +
                                   " argument(s) at line 1");
  }
}

TEST(EvqlBuiltinTable, EveryNodeRowAtTopLevelFailsAlikeEverywhere) {
  Profile P = test::makeFixedProfile();
  for (const evql::Builtin &B : evql::Builtins) {
    if (!needsNode(B))
      continue;
    std::string Src = "print " + call(B, B.Arity) + ";";
    SCOPED_TRACE(Src);
    EXPECT_TRUE(hasId(check(P, Src), "EVQL011"));
    std::string Hint = B.Where == evql::NodeUse::NodeHinted
                           ? " (use it in 'derive', 'prune', or 'keep')"
                           : "";
    EXPECT_EQ(runBoth(P, Src), "error: '" + std::string(B.Name) +
                                   "()' needs a node context" + Hint +
                                   " at line 1");
  }
}

TEST(EvqlBuiltinTable, DocsListEveryBuiltinAtItsArity) {
  Result<std::string> Doc =
      readFile(std::string(EASYVIEW_SOURCE_DIR) + "/docs/EVQL.md");
  ASSERT_TRUE(Doc.ok()) << Doc.error();
  size_t Begin = Doc->find("\n## Builtins\n");
  ASSERT_NE(Begin, std::string::npos);
  size_t End = Doc->find("\n## ", Begin + 1);
  std::string Section = Doc->substr(Begin, End - Begin);

  // Every call written in a code span, e.g. `ratio(a, b)`, with the
  // number of arguments it shows.
  std::map<std::string, size_t> Documented;
  std::regex Span("`[^`]*`"), Call("([a-z]+)\\(([^()]*)\\)");
  for (std::sregex_iterator S(Section.begin(), Section.end(), Span), SEnd;
       S != SEnd; ++S) {
    std::string Code = S->str();
    for (std::sregex_iterator C(Code.begin(), Code.end(), Call), CEnd;
         C != CEnd; ++C) {
      std::string Args = (*C)[2];
      size_t Argc = Args.empty() ? 0 : 1 + std::count(Args.begin(),
                                                      Args.end(), ',');
      EXPECT_TRUE(Documented.emplace((*C)[1], Argc).first->second == Argc)
          << (*C)[1] << " is documented at two arities";
    }
  }
  for (const evql::Builtin &B : evql::Builtins) {
    auto It = Documented.find(std::string(B.Name));
    ASSERT_NE(It, Documented.end()) << B.Name << " is not documented";
    EXPECT_EQ(It->second, B.Arity) << B.Name;
  }
  for (const auto &[Name, Argc] : Documented)
    EXPECT_NE(evql::findBuiltin(Name), nullptr)
        << "docs/EVQL.md names '" << Name << "()', which is no builtin";
}

TEST(AnalysisRuleTable, DocsListEveryRuleInOrder) {
  Result<std::string> Doc =
      readFile(std::string(EASYVIEW_SOURCE_DIR) + "/docs/ANALYSIS.md");
  ASSERT_TRUE(Doc.ok()) << Doc.error();
  // Every table row whose first cell is a rule id, as "id name severity".
  std::vector<std::string> Documented;
  std::regex Row(R"(^\| *(EV[A-Z]*[0-9]+) *\| *([^ |]+) *\| *([^ |]+) *\|)");
  std::istringstream Lines(*Doc);
  for (std::string Line; std::getline(Lines, Line);)
    if (std::smatch M; std::regex_search(Line, M, Row))
      Documented.push_back(M[1].str() + " " + M[2].str() + " " + M[3].str());
  std::vector<std::string> Table;
  for (const RuleInfo &R : AnalysisRules)
    Table.push_back(std::string(R.Id) + " " + std::string(R.Name) + " " +
                    std::string(severityName(R.DefaultSev)));
  EXPECT_EQ(Documented, Table);
}

} // namespace
} // namespace ev
