//===- tests/fuzz_test.cpp - Failure-injection robustness tests -----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fuzz-style checks: every loader must survive random
/// bytes, truncations, and bit flips of valid inputs — returning an error
/// or a verified profile, never crashing or producing an inconsistent
/// tree. This backs the library's rule that untrusted input is reported,
/// not asserted.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProfileLint.h"
#include "analysis/Sema.h"
#include "convert/Converters.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "proto/EvProf.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Xml.h"

#include "TestHelpers.h"
#include "workload/LuleshWorkload.h"
#include "workload/SyntheticProfile.h"

#include <limits>

#include <gtest/gtest.h>

using namespace ev;

namespace {

std::string randomBytes(Rng &R, size_t Length) {
  std::string Out(Length, '\0');
  for (char &C : Out)
    C = static_cast<char>(R.below(256));
  return Out;
}

/// The loader contract under hostile input: error or verified profile.
void expectSafe(Result<Profile> P) {
  if (!P.ok())
    return;
  Result<bool> V = P->verify();
  EXPECT_TRUE(V.ok()) << V.error();
}

} // namespace

class FuzzSeed : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_P(FuzzSeed, RandomBytesIntoEveryLoader) {
  Rng R(GetParam());
  for (int Round = 0; Round < 20; ++Round) {
    std::string Bytes = randomBytes(R, 16 + R.below(512));
    expectSafe(convert::load(Bytes));
    expectSafe(readEvProf(Bytes));
    expectSafe(convert::fromPprof(Bytes));
    expectSafe(convert::fromCollapsed(Bytes));
    expectSafe(convert::fromPerfScript(Bytes));
    expectSafe(convert::fromChromeTrace(Bytes));
    expectSafe(convert::fromSpeedscope(Bytes));
    expectSafe(convert::fromHpctoolkit(Bytes));
    expectSafe(convert::fromScalene(Bytes));
    expectSafe(convert::fromPyinstrument(Bytes));
    (void)json::parse(Bytes);
    (void)xml::parse(Bytes);
  }
}

TEST_P(FuzzSeed, TruncatedEvprof) {
  Rng R(GetParam());
  std::string Valid = writeEvProf(test::makeRandomProfile(GetParam()));
  for (int Round = 0; Round < 30; ++Round) {
    size_t Cut = R.below(Valid.size());
    expectSafe(readEvProf(Valid.substr(0, Cut)));
  }
}

TEST_P(FuzzSeed, BitFlippedEvprof) {
  Rng R(GetParam());
  std::string Valid = writeEvProf(test::makeRandomProfile(GetParam()));
  for (int Round = 0; Round < 30; ++Round) {
    std::string Mutated = Valid;
    // Flip a handful of random bits past the magic.
    for (int Flip = 0; Flip < 4; ++Flip) {
      size_t At = EvProfMagic.size() +
                  R.below(Mutated.size() - EvProfMagic.size());
      Mutated[At] = static_cast<char>(Mutated[At] ^ (1 << R.below(8)));
    }
    Result<Profile> OneShot = readEvProf(Mutated);
    // The same bytes in 2-3 random chunks must decode the same way.
    std::vector<size_t> Cuts;
    for (uint64_t I = 0, N = 1 + R.below(2); I < N; ++I)
      Cuts.push_back(R.below(Mutated.size() + 1));
    Result<Profile> Chunked = test::decodeInChunks(Mutated, Cuts);
    ASSERT_EQ(Chunked.ok(), OneShot.ok())
        << "round " << Round << ": "
        << (OneShot.ok() ? Chunked.error() : OneShot.error());
    if (OneShot.ok())
      EXPECT_EQ(writeEvProf(*Chunked), writeEvProf(*OneShot))
          << "round " << Round;
    else
      EXPECT_EQ(Chunked.error(), OneShot.error()) << "round " << Round;
    expectSafe(std::move(OneShot));
  }
}

TEST_P(FuzzSeed, BitFlippedPprof) {
  Rng R(GetParam());
  workload::SyntheticOptions Opt;
  Opt.Seed = GetParam();
  Opt.TargetBytes = 16 << 10;
  std::string Valid = workload::generatePprofBytes(Opt);
  for (int Round = 0; Round < 20; ++Round) {
    std::string Mutated = Valid;
    for (int Flip = 0; Flip < 4; ++Flip) {
      size_t At = R.below(Mutated.size());
      Mutated[At] = static_cast<char>(Mutated[At] ^ (1 << R.below(8)));
    }
    expectSafe(convert::fromPprof(Mutated));
  }
}

TEST_P(FuzzSeed, MutatedJsonConverters) {
  Rng R(GetParam());
  const char *Valid = R"({
    "shared": {"frames": [{"name": "f"}, {"name": "g"}]},
    "profiles": [{"type": "sampled", "samples": [[0, 1]], "weights": [2]}]
  })";
  std::string Base = Valid;
  for (int Round = 0; Round < 30; ++Round) {
    std::string Mutated = Base;
    size_t At = R.below(Mutated.size());
    Mutated[At] = static_cast<char>(R.below(128));
    expectSafe(convert::fromSpeedscope(Mutated));
    expectSafe(convert::fromChromeTrace(Mutated));
  }
}

TEST_P(FuzzSeed, MutatedHpctoolkitXml) {
  Rng R(GetParam());
  workload::LuleshOptions Opt;
  Opt.Seed = GetParam();
  std::string Valid = workload::generateLuleshExperimentXml(Opt);
  for (int Round = 0; Round < 10; ++Round) {
    std::string Mutated = Valid;
    for (int Flip = 0; Flip < 3; ++Flip) {
      size_t At = R.below(Mutated.size());
      Mutated[At] = static_cast<char>(32 + R.below(95));
    }
    expectSafe(convert::fromHpctoolkit(Mutated));
  }
}

// Every method's declared parameters, and members no method declares, set
// to values of every JSON kind: each reply is a result or an invalid-params
// error, never a crash or another code.
TEST_P(FuzzSeed, HostileParamsReachEveryMethod) {
  Rng R(GetParam());
  for (const PvpServer::MethodEntry &E : PvpServer::methods()) {
    // A valid 'reset' would clear the process-wide span rings.
    if (E.Name == "pvp/selfProfile")
      continue;
    ServerLimits Limits;
    Limits.OpenRetry.MaxAttempts = 1; // 'path' names no file: fail fast.
    PvpServer Server(Limits);
    int64_t Id = Server.addProfile(test::makeFixedProfile());
    const json::Value Pool[] = {
        json::Value(),
        json::Value(true),
        json::Value(int64_t(-1)),
        json::Value(1.5),
        json::Value(1e300),
        json::Value(std::numeric_limits<int64_t>::max()),
        json::Value(Id),
        json::Value(int64_t(2)),
        json::Value(""),
        json::Value("flat"),
        json::Value("time"),
        json::Value("print 1;"),
        json::Value("collapsed"),
        json::Value(json::Array()),
        json::Value(json::Array{json::Value(Id), json::Value("x"),
                                json::Value(int64_t(-1))}),
        json::Value(json::Array{json::Value(Id), json::Value(Id)}),
        json::Value(json::Object()),
    };
    auto Pick = [&] { return Pool[R.below(std::size(Pool))]; };
    for (int64_t Round = 0; Round < 24; ++Round) {
      json::Object P;
      for (const PvpServer::ParamSpec &S : E.Params)
        if (R.below(4) != 0)
          P.set(std::string(S.Name), Pick());
      if (R.below(4) == 0)
        P.set("undeclared", Pick());
      json::Value Reply = Server.handleMessage(
          rpc::makeRequest(Round, E.Name, json::Value(std::move(P))));
      const json::Object &O = Reply.asObject();
      ASSERT_TRUE(O.contains("result") || O.contains("error")) << E.Name;
      if (const json::Value *Err = O.find("error")) {
        EXPECT_EQ(Err->asObject().find("code")->asInt(), rpc::InvalidParams)
            << E.Name << ": " << Reply.dump();
      }
    }
  }
}

TEST(Fuzz, EmptyInputsEverywhere) {
  expectSafe(convert::load(""));
  expectSafe(readEvProf(""));
  expectSafe(convert::fromPprof(""));
  expectSafe(convert::fromCollapsed(""));
  expectSafe(convert::fromPerfScript(""));
  expectSafe(convert::fromChromeTrace(""));
  expectSafe(convert::fromSpeedscope(""));
  expectSafe(convert::fromHpctoolkit(""));
  expectSafe(convert::fromScalene(""));
  expectSafe(convert::fromPyinstrument(""));
}

TEST(Fuzz, DeepJsonAndXmlDoNotOverflowStack) {
  std::string DeepJson(100000, '[');
  (void)json::parse(DeepJson); // Depth-limited.
  std::string DeepXml;
  for (int I = 0; I < 20000; ++I)
    DeepXml += "<a>";
  Result<std::unique_ptr<xml::Element>> X = xml::parse(DeepXml);
  // Recursion depth equals element depth; builds must not crash. The
  // document is unterminated, so it must fail.
  EXPECT_FALSE(X.ok());
}

//===----------------------------------------------------------------------===
// Static analysis under hostile input
//===----------------------------------------------------------------------===

TEST_P(FuzzSeed, LintSurvivesHostileBytes) {
  Rng R(GetParam());
  // Tight budgets: hostile input must degrade (truncated flags, findings
  // capped), never crash or loop.
  LintOptions Opts;
  Opts.Limits.MaxLintNodes = 64;
  ProfileLinter Linter(Opts);
  DecodeLimits Decode;
  Decode.MaxNodes = 64;
  Decode.MaxStrings = 64;

  for (int Round = 0; Round < 20; ++Round) {
    std::string Bytes = randomBytes(R, 16 + R.below(512));
    DiagnosticSet Plain(32);
    (void)Linter.lint(Bytes, Decode, Plain);
    // A magic prefix routes the same garbage through the wire scan proper.
    DiagnosticSet Prefixed(32);
    bool Decoded =
        Linter.lint(std::string(EvProfMagic) + Bytes, Decode, Prefixed);
    // Whenever the decode fails, the lint run explains why: the wire scan
    // blames a specific corruption or the generic EVL100 stands in.
    if (!Decoded) {
      EXPECT_FALSE(Prefixed.empty());
    }
  }
}

TEST_P(FuzzSeed, LintBitFlippedEvprofExplainsOrPasses) {
  Rng R(GetParam());
  std::string Valid = writeEvProf(test::makeRandomProfile(GetParam()));
  ProfileLinter Linter;
  for (int Round = 0; Round < 20; ++Round) {
    std::string Mutated = Valid;
    for (int Flip = 0; Flip < 4; ++Flip) {
      size_t At = EvProfMagic.size() +
                  R.below(Mutated.size() - EvProfMagic.size());
      Mutated[At] = static_cast<char>(Mutated[At] ^ (1u << R.below(8)));
    }
    DiagnosticSet Diags(64);
    bool Decoded = Linter.lint(Mutated, DecodeLimits(), Diags);
    if (!Decoded) {
      EXPECT_FALSE(Diags.empty());
    }
    (void)Linter.lint(Mutated.substr(0, R.below(Mutated.size())),
                      DecodeLimits(), Diags);
  }
}

TEST_P(FuzzSeed, SemaSurvivesHostileSources) {
  Rng R(GetParam());
  AnalysisLimits Tight;
  Tight.MaxDiagnostics = 16;
  Tight.MaxExprDepth = 16;
  Tight.MaxProgramBytes = 4096;
  SemaOptions Opts;
  Opts.Limits = Tight;
  SemaChecker Checker(Opts);

  // Raw bytes: the lexer/parser must fail cleanly into EVQL001 findings.
  for (int Round = 0; Round < 10; ++Round) {
    DiagnosticSet Diags(Tight.MaxDiagnostics);
    Checker.checkSource(randomBytes(R, R.below(512)), Diags);
  }

  // Token soup: syntactically plausible streams stress recovery and the
  // checker itself. Every outcome is acceptable except a crash.
  static const char *Vocab[] = {
      "let",  "derive", "prune",  "keep",   "when",   "print", "return",
      "x",    "y",      "metric", "(",      ")",      "\"t\"", "0",
      "1",    "+",      "-",      "*",      "/",      "%",     "&&",
      "||",   "!",      "<",      ">",      "==",     "!=",    "?",
      ":",    ";",      "=",      "name",   "total",  ",",     "zz9"};
  for (int Round = 0; Round < 20; ++Round) {
    std::string Source;
    size_t Len = 1 + R.below(120);
    for (size_t I = 0; I < Len; ++I) {
      Source += Vocab[R.below(std::size(Vocab))];
      Source += ' ';
    }
    DiagnosticSet Diags(Tight.MaxDiagnostics);
    Checker.checkSource(Source, Diags);
    EXPECT_LE(Diags.size(), Tight.MaxDiagnostics);
  }

  // Oversized input degrades with the truncated flag, never an abort.
  DiagnosticSet Big(Tight.MaxDiagnostics);
  Checker.checkSource(std::string(8192, 'a'), Big);
  EXPECT_TRUE(Big.truncated());
}
