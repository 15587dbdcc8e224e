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
#include "ide/ViewDelta.h"
#include "proto/EvProf.h"
#include "support/Json.h"
#include "support/ProtoWire.h"
#include "support/Rng.h"
#include "support/Strings.h"
#include "support/Varint.h"
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
  // Tight budgets: hostile input must degrade (truncated flags, decode
  // limits), never crash or loop, and every refusal is explained by the
  // fault the decoder refused it for.
  LintOptions Opts;
  Opts.Limits.MaxLintNodes = 64;
  ProfileLinter Linter(Opts);
  DecodeLimits Decode;
  Decode.MaxNodes = 64;
  Decode.MaxStrings = 64;

  for (int Round = 0; Round < 20; ++Round) {
    std::string Bytes = randomBytes(R, 16 + R.below(512));
    EXPECT_EQ(test::lintVersusDecoder(Linter, Bytes, Decode), "");
    // A magic prefix routes the same garbage into the decoder proper.
    std::string Prefixed = std::string(EvProfMagic) + Bytes;
    EXPECT_EQ(test::lintVersusDecoder(Linter, Prefixed, Decode), "");
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
    EXPECT_EQ(test::lintVersusDecoder(Linter, Mutated, DecodeLimits()), "");
    std::string Cut = Mutated.substr(0, R.below(Mutated.size()));
    EXPECT_EQ(test::lintVersusDecoder(Linter, Cut, DecodeLimits()), "");
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

//===----------------------------------------------------------------------===//
// View deltas under hostile input
//===----------------------------------------------------------------------===//

namespace {

/// A real view at two generations: stage 0 of the growth profile and the
/// same view after one appended section.
struct ViewPair {
  ViewTable Base{ViewKind::Flame};
  ViewTable Next{ViewKind::Flame};
};

ViewPair realViews(const char *Method) {
  std::vector<std::string> Stages = test::growthStageBytes(2);
  PvpServer Server;
  int64_t Id = Server.addProfile(readEvProf(Stages[0]).take());
  json::Object P;
  P.set("profile", Id);
  auto View = [&] {
    Result<ViewTable> T = ViewTable::read(test::resultTree(
        Server.handleMessage(rpc::makeRequest(1, Method, json::Value(P)))));
    EXPECT_TRUE(T.ok()) << (T ? "" : T.error());
    return T ? T.take() : ViewTable(ViewKind::Flame);
  };
  ViewPair Out{View(), View()};
  json::Object A;
  A.set("profile", Id);
  A.set("dataBase64", base64Encode(test::sectionBytes(Stages, 0)));
  Server.handleMessage(rpc::makeRequest(2, "pvp/append", json::Value(A)));
  Out.Next = View();
  return Out;
}

size_t stringBytes(const ViewTable &T) {
  size_t Bytes = 0;
  for (const ViewTable::Column &C : T.Columns)
    for (const std::string &S : C.Strings)
      Bytes += S.size();
  return Bytes;
}

/// The apply contract under hostile input: an error, or a table whose
/// columns agree on the row count and whose text reads back; its rows
/// come from the delta's order and its new strings from the delta, so it
/// grows with the delta, not with what the delta claims.
void expectSafeApply(const ViewTable &Base, std::string_view Delta) {
  Result<ViewTable> T = applyViewDelta(Base, Delta);
  if (!T.ok())
    return;
  size_t Rows = T->rowCount();
  EXPECT_LE(Rows, Delta.size());
  EXPECT_LE(stringBytes(*T), stringBytes(Base) + Delta.size());
  std::span<const ViewField> Fields = T->schema().Fields;
  for (size_t F = 0; F < Fields.size(); ++F) {
    const ViewTable::Column &C = T->Columns[F];
    size_t Size = Fields[F].Type == FieldType::Double   ? C.Doubles.size()
                  : Fields[F].Type == FieldType::String ? C.Strings.size()
                                                        : C.Ints.size();
    ASSERT_EQ(Size, Rows) << Fields[F].Name;
  }
  EXPECT_TRUE(ViewTable::read(T->reply()).ok());
}

} // namespace

TEST_P(FuzzSeed, TruncatedAndBitFlippedViewDeltas) {
  Rng R(GetParam());
  for (const char *Method : {"pvp/flame", "pvp/treeTable"}) {
    ViewPair V = realViews(Method);
    std::string Delta = encodeViewDelta(V.Base, V.Next, 0, 1);
    ASSERT_EQ(applyViewDelta(V.Base, Delta)->write(), V.Next.write());
    for (size_t Len = 0; Len < Delta.size(); Len += 1 + R.below(4))
      expectSafeApply(V.Base, Delta.substr(0, Len));
    for (int Round = 0; Round < 200; ++Round) {
      std::string Mutated = Delta;
      for (uint64_t Flips = 1 + R.below(3); Flips; --Flips)
        Mutated[R.below(Mutated.size())] ^=
            static_cast<char>(1u << R.below(8));
      expectSafeApply(V.Base, Mutated);
      expectSafeApply(V.Next, Mutated);
    }
  }
}

TEST(Fuzz, HandBuiltHostileViewDeltas) {
  ViewPair V = realViews("pvp/flame");
  const ViewTable &Base = V.Base;
  // The wire format of docs/PVP.md "Delta wire format".
  auto Column = [](uint64_t Field, std::string Runs, std::string Values) {
    ProtoWriter C;
    C.writeVarint(1, Field);
    C.writeBytes(2, Runs);
    C.writeBytes(3, Values);
    return C.takeBuffer();
  };
  auto Delta = [&](std::vector<int64_t> Order,
                   std::vector<std::string> Columns, uint64_t Kind = 0) {
    ProtoWriter W;
    W.writeVarint(1, 2);
    W.writeVarint(4, Kind);
    std::string Packed;
    for (int64_t Id : Order)
      appendVarint(Packed, static_cast<uint64_t>(Id));
    W.writeBytes(5, Packed);
    for (const std::string &C : Columns)
      W.writeBytes(6, C);
    return W.takeBuffer();
  };
  auto Runs = [](uint64_t Skip, uint64_t Length) {
    std::string S;
    appendVarint(S, Skip);
    appendVarint(S, Length);
    return S;
  };
  std::vector<int64_t> Ids = Base.Columns[0].Ints;
  ASSERT_GE(Ids.size(), 2u);
  auto Varints = [](std::initializer_list<int64_t> Vs) {
    std::string S;
    for (int64_t V : Vs)
      appendSignedVarint(S, V);
    return S;
  };

  // The base order with nothing changed applies to the base itself.
  ASSERT_EQ(applyViewDelta(Base, Delta(Ids, {}))->write(), Base.write());

  // A column index past the schema, or the node column itself.
  EXPECT_FALSE(applyViewDelta(Base, Delta(Ids, {Column(7, Runs(0, 1),
                                                       Varints({1}))}))
                   .ok());
  EXPECT_FALSE(applyViewDelta(Base, Delta(Ids, {Column(0, Runs(0, 1),
                                                       Varints({1}))}))
                   .ok());
  // A position past the order, and a run longer than the order.
  EXPECT_FALSE(applyViewDelta(
                   Base, Delta(Ids, {Column(1, Runs(Ids.size(), 1),
                                            Varints({1}))}))
                   .ok());
  EXPECT_FALSE(applyViewDelta(
                   Base, Delta(Ids, {Column(1, Runs(0, uint64_t(1) << 62),
                                            Varints({1}))}))
                   .ok());
  // Fewer and more values than positions.
  EXPECT_FALSE(
      applyViewDelta(Base, Delta(Ids, {Column(1, Runs(0, 2), Varints({1}))}))
          .ok());
  EXPECT_FALSE(applyViewDelta(Base, Delta(Ids, {Column(1, Runs(0, 1),
                                                       Varints({1, 2}))}))
                   .ok());
  // An unknown node id in the order is a new row: without a value for
  // every field it is refused, with them it is a valid table.
  std::vector<int64_t> WithNew = Ids;
  WithNew.push_back(1 << 20);
  EXPECT_FALSE(applyViewDelta(Base, Delta(WithNew, {})).ok());
  std::vector<std::string> Full;
  uint64_t Last = WithNew.size() - 1;
  std::string Name;
  appendVarint(Name, 3);
  Name += "new";
  std::string Half(8, '\0');
  Half[6] = '\xe0';
  Half[7] = '\x3f'; // 0.5 as little-endian bits.
  for (uint64_t F = 1; F < Base.schema().Fields.size(); ++F) {
    FieldType T = Base.schema().Fields[F].Type;
    Full.push_back(Column(F, Runs(Last, 1),
                          T == FieldType::Double   ? Half
                          : T == FieldType::String ? Name
                                                   : Varints({2})));
  }
  Result<ViewTable> Grown = applyViewDelta(Base, Delta(WithNew, Full));
  ASSERT_TRUE(Grown.ok()) << Grown.error();
  EXPECT_EQ(Grown->rowCount(), Ids.size() + 1);
  expectSafeApply(Base, Delta(WithNew, Full));
  // A node twice in the order, another view's kind, a string value and a
  // field whose declared length runs far past the buffer.
  std::vector<int64_t> Twice = Ids;
  Twice.push_back(Ids[0]);
  EXPECT_FALSE(applyViewDelta(Base, Delta(Twice, {})).ok());
  EXPECT_FALSE(applyViewDelta(Base, Delta(Ids, {}, 1)).ok());
  std::string LongName;
  appendVarint(LongName, uint64_t(1) << 40);
  LongName += "x";
  EXPECT_FALSE(applyViewDelta(Base, Delta(Ids, {Column(5, Runs(0, 1),
                                                       LongName)}))
                   .ok());
  std::string Long = Delta(Ids, {});
  Long.push_back(static_cast<char>((6 << 3) | 2));
  appendVarint(Long, uint64_t(1) << 40);
  Long += "abc";
  EXPECT_FALSE(applyViewDelta(Base, Long).ok());
}
