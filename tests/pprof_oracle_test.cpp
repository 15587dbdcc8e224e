//===- tests/pprof_oracle_test.cpp - Streaming pprof vs the oracle --------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the streaming pprof decoder (convert::fromPprof)
/// against the object-model oracle (tests/PprofOracle.h). On every input
/// both make the same accept/reject decision with the same message, and
/// accepted inputs give byte-identical writeEvProf output. Inputs:
/// synthetic pprof of several seeds and sizes, toPprof round trips,
/// hand-built edge cases, and seeded bit-flip and truncation mutants.
///
//===----------------------------------------------------------------------===//

#include "PprofOracle.h"

#include "convert/Converters.h"
#include "convert/Exporters.h"
#include "proto/EvProf.h"
#include "proto/PprofFormat.h"
#include "support/ProtoWire.h"
#include "support/Rng.h"
#include "support/Strings.h"
#include "workload/LuleshWorkload.h"
#include "workload/SyntheticProfile.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ev;

namespace {

/// Compares both decoders on \p Bytes. An input the oracle accepts and the
/// streaming decoder refuses only for a DecodeLimits budget is counted in
/// \p LimitRefusals instead of failing.
void expectSameAsOracle(std::string_view Bytes, const std::string &What,
                        size_t &LimitRefusals) {
  Result<Profile> Old = convert::oracle::fromPprof(Bytes);
  Result<Profile> New = convert::fromPprof(Bytes);
  if (Old.ok() && !New.ok() &&
      startsWith(New.error(), "decode limit exceeded")) {
    ++LimitRefusals;
    return;
  }
  ASSERT_EQ(New.ok(), Old.ok())
      << What << ": " << (Old.ok() ? New.error() : Old.error());
  if (Old.ok())
    EXPECT_EQ(writeEvProf(*New), writeEvProf(*Old)) << What;
  else
    EXPECT_EQ(New.error(), Old.error()) << What;
}

void expectSameAsOracle(std::string_view Bytes, const std::string &What) {
  size_t LimitRefusals = 0;
  expectSameAsOracle(Bytes, What, LimitRefusals);
  EXPECT_EQ(LimitRefusals, 0u) << What;
}

std::string synthetic(uint64_t Seed, size_t Bytes) {
  workload::SyntheticOptions Opt;
  Opt.Seed = Seed;
  Opt.TargetBytes = Bytes;
  return workload::generatePprofBytes(Opt);
}

/// A small well-formed profile to derive edge cases from: two functions,
/// two locations, two samples.
pprof::PprofProfile smallModel() {
  pprof::PprofProfile In;
  In.StringTable = {"", "cpu", "nanoseconds", "main", "work", "main.go",
                    "/bin/app"};
  In.SampleTypes.push_back({1, 2});
  In.Mappings.push_back({1, 0x1000, 0x2000, 0, 6, 0});
  In.Functions.push_back({1, 3, 3, 5, 1});
  In.Functions.push_back({2, 4, 4, 5, 9});
  pprof::Location L1, L2;
  L1.Id = 1;
  L1.MappingId = 1;
  L1.Address = 0x1010;
  L1.Lines.push_back({1, 3});
  L2.Id = 2;
  L2.MappingId = 1;
  L2.Address = 0x1020;
  L2.Lines.push_back({2, 12});
  In.Locations = {L1, L2};
  pprof::Sample S1, S2;
  S1.LocationIds = {2, 1};
  S1.Values = {30};
  S2.LocationIds = {1};
  S2.Values = {5};
  In.Samples = {S1, S2};
  return In;
}

} // namespace

TEST(PprofOracle, SyntheticSeedsAndSizes) {
  for (uint64_t Seed : {1, 2, 3, 42})
    for (size_t Kb : {4, 32, 256})
      expectSameAsOracle(synthetic(Seed, Kb << 10),
                         "seed " + std::to_string(Seed) + " " +
                             std::to_string(Kb) + " KB");
  expectSameAsOracle(synthetic(7, 1 << 20), "seed 7 1 MB");
}

TEST(PprofOracle, ToPprofRoundTrips) {
  std::vector<std::pair<std::string, Profile>> Sources;
  Sources.emplace_back("fixed", test::makeFixedProfile());
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    Sources.emplace_back("random " + std::to_string(Seed),
                         test::makeRandomProfile(Seed));
  Sources.emplace_back("lulesh", workload::generateLuleshProfile());
  for (const auto &[Name, P] : Sources)
    expectSameAsOracle(convert::toPprof(P), Name);
}

TEST(PprofOracle, HandBuiltEdgeCases) {
  std::vector<std::pair<std::string, pprof::PprofProfile>> Cases;
  Cases.emplace_back("small", smallModel());
  {
    // Duplicate ids: the first function, mapping and location win, and
    // the duplicates' frames are still interned in table order.
    pprof::PprofProfile In = smallModel();
    In.StringTable.push_back("shadow");
    In.StringTable.push_back("/lib/other.so");
    In.Mappings.push_back({1, 0, 0, 0, 8, 0});
    In.Functions.push_back({1, 7, 7, 0, 0});
    pprof::Location Dup = In.Locations[0];
    Dup.Address = 0x9999;
    Dup.Lines = {{1, 77}};
    In.Locations.push_back(Dup);
    Cases.emplace_back("duplicate ids", In);
  }
  {
    // Sparse ids take the hash index, including ids near 2^63.
    pprof::PprofProfile In = smallModel();
    In.Mappings[0].Id = uint64_t(1) << 62;
    In.Functions[0].Id = 1000000;
    In.Functions[1].Id = (uint64_t(1) << 63) + 5;
    In.Locations[0].MappingId = In.Mappings[0].Id;
    In.Locations[1].MappingId = In.Mappings[0].Id;
    In.Locations[0].Lines[0].FunctionId = In.Functions[0].Id;
    In.Locations[1].Lines[0].FunctionId = In.Functions[1].Id;
    In.Locations[0].Id = uint64_t(1) << 63;
    In.Locations[1].Id = 77777;
    In.Samples[0].LocationIds = {77777, uint64_t(1) << 63};
    In.Samples[1].LocationIds = {uint64_t(1) << 63};
    Cases.emplace_back("sparse ids", In);
  }
  {
    // Id 0 is an ordinary id: a mapping with no id field matches a
    // location with no mapping_id.
    pprof::PprofProfile In = smallModel();
    In.Mappings[0].Id = 0;
    In.Locations[0].MappingId = 0;
    In.Locations[1].MappingId = 0;
    Cases.emplace_back("id zero", In);
  }
  {
    // Locations without lines become address frames; unknown function
    // and mapping ids fall back to "??" and no module.
    pprof::PprofProfile In = smallModel();
    In.Locations[0].Lines.clear();
    In.Locations[0].Address = 0xdeadbeef;
    In.Locations[1].Lines[0].FunctionId = 99;
    In.Locations[1].MappingId = 42;
    Cases.emplace_back("no lines and unknown ids", In);
  }
  {
    // Inlined lines, expanded outermost first; negative and huge line
    // numbers.
    pprof::PprofProfile In = smallModel();
    In.Locations[1].Lines = {{2, 12}, {1, -4}, {2, (int64_t(1) << 40) + 3}};
    Cases.emplace_back("inlined lines", In);
  }
  {
    // Zero values are skipped; extra values past the sample types are
    // ignored; short value lists leave later metrics alone.
    pprof::PprofProfile In = smallModel();
    In.StringTable.push_back("alloc_space");
    In.StringTable.push_back("bytes");
    In.SampleTypes.push_back({7, 8});
    In.Samples[0].Values = {0, 4096, 17};
    In.Samples[1].Values = {9};
    Cases.emplace_back("zero and extra values", In);
  }
  {
    // Unit scaling, a repeated metric name, and an empty type name.
    pprof::PprofProfile In = smallModel();
    In.StringTable.push_back("milliseconds");
    In.StringTable.push_back("seconds");
    In.SampleTypes = {{1, 7}, {1, 8}, {0, 2}};
    In.Samples[0].Values = {3, -2, 5};
    In.Samples[1].Values = {1, 1, 1};
    Cases.emplace_back("scaled values", In);
  }
  {
    // Samples that share a prefix, diverge, and return; an empty stack;
    // a sample that repeats a location.
    pprof::PprofProfile In = smallModel();
    auto Add = [&In](std::vector<uint64_t> Ids, int64_t V) {
      pprof::Sample S;
      S.LocationIds = std::move(Ids);
      S.Values = {V};
      In.Samples.push_back(S);
    };
    Add({1, 2, 1}, 3);
    Add({2, 2, 1}, 4);
    Add({}, 6);
    Add({2, 1}, 7);
    Add({1, 1, 1, 1}, 8);
    Add({2}, 9);
    Cases.emplace_back("prefix resume", In);
  }
  {
    pprof::PprofProfile In = smallModel();
    In.Samples[1].LocationIds = {1, 3};
    Cases.emplace_back("unknown location", In);
  }
  {
    pprof::PprofProfile In = smallModel();
    In.SampleTypes.clear();
    Cases.emplace_back("no sample types", In);
  }
  {
    pprof::PprofProfile In = smallModel();
    In.StringTable[0] = "x";
    Cases.emplace_back("non-empty string 0", In);
  }
  {
    pprof::PprofProfile In = smallModel();
    In.Samples[0].Labels.push_back({1, 2, 3, 4});
    Cases.emplace_back("labels", In);
  }
  for (const auto &[Name, In] : Cases)
    expectSameAsOracle(pprof::write(In), Name);
}

TEST(PprofOracle, WireOrderAndEncodingVariants) {
  // Tables before samples, unpacked location ids and values, fields split
  // across several occurrences, unknown fields, and the scalar header
  // fields.
  auto Message = [](auto &&Fill) {
    ProtoWriter W;
    Fill(W);
    return W.takeBuffer();
  };
  ProtoWriter W;
  for (std::string_view S : {"", "cpu", "count", "f", "g"})
    W.writeBytes(pprof::FStringTable, S);
  W.writeBytes(pprof::FFunction, Message([](ProtoWriter &F) {
                 F.writeVarint(1, 1);
                 F.writeInt64(2, 3);
                 F.writeVarint(99, 5); // Unknown field.
               }));
  W.writeBytes(pprof::FFunction, Message([](ProtoWriter &F) {
                 F.writeVarint(1, 2);
                 F.writeInt64(2, 4);
               }));
  for (uint64_t Id = 1; Id <= 2; ++Id)
    W.writeBytes(pprof::FLocation, Message([Id](ProtoWriter &L) {
                   L.writeVarint(1, Id);
                   L.writeBytes(4, [&] {
                     ProtoWriter Ln;
                     Ln.writeVarint(1, Id);
                     return Ln.takeBuffer();
                   }());
                 }));
  W.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                 S.writeVarint(1, 2); // Unpacked, leaf first.
                 S.writeVarint(1, 1);
                 S.writeVarint(2, 7); // Unpacked value.
               }));
  W.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                 uint64_t Ids[] = {1};
                 S.writePackedVarints(1, Ids, 1);
                 S.writeVarint(1, 2); // Packed then unpacked: appended.
                 uint64_t Vals[] = {5};
                 S.writePackedVarints(2, Vals, 1);
                 S.writeDouble(15, 1.5); // Unknown fixed64 field.
               }));
  W.writeBytes(pprof::FSampleType, Message([](ProtoWriter &T) {
                 T.writeInt64(1, 1);
                 T.writeInt64(2, 2);
               }));
  W.writeInt64(pprof::FTimeNanos, 12345);
  W.writeInt64(pprof::FPeriod, -1);
  W.writeBytes(pprof::FPeriodType, Message([](ProtoWriter &T) {
                 T.writeInt64(1, 1);
               }));
  expectSameAsOracle(W.buffer(), "wire variants");
  Result<Profile> P = convert::fromPprof(W.buffer());
  ASSERT_TRUE(P.ok()) << P.error();
  EXPECT_EQ(P->nodeCount(), 5u); // root, f, f/g, g, g/f

  // A string table split around the samples.
  ProtoWriter Split;
  Split.writeBytes(pprof::FStringTable, "");
  Split.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                     S.writeVarint(2, 1);
                   }));
  Split.writeBytes(pprof::FStringTable, "cpu");
  Split.writeBytes(pprof::FSampleType, Message([](ProtoWriter &T) {
                     T.writeInt64(1, 1);
                   }));
  expectSameAsOracle(Split.buffer(), "split string table");
}

TEST(PprofOracle, MalformedMessagesReportTheFirstFaultOnTheWire) {
  auto Message = [](auto &&Fill) {
    ProtoWriter W;
    Fill(W);
    return W.takeBuffer();
  };
  std::string Base = pprof::write(smallModel());
  std::string BadSample = Message([](ProtoWriter &S) {
    S.writeBytes(1, "\xff"); // A truncated packed varint.
  });
  std::string BadLocation = Message([](ProtoWriter &L) {
    L.writeBytes(1, "x"); // id as bytes.
  });
  std::string BadLine = Message([](ProtoWriter &L) {
    L.writeVarint(1, 9);
    L.writeBytes(4, "\x08"); // Truncated varint in a Line.
  });
  std::vector<std::pair<std::string, std::string>> Cases = {
      {"bad sample", Base + Message([&](ProtoWriter &W) {
                       W.writeBytes(pprof::FSample, BadSample);
                     })},
      {"bad location", Base + Message([&](ProtoWriter &W) {
                         W.writeBytes(pprof::FLocation, BadLocation);
                       })},
      {"bad line", Base + Message([&](ProtoWriter &W) {
                     W.writeBytes(pprof::FLocation, BadLine);
                   })},
      {"bad sample before bad location",
       Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, BadSample);
         W.writeBytes(pprof::FLocation, BadLocation);
       }) + Base},
      {"bad location before bad sample",
       Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FLocation, BadLocation);
         W.writeBytes(pprof::FSample, BadSample);
       }) + Base},
      {"bad sample after bad header",
       Base + Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FTimeNanos, "x");
         W.writeBytes(pprof::FSample, BadSample);
       })},
      {"bad sample before bad header",
       Base + Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, BadSample);
         W.writeBytes(pprof::FPeriod, "x");
       })},
      {"bad sample and unknown location",
       Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                        S.writeVarint(1, 12345);
                      }));
       }) + Base + Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, BadSample);
       })},
      {"bad label", Base + Message([&](ProtoWriter &W) {
                      W.writeBytes(pprof::FSample, Message([&](ProtoWriter &S) {
                                     S.writeBytes(3, Message([](ProtoWriter &L) {
                                                    L.writeBytes(2, "str");
                                                  }));
                                   }));
                    })},
      {"bad value type", Base + Message([&](ProtoWriter &W) {
                           W.writeBytes(pprof::FPeriodType, "\x08");
                         })},
      // Varints of ten bytes hold bit 63 in their last byte; more is an
      // overlong encoding.
      {"overlong packed id", Base + Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                        S.writeBytes(1, std::string(9, '\xff') + '\x02');
                      }));
       })},
      {"eleven-byte packed value", Base + Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                        S.writeBytes(2, std::string(10, '\xff') + '\x01');
                      }));
       })},
      {"largest packed id", Base + Message([&](ProtoWriter &W) {
         W.writeBytes(pprof::FSample, Message([](ProtoWriter &S) {
                        S.writeBytes(1, std::string(9, '\xff') + '\x01');
                      }));
       })},
      {"sample as varint", Base + Message([&](ProtoWriter &W) {
                             W.writeVarint(pprof::FSample, 1);
                           })},
      {"group wire type", Base + std::string("\x0b", 1)},
  };
  for (const auto &[Name, Bytes] : Cases) {
    expectSameAsOracle(Bytes, Name);
    EXPECT_FALSE(convert::fromPprof(Bytes).ok()) << Name;
  }
}

TEST(PprofOracle, SeededBitFlipAndTruncationMutants) {
  // 1200 mutants of four small inputs. None may be refused for a budget:
  // the default DecodeLimits admit everything these sizes can express.
  std::vector<std::string> Seeds = {
      synthetic(1, 6 << 10), synthetic(9, 3 << 10), pprof::write(smallModel()),
      convert::toPprof(test::makeRandomProfile(5, 40))};
  Rng R(20261018);
  size_t LimitRefusals = 0, Accepted = 0, Mutants = 0;
  for (int Round = 0; Round < 300; ++Round) {
    for (const std::string &Valid : Seeds) {
      std::string Mutated = Valid;
      if (Round % 4 == 3) {
        Mutated.resize(R.below(Valid.size()));
      } else {
        for (uint64_t Flip = 0, N = 1 + R.below(3); Flip < N; ++Flip) {
          size_t At = R.below(Mutated.size());
          Mutated[At] = static_cast<char>(Mutated[At] ^ (1 << R.below(8)));
        }
      }
      ++Mutants;
      expectSameAsOracle(Mutated, "round " + std::to_string(Round),
                         LimitRefusals);
      Accepted += convert::fromPprof(Mutated).ok();
      if (HasFatalFailure())
        return;
    }
  }
  EXPECT_EQ(Mutants, 1200u);
  EXPECT_EQ(LimitRefusals, 0u);
  // Both outcomes are exercised.
  EXPECT_GT(Accepted, 50u);
  EXPECT_LT(Accepted, Mutants - 50);
}

TEST(PprofOracle, BudgetsRefuseWhatTheOracleAccepts) {
  std::string Bytes = synthetic(3, 32 << 10);
  ASSERT_TRUE(convert::oracle::fromPprof(Bytes).ok());
  auto Refusal = [&](auto &&Tighten) {
    DecodeLimits L;
    Tighten(L);
    Result<Profile> P = convert::fromPprof(Bytes, L);
    return P.ok() ? std::string("accepted") : P.error();
  };
  EXPECT_EQ(Refusal([](DecodeLimits &L) { L.MaxStrings = 10; }),
            "decode limit exceeded: too many strings");
  EXPECT_EQ(Refusal([](DecodeLimits &L) { L.MaxStringBytes = 100; }),
            "decode limit exceeded: string table too large");
  EXPECT_EQ(Refusal([](DecodeLimits &L) { L.MaxMetrics = 0; }),
            "decode limit exceeded: too many metrics");
  EXPECT_EQ(Refusal([](DecodeLimits &L) { L.MaxFrames = 10; }),
            "decode limit exceeded: too many frames");
  EXPECT_EQ(Refusal([](DecodeLimits &L) { L.MaxNodes = 10; }),
            "decode limit exceeded: too many nodes");
  EXPECT_EQ(Refusal([](DecodeLimits &L) { L.MaxTreeDepth = 3; }),
            "decode limit exceeded: tree too deep");
  EXPECT_EQ(Refusal([](DecodeLimits &) {}), "accepted");
}

TEST(PprofOracle, SampleLongerThanTheDepthBudgetIsRefused) {
  // A sample naming more locations than MaxTreeDepth is refused whether
  // its ids are packed or not; at the budget it converts.
  for (bool Packed : {true, false}) {
    ProtoWriter W;
    for (std::string_view S : {"", "cpu", "count", "f"})
      W.writeBytes(pprof::FStringTable, S);
    ProtoWriter T;
    T.writeInt64(1, 1);
    W.writeBytes(pprof::FSampleType, T.buffer());
    ProtoWriter L;
    L.writeVarint(1, 1);
    W.writeBytes(pprof::FLocation, L.buffer());
    ProtoWriter S;
    std::vector<uint64_t> Ids(60, 1);
    if (Packed)
      S.writePackedVarints(1, Ids.data(), Ids.size());
    else
      for (uint64_t Id : Ids)
        S.writeVarint(1, Id);
    W.writeBytes(pprof::FSample, S.buffer());
    expectSameAsOracle(W.buffer(), Packed ? "packed" : "unpacked");

    DecodeLimits Tight;
    Tight.MaxTreeDepth = 59;
    Result<Profile> P = convert::fromPprof(W.buffer(), Tight);
    ASSERT_FALSE(P.ok()) << (Packed ? "packed" : "unpacked");
    EXPECT_EQ(P.error(), "decode limit exceeded: tree too deep");
    Tight.MaxTreeDepth = 60;
    EXPECT_TRUE(convert::fromPprof(W.buffer(), Tight).ok());
  }
}
