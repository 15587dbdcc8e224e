//===- bench/bench_ablation.cpp - Design-choice ablations -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablates the design choices DESIGN.md §4 calls out — the mechanisms
/// behind EasyView's Fig. 5 advantage:
///
///  1. string interning vs per-frame std::string keys;
///  2. lazy flame layout (min-width culling) vs full layout;
///  3. prefix-merged CCT construction (hashed child index) vs per-sample
///     linear child scans;
///  4. varint wire format vs fixed-width serialization.
///
//===----------------------------------------------------------------------===//

#include "BenchHelpers.h"

#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "render/FlameLayout.h"
#include "support/Rng.h"
#include "workload/SyntheticProfile.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>

using namespace ev;

namespace {

Profile &testProfile() {
  static Profile P = [] {
    workload::SyntheticOptions Opt;
    Opt.TargetBytes = 8 << 20;
    return workload::generateSyntheticProfile(Opt);
  }();
  return P;
}

//===----------------------------------------------------------------------===
// Ablation 1: interning vs string keys when re-keying every frame.
//===----------------------------------------------------------------------===

void internedFrameKeys(benchmark::State &State) {
  Profile &P = testProfile();
  for (auto _ : State) {
    // Interned pipeline: group exclusive values by FrameRef (an int).
    std::vector<double> ByFrame(P.frames().size(), 0.0);
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
      if (!P.node(Id).Metrics.empty())
        ByFrame[P.node(Id).FrameRef] += P.node(Id).Metrics[0].Value;
    benchmark::DoNotOptimize(ByFrame.data());
  }
}
BENCHMARK(internedFrameKeys)->Unit(benchmark::kMillisecond);

void stringFrameKeys(benchmark::State &State) {
  Profile &P = testProfile();
  for (auto _ : State) {
    // Baseline pipeline: group by the frame's display string.
    std::map<std::string, double> ByName;
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
      if (!P.node(Id).Metrics.empty())
        ByName[std::string(P.nameOf(Id))] += P.node(Id).Metrics[0].Value;
    benchmark::DoNotOptimize(&ByName);
  }
}
BENCHMARK(stringFrameKeys)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===
// Ablation 2: min-width culling vs full layout.
//===----------------------------------------------------------------------===

void layoutWithCulling(benchmark::State &State) {
  Profile &P = testProfile();
  size_t Rects = 0;
  for (auto _ : State) {
    FlameGraph G(P, 0); // Default: 1/4096 min width.
    Rects = G.rects().size();
    benchmark::DoNotOptimize(Rects);
  }
  State.counters["rects"] = static_cast<double>(Rects);
}
BENCHMARK(layoutWithCulling)->Unit(benchmark::kMillisecond);

void layoutFull(benchmark::State &State) {
  Profile &P = testProfile();
  FlameLayoutOptions Opt;
  Opt.MinWidth = 0.0; // Materialize every subpixel rectangle.
  size_t Rects = 0;
  for (auto _ : State) {
    FlameGraph G(P, 0, Opt);
    Rects = G.rects().size();
    benchmark::DoNotOptimize(Rects);
  }
  State.counters["rects"] = static_cast<double>(Rects);
}
BENCHMARK(layoutFull)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===
// Ablation 3: hashed child index vs linear child scans during CCT build.
//===----------------------------------------------------------------------===

struct PathSet {
  std::vector<std::vector<FrameId>> Paths;
  Profile Skeleton; // Carries the interned frames.
};

PathSet &pathSet() {
  // Sampled-profile shape: a bounded set of code paths (templates), many
  // samples each, and high fanout near the root — the regime where the
  // hashed child index pays off over linear child-list scans.
  static PathSet S = [] {
    PathSet Out;
    Rng R(5);
    ProfileBuilder B("paths");
    (void)B.addMetric("m", "count");
    const size_t PoolSize = 2000;
    std::vector<FrameId> Pool;
    for (size_t I = 0; I < PoolSize; ++I)
      Pool.push_back(B.functionFrame("fn" + std::to_string(I)));
    std::vector<std::vector<FrameId>> Templates;
    for (int T = 0; T < 4000; ++T) {
      std::vector<FrameId> Path;
      unsigned Depth = static_cast<unsigned>(R.range(8, 20));
      for (unsigned D = 0; D < Depth; ++D)
        Path.push_back(Pool[R.below(Pool.size())]);
      Templates.push_back(std::move(Path));
    }
    for (int P = 0; P < 100000; ++P)
      Out.Paths.push_back(Templates[R.below(Templates.size())]);
    Out.Skeleton = B.take();
    return Out;
  }();
  return S;
}

void cctBuildHashedIndex(benchmark::State &State) {
  PathSet &S = pathSet();
  for (auto _ : State) {
    ProfileBuilder B("hashed");
    MetricId M = B.addMetric("m", "count");
    // Re-intern the frame pool (same for both variants).
    std::vector<FrameId> Pool;
    for (int I = 0; I < 2000; ++I)
      Pool.push_back(B.functionFrame("fn" + std::to_string(I)));
    for (const auto &Path : S.Paths)
      B.addSample(Path, M, 1.0);
    Profile P = B.take();
    benchmark::DoNotOptimize(P.nodeCount());
  }
}
BENCHMARK(cctBuildHashedIndex)->Unit(benchmark::kMillisecond);

void cctBuildLinearScan(benchmark::State &State) {
  PathSet &S = pathSet();
  for (auto _ : State) {
    // Naive insertion: scan the parent's child list per step.
    ProfileBuilder B("linear");
    MetricId M = B.addMetric("m", "count");
    std::vector<FrameId> Pool;
    for (int I = 0; I < 2000; ++I)
      Pool.push_back(B.functionFrame("fn" + std::to_string(I)));
    std::vector<std::vector<NodeId>> Children(1);
    std::vector<FrameId> FrameOf(1, 0);
    for (const auto &Path : S.Paths) {
      NodeId Cur = B.root();
      for (FrameId F : Path) {
        NodeId Next = InvalidNode;
        for (NodeId Child : Children[Cur])
          if (FrameOf[Child] == F)
            Next = Child;
        if (Next == InvalidNode) {
          Next = B.createNode(Cur, F);
          Children[Cur].push_back(Next);
          Children.emplace_back();
          FrameOf.push_back(F);
        }
        Cur = Next;
      }
      B.addValue(Cur, M, 1.0);
    }
    Profile P = B.take();
    benchmark::DoNotOptimize(P.nodeCount());
  }
}
BENCHMARK(cctBuildLinearScan)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===
// Ablation 4: varint wire format vs fixed-width serialization.
//===----------------------------------------------------------------------===

void serializeVarint(benchmark::State &State) {
  Profile &P = testProfile();
  size_t Bytes = 0;
  for (auto _ : State) {
    std::string Out = writeEvProf(P);
    Bytes = Out.size();
    benchmark::DoNotOptimize(Out.data());
  }
  State.counters["bytes"] = static_cast<double>(Bytes);
}
BENCHMARK(serializeVarint)->Unit(benchmark::kMillisecond);

void serializeFixedWidth(benchmark::State &State) {
  Profile &P = testProfile();
  size_t Bytes = 0;
  for (auto _ : State) {
    // Fixed-width strawman: 8 bytes per integer field, no varints.
    std::string Out;
    Out.reserve(P.nodeCount() * 24);
    auto Put64 = [&Out](uint64_t V) {
      for (int I = 0; I < 8; ++I)
        Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
    };
    for (NodeId Id = 0; Id < P.nodeCount(); ++Id) {
      const CCTNode &Node = P.node(Id);
      Put64(Node.Parent);
      Put64(Node.FrameRef);
      Put64(Node.Metrics.size());
      for (const MetricValue &MV : Node.Metrics) {
        Put64(MV.Metric);
        uint64_t Bits;
        static_assert(sizeof(Bits) == sizeof(MV.Value));
        std::memcpy(&Bits, &MV.Value, sizeof(Bits));
        Put64(Bits);
      }
    }
    Bytes = Out.size();
    benchmark::DoNotOptimize(Out.data());
  }
  State.counters["bytes"] = static_cast<double>(Bytes);
}
BENCHMARK(serializeFixedWidth)->Unit(benchmark::kMillisecond);

void printHeader() {
  bench::row("Ablations of DESIGN.md Sec4 (mechanisms behind Fig. 5):");
  bench::row("1. interned vs string frame keys  2. culled vs full layout");
  bench::row("3. hashed vs linear CCT build     4. varint vs fixed-width");
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  printHeader();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
