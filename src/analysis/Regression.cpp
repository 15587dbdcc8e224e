//===- analysis/Regression.cpp - Differential regression analysis ---------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Regression.h"

#include "support/Strings.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace ev {

namespace {

/// Textual identity of one frame, the pairing key between the two cohort
/// shapes (each has its own string table, so ids do not transfer).
struct FrameKey {
  FrameKind Kind;
  std::string_view Name;
  std::string_view File;
  std::string_view Module;
  uint32_t Line;

  bool operator==(const FrameKey &O) const = default;
};

struct FrameKeyHash {
  size_t operator()(const FrameKey &K) const {
    uint64_t H = static_cast<uint64_t>(K.Kind);
    auto Mix = [&H](uint64_t V) {
      H ^= V + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
    };
    Mix(std::hash<std::string_view>{}(K.Name));
    Mix(std::hash<std::string_view>{}(K.File));
    Mix(std::hash<std::string_view>{}(K.Module));
    Mix(K.Line);
    return static_cast<size_t>(H);
  }
};

FrameKey keyOf(const Profile &P, NodeId Id) {
  const Frame &F = P.frameOf(Id);
  return {F.Kind, P.text(F.Name), P.text(F.Loc.File), P.text(F.Loc.Module),
          F.Loc.Line};
}

/// One finding plus its sort key; emitted into the DiagnosticSet only
/// after the full walk so output order is independent of traversal.
struct PendingFinding {
  std::string Path;
  std::string Metric;
  Diagnostic D;
};

std::string renderPath(const Profile &P, NodeId Id, size_t MaxSegments) {
  std::vector<NodeId> Nodes = P.pathTo(Id);
  std::string Out;
  size_t First = 1; // Skip the root.
  bool Truncated = false;
  if (Nodes.size() > MaxSegments + 1) {
    First = Nodes.size() - MaxSegments;
    Truncated = true;
  }
  if (Truncated)
    Out += "... > ";
  for (size_t I = First; I < Nodes.size(); ++I) {
    if (I != First)
      Out += " > ";
    std::string_view Name = P.nameOf(Nodes[I]);
    Out += Name.empty() ? std::string_view("(unnamed)") : Name;
  }
  if (Out.empty())
    Out = "(root)";
  return Out;
}

std::string percent(double Fraction) {
  return formatDouble(Fraction * 100.0, 1) + "%";
}

std::string signedDelta(double Delta, std::string_view Unit) {
  std::string Out = Delta >= 0 ? "+" : "-";
  Out += formatMetric(std::fabs(Delta), Unit);
  return Out;
}

/// The " (<delta>, <relative change>)" tail of a mean-change message. A
/// change from a zero base mean has no relative size: it reads "from zero".
std::string changeTail(double Delta, double BaseMean, std::string_view Unit) {
  std::string Out = " (" + signedDelta(Delta, Unit) + ", ";
  if (BaseMean == 0.0)
    return Out + "from zero)";
  double Rel = std::fabs(Delta) / std::max(std::fabs(BaseMean), 1e-12);
  return Out + (Delta >= 0 ? "+" : "-") + formatDouble(Rel * 100.0, 1) + "%)";
}

} // namespace

void RegressionAnalyzer::analyze(const CohortAccumulator &Base,
                                 const CohortAccumulator &Test,
                                 DiagnosticSet &Out,
                                 const CancelToken &Cancel) const {
  trace::Span Span("analysis/regress", "analysis");
  const Profile &BP = Base.shape();
  const Profile &TP = Test.shape();
  if (Base.profileCount() == 0 || Test.profileCount() == 0)
    return;

  std::vector<PendingFinding> Pending;
  auto Emit = [&](RuleRef Rule, std::string Path, std::string Metric,
                  std::string Message, std::string Hint, NodeId Node) {
    if (std::optional<Diagnostic> D = Opts.Filter.diagnose(
            Rule, std::move(Message), std::move(Hint), {.Node = Node}))
      Pending.push_back({std::move(Path), std::move(Metric), std::move(*D)});
  };

  // Pair the metric schemas by name; disagreement is itself a finding
  // (EVL307) and analysis proceeds over the intersection.
  struct MetricPair {
    MetricId BaseId;
    MetricId TestId;
    std::string Name;
    std::string Unit;
    bool IsBytes;
  };
  std::vector<MetricPair> Metrics;
  for (MetricId T = 0; T < TP.metrics().size(); ++T) {
    const MetricDescriptor &M = TP.metrics()[T];
    MetricId B = BP.findMetric(M.Name);
    if (B == Profile::InvalidMetric) {
      Emit("EVL307", "(root)", M.Name,
           "metric schemas disagree between cohorts: '" + M.Name +
               "' is present only in the test cohort",
           "aggregate cohorts captured with the same profiler configuration",
           TP.root());
      continue;
    }
    Metrics.push_back({B, T, M.Name, M.Unit, M.Unit == "bytes"});
  }
  for (MetricId B = 0; B < BP.metrics().size(); ++B) {
    const MetricDescriptor &M = BP.metrics()[B];
    if (TP.findMetric(M.Name) == Profile::InvalidMetric)
      Emit("EVL307", "(root)", M.Name,
           "metric schemas disagree between cohorts: '" + M.Name +
               "' is present only in the base cohort",
           "aggregate cohorts captured with the same profiler configuration",
           TP.root());
  }

  // Cohort-sum inclusive columns per paired metric, the denominator of
  // every share-based rule (EVL302/303/304/308).
  std::vector<std::vector<double>> BaseIncl(Metrics.size());
  std::vector<std::vector<double>> TestIncl(Metrics.size());
  for (size_t M = 0; M < Metrics.size(); ++M) {
    BaseIncl[M] = Base.inclusiveSumColumn(Metrics[M].BaseId);
    TestIncl[M] = Test.inclusiveSumColumn(Metrics[M].TestId);
  }

  double NB = static_cast<double>(Base.profileCount());
  double NT = static_cast<double>(Test.profileCount());

  // EVL308: whole-cohort mean totals (per-profile total distributions are
  // not retained, so this gate is relative + absolute only).
  for (size_t M = 0; M < Metrics.size(); ++M) {
    double MeanB = BaseIncl[M][BP.root()] / NB;
    double MeanT = TestIncl[M][TP.root()] / NT;
    double Delta = MeanT - MeanB;
    double Rel = Delta / std::max(std::fabs(MeanB), 1e-12);
    if (Delta >= Opts.AbsoluteMin && Rel >= Opts.RelativeMin)
      Emit("EVL308", "(root)", Metrics[M].Name,
           "cohort total for " + Metrics[M].Name + " regressed: base mean " +
               formatMetric(MeanB, Metrics[M].Unit) + ", test mean " +
               formatMetric(MeanT, Metrics[M].Unit) +
               changeTail(Delta, MeanB, Metrics[M].Unit),
           "per-context findings below attribute the growth",
           TP.root());
  }

  // Lockstep walk over the two shapes, contexts paired by textual frame
  // identity under a paired parent.
  std::vector<std::pair<NodeId, NodeId>> Stack;
  Stack.emplace_back(BP.root(), TP.root());
  size_t Visited = 0;
  while (!Stack.empty()) {
    auto [B, T] = Stack.back();
    Stack.pop_back();
    if ((++Visited & 255) == 0)
      Cancel.checkpoint();
    if (Base.isFolded(B) || Test.isFolded(T))
      continue; // Catch-all nodes carry sums without attribution.

    bool IsRoot = B == BP.root();
    for (size_t M = 0; M < Metrics.size(); ++M) {
      const MetricPair &MP = Metrics[M];
      CohortNodeStats SB = Base.stats(B, MP.BaseId);
      CohortNodeStats ST = Test.stats(T, MP.TestId);
      if (SB.Present == 0 && ST.Present == 0)
        continue;
      double Delta = ST.Mean - SB.Mean;
      double Rel = std::fabs(Delta) / std::max(std::fabs(SB.Mean), 1e-12);
      // Welch standard error of the difference of cohort means.
      double SE = std::sqrt(SB.Stddev * SB.Stddev / NB +
                            ST.Stddev * ST.Stddev / NT);
      bool Significant = std::fabs(Delta) >= Opts.SigmaGate * SE;
      if (MP.IsBytes) {
        if (std::fabs(Delta) >= Opts.AllocAbsoluteMin &&
            Rel >= Opts.AllocRelativeMin && Significant &&
            std::fabs(Delta) > 0.0) {
          std::string Path = renderPath(TP, T, Opts.MaxPathSegments);
          Emit("EVL306", Path, MP.Name,
               "allocation metric " + MP.Name + " drifted on " + Path +
                   ": base mean " + formatMetric(SB.Mean, MP.Unit) +
                   ", test mean " + formatMetric(ST.Mean, MP.Unit) +
                   changeTail(Delta, SB.Mean, MP.Unit),
               "check allocation sites in this subtree for size changes",
               T);
        }
      } else if (std::fabs(Delta) >= Opts.AbsoluteMin &&
                 Rel >= Opts.RelativeMin && Significant &&
                 std::fabs(Delta) > 0.0) {
        std::string Path = renderPath(TP, T, Opts.MaxPathSegments);
        if (Delta > 0)
          Emit("EVL300", Path, MP.Name,
               "exclusive " + MP.Name + " regressed on " + Path +
                   ": base mean " + formatMetric(SB.Mean, MP.Unit) +
                   ", test mean " + formatMetric(ST.Mean, MP.Unit) +
                   changeTail(Delta, SB.Mean, MP.Unit),
               "inspect this context with 'evtool diff' or pvp/flame", T);
        else
          Emit("EVL301", Path, MP.Name,
               "exclusive " + MP.Name + " improved on " + Path +
                   ": base mean " + formatMetric(SB.Mean, MP.Unit) +
                   ", test mean " + formatMetric(ST.Mean, MP.Unit) +
                   changeTail(Delta, SB.Mean, MP.Unit),
               "", T);
      }

      // EVL304: inclusive share of the cohort total.
      if (!IsRoot) {
        double TotalB = BaseIncl[M][BP.root()];
        double TotalT = TestIncl[M][TP.root()];
        if (TotalB > 0.0 && TotalT > 0.0) {
          double ShareB = BaseIncl[M][B] / TotalB;
          double ShareT = TestIncl[M][T] / TotalT;
          if (ShareT - ShareB >= Opts.ShareShiftMin) {
            std::string Path = renderPath(TP, T, Opts.MaxPathSegments);
            Emit("EVL304", Path, MP.Name,
                 "inclusive share of " + MP.Name + " shifted on " + Path +
                     ": " + percent(ShareB) + " -> " + percent(ShareT) +
                     " (+" + formatDouble((ShareT - ShareB) * 100.0, 1) +
                     " points)",
                 "the subtree grew relative to everything else; compare its "
                 "children across cohorts",
                 T);
          }
        }
      }
    }

    // EVL305: structural fan-out explosion.
    size_t FanB = BP.node(B).Children.size();
    size_t FanT = TP.node(T).Children.size();
    if (FanT >= Opts.FanOutMinChildren &&
        static_cast<double>(FanT) >=
            Opts.FanOutFactor * static_cast<double>(std::max<size_t>(FanB, 1))) {
      std::string Path = renderPath(TP, T, Opts.MaxPathSegments);
      Emit("EVL305", Path, "",
           "fan-out exploded on " + Path + ": " + std::to_string(FanB) +
               " -> " + std::to_string(FanT) + " children",
           "a call site multiplied its distinct callees; check for "
           "degenerate context splitting",
           T);
    }

    // Pair the children by frame identity; unmatched children are the
    // EVL302 / EVL303 candidates.
    std::unordered_map<FrameKey, NodeId, FrameKeyHash> BaseKids;
    BaseKids.reserve(FanB);
    for (NodeId Kid : BP.node(B).Children)
      if (!Base.isFolded(Kid))
        BaseKids.emplace(keyOf(BP, Kid), Kid);
    for (NodeId Kid : TP.node(T).Children) {
      if (Test.isFolded(Kid))
        continue;
      auto It = BaseKids.find(keyOf(TP, Kid));
      if (It != BaseKids.end()) {
        Stack.emplace_back(It->second, Kid);
        BaseKids.erase(It);
        continue;
      }
      // EVL302: present only in test. Report the subtree root; its own
      // children are by construction also new and stay unreported.
      for (size_t M = 0; M < Metrics.size(); ++M) {
        double TotalT = TestIncl[M][TP.root()];
        if (TotalT <= 0.0)
          continue;
        double Share = TestIncl[M][Kid] / TotalT;
        if (Share >= Opts.NewPathShareMin) {
          std::string Path = renderPath(TP, Kid, Opts.MaxPathSegments);
          Emit("EVL302", Path, Metrics[M].Name,
               "new hot path " + Path + ": " + percent(Share) +
                   " of the test cohort's " + Metrics[M].Name +
                   " total, absent from base",
               "new code or a new call edge; confirm it is intentional",
               Kid);
        }
      }
    }
    // EVL303: present only in base.
    for (const auto &[Key, Kid] : BaseKids) {
      for (size_t M = 0; M < Metrics.size(); ++M) {
        double TotalB = BaseIncl[M][BP.root()];
        if (TotalB <= 0.0)
          continue;
        double Share = BaseIncl[M][Kid] / TotalB;
        if (Share >= Opts.DisappearedShareMin) {
          std::string Path = renderPath(BP, Kid, Opts.MaxPathSegments);
          Emit("EVL303", Path, Metrics[M].Name,
               "frame disappeared: " + Path + " held " + percent(Share) +
                   " of the base cohort's " + Metrics[M].Name + " total",
               "removed code, a renamed symbol, or inlining changes", Kid);
        }
      }
    }
  }

  // Deterministic presentation order: (rule, path, metric). The walk order
  // (stack, hash maps) must never leak into the output.
  std::sort(Pending.begin(), Pending.end(),
            [](const PendingFinding &A, const PendingFinding &B) {
              if (A.D.Id != B.D.Id)
                return A.D.Id < B.D.Id;
              if (A.Path != B.Path)
                return A.Path < B.Path;
              return A.Metric < B.Metric;
            });
  for (PendingFinding &P : Pending)
    Out.add(std::move(P.D));
}

} // namespace ev
