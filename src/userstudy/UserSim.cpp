//===- userstudy/UserSim.cpp - Simulated user studies -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "userstudy/UserSim.h"

#include "analysis/Aggregate.h"
#include "analysis/LeakDetector.h"
#include "analysis/MetricEngine.h"
#include "analysis/Transform.h"
#include "render/FlameLayout.h"
#include "render/TreeTable.h"
#include "support/Rng.h"
#include "workload/GrpcLeakWorkload.h"
#include "workload/LuleshWorkload.h"

#include <algorithm>
#include <cmath>

namespace ev {
namespace userstudy {

std::string_view toolName(Tool T) {
  switch (T) {
  case Tool::EasyView:
    return "EasyView";
  case Tool::Goland:
    return "GoLand";
  case Tool::Pprof:
    return "PProf";
  }
  return "?";
}

std::string_view taskName(Task T) {
  switch (T) {
  case Task::HotspotAnalysis:
    return "Task I (hotspots in contexts)";
  case Task::BottomUpAnalysis:
    return "Task II (bottom-up sources)";
  case Task::MultiProfileLeak:
    return "Task III (multi-profile leak)";
  }
  return "?";
}

namespace {

/// Per-action minute costs. The EasyView costs are small because the
/// integrated flame graph + code link collapses whole sub-workflows into
/// single gestures; the baseline costs encode the paper's explanations.
struct ActionCosts {
  double OpenProfile;      ///< Open + first render of one profile.
  double ScanFlame;        ///< Read a flame graph for the answer.
  double LinkToSource;     ///< Jump from a context to its code.
  double TreeTableExpand;  ///< Expand one tree-table row and read it.
  double LearnView;        ///< One-time cost to learn an unfamiliar view.
  double ManualCorrelate;  ///< Manually match a report line to source.
  double WriteScript;      ///< Write + debug an ad-hoc analysis script.
};

ActionCosts costsFor(Tool T) {
  switch (T) {
  case Tool::EasyView:
    // In-IDE flame graphs with code links; everything is one gesture.
    return {0.15, 1.0, 0.05, 0.3, 0.0, 0.0, 0.0};
  case Tool::Goland:
    // Same IDE family but slower opening of large profiles and a
    // tree-table-only bottom-up view.
    return {0.9, 1.2, 0.1, 0.8, 12.0, 0.0, 0.0};
  case Tool::Pprof:
    // Web UI disjoint from the editor: every source correlation is
    // manual, and anything beyond the built-in views means scripting.
    return {0.6, 1.4, 0.0, 0.0, 6.0, 2.4, 90.0};
  }
  return {};
}

/// Shared study fixtures: the real workload profiles the participants
/// analyze. Built once; the interaction counts below are derived from
/// these actual data models.
struct StudyFixtures {
  Profile Cpu;        ///< LULESH-style CPU profile (Tasks I & II).
  size_t HotLeaves;   ///< Distinct nonzero leaf contexts (manual work).
  unsigned HotPathDepth; ///< Rows to expand to reach the hot leaf.
  workload::GrpcLeakWorkload Leak; ///< Task III snapshots.

  static const StudyFixtures &get() {
    static StudyFixtures F = [] {
      StudyFixtures S;
      S.Cpu = workload::generateLuleshProfile({});
      S.HotLeaves = 0;
      for (NodeId Id = 0; Id < S.Cpu.nodeCount(); ++Id)
        if (!S.Cpu.node(Id).Metrics.empty() &&
            S.Cpu.node(Id).Children.empty())
          ++S.HotLeaves;
      TreeTable Table(S.Cpu);
      NodeId Leaf = Table.expandHotPath(0);
      S.HotPathDepth = S.Cpu.depth(Leaf);
      workload::GrpcLeakOptions LeakOpt;
      LeakOpt.Snapshots = 120; // Enough for the pattern, cheap to build.
      S.Leak = workload::generateGrpcLeakWorkload(LeakOpt);
      return S;
    }();
    return F;
  }
};

double taskIMinutes(Tool T, const ActionCosts &C, Rng &R) {
  const StudyFixtures &F = StudyFixtures::get();
  // Participants inspect 4 profiles (CPU + memory on two services).
  const unsigned Profiles = 4;
  const unsigned HotspotsPerProfile = 2;
  double Minutes = 0.0;
  for (unsigned P = 0; P < Profiles; ++P) {
    Minutes += C.OpenProfile;
    // All three tools show a top-down flame graph for Task I; reading it
    // takes about the same time, plus per-tool navigation drag.
    FlameGraph Flame(F.Cpu, 0); // Real layout: part of what the user sees.
    double ScanScale =
        1.0 + 0.1 * std::log2(1.0 + static_cast<double>(Flame.rects().size()));
    Minutes += C.ScanFlame * ScanScale;
    for (unsigned H = 0; H < HotspotsPerProfile; ++H) {
      if (T == Tool::Pprof)
        Minutes += C.ManualCorrelate; // Find the file/line by hand.
      else
        Minutes += C.LinkToSource; // Click: the IDE opens the source.
    }
  }
  (void)R;
  return Minutes;
}

double taskIIMinutes(Tool T, const ActionCosts &C, Rng &R) {
  const StudyFixtures &F = StudyFixtures::get();
  // Three categories: hot allocation, GC/free paths, lock waits.
  const unsigned Categories = 3;
  double Minutes = C.OpenProfile;
  switch (T) {
  case Tool::EasyView: {
    // Bottom-up flame graph: search the category, read the reversed call
    // paths, and confirm a few call sites in the source.
    FlameGraph Flame(CallersTree(F.Cpu, 0));
    (void)Flame;
    for (unsigned K = 0; K < Categories; ++K) {
      Minutes += 2.9 * C.ScanFlame;      // Search + read the callers.
      Minutes += 6.0 * C.LinkToSource;   // Confirm call sites in source.
    }
    break;
  }
  case Tool::Goland: {
    // Bottom-up TREE TABLE only: learn it, then expand rows per category.
    Minutes += C.LearnView;
    for (unsigned K = 0; K < Categories; ++K) {
      // Rows to expand: the real bottom-up hot path depth, twice (the
      // user backtracks once on average).
      Minutes += C.TreeTableExpand * (2.0 * F.HotPathDepth);
      Minutes += C.ScanFlame; // Interpret the expanded table.
    }
    break;
  }
  case Tool::Pprof: {
    // No bottom-up view at all: enumerate leaf contexts by hand, then
    // write, debug, and verify a reverse-aggregation script (the paper
    // observes this takes more than three hours for every participant).
    Minutes += C.LearnView;
    Minutes += C.WriteScript * 3.0; // Write + debug + verify.
    Minutes += static_cast<double>(F.HotLeaves) * C.ManualCorrelate;
    break;
  }
  }
  (void)R;
  return Minutes;
}

double taskIIIMinutes(Tool T, const ActionCosts &C, Rng &R) {
  const StudyFixtures &F = StudyFixtures::get();
  double Minutes = 0.0;
  switch (T) {
  case Tool::EasyView: {
    // Real pipeline: aggregate the snapshots, rank leak suspects, inspect
    // the top histograms.
    std::vector<const Profile *> Inputs;
    for (const Profile &P : F.Leak.Snapshots)
      Inputs.push_back(&P);
    AggregatedProfile Agg = aggregate(Inputs);
    std::vector<LeakSuspect> Suspects = findLeakSuspects(Agg, 0);
    Minutes += C.OpenProfile;                       // Open the aggregate.
    Minutes += 2.0 * C.ScanFlame;                   // Aggregate flame.
    double Inspected =
        static_cast<double>(std::min<size_t>(Suspects.size() + 2, 6));
    Minutes += Inspected * (1.0 + C.LinkToSource);  // Histograms + links.
    break;
  }
  case Tool::Goland:
  case Tool::Pprof: {
    // No multi-profile analysis: open snapshots one by one and track
    // per-context values manually, or write a script. Users try the
    // manual route first, then fall back to scripting — both overrun the
    // three-hour budget for every participant (paper SecVII-D).
    size_t Snapshots = F.Leak.Snapshots.size();
    Minutes += static_cast<double>(Snapshots) * (C.OpenProfile + 1.0);
    Minutes += 2.0 * (T == Tool::Pprof ? 90.0 : 75.0); // Scripting tries.
    break;
  }
  }
  (void)R;
  return Minutes;
}

} // namespace

TaskOutcome simulateParticipant(Tool T, Task K, uint64_t Seed,
                                double BudgetMinutes) {
  Rng R(Seed);
  ActionCosts C = costsFor(T);
  // Mixed newbies and experienced engineers, all trained on flame-graph
  // basics (paper setup): skill multiplies every action cost.
  double Skill = std::clamp(R.normal(1.0, 0.2), 0.75, 1.6);

  double Minutes = 0.0;
  switch (K) {
  case Task::HotspotAnalysis:
    Minutes = taskIMinutes(T, C, R);
    break;
  case Task::BottomUpAnalysis:
    Minutes = taskIIMinutes(T, C, R);
    break;
  case Task::MultiProfileLeak:
    Minutes = taskIIIMinutes(T, C, R);
    break;
  }
  Minutes *= Skill;

  TaskOutcome Out;
  Out.Completed = Minutes <= BudgetMinutes;
  Out.Minutes = std::min(Minutes, BudgetMinutes);
  return Out;
}

std::vector<std::vector<GroupOutcome>>
runControlGroups(const UserStudyOptions &Options) {
  std::vector<std::vector<GroupOutcome>> Table(
      3, std::vector<GroupOutcome>(3));
  const Task Tasks[] = {Task::HotspotAnalysis, Task::BottomUpAnalysis,
                        Task::MultiProfileLeak};
  const Tool Tools[] = {Tool::EasyView, Tool::Goland, Tool::Pprof};
  for (size_t TI = 0; TI < 3; ++TI) {
    for (size_t LI = 0; LI < 3; ++LI) {
      GroupOutcome &G = Table[TI][LI];
      G.Participants = Options.ParticipantsPerGroup;
      double Sum = 0.0;
      for (size_t U = 0; U < Options.ParticipantsPerGroup; ++U) {
        TaskOutcome O = simulateParticipant(
            Tools[LI], Tasks[TI],
            Options.Seed * 1000003 + TI * 101 + LI * 17 + U,
            Options.BudgetMinutes);
        Sum += O.Minutes;
        if (O.Completed)
          ++G.Completed;
      }
      G.MeanMinutes = Sum / static_cast<double>(Options.ParticipantsPerGroup);
    }
  }
  return Table;
}

std::vector<ViewVote> simulateViewSurvey(uint64_t Seed,
                                         size_t Participants) {
  // Per-view helpfulness probabilities behind the Fig. 8 bar heights:
  // flame graphs beat tree tables; within each family top-down leads.
  struct ViewModel {
    const char *Name;
    double P;
  };
  const ViewModel Views[] = {
      {"flame top-down", 0.90},  {"flame bottom-up", 0.62},
      {"flame flat", 0.45},      {"tree-table top-down", 0.80},
      {"tree-table bottom-up", 0.50}, {"tree-table flat", 0.35},
  };
  Rng R(Seed);
  std::vector<ViewVote> Out;
  for (const ViewModel &V : Views) {
    size_t Votes = 0;
    for (size_t U = 0; U < Participants; ++U)
      if (R.chance(V.P))
        ++Votes;
    Out.push_back({V.Name, 100.0 * static_cast<double>(Votes) /
                               static_cast<double>(Participants)});
  }
  return Out;
}

} // namespace userstudy
} // namespace ev
